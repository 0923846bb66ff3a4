/**
 * @file
 * The walk of an analytic cost model (Sort's, and the matmul that
 * Strassen and SVD share): each call consults the selector once and
 * recurses at most once, so the levels a model visits form a chain
 * that only the configuration and n decide. The model folds the chain
 * bottom-up into seconds; its kernel list and Figure 6 text read it.
 */

#ifndef PETABRICKS_BENCHMARKS_LEVEL_CHAIN_H
#define PETABRICKS_BENCHMARKS_LEVEL_CHAIN_H

#include <array>
#include <cstdint>
#include <string>

#include "support/error.h"

namespace petabricks {
namespace apps {

/** Work/span pair in seconds: what a fold carries up a chain. */
struct WorkSpan
{
    double work = 0.0;
    double span = 0.0;
};

/** One level: the algorithm a recursion runs at input size n. */
struct Level
{
    int64_t n;
    int alg;
};

/** The levels a recursion visits, from the top call down; each at
 * least halves n, so one per bit of n and a leaf fit. */
class LevelChain
{
  public:
    // push() writes each level before anything reads it, so the 1 KB
    // of storage stays uninitialized: zeroing it on every walk would
    // show in the cheapest models (Strassen and SVD price in ~50 ns).
    LevelChain() {}

    void
    push(int64_t n, int alg)
    {
        PB_ASSERT(size_ < levels_.size(), "recursion too deep");
        levels_[size_++] = {n, alg};
    }

    size_t size() const { return size_; }
    const Level &operator[](size_t i) const { return levels_[i]; }
    const Level &back() const { return levels_[size_ - 1]; }

  private:
    std::array<Level, 64> levels_;
    size_t size_ = 0;
};

/** Figure 6 text of @p chain: its algorithms (named by @p names) from
 * the top down, run-length encoded: "QS, then RS below 131073". */
inline std::string
describeLevels(const LevelChain &chain, const char *const names[])
{
    std::string out = chain.size() ? names[chain[0].alg] : "";
    for (size_t i = 1; i < chain.size(); ++i)
        if (chain[i].alg != chain[i - 1].alg)
            out += std::string(", then ") + names[chain[i].alg] +
                   " below " + std::to_string(chain[i].n + 1);
    return out;
}

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_LEVEL_CHAIN_H
