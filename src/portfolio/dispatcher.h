/**
 * @file
 * Input-adaptive dispatch over a ChampionPortfolio.
 *
 * Given (benchmark, n, machine), pick the stored champion that should
 * run — the paper's portability claim turned into a lookup:
 *
 *  1. *Exact hit*: a champion tuned at exactly (machine, n) is served
 *     as stored, no pricing.
 *  2. *Nearest-size pricing*: otherwise the topK champions tuned on
 *     this machine nearest to n (log-scale distance) are priced under
 *     the cost model at n and the cheapest wins. Because both ladder
 *     neighbors of an in-between n are always among the topK (topK is
 *     clamped to >= 2), the selected champion is never worse under
 *     the model than the worse of its neighbors.
 *  3. *Foreign fallback*: with nothing tuned for this machine at all,
 *     champions tuned on other machines are priced the same way —
 *     degraded but deterministic, never an error while the portfolio
 *     holds any champion for the benchmark.
 *
 * Every step is deterministic: candidate order is the portfolio's
 * stable key order, pricing is the pure model, and ties break on
 * (modeled seconds, |log-distance|, input size, machine name). Same
 * portfolio + same query => same config fingerprint, across runs and
 * across daemon restarts.
 *
 * A dispatch reads the benchmark's ChampionIndex: one shared_ptr copy
 * under the portfolio's lock, which it then drops, so pricing never
 * holds the lock. The exact hit and the machine's run are binary
 * searches, and candidates are ranked by pointer; the winner is the
 * one record copied. A put() during a dispatch swaps in a new index,
 * so the dispatch decides on the portfolio as it was when it began.
 */

#ifndef PETABRICKS_PORTFOLIO_DISPATCHER_H
#define PETABRICKS_PORTFOLIO_DISPATCHER_H

#include <string>

#include "benchmarks/benchmark.h"
#include "portfolio/portfolio.h"
#include "sim/machine.h"

namespace petabricks {
namespace portfolio {

/** Dispatch policy knobs. */
struct DispatchOptions
{
    /** Candidates priced in the nearest-size fallback (clamped >= 2
     * so both ladder neighbors of an in-between n compete). */
    int topK = 8;

    /**
     * Price champions tuned on *other* machines alongside the native
     * ones (instead of only as a nothing-native fallback), and skip
     * the exact-hit short circuit so everything competes under the
     * model. This is how the portability matrix harness defines the
     * best-available program for a machine: the minimum over every
     * stored champion priced on it.
     */
    bool crossMachine = false;
};

/** What the dispatcher decided and why. */
struct DispatchDecision
{
    ChampionRecord champion;

    /** "exact", "priced", or "foreign" (winner was tuned elsewhere). */
    std::string policy;

    /** Modeled seconds of the winner at the queried n (the stored
     * champion seconds for an exact hit). */
    double pricedSeconds = 0.0;
};

/** See file comment. */
class Dispatcher
{
  public:
    /** @param portfolio champion store; must outlive the dispatcher. */
    explicit Dispatcher(const ChampionPortfolio &portfolio)
        : portfolio_(portfolio)
    {}

    /**
     * Select the champion to run for @p benchmark at size @p n on
     * @p machine. @throws FatalError when the portfolio holds no
     * champion for the benchmark at all.
     */
    DispatchDecision dispatch(const apps::Benchmark &benchmark, int64_t n,
                              const sim::MachineProfile &machine,
                              const DispatchOptions &options = {}) const;

  private:
    const ChampionPortfolio &portfolio_;
};

} // namespace portfolio
} // namespace petabricks

#endif // PETABRICKS_PORTFOLIO_DISPATCHER_H
