/**
 * @file
 * The autotuner's configuration representation (paper Section 5.1).
 *
 * A configuration holds two structure kinds:
 *
 *  - *Selectors* make algorithmic choices that can differ by input
 *    size: a selector s is cutoffs C = [c1..c(m-1)] with algorithms
 *    A = [a1..am], and SELECT(input, s) = a_i such that
 *    c_i > size(input) >= c_(i-1) (c_0 = 0, c_m = inf). Selectors let
 *    the tuner build poly-algorithms that switch technique at recursive
 *    call sites.
 *
 *  - *Tunables* are bounded positive integers: OpenCL local work
 *    sizes, sequential/parallel cutoffs, GPU-CPU ratios (eighths),
 *    split sizes, and user-defined parameters.
 *
 * Configurations serialize to the flat key/value *choice configuration
 * file* that the compiled program consumes (Figure 3).
 */

#ifndef PETABRICKS_TUNER_CONFIG_H
#define PETABRICKS_TUNER_CONFIG_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/error.h"
#include "support/kvfile.h"

namespace petabricks {
namespace tuner {

/** Number of input-size levels every selector provides (Section 5.3). */
inline constexpr int kSelectorLevels = 12;

/** An input-size-dispatched algorithmic choice. */
class Selector
{
  public:
    Selector() = default;

    /**
     * @param name key prefix in the config file.
     * @param algorithmCount size of the discrete choice set.
     * @param defaultAlgorithm initial choice for all input sizes.
     */
    Selector(std::string name, int algorithmCount,
             int defaultAlgorithm = 0);

    const std::string &name() const { return name_; }
    int algorithmCount() const { return algorithmCount_; }

    /** The SELECT runtime function. */
    int select(int64_t inputSize) const;

    /** Number of levels (algorithm entries); cutoffs are levels()-1. */
    size_t levels() const { return algorithms_.size(); }

    const std::vector<int64_t> &cutoffs() const { return cutoffs_; }
    const std::vector<int> &algorithms() const { return algorithms_; }

    /** @{ Mutation primitives used by the selector mutators. */
    void insertLevel(int64_t cutoff, int algorithm);
    void removeLevel(size_t level);
    void setAlgorithm(size_t level, int algorithm);
    void setCutoff(size_t index, int64_t value);
    /** @} */

    /** Write into @p kv under this selector's key prefix, itself
     * prefixed by @p prefix. */
    void save(KvFile &kv, const std::string &prefix = "") const;

    /** Read back a selector saved by save(). */
    static Selector load(const KvFile &kv, const std::string &name,
                         int algorithmCount);

    bool operator==(const Selector &other) const = default;

  private:
    void checkInvariants() const;

    std::string name_;
    int algorithmCount_ = 1;
    std::vector<int64_t> cutoffs_;   // ascending, size = levels-1
    std::vector<int> algorithms_;    // size = levels
};

/** A bounded integer tunable parameter. */
struct Tunable
{
    std::string name;
    int64_t minValue = 1;
    int64_t maxValue = 1;
    int64_t value = 1;

    /**
     * True for parameters compared against input sizes (cutoffs, split
     * sizes): mutators scale these lognormally; others are resampled
     * uniformly (Section 5.2).
     */
    bool sizeLike = false;

    int64_t
    clamp(int64_t v) const
    {
        return std::min(maxValue, std::max(minValue, v));
    }

    bool operator==(const Tunable &other) const = default;
};

/** A full choice configuration: selectors + tunables. */
class Config
{
  public:
    /** Add a selector (name must be unique). */
    void addSelector(Selector selector);

    /** Add a tunable (name must be unique). */
    void addTunable(Tunable tunable);

    bool hasSelector(const std::string &name) const;
    Selector &selector(const std::string &name);
    const Selector &selector(const std::string &name) const;

    bool hasTunable(const std::string &name) const;
    Tunable &tunable(const std::string &name);
    const Tunable &tunable(const std::string &name) const;

    /** Convenience: current value of tunable @p name. */
    int64_t
    tunableValue(const std::string &name) const
    {
        return tunable(name).value;
    }

    // ---- Index-based access (the model-mode fast path) ----------------
    //
    // Selectors and tunables are stored sorted by name, so a position
    // resolved once against one configuration stays valid for every
    // structurally identical configuration (all candidates of a tuning
    // run share the seed's structure; mutators only change values).
    // Evaluation contexts resolve names to indices once per batch and
    // the per-config hot loop uses O(1) lookups with no string
    // construction.

    size_t selectorCount() const { return selectors_.size(); }
    size_t tunableCount() const { return tunables_.size(); }

    /** Position of selector @p name in sorted-name order; fatal if
     * missing. */
    size_t selectorIndex(const std::string &name) const;

    /** Position of tunable @p name in sorted-name order; fatal if
     * missing. */
    size_t tunableIndex(const std::string &name) const;

    const Selector &
    selectorAt(size_t index) const
    {
        PB_ASSERT(index < selectors_.size(),
                  "selector index " << index << " out of range");
        return selectors_[index].second;
    }

    const Tunable &
    tunableAt(size_t index) const
    {
        PB_ASSERT(index < tunables_.size(),
                  "tunable index " << index << " out of range");
        return tunables_[index].second;
    }

    /** Convenience: current value of the tunable at @p index. */
    int64_t tunableValueAt(size_t index) const
    {
        return tunableAt(index).value;
    }

    std::vector<std::string> selectorNames() const;
    std::vector<std::string> tunableNames() const;

    /** Serialize to the choice configuration file format. */
    KvFile toKv() const;

    /**
     * Write toKv()'s entries straight into @p kv, each key prefixed by
     * @p prefix (how a checkpoint stores its population members).
     */
    void saveValues(KvFile &kv, const std::string &prefix) const;

    /**
     * Deserialize values into a structurally identical config (this
     * config provides the schema: names, bounds, algorithm counts).
     */
    void loadValues(const KvFile &kv);

    /**
     * 64-bit hash of this configuration's *values* (selector levels
     * and tunable settings): equal configurations hash equal across
     * processes — the EvaluationCache key and the TuningSession
     * checkpoint schema check. The hash is a sequential FNV-1a, so it
     * is stable only because selectors and tunables iterate in
     * sorted-name (std::map) order, independent of insertion order.
     * Cheaper than hashing the serialized toKv() text, which matters
     * on the tuner's hot path.
     */
    uint64_t valueFingerprint() const;

    /**
     * log10 of the size of the search space this configuration spans
     * (Figure 8's "# possible configs"): every selector contributes
     * algorithmCount^levels * maxInput^(levels-1) (cutoff placements),
     * every tunable its range size.
     */
    double log10SpaceSize(int64_t maxInputSize) const;

    bool operator==(const Config &other) const = default;

  private:
    // Sorted by name (the old std::map iteration order, on which the
    // serialization format and valueFingerprint() depend), but with the
    // O(1) positional access the evaluation fast path needs and cheaper
    // copies for the mutation-heavy tuner loop.
    std::vector<std::pair<std::string, Selector>> selectors_;
    std::vector<std::pair<std::string, Tunable>> tunables_;
};

} // namespace tuner
} // namespace petabricks

#endif // PETABRICKS_TUNER_CONFIG_H
