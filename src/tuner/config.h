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
 * The representation is split in two. A ConfigSchema is the structure:
 * every selector's and tunable's name, algorithm count, bounds,
 * sizeLike flag and position. It is immutable, built once per
 * benchmark instance and shared through a std::shared_ptr, because
 * champions and checkpoints outlive the benchmark that built them. A
 * Config is that schema plus one contiguous array of int64 values, so
 * copying a configuration is one allocation and a memcpy, and mutators
 * and evaluation fast paths address a value by position, never by
 * name.
 *
 * Configurations serialize to the flat key/value *choice configuration
 * file* that the compiled program consumes (Figure 3).
 */

#ifndef PETABRICKS_TUNER_CONFIG_H
#define PETABRICKS_TUNER_CONFIG_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/kvfile.h"

namespace petabricks {
namespace tuner {

/** Number of input-size levels every selector provides (Section 5.3). */
inline constexpr int kSelectorLevels = 12;

/**
 * Words one selector occupies in a Config's value array. The block
 * holds the level count m, then kSelectorLevels-1 cutoff slots, then
 * kSelectorLevels algorithm slots. Slots past the active m-1 cutoffs
 * and m algorithms are always zero, so two configurations with equal
 * active values have equal arrays.
 */
inline constexpr size_t kSelectorWords = 2 * kSelectorLevels;

/** Structure of one selector. */
struct SelectorSpec
{
    std::string name;
    int algorithmCount = 1;
    int defaultAlgorithm = 0; ///< the seed's choice for all sizes
    size_t offset = 0;        ///< first word of its block (schema-set)
};

/** Structure of one bounded integer tunable. */
struct TunableSpec
{
    std::string name;
    int64_t minValue = 1;
    int64_t maxValue = 1;
    int64_t defaultValue = 1;

    /**
     * True for parameters compared against input sizes (cutoffs, split
     * sizes): mutators scale these lognormally; others are resampled
     * uniformly (Section 5.2).
     */
    bool sizeLike = false;

    size_t offset = 0; ///< its word in the value array (schema-set)

    int64_t
    clamp(int64_t v) const
    {
        return std::min(maxValue, std::max(minValue, v));
    }
};

class Mutator;

/**
 * The immutable structure every configuration of one benchmark shares:
 * selectors and tunables sorted by name (the choice file's key order,
 * on which valueFingerprint() depends), each with its offset in the
 * value array, the seed values, and the mutator set (Section 5.2),
 * generated once here rather than once per search.
 */
class ConfigSchema
{
  public:
    /** Collects entries in any order; build() sorts and lays them out. */
    class Builder
    {
      public:
        /** Add a selector (name must be unique). */
        void addSelector(std::string name, int algorithmCount,
                         int defaultAlgorithm = 0);

        /** Add a tunable (name must be unique; offset is ignored). */
        void addTunable(TunableSpec tunable);

        /** The schema of every entry added so far; empties the
         * builder. */
        std::shared_ptr<const ConfigSchema> build();

      private:
        std::vector<SelectorSpec> selectors_;
        std::vector<TunableSpec> tunables_;
    };

    /** Sort the entries by name and lay them out (Builder::build()
     * checks them first). */
    ConfigSchema(std::vector<SelectorSpec> selectors,
                 std::vector<TunableSpec> tunables);
    ~ConfigSchema();
    ConfigSchema(const ConfigSchema &) = delete;
    ConfigSchema &operator=(const ConfigSchema &) = delete;

    const std::vector<SelectorSpec> &selectors() const { return selectors_; }
    const std::vector<TunableSpec> &tunables() const { return tunables_; }

    /** Position of selector/tunable @p name in sorted-name order; a
     * missing name is an internal error. */
    size_t selectorIndex(const std::string &name) const;
    size_t tunableIndex(const std::string &name) const;

    /** The seed configuration's value array. */
    const std::vector<int64_t> &defaults() const { return defaults_; }

    /** Four mutators per selector, then one per tunable (Mutator is
     * defined in tuner/mutators.h). */
    const std::vector<Mutator> &mutators() const { return mutators_; }

  private:
    std::vector<SelectorSpec> selectors_;
    std::vector<TunableSpec> tunables_;
    std::vector<int64_t> defaults_;
    std::vector<Mutator> mutators_;
};

using ConfigSchemaPtr = std::shared_ptr<const ConfigSchema>;

/** Read-only view of one selector's block in a Config. */
class SelectorView
{
  public:
    SelectorView(const SelectorSpec &spec, const int64_t *block)
        : spec_(&spec), block_(block)
    {}

    const std::string &name() const { return spec_->name; }
    int algorithmCount() const { return spec_->algorithmCount; }

    /** Number of levels (algorithm entries); cutoffs are levels()-1. */
    size_t levels() const { return static_cast<size_t>(block_[0]); }

    /** Ascending cutoffs, levels()-1 of them. */
    std::span<const int64_t>
    cutoffs() const
    {
        return {block_ + 1, levels() - 1};
    }

    /** One algorithm per level. */
    std::span<const int64_t>
    algorithms() const
    {
        return {block_ + kSelectorLevels, levels()};
    }

    /** The SELECT runtime function. */
    int
    select(int64_t inputSize) const
    {
        // SELECT(input, s) = alpha_i s.t. c_i > size >= c_(i-1),
        // with c_0 = 0 and c_m = infinity.
        const size_t cutoffCount = levels() - 1;
        size_t i = 0;
        while (i < cutoffCount && inputSize >= block_[1 + i])
            ++i;
        return static_cast<int>(block_[kSelectorLevels + i]);
    }

  protected:
    const SelectorSpec *spec_;
    const int64_t *block_;
};

/** Mutable handle on one selector's block (the mutation primitives). */
class SelectorRef : public SelectorView
{
  public:
    SelectorRef(const SelectorSpec &spec, int64_t *block)
        : SelectorView(spec, block)
    {}

    /** Split the level containing @p cutoff; a no-op when full. */
    void insertLevel(int64_t cutoff, int algorithm);
    /** Drop a level; a no-op on a single-level selector. */
    void removeLevel(size_t level);
    void setAlgorithm(size_t level, int algorithm);
    /** Set a cutoff, clamped between its neighbours. */
    void setCutoff(size_t index, int64_t value);

  private:
    int64_t *block() const { return const_cast<int64_t *>(block_); }
    void checkInvariants() const;
};

/** A full choice configuration: a shared schema plus its values. */
class Config
{
  public:
    /** A configuration with no selectors and no tunables. */
    Config();

    /** @p schema's seed: one level at each selector's default
     * algorithm, every tunable at its default. */
    explicit Config(ConfigSchemaPtr schema);

    const ConfigSchema &schema() const { return *schema_; }

    // ---- By-name access (real-mode poly-algorithms, tests) -----------

    SelectorView selector(const std::string &name) const;
    SelectorRef selector(const std::string &name);

    const TunableSpec &tunable(const std::string &name) const;

    /** Convenience: current value of tunable @p name. */
    int64_t tunableValue(const std::string &name) const;
    /** Set tunable @p name; the value must be within its bounds. */
    void setTunable(const std::string &name, int64_t value);

    // ---- Index-based access (the model-mode fast path) ----------------
    //
    // Positions are sorted-name order within the schema, so an index
    // resolved once against one benchmark instance's schema is valid
    // for every configuration of that benchmark, whichever instance
    // built its schema.

    SelectorView
    selectorAt(size_t index) const
    {
        const SelectorSpec &spec = selectorSpec(index);
        return {spec, values_.data() + spec.offset};
    }

    SelectorRef
    selectorAt(size_t index)
    {
        const SelectorSpec &spec = selectorSpec(index);
        return {spec, values_.data() + spec.offset};
    }

    const TunableSpec &
    tunableAt(size_t index) const
    {
        PB_ASSERT(index < schema_->tunables().size(),
                  "tunable index " << index << " out of range");
        return schema_->tunables()[index];
    }

    /** Convenience: current value of the tunable at @p index. */
    int64_t
    tunableValueAt(size_t index) const
    {
        return values_[tunableAt(index).offset];
    }

    /** Set the tunable at @p index; the value must be within bounds. */
    void setTunableAt(size_t index, int64_t value);

    /** Serialize to the choice configuration file format. */
    KvFile toKv() const;

    /**
     * Write toKv()'s entries into @p kv, each key prefixed by @p prefix
     * (how a checkpoint stores its population members).
     */
    void saveValues(KvWriter &kv, std::string_view prefix) const;

    /**
     * Replace this configuration's values with those in @p kv, read
     * against this configuration's schema. A selector with more than
     * kSelectorLevels levels, a cutoff below 1, descending cutoffs, an
     * algorithm outside its count or a tunable outside its bounds is a
     * FatalError naming the entry, and leaves the values unchanged.
     */
    void loadValues(const KvFile &kv);

    /**
     * 64-bit hash of this configuration's *values* (selector levels
     * and tunable settings): equal configurations hash equal across
     * processes — the EvaluationCache key and the TuningSession
     * checkpoint schema check. A sequential byte-wise FNV-1a over each
     * entry's name and active values in sorted-name order; segment
     * records, checkpoints and champions persist it, so its value
     * must not change.
     */
    uint64_t valueFingerprint() const;

    /**
     * log10 of the size of the search space this configuration spans
     * (Figure 8's "# possible configs"): every selector contributes
     * algorithmCount^levels * maxInput^(levels-1) (cutoff placements),
     * every tunable its range size.
     */
    double log10SpaceSize(int64_t maxInputSize) const;

    /** Same structure (names, counts, bounds) and same active values,
     * whether or not the two share one schema object. */
    bool operator==(const Config &other) const;

  private:
    const SelectorSpec &
    selectorSpec(size_t index) const
    {
        PB_ASSERT(index < schema_->selectors().size(),
                  "selector index " << index << " out of range");
        return schema_->selectors()[index];
    }

    ConfigSchemaPtr schema_;
    std::vector<int64_t> values_;
};

} // namespace tuner
} // namespace petabricks

#endif // PETABRICKS_TUNER_CONFIG_H
