/**
 * @file
 * Mutation operators (paper Section 5.2).
 *
 * "Mutators are functions that create a new algorithm configuration by
 * changing an existing configuration. The set of mutator functions is
 * different for each program, and is generated fully automatically with
 * the static analysis information extracted by the compiler."
 *
 * Three families, as in the paper:
 *  - selector manipulation: add, remove, or change a level of a
 *    specific selector;
 *  - cutoff/size scaling: values compared against input sizes are
 *    scaled by a lognormal factor (halving as likely as doubling);
 *  - tunable manipulation: non-size tunables are resampled uniformly.
 */

#ifndef PETABRICKS_TUNER_MUTATORS_H
#define PETABRICKS_TUNER_MUTATORS_H

#include <string>
#include <vector>

#include "support/rng.h"
#include "tuner/config.h"

namespace petabricks {
namespace tuner {

/**
 * A configuration mutation operator: one of the families above applied
 * to one selector or tunable, which it addresses by position, so it
 * applies to every configuration of its schema (or of one with the
 * same structure).
 */
class Mutator
{
  public:
    enum class Kind
    {
        SelectorAddLevel,        ///< add a level at a lognormal cutoff
        SelectorRemoveLevel,     ///< remove a random level
        SelectorChangeAlgorithm, ///< redraw a random level's algorithm
        SelectorScaleCutoff,     ///< scale a random cutoff lognormally
        TunableLognormal,        ///< scale a size-like tunable lognormally
        TunableUniform,          ///< resample a tunable uniformly
    };

    /**
     * The @p kind mutator of the selector (the Selector kinds) or
     * tunable (the Tunable kinds) named @p name in @p schema. It refers
     * to the schema's copy of the name, so it is valid while @p schema
     * lives.
     */
    Mutator(Kind kind, const ConfigSchema &schema, const std::string &name);

    /**
     * Mutate @p config in place.
     * @param currentInputSize the size the tuner is currently testing;
     *        new cutoffs are seeded near it.
     * @return false if the mutation was a no-op (e.g. removing a level
     *         from a single-level selector).
     */
    bool apply(Config &config, Rng &rng, int64_t currentInputSize) const;

    /** "<family>:<target name>", e.g. "add-level:Sort.algorithm". */
    std::string name() const;

  private:
    Kind kind_;
    size_t index_;              ///< selector or tunable position
    const std::string *target_; ///< the name, owned by the schema
};

/**
 * Generate the full mutator set for @p schema — the automatic
 * per-program generation step: four mutators per selector plus one per
 * tunable (lognormal for size-like, uniform otherwise). Every schema
 * does this once, at construction (ConfigSchema::mutators()).
 */
std::vector<Mutator> generateMutators(const ConfigSchema &schema);

} // namespace tuner
} // namespace petabricks

#endif // PETABRICKS_TUNER_MUTATORS_H
