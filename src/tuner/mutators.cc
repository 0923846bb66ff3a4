#include "tuner/mutators.h"

#include "support/error.h"

namespace petabricks {
namespace tuner {

namespace {

bool
targetsSelector(Mutator::Kind kind)
{
    return kind != Mutator::Kind::TunableLognormal &&
           kind != Mutator::Kind::TunableUniform;
}

} // namespace

Mutator::Mutator(Kind kind, const ConfigSchema &schema,
                 const std::string &name)
    : kind_(kind),
      index_(targetsSelector(kind) ? schema.selectorIndex(name)
                                   : schema.tunableIndex(name)),
      target_(targetsSelector(kind) ? &schema.selectors()[index_].name
                                    : &schema.tunables()[index_].name)
{}

bool
Mutator::apply(Config &config, Rng &rng, int64_t currentInputSize) const
{
    switch (kind_) {
      case Kind::SelectorAddLevel: {
        SelectorRef s = config.selectorAt(index_);
        if (s.levels() >= static_cast<size_t>(kSelectorLevels))
            return false;
        // Seed the new cutoff near the size under test, jittered
        // lognormally so repeated applications spread out.
        int64_t cutoff =
            rng.lognormalScale(std::max<int64_t>(currentInputSize, 2));
        int algorithm =
            static_cast<int>(rng.uniformInt(0, s.algorithmCount() - 1));
        s.insertLevel(cutoff, algorithm);
        return true;
      }
      case Kind::SelectorRemoveLevel: {
        SelectorRef s = config.selectorAt(index_);
        if (s.levels() <= 1)
            return false;
        s.removeLevel(static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(s.levels()) - 1)));
        return true;
      }
      case Kind::SelectorChangeAlgorithm: {
        SelectorRef s = config.selectorAt(index_);
        if (s.algorithmCount() <= 1)
            return false;
        size_t level = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(s.levels()) - 1));
        // Uniform redraw (paper: "values choosing from a set of
        // choices ... are chosen uniform randomly when mutated").
        s.setAlgorithm(level, static_cast<int>(rng.uniformInt(
                                  0, s.algorithmCount() - 1)));
        return true;
      }
      case Kind::SelectorScaleCutoff: {
        SelectorRef s = config.selectorAt(index_);
        if (s.cutoffs().empty())
            return false;
        size_t index = static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(s.cutoffs().size()) - 1));
        // Lognormal scaling: halving as likely as doubling.
        s.setCutoff(index, rng.lognormalScale(s.cutoffs()[index]));
        return true;
      }
      case Kind::TunableLognormal: {
        const TunableSpec &t = config.tunableAt(index_);
        int64_t value = config.tunableValueAt(index_);
        int64_t next =
            t.clamp(rng.lognormalScale(std::max<int64_t>(value, 1)));
        if (next == value)
            return false;
        config.setTunableAt(index_, next);
        return true;
      }
      case Kind::TunableUniform: {
        const TunableSpec &t = config.tunableAt(index_);
        if (t.maxValue == t.minValue)
            return false;
        config.setTunableAt(index_, rng.uniformInt(t.minValue, t.maxValue));
        return true;
      }
    }
    PB_PANIC("bad mutator kind");
}

std::string
Mutator::name() const
{
    switch (kind_) {
      case Kind::SelectorAddLevel: return "add-level:" + *target_;
      case Kind::SelectorRemoveLevel: return "remove-level:" + *target_;
      case Kind::SelectorChangeAlgorithm: return "change-alg:" + *target_;
      case Kind::SelectorScaleCutoff: return "scale-cutoff:" + *target_;
      case Kind::TunableLognormal: return "lognormal:" + *target_;
      case Kind::TunableUniform: return "uniform:" + *target_;
    }
    PB_PANIC("bad mutator kind");
}

std::vector<Mutator>
generateMutators(const ConfigSchema &schema)
{
    std::vector<Mutator> mutators;
    mutators.reserve(4 * schema.selectors().size() +
                     schema.tunables().size());
    for (const SelectorSpec &spec : schema.selectors())
        for (Mutator::Kind kind : {Mutator::Kind::SelectorAddLevel,
                                   Mutator::Kind::SelectorRemoveLevel,
                                   Mutator::Kind::SelectorChangeAlgorithm,
                                   Mutator::Kind::SelectorScaleCutoff})
            mutators.emplace_back(kind, schema, spec.name);
    for (const TunableSpec &spec : schema.tunables())
        mutators.emplace_back(spec.sizeLike
                                  ? Mutator::Kind::TunableLognormal
                                  : Mutator::Kind::TunableUniform,
                              schema, spec.name);
    return mutators;
}

} // namespace tuner
} // namespace petabricks
