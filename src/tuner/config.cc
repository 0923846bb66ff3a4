#include "tuner/config.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/error.h"
#include "tuner/mutators.h"

namespace petabricks {
namespace tuner {

namespace {

/** Position of @p name in a name-sorted entry vector; @p kind names
 * the entry kind in the error a missing name raises. */
template <typename Entries>
size_t
findEntry(const Entries &entries, const std::string &name, const char *kind)
{
    auto it = std::lower_bound(entries.begin(), entries.end(), name,
                               [](const auto &entry, const std::string &key) {
                                   return entry.name < key;
                               });
    PB_ASSERT(it != entries.end() && it->name == name,
              "no " << kind << " '" << name << "'");
    return static_cast<size_t>(it - entries.begin());
}

template <typename Entries>
bool
hasEntry(const Entries &entries, const std::string &name)
{
    return std::any_of(entries.begin(), entries.end(),
                       [&](const auto &entry) { return entry.name == name; });
}

/** Same names, algorithm counts, bounds and sizeLike flags. */
bool
sameStructure(const ConfigSchema &a, const ConfigSchema &b)
{
    auto sameSelector = [](const SelectorSpec &x, const SelectorSpec &y) {
        return x.name == y.name && x.algorithmCount == y.algorithmCount;
    };
    auto sameTunable = [](const TunableSpec &x, const TunableSpec &y) {
        return x.name == y.name && x.minValue == y.minValue &&
               x.maxValue == y.maxValue && x.sizeLike == y.sizeLike;
    };
    return &a == &b ||
           (std::equal(a.selectors().begin(), a.selectors().end(),
                       b.selectors().begin(), b.selectors().end(),
                       sameSelector) &&
            std::equal(a.tunables().begin(), a.tunables().end(),
                       b.tunables().begin(), b.tunables().end(),
                       sameTunable));
}

} // namespace

// ---- ConfigSchema ------------------------------------------------------

void
ConfigSchema::Builder::addSelector(std::string name, int algorithmCount,
                                   int defaultAlgorithm)
{
    PB_ASSERT(algorithmCount >= 1, "selector needs at least 1 algorithm");
    PB_ASSERT(defaultAlgorithm >= 0 && defaultAlgorithm < algorithmCount,
              "default algorithm out of range");
    PB_ASSERT(!hasEntry(selectors_, name),
              "duplicate selector '" << name << "'");
    selectors_.push_back({std::move(name), algorithmCount, defaultAlgorithm});
}

void
ConfigSchema::Builder::addTunable(TunableSpec tunable)
{
    PB_ASSERT(tunable.minValue <= tunable.defaultValue &&
                  tunable.defaultValue <= tunable.maxValue,
              "tunable '" << tunable.name << "' value out of bounds");
    PB_ASSERT(!hasEntry(tunables_, tunable.name),
              "duplicate tunable '" << tunable.name << "'");
    tunables_.push_back(std::move(tunable));
}

ConfigSchemaPtr
ConfigSchema::Builder::build()
{
    return std::make_shared<const ConfigSchema>(std::move(selectors_),
                                                std::move(tunables_));
}

ConfigSchema::ConfigSchema(std::vector<SelectorSpec> selectors,
                           std::vector<TunableSpec> tunables)
    : selectors_(std::move(selectors)), tunables_(std::move(tunables))
{
    auto byName = [](const auto &a, const auto &b) { return a.name < b.name; };
    std::sort(selectors_.begin(), selectors_.end(), byName);
    std::sort(tunables_.begin(), tunables_.end(), byName);

    // Selector blocks first, then one word per tunable.
    size_t offset = 0;
    for (SelectorSpec &spec : selectors_) {
        spec.offset = offset;
        offset += kSelectorWords;
    }
    for (TunableSpec &spec : tunables_)
        spec.offset = offset++;

    defaults_.assign(offset, 0);
    for (const SelectorSpec &spec : selectors_) {
        defaults_[spec.offset] = 1;
        defaults_[spec.offset + kSelectorLevels] = spec.defaultAlgorithm;
    }
    for (const TunableSpec &spec : tunables_)
        defaults_[spec.offset] = spec.defaultValue;

    mutators_ = generateMutators(*this);
}

ConfigSchema::~ConfigSchema() = default;

size_t
ConfigSchema::selectorIndex(const std::string &name) const
{
    return findEntry(selectors_, name, "selector");
}

size_t
ConfigSchema::tunableIndex(const std::string &name) const
{
    return findEntry(tunables_, name, "tunable");
}

// ---- SelectorRef -------------------------------------------------------

void
SelectorRef::checkInvariants() const
{
    const size_t m = levels();
    PB_ASSERT(m >= 1 && m <= static_cast<size_t>(kSelectorLevels),
              "selector '" << name() << "' has " << m << " levels");
    std::span<const int64_t> cuts = cutoffs();
    for (size_t i = 0; i < cuts.size(); ++i)
        PB_ASSERT(cuts[i] >= 1 && (i == 0 || cuts[i - 1] <= cuts[i]),
                  "selector '" << name() << "' cutoffs out of order");
    for (int64_t alg : algorithms())
        PB_ASSERT(alg >= 0 && alg < algorithmCount(),
                  "selector '" << name() << "' algorithm out of range");
}

void
SelectorRef::insertLevel(int64_t cutoff, int algorithm)
{
    PB_ASSERT(algorithm >= 0 && algorithm < algorithmCount(),
              "algorithm out of range");
    PB_ASSERT(cutoff >= 1, "cutoff must be positive");
    const size_t m = levels();
    if (m >= static_cast<size_t>(kSelectorLevels))
        return; // full: every transform offers at most 12 levels
    int64_t *cuts = block() + 1;
    int64_t *algs = block() + kSelectorLevels;
    size_t pos = 0;
    while (pos < m - 1 && cuts[pos] < cutoff)
        ++pos;
    // Shift the tails up one slot; the new algorithm governs sizes
    // >= cutoff up to the next level.
    std::memmove(cuts + pos + 1, cuts + pos, (m - 1 - pos) * sizeof(int64_t));
    cuts[pos] = cutoff;
    std::memmove(algs + pos + 2, algs + pos + 1,
                 (m - 1 - pos) * sizeof(int64_t));
    algs[pos + 1] = algorithm;
    block()[0] = static_cast<int64_t>(m + 1);
    checkInvariants();
}

void
SelectorRef::removeLevel(size_t level)
{
    const size_t m = levels();
    PB_ASSERT(level < m, "level out of range");
    if (m == 1)
        return; // must keep at least one algorithm
    int64_t *cuts = block() + 1;
    int64_t *algs = block() + kSelectorLevels;
    std::memmove(algs + level, algs + level + 1,
                 (m - 1 - level) * sizeof(int64_t));
    algs[m - 1] = 0;
    size_t cut = level == 0 ? 0 : level - 1;
    std::memmove(cuts + cut, cuts + cut + 1, (m - 2 - cut) * sizeof(int64_t));
    cuts[m - 2] = 0;
    block()[0] = static_cast<int64_t>(m - 1);
    checkInvariants();
}

void
SelectorRef::setAlgorithm(size_t level, int algorithm)
{
    PB_ASSERT(level < levels(), "level out of range");
    PB_ASSERT(algorithm >= 0 && algorithm < algorithmCount(),
              "algorithm out of range");
    block()[kSelectorLevels + level] = algorithm;
}

void
SelectorRef::setCutoff(size_t index, int64_t value)
{
    const size_t cutoffCount = levels() - 1;
    PB_ASSERT(index < cutoffCount, "cutoff index out of range");
    PB_ASSERT(value >= 1, "cutoff must be positive");
    int64_t *cuts = block() + 1;
    int64_t lo = index == 0 ? 1 : cuts[index - 1];
    int64_t hi = index + 1 < cutoffCount
                     ? cuts[index + 1]
                     : std::numeric_limits<int64_t>::max();
    cuts[index] = std::min(hi, std::max(lo, value));
    checkInvariants();
}

// ---- Config ------------------------------------------------------------

Config::Config()
{
    static const ConfigSchemaPtr empty =
        std::make_shared<const ConfigSchema>(std::vector<SelectorSpec>{},
                                             std::vector<TunableSpec>{});
    schema_ = empty;
}

Config::Config(ConfigSchemaPtr schema)
    : schema_(std::move(schema)), values_(schema_->defaults())
{}

SelectorView
Config::selector(const std::string &name) const
{
    return selectorAt(schema_->selectorIndex(name));
}

SelectorRef
Config::selector(const std::string &name)
{
    return selectorAt(schema_->selectorIndex(name));
}

const TunableSpec &
Config::tunable(const std::string &name) const
{
    return schema_->tunables()[schema_->tunableIndex(name)];
}

int64_t
Config::tunableValue(const std::string &name) const
{
    return values_[tunable(name).offset];
}

void
Config::setTunable(const std::string &name, int64_t value)
{
    setTunableAt(schema_->tunableIndex(name), value);
}

void
Config::setTunableAt(size_t index, int64_t value)
{
    const TunableSpec &spec = tunableAt(index);
    PB_ASSERT(spec.minValue <= value && value <= spec.maxValue,
              "tunable '" << spec.name << "' value out of bounds");
    values_[spec.offset] = value;
}

KvFile
Config::toKv() const
{
    KvWriter kv;
    saveValues(kv, "");
    return KvFile::fromString(kv.render());
}

void
Config::saveValues(KvWriter &kv, std::string_view prefix) const
{
    std::string key(prefix); // one buffer for every key
    for (size_t i = 0; i < schema_->selectors().size(); ++i) {
        SelectorView s = selectorAt(i);
        key.resize(prefix.size());
        key += s.name();
        const size_t stem = key.size();
        key += ".cutoffs";
        kv.setIntList(key, s.cutoffs());
        key.resize(stem);
        key += ".algorithms";
        kv.setIntList(key, s.algorithms());
    }
    for (const TunableSpec &spec : schema_->tunables()) {
        key.resize(prefix.size());
        key += spec.name;
        kv.setInt(key, values_[spec.offset]);
    }
}

void
Config::loadValues(const KvFile &kv)
{
    // Checked into a fresh array, so a rejected file changes nothing.
    std::vector<int64_t> values(values_.size(), 0);
    for (const SelectorSpec &spec : schema_->selectors()) {
        const std::string &name = spec.name;
        std::vector<int64_t> cutoffs = kv.getIntList(name + ".cutoffs");
        std::vector<int64_t> algorithms =
            kv.getIntList(name + ".algorithms");
        for (int64_t a : algorithms)
            if (a < 0 || a >= spec.algorithmCount)
                PB_FATAL("selector '" << name << "' algorithm " << a
                                      << " out of range");
        if (algorithms.size() != cutoffs.size() + 1)
            PB_FATAL("selector '" << name << "' malformed in config file");
        if (algorithms.size() > static_cast<size_t>(kSelectorLevels))
            PB_FATAL("selector '" << name << "' has " << algorithms.size()
                                  << " levels, more than "
                                  << kSelectorLevels);
        for (size_t i = 0; i < cutoffs.size(); ++i) {
            if (cutoffs[i] < 1)
                PB_FATAL("selector '" << name << "' cutoff " << cutoffs[i]
                                      << " is below 1");
            if (i > 0 && cutoffs[i] < cutoffs[i - 1])
                PB_FATAL("selector '" << name << "' cutoffs descend ("
                                      << cutoffs[i - 1] << " then "
                                      << cutoffs[i] << ")");
        }
        int64_t *block = values.data() + spec.offset;
        block[0] = static_cast<int64_t>(algorithms.size());
        std::copy(cutoffs.begin(), cutoffs.end(), block + 1);
        std::copy(algorithms.begin(), algorithms.end(),
                  block + kSelectorLevels);
    }
    for (const TunableSpec &spec : schema_->tunables()) {
        int64_t v = kv.getInt(spec.name);
        if (v < spec.minValue || v > spec.maxValue)
            PB_FATAL("tunable '" << spec.name << "' value " << v
                                 << " outside [" << spec.minValue << ", "
                                 << spec.maxValue << "]");
        values[spec.offset] = v;
    }
    values_ = std::move(values);
}

uint64_t
Config::valueFingerprint() const
{
    // FNV-1a over the structure in sorted-name order, with separator
    // words so adjacent fields cannot alias. Stable across processes,
    // which the checkpoint schema check relies on.
    uint64_t hash = 1469598103934665603ull;
    auto mix = [&hash](uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    };
    auto mixString = [&hash](const std::string &text) {
        for (unsigned char c : text) {
            hash ^= c;
            hash *= 1099511628211ull;
        }
    };
    for (const SelectorSpec &spec : schema_->selectors()) {
        const int64_t *block = values_.data() + spec.offset;
        const size_t levels = static_cast<size_t>(block[0]);
        mixString(spec.name);
        mix(0xc07f0ff5u);
        for (size_t i = 0; i + 1 < levels; ++i)
            mix(static_cast<uint64_t>(block[1 + i]));
        mix(0xa19051u);
        for (size_t i = 0; i < levels; ++i)
            mix(static_cast<uint64_t>(block[kSelectorLevels + i]));
    }
    for (const TunableSpec &spec : schema_->tunables()) {
        mixString(spec.name);
        mix(static_cast<uint64_t>(values_[spec.offset]));
    }
    return hash;
}

double
Config::log10SpaceSize(int64_t maxInputSize) const
{
    double logSize = 0.0;
    double logMax = std::log10(static_cast<double>(maxInputSize));
    for (const SelectorSpec &spec : schema_->selectors()) {
        // Up to kSelectorLevels algorithm slots and kSelectorLevels-1
        // free cutoff placements in [1, maxInput].
        logSize += kSelectorLevels *
                   std::log10(static_cast<double>(spec.algorithmCount));
        logSize += (kSelectorLevels - 1) * logMax;
    }
    for (const TunableSpec &spec : schema_->tunables()) {
        double range =
            static_cast<double>(spec.maxValue - spec.minValue + 1);
        logSize += std::log10(range);
    }
    return logSize;
}

bool
Config::operator==(const Config &other) const
{
    return values_ == other.values_ && sameStructure(*schema_, *other.schema_);
}

} // namespace tuner
} // namespace petabricks
