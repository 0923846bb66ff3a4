#include "tuner/config.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"

namespace {

/** lower_bound over a name-sorted entry vector. */
template <typename Entries>
auto
findEntry(Entries &entries, const std::string &name)
{
    return std::lower_bound(entries.begin(), entries.end(), name,
                            [](const auto &entry, const std::string &key) {
                                return entry.first < key;
                            });
}

} // namespace

namespace petabricks {
namespace tuner {

Selector::Selector(std::string name, int algorithmCount,
                   int defaultAlgorithm)
    : name_(std::move(name)), algorithmCount_(algorithmCount)
{
    PB_ASSERT(algorithmCount >= 1, "selector needs at least 1 algorithm");
    PB_ASSERT(defaultAlgorithm >= 0 && defaultAlgorithm < algorithmCount,
              "default algorithm out of range");
    algorithms_.push_back(defaultAlgorithm);
}

void
Selector::checkInvariants() const
{
    PB_ASSERT(algorithms_.size() == cutoffs_.size() + 1,
              "selector '" << name_ << "' level/cutoff mismatch");
    for (size_t i = 1; i < cutoffs_.size(); ++i)
        PB_ASSERT(cutoffs_[i - 1] <= cutoffs_[i],
                  "selector '" << name_ << "' cutoffs out of order");
    for (int alg : algorithms_)
        PB_ASSERT(alg >= 0 && alg < algorithmCount_,
                  "selector '" << name_ << "' algorithm out of range");
}

int
Selector::select(int64_t inputSize) const
{
    // SELECT(input, s) = alpha_i s.t. c_i > size >= c_(i-1),
    // with c_0 = 0 and c_m = infinity.
    size_t i = 0;
    while (i < cutoffs_.size() && inputSize >= cutoffs_[i])
        ++i;
    return algorithms_[i];
}

void
Selector::insertLevel(int64_t cutoff, int algorithm)
{
    PB_ASSERT(algorithm >= 0 && algorithm < algorithmCount_,
              "algorithm out of range");
    PB_ASSERT(cutoff >= 1, "cutoff must be positive");
    if (levels() >= static_cast<size_t>(kSelectorLevels))
        return; // full: every transform offers at most 12 levels
    size_t pos = 0;
    while (pos < cutoffs_.size() && cutoffs_[pos] < cutoff)
        ++pos;
    cutoffs_.insert(cutoffs_.begin() + static_cast<int64_t>(pos), cutoff);
    // The new algorithm governs sizes >= cutoff up to the next level.
    algorithms_.insert(
        algorithms_.begin() + static_cast<int64_t>(pos) + 1, algorithm);
    checkInvariants();
}

void
Selector::removeLevel(size_t level)
{
    PB_ASSERT(level < algorithms_.size(), "level out of range");
    if (algorithms_.size() == 1)
        return; // must keep at least one algorithm
    algorithms_.erase(algorithms_.begin() + static_cast<int64_t>(level));
    size_t cut = level == 0 ? 0 : level - 1;
    cutoffs_.erase(cutoffs_.begin() + static_cast<int64_t>(cut));
    checkInvariants();
}

void
Selector::setAlgorithm(size_t level, int algorithm)
{
    PB_ASSERT(level < algorithms_.size(), "level out of range");
    PB_ASSERT(algorithm >= 0 && algorithm < algorithmCount_,
              "algorithm out of range");
    algorithms_[level] = algorithm;
}

void
Selector::setCutoff(size_t index, int64_t value)
{
    PB_ASSERT(index < cutoffs_.size(), "cutoff index out of range");
    PB_ASSERT(value >= 1, "cutoff must be positive");
    int64_t lo = index == 0 ? 1 : cutoffs_[index - 1];
    int64_t hi = index + 1 < cutoffs_.size()
                     ? cutoffs_[index + 1]
                     : std::numeric_limits<int64_t>::max();
    cutoffs_[index] = std::min(hi, std::max(lo, value));
    checkInvariants();
}

void
Selector::save(KvFile &kv, const std::string &prefix) const
{
    kv.setIntList(prefix + name_ + ".cutoffs", cutoffs_);
    std::vector<int64_t> algs(algorithms_.begin(), algorithms_.end());
    kv.setIntList(prefix + name_ + ".algorithms", algs);
}

Selector
Selector::load(const KvFile &kv, const std::string &name,
               int algorithmCount)
{
    Selector s(name, algorithmCount);
    s.cutoffs_ = kv.getIntList(name + ".cutoffs");
    s.algorithms_.clear();
    for (int64_t a : kv.getIntList(name + ".algorithms")) {
        if (a < 0 || a >= algorithmCount)
            PB_FATAL("selector '" << name << "' algorithm " << a
                                  << " out of range");
        s.algorithms_.push_back(static_cast<int>(a));
    }
    if (s.algorithms_.size() != s.cutoffs_.size() + 1)
        PB_FATAL("selector '" << name << "' malformed in config file");
    s.checkInvariants();
    return s;
}

void
Config::addSelector(Selector selector)
{
    std::string name = selector.name();
    auto it = findEntry(selectors_, name);
    PB_ASSERT(it == selectors_.end() || it->first != name,
              "duplicate selector '" << name << "'");
    selectors_.emplace(it, std::move(name), std::move(selector));
}

void
Config::addTunable(Tunable tunable)
{
    PB_ASSERT(tunable.minValue <= tunable.value &&
                  tunable.value <= tunable.maxValue,
              "tunable '" << tunable.name << "' value out of bounds");
    std::string name = tunable.name;
    auto it = findEntry(tunables_, name);
    PB_ASSERT(it == tunables_.end() || it->first != name,
              "duplicate tunable '" << name << "'");
    tunables_.emplace(it, std::move(name), std::move(tunable));
}

bool
Config::hasSelector(const std::string &name) const
{
    auto it = findEntry(selectors_, name);
    return it != selectors_.end() && it->first == name;
}

Selector &
Config::selector(const std::string &name)
{
    auto it = findEntry(selectors_, name);
    PB_ASSERT(it != selectors_.end() && it->first == name,
              "no selector '" << name << "'");
    return it->second;
}

const Selector &
Config::selector(const std::string &name) const
{
    auto it = findEntry(selectors_, name);
    PB_ASSERT(it != selectors_.end() && it->first == name,
              "no selector '" << name << "'");
    return it->second;
}

bool
Config::hasTunable(const std::string &name) const
{
    auto it = findEntry(tunables_, name);
    return it != tunables_.end() && it->first == name;
}

Tunable &
Config::tunable(const std::string &name)
{
    auto it = findEntry(tunables_, name);
    PB_ASSERT(it != tunables_.end() && it->first == name,
              "no tunable '" << name << "'");
    return it->second;
}

const Tunable &
Config::tunable(const std::string &name) const
{
    auto it = findEntry(tunables_, name);
    PB_ASSERT(it != tunables_.end() && it->first == name,
              "no tunable '" << name << "'");
    return it->second;
}

size_t
Config::selectorIndex(const std::string &name) const
{
    auto it = findEntry(selectors_, name);
    PB_ASSERT(it != selectors_.end() && it->first == name,
              "no selector '" << name << "'");
    return static_cast<size_t>(it - selectors_.begin());
}

size_t
Config::tunableIndex(const std::string &name) const
{
    auto it = findEntry(tunables_, name);
    PB_ASSERT(it != tunables_.end() && it->first == name,
              "no tunable '" << name << "'");
    return static_cast<size_t>(it - tunables_.begin());
}

std::vector<std::string>
Config::selectorNames() const
{
    std::vector<std::string> names;
    for (const auto &kv : selectors_)
        names.push_back(kv.first);
    return names;
}

std::vector<std::string>
Config::tunableNames() const
{
    std::vector<std::string> names;
    for (const auto &kv : tunables_)
        names.push_back(kv.first);
    return names;
}

KvFile
Config::toKv() const
{
    KvFile kv;
    saveValues(kv, "");
    return kv;
}

void
Config::saveValues(KvFile &kv, const std::string &prefix) const
{
    for (const auto &[name, selector] : selectors_)
        selector.save(kv, prefix);
    for (const auto &[name, tunable] : tunables_)
        kv.setInt(prefix + name, tunable.value);
}

void
Config::loadValues(const KvFile &kv)
{
    for (auto &[name, selector] : selectors_)
        selector = Selector::load(kv, name, selector.algorithmCount());
    for (auto &[name, tunable] : tunables_) {
        int64_t v = kv.getInt(name);
        if (v < tunable.minValue || v > tunable.maxValue)
            PB_FATAL("tunable '" << name << "' value " << v
                                 << " outside [" << tunable.minValue
                                 << ", " << tunable.maxValue << "]");
        tunable.value = v;
    }
}

uint64_t
Config::valueFingerprint() const
{
    // FNV-1a over the structure in map (= sorted-name) order, with
    // separator words so adjacent fields cannot alias. Stable across
    // processes, which the checkpoint schema check relies on.
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
    for (const auto &[name, selector] : selectors_) {
        mixString(name);
        mix(0xc07f0ff5u);
        for (int64_t cutoff : selector.cutoffs())
            mix(static_cast<uint64_t>(cutoff));
        mix(0xa19051u);
        for (int algorithm : selector.algorithms())
            mix(static_cast<uint64_t>(algorithm));
    }
    for (const auto &[name, tunable] : tunables_) {
        mixString(name);
        mix(static_cast<uint64_t>(tunable.value));
    }
    return hash;
}

double
Config::log10SpaceSize(int64_t maxInputSize) const
{
    double logSize = 0.0;
    double logMax = std::log10(static_cast<double>(maxInputSize));
    for (const auto &[name, selector] : selectors_) {
        // Up to kSelectorLevels algorithm slots and kSelectorLevels-1
        // free cutoff placements in [1, maxInput].
        logSize += kSelectorLevels *
                   std::log10(static_cast<double>(
                       selector.algorithmCount()));
        logSize += (kSelectorLevels - 1) * logMax;
    }
    for (const auto &[name, tunable] : tunables_) {
        double range = static_cast<double>(tunable.maxValue -
                                           tunable.minValue + 1);
        logSize += std::log10(range);
    }
    return logSize;
}

} // namespace tuner
} // namespace petabricks
