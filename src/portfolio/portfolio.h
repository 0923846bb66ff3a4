/**
 * @file
 * ChampionPortfolio: a persistent store of tuned champions keyed
 * (benchmark, machine fingerprint, input size).
 *
 * The paper's headline claim is *portable* performance: a program
 * autotuned for one heterogeneous machine and one input size is not
 * the right program for another. Everything below the portfolio layer
 * tunes one (benchmark, n, machine) point at a time and returns one
 * champion; the portfolio is where those points accumulate into a
 * servable artifact — tuner::PortfolioTuner writes one champion per
 * rung of a size ladder, and the Dispatcher (dispatcher.h) answers
 * "which stored program should run for (benchmark, n, machine)?".
 *
 * Persistence follows the cache segment-store idiom: one kvfile per
 * champion sealed as `portfolio` v1 (KvFile::seal), the cost as exact
 * IEEE-754 bits (the human-readable decimal is advisory), writes
 * via temp-file + atomic rename, and a load pass that quarantines any
 * torn, corrupt or edited file (renamed to *.quarantine) instead of
 * failing the boot. Champions are keyed by machine *content* fingerprint
 * (MachineProfile::fingerprint()), so a profile edit orphans its old
 * champions rather than serving stale programs.
 */

#ifndef PETABRICKS_PORTFOLIO_PORTFOLIO_H
#define PETABRICKS_PORTFOLIO_PORTFOLIO_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tuner/config.h"

namespace petabricks {
namespace portfolio {

/** One tuned champion: the best configuration the search found for
 * one (benchmark, machine, input size) point, with its modeled cost. */
struct ChampionRecord
{
    std::string benchmark;
    std::string machineName;
    uint64_t machineFingerprint = 0;
    int64_t inputSize = 0;

    /** Champion cost at inputSize, preserved bit-exactly on disk. */
    double seconds = 0.0;

    tuner::Config config;

    /** Config::valueFingerprint() of config — the identity the
     * dispatch determinism guarantee is stated in. */
    uint64_t configFingerprint = 0;
};

/** One benchmark's champions, sorted by (machine fingerprint, input
 * size); never modified once published. */
using ChampionIndex = std::vector<std::shared_ptr<const ChampionRecord>>;

/** A contiguous run of a ChampionIndex. */
using ChampionRange = std::span<const std::shared_ptr<const ChampionRecord>>;

/** The run of @p index tuned on @p machineFingerprint, ascending by
 * input size; empty when that machine has no champion. */
ChampionRange machineRange(const ChampionIndex &index,
                           uint64_t machineFingerprint);

/** The champion of @p range (one machine's run) tuned at exactly
 * @p n, or null. */
const ChampionRecord *atSize(ChampionRange range, int64_t n);

/** Load/store accounting, for /stats and tests. */
struct PortfolioStats
{
    int64_t loaded = 0;      ///< records read back at construction
    int64_t quarantined = 0; ///< files renamed *.quarantine at load
    int64_t stored = 0;      ///< put() calls this process

    /** Champion writes that failed (ENOSPC/EIO, injected or real); the
     * in-memory record is kept and keeps serving dispatches. */
    int64_t writeFailures = 0;
};

/** See file comment. */
class ChampionPortfolio
{
  public:
    /**
     * @param dir champion directory; created if missing, and every
     *        unreadable champion file in it is quarantined (renamed to
     *        *.quarantine), never fatal. Empty means memory-only (no
     *        persistence) — bench harnesses and tests.
     */
    explicit ChampionPortfolio(std::string dir = "");

    /**
     * Store @p record, replacing any previous champion for its
     * (benchmark, machine fingerprint, input size) key; persisted
     * immediately (temp file + atomic rename) when a directory is
     * configured. The record's configFingerprint is recomputed from
     * its config, so callers cannot store a stale identity.
     */
    void put(ChampionRecord record);

    /** Champion at exactly (benchmark, machine fingerprint, n). */
    std::optional<ChampionRecord> exact(const std::string &benchmark,
                                        uint64_t machineFingerprint,
                                        int64_t n) const;

    /** Every champion for (benchmark, machine fingerprint), ascending
     * by input size. */
    std::vector<ChampionRecord>
    championsFor(const std::string &benchmark,
                 uint64_t machineFingerprint) const;

    /** Every champion for @p benchmark on any machine, in stable
     * (machine fingerprint, input size) order. */
    std::vector<ChampionRecord>
    allFor(const std::string &benchmark) const;

    /** Every champion, in stable key order. */
    std::vector<ChampionRecord> all() const;

    /** @p benchmark's index as it stands now, or null when the
     * benchmark has no champion. Later puts swap in a new vector and
     * leave this one untouched, so it is read without the lock. */
    std::shared_ptr<const ChampionIndex>
    index(std::string_view benchmark) const;

    size_t size() const;

    PortfolioStats stats() const;

    /** The configured directory ("" when memory-only). */
    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;

    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const ChampionIndex>, std::less<>>
        byBenchmark_;
    size_t size_ = 0;
    PortfolioStats stats_;
};

} // namespace portfolio
} // namespace petabricks

#endif // PETABRICKS_PORTFOLIO_PORTFOLIO_H
