/**
 * @file
 * The daemon's session table: many concurrent searches in bounded
 * memory.
 *
 * Modeled on pazpar2's session table (one entry per client search,
 * looked up by id on every command), with one addition the tuning
 * workload forces: searches are *heavy* (population, caches, engine
 * state), so the table holds at most `residentCap` of them live.
 * Colder sessions exist only as a spec + checkpoint pair in the spool
 * directory and are transparently rebuilt on their next touch — the
 * TuningSession save()/load() guarantee (identical champion after a
 * round-trip) is what makes this eviction invisible to clients.
 *
 * Concurrency contract:
 *  - One table mutex guards the map and every residency transition
 *    (create / rehydrate / evict / destroy, including their disk I/O —
 *    checkpoints are small, so transitions are short).
 *  - Stepping runs *outside* the mutex on the caller's (worker)
 *    thread, with the entry marked busy; per-session busy flags plus
 *    condition variables serialize step/champion/stop on the same
 *    session while leaving every other session fully concurrent.
 *    Idle-and-resident is acquired as one atomic predicate
 *    (acquireIdleResident): any wait that drops the mutex re-checks
 *    both halves, so two steppers can never own the same session.
 *  - status() never blocks on a stepping session: it reads the
 *    session's lock-protected snapshot (live) or the entry's last
 *    recorded snapshot (evicted), and deliberately does not count as a
 *    touch, so a client polling status cannot keep an abandoned
 *    session resident.
 *  - Because transitions hold the table mutex, the resident count can
 *    never overshoot the cap, which the soak test asserts.
 */

#ifndef PETABRICKS_SERVICE_SESSION_TABLE_H
#define PETABRICKS_SERVICE_SESSION_TABLE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/hosted_session.h"

namespace petabricks {
namespace service {

/** Construction knobs for SessionTable. */
struct SessionTableOptions
{
    /** Directory for spec (.meta) and checkpoint (.ckpt, .ckpt.1)
     * files. Created if missing. */
    std::string spoolDir;

    /** Maximum sessions held live in memory at once. */
    size_t residentCap = 64;

    /**
     * Checkpoint after every generation while stepping: one checkpoint
     * slot rewritten in place per generation (HostedSession::save).
     * Keeps the spool current enough that a SIGKILLed daemon loses at
     * most one generation of progress (and none of its determinism:
     * resuming an on-trajectory checkpoint replays to the identical
     * champion). When off, a step command checkpoints once, after its
     * last generation.
     */
    bool checkpointEachStep = true;

    /** Sweeper: evict resident sessions idle longer than this
     * (seconds; 0 disables idle eviction). */
    int64_t idleEvictSeconds = 300;

    /** Sweeper: hard-delete sessions untouched longer than this
     * (seconds; 0 disables expiry — abandoned sessions stay on disk). */
    int64_t expireSeconds = 0;

    /**
     * Process-wide shared evaluation cache (L2) handed to every
     * hosted session built by this table, or nullptr for private-only
     * caching. Not owned; must outlive the table (the server declares
     * the cache before the table for exactly that reason).
     */
    cache::SharedEvaluationCache *sharedCache = nullptr;
};

/** Monotonic counters, exposed through the `stats` endpoint. */
struct SessionTableStats
{
    int64_t created = 0;
    int64_t resumed = 0;       ///< resume() calls that found a session
    int64_t evictions = 0;     ///< live -> spool transitions
    int64_t rehydrations = 0;  ///< spool -> live transitions
    int64_t expired = 0;       ///< sessions hard-deleted by the sweeper
    int64_t stopped = 0;       ///< explicit stop() deletions
    size_t resident = 0;       ///< live sessions right now
    size_t total = 0;          ///< table entries right now (live + spooled)
    size_t peakResident = 0;   ///< high-water mark of `resident`

    /** Spooled sessions set aside by the startup fsck (corrupt .meta
     * or no checkpoint slot that loads, renamed `*.quarantine`). */
    int64_t spoolQuarantined = 0;

    /** Checkpoint slots set aside (renamed `*.quarantine`) because
     * they failed to load beside a good slot, which the session
     * resumed from (HostedSession::load). */
    int64_t slotsQuarantined = 0;

    /** Spool writes (meta or checkpoint) that failed with an IoError
     * (ENOSPC/EIO, injected or real). The session keeps serving from
     * memory; its spool falls back to the last good checkpoint, which
     * resumes to the identical champion. */
    int64_t spoolWriteFailures = 0;

    /** Sum of evaluation failures (retries exhausted) across every
     * session in the table, live or spooled. */
    int64_t evaluationFailures = 0;
};

/** See file comment. */
class SessionTable
{
  public:
    explicit SessionTable(SessionTableOptions options);

    /** Register a new session and make it resident. @return its id. */
    std::string create(const SessionSpec &spec);

    /**
     * Re-register a session known from the spool directory (typically
     * after a daemon restart) and make it resident at its last
     * checkpoint. No-op (a touch) when the id is already in the table.
     * Fatal error when the spool has no such session.
     */
    std::string resume(const std::string &id);

    /**
     * Advance @p id by up to @p steps generations on the calling
     * thread (the server calls this from its worker pool). Blocks
     * while another thread is stepping the same session.
     * @return generations actually run (0 when already done).
     */
    int step(const std::string &id, int steps);

    /** Status snapshot; never blocks on stepping, never a touch. */
    tuner::SessionIntrospection status(const std::string &id) const;

    /** The session's spec (create-time recipe). */
    SessionSpec spec(const std::string &id) const;

    /** Champion in KvFile form (HostedSession::championKv). */
    KvFile champion(const std::string &id);

    /** Delete @p id: its live state and its spool files. */
    void stop(const std::string &id);

    /** Ids currently in the table, sorted. */
    std::vector<std::string> list() const;

    /**
     * One sweeper pass at time @p now: evict resident sessions idle
     * past idleEvictSeconds, hard-delete sessions untouched past
     * expireSeconds. Split from the timer thread so tests drive GC
     * deterministically with a synthetic clock.
     */
    void sweep(std::chrono::steady_clock::time_point now);

    /**
     * Checkpoint every resident idle session to the spool (the
     * graceful-drain final flush). Busy sessions are skipped with a
     * warning — the drain protocol only calls this once the worker
     * pool is quiesced, so a busy entry here means a bug upstream.
     */
    void checkpointAll();

    SessionTableStats stats() const;

    const SessionTableOptions &options() const { return options_; }

    /** Checkpoint path for @p id (exposed for the smoke tooling). */
    std::string checkpointPath(const std::string &id) const;
    std::string metaPath(const std::string &id) const;

  private:
    struct Entry
    {
        std::string id;
        SessionSpec spec;
        std::unique_ptr<HostedSession> session; ///< null when evicted
        tuner::SessionIntrospection lastStatus;
        bool busy = false;   ///< a worker owns the session right now
        bool dead = false;   ///< stop()ed while someone was waiting
        std::chrono::steady_clock::time_point lastTouch;
        std::condition_variable busyCv; ///< waits on the table mutex
    };
    using EntryPtr = std::shared_ptr<Entry>;

    EntryPtr find(const std::string &id) const;

    /** Wait until nobody is stepping @p entry (table mutex held). */
    void waitNotBusy(Entry &entry, std::unique_lock<std::mutex> &lock);

    /**
     * Wait until @p entry is idle AND resident, evicting LRU sessions
     * as needed (table mutex held). Both conditions are guaranteed
     * under the single lock hold this returns with: every internal
     * wait (busyCv or roomCv) drops the mutex, so the full predicate
     * is re-checked after each wake — a caller may mark the entry busy
     * immediately after this returns without racing another waiter.
     */
    void acquireIdleResident(Entry &entry,
                             std::unique_lock<std::mutex> &lock);

    /** Evict a resident, non-busy entry (table mutex held). */
    void evict(Entry &entry);

    /** @p id's spool files: its .meta and both checkpoint slots. */
    std::vector<std::string> spoolFiles(const std::string &id) const;

    /** Delete @p entry's spool files (best-effort). */
    void removeSpoolFiles(const std::string &id);

    /**
     * Startup spool verification: each .meta must parse into a spec
     * and its checkpoint (if any) must restore into a live session,
     * seals included, from at least one slot. A session with a corrupt
     * or edited .meta, or with no slot that loads, is quarantined
     * (every file renamed with a `.quarantine` suffix) and counted, so
     * one torn file can never take the daemon down or poison a later
     * resume; a failed slot beside a good one is set aside alone.
     * Orphan checkpoint slots (no .meta) are quarantined too. Runs
     * before the id scan, so quarantined files are invisible.
     */
    void fsckSpoolDir();

    SessionTableOptions options_;
    mutable std::mutex mutex_;
    std::condition_variable roomCv_; ///< capacity may have freed up
    std::map<std::string, EntryPtr> entries_;
    uint64_t nextId_ = 0;
    size_t resident_ = 0;
    SessionTableStats stats_;
    // Atomic (not folded into stats_): step() checkpoints with the
    // table mutex released, so the counter cannot live under it.
    std::atomic<int64_t> spoolWriteFailures_{0};
};

} // namespace service
} // namespace petabricks

#endif // PETABRICKS_SERVICE_SESSION_TABLE_H
