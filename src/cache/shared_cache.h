/**
 * @file
 * SharedEvaluationCache: the process-wide L2 behind every session's
 * private EvaluationCache.
 *
 * The autotuner re-prices the same (benchmark, machine, input size,
 * configuration) points constantly — across generations, across
 * sessions, and across daemon restarts — yet each TuningSession's L1
 * cache dies with its session. This cache promotes those results to a
 * process-wide, disk-backed pool so a fleet of tunerd users tuning the
 * same kernels hit each other's results: the serving analogue of
 * pazpar2's shared record/host pools, and the ARAPrototyper argument
 * that amortizing expensive evaluations across users is what turns a
 * prototyping loop into a service.
 *
 * Key schema: (scope, input size, Config::valueFingerprint), where
 * `scope` is ExecutionEngine::cacheScope() — a stable hash of the
 * benchmark name plus the engine's pricing identity (for ModelEngine,
 * the MachineProfile content fingerprint). Results priced by different
 * engines or machines can never be confused; equal searches on equal
 * machines always share.
 *
 * Concurrency: the table is striped into power-of-two shards, each
 * with its own std::shared_mutex. A key's hash is taken once per call
 * and picks both its shard (high bits) and its bucket in the shard.
 * Lookups take the shard's *shared* lock (readers never serialize
 * behind each other); publishes take the exclusive lock on one shard
 * only. LRU ticks and every statistic are atomics, so the read path
 * never upgrades its lock.
 *
 * Memory bound: each shard evicts in segments — when its byte estimate
 * exceeds its slice of maxBytes, the oldest quarter of its entries (by
 * LRU tick) is dropped in one sweep, amortizing the scan. Eviction is
 * in-memory only; persisted records remain on disk until compaction.
 *
 * Failure semantics: only finite seconds are accepted. NaN (the
 * "evaluation failed after retries" sentinel) and +-inf are refused
 * and counted — PR 7's never-cache-failures contract, enforced at the
 * cache boundary so no caller can leak a failure to other sessions.
 *
 * Persistence: publishes are journaled and flushed as append-only
 * kvfile segments (SegmentStore: atomic rename, boot-time fsck that
 * quarantines torn segments). A restarted daemon warm-starts from the
 * segments, so the first client after a reboot is served hits from the
 * previous run.
 */

#ifndef PETABRICKS_CACHE_SHARED_CACHE_H
#define PETABRICKS_CACHE_SHARED_CACHE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/segment_store.h"

namespace petabricks {
namespace cache {

/** Construction knobs for SharedEvaluationCache. */
struct SharedCacheOptions
{
    /**
     * Bound on the cache's in-memory byte estimate (entries are
     * costed at a fixed per-entry overhead, see kEntryBytes). Must be
     * large enough for at least one entry per shard.
     */
    size_t maxBytes = 64u << 20;

    /** Lock stripes; rounded up to a power of two, min 1. */
    size_t shardCount = 16;

    /** Segment directory; empty disables persistence entirely. */
    std::string dir;

    /**
     * Auto-flush the publish journal as a new segment once this many
     * records are pending (0 = only explicit flush()). Keeps the
     * window a crash can lose small without a write per publish.
     */
    size_t flushEveryPublishes = 256;
};

/** Counter snapshot (every counter is monotonic except entries/bytes). */
struct SharedCacheStats
{
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;        ///< publishes that created an entry

    /** Hits on an entry some *other* session published (entries
     * warm-started from disk belong to nobody, so every hit on them
     * counts). The number that proves sharing is really happening. */
    int64_t crossSessionHits = 0;

    /** Publishes refused because the value was NaN/inf — the
     * never-cache-failures contract doing its job. */
    int64_t rejectedNonFinite = 0;

    int64_t evictions = 0;         ///< entries dropped by the byte bound
    int64_t flushes = 0;           ///< segments written from the journal

    /** Segment writes that failed (ENOSPC/EIO, injected or real). The
     * batch is re-queued and retried on a later flush; in-memory
     * serving is unaffected. */
    int64_t writeFailures = 0;

    /** Warm-start accounting (from the backing SegmentStore). */
    int64_t loadedEntries = 0;
    int64_t segmentsLoaded = 0;
    int64_t segmentsQuarantined = 0;

    size_t entries = 0;            ///< live entries right now
    size_t bytes = 0;              ///< current in-memory byte estimate
};

/** See file comment. */
class SharedEvaluationCache
{
  public:
    /** Nominal in-memory cost of one entry (key + value + map node
     * overhead); the unit the maxBytes bound is accounted in. */
    static constexpr size_t kEntryBytes = 96;

    explicit SharedEvaluationCache(SharedCacheOptions options);

    /** Flushes the publish journal (persistent caches only). */
    ~SharedEvaluationCache();

    SharedEvaluationCache(const SharedEvaluationCache &) = delete;
    SharedEvaluationCache &operator=(const SharedEvaluationCache &) = delete;

    /**
     * A session identity for cross-session-hit accounting. Each
     * TuningSession that attaches to the cache takes one; entries
     * remember their publisher, and a hit from a different owner
     * counts as a cross-session hit. Owner 0 is reserved for entries
     * warm-started from disk (published by a previous process).
     */
    uint64_t registerOwner();

    /**
     * Memoized seconds for (@p scope, @p inputSize, @p fingerprint),
     * counting the hit or miss. @p owner attributes cross-session
     * hits; pass 0 for an anonymous probe. Thread-safe; readers take
     * only the shard's shared lock.
     */
    std::optional<double> lookup(uint64_t scope, int64_t inputSize,
                                 uint64_t fingerprint, uint64_t owner);

    /**
     * Publish an evaluation result. Non-finite values (the NaN
     * failure sentinel, +inf infeasibility) are refused and counted —
     * failures are a property of one run, never shared state. A
     * republish of an existing key refreshes its LRU tick and keeps
     * the first value (deterministic evaluators make them equal
     * anyway). Thread-safe.
     */
    void publish(uint64_t scope, int64_t inputSize, uint64_t fingerprint,
                 double seconds, uint64_t owner);

    /**
     * Write every journaled publish to disk as one new segment
     * (no-op when nothing is pending or persistence is disabled).
     * Called by the daemon's sweeper and its graceful drain; safe from
     * any thread, serialized internally.
     */
    void flush();

    SharedCacheStats stats() const;

    size_t size() const;

    const SharedCacheOptions &options() const { return options_; }

    /** True when a segment directory backs this cache. */
    bool persistent() const { return store_ != nullptr; }

  private:
    /** (scope, input size, config fingerprint) with their hash, taken
     * once per call: it picks both the shard and the map bucket. */
    struct Key
    {
        Key(uint64_t keyScope, int64_t keyInputSize, uint64_t keyFingerprint);

        uint64_t scope = 0;
        int64_t inputSize = 0;
        uint64_t fingerprint = 0;
        uint64_t hash = 0;

        bool operator==(const Key &other) const = default;
    };

    /** The hash the key carries. noexcept, so the map keeps no second
     * copy of it in each node. */
    struct KeyHash
    {
        size_t
        operator()(const Key &key) const noexcept
        {
            return static_cast<size_t>(key.hash);
        }
    };

    struct Entry
    {
        double seconds = 0.0;
        uint64_t owner = 0;
        uint64_t tick = 0; ///< LRU clock; atomic_ref'd on the read path
    };

    struct Shard
    {
        mutable std::shared_mutex mutex;
        std::unordered_map<Key, Entry, KeyHash> map;
        size_t bytes = 0; ///< guarded by mutex
    };

    Shard &shardFor(const Key &key);

    /** Drop the oldest quarter of @p shard (mutex held exclusively). */
    void evictSegment(Shard &shard);

    SharedCacheOptions options_;
    size_t shardMask_ = 0;
    size_t perShardBudget_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;

    std::atomic<uint64_t> clock_{1};
    std::atomic<uint64_t> nextOwner_{1};

    // Publish journal for persistence (independent of the shard locks
    // so publishes on different shards never serialize on it for
    // long; flush swaps it out wholesale).
    std::unique_ptr<SegmentStore> store_;
    std::mutex journalMutex_;
    std::vector<SegmentRecord> journal_;
    std::mutex flushMutex_; ///< serializes segment writes

    mutable std::atomic<int64_t> hits_{0};
    mutable std::atomic<int64_t> misses_{0};
    std::atomic<int64_t> insertions_{0};
    mutable std::atomic<int64_t> crossSessionHits_{0};
    std::atomic<int64_t> rejectedNonFinite_{0};
    std::atomic<int64_t> evictions_{0};
    std::atomic<int64_t> flushes_{0};
    std::atomic<int64_t> writeFailures_{0};
    int64_t loadedEntries_ = 0; ///< set once at construction
};

} // namespace cache
} // namespace petabricks

#endif // PETABRICKS_CACHE_SHARED_CACHE_H
