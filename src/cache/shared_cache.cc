#include "cache/shared_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/error.h"
#include "support/hash.h"
#include "support/logging.h"

namespace petabricks {
namespace cache {

namespace {

/** Compact the on-disk tail at construction when it has grown past
 * this many segments. */
constexpr size_t kCompactAboveSegments = 8;

size_t
roundUpPow2(size_t value)
{
    size_t pow2 = 1;
    while (pow2 < value)
        pow2 <<= 1;
    return pow2;
}

} // namespace

size_t
SharedEvaluationCache::KeyHash::operator()(const Key &key) const
{
    return static_cast<size_t>(Fnv1a()
                                   .mix(key.scope)
                                   .mix(static_cast<uint64_t>(key.inputSize))
                                   .mix(key.fingerprint)
                                   .value());
}

SharedEvaluationCache::SharedEvaluationCache(SharedCacheOptions options)
    : options_(std::move(options))
{
    const size_t shardCount = roundUpPow2(std::max<size_t>(1, options_.shardCount));
    shardMask_ = shardCount - 1;
    shards_.reserve(shardCount);
    for (size_t i = 0; i < shardCount; ++i)
        shards_.push_back(std::make_unique<Shard>());
    // At least one entry must fit per shard, or publish() would evict
    // itself forever.
    perShardBudget_ =
        std::max(kEntryBytes, options_.maxBytes / shardCount);

    if (!options_.dir.empty()) {
        store_ = std::make_unique<SegmentStore>(options_.dir);
        // Warm start: everything the previous process persisted comes
        // back under owner 0, so any session of this process that hits
        // one of these entries scores a cross-session hit.
        std::vector<SegmentRecord> records = store_->loadAll();
        for (const SegmentRecord &record : records) {
            if (!std::isfinite(record.seconds))
                continue; // belt and braces: failures never enter
            const Key key{record.scope, record.inputSize,
                          record.fingerprint};
            Shard &shard = shardFor(key);
            std::unique_lock lock(shard.mutex);
            auto [it, inserted] = shard.map.try_emplace(
                key,
                Entry{record.seconds, /*owner=*/0,
                      clock_.fetch_add(1, std::memory_order_relaxed)});
            if (inserted) {
                shard.bytes += kEntryBytes;
                ++loadedEntries_;
                if (shard.bytes > perShardBudget_)
                    evictSegment(shard);
            }
        }
        if (store_->segmentCount() > kCompactAboveSegments)
            store_->compact(records);
        if (loadedEntries_ > 0)
            PB_INFORM("cache: warm start with "
                    << loadedEntries_ << " entries from '" << options_.dir
                    << "'");
    }
}

SharedEvaluationCache::~SharedEvaluationCache()
{
    try {
        flush();
    } catch (const std::exception &e) {
        PB_WARN("cache: final flush failed: " << e.what());
    }
}

uint64_t
SharedEvaluationCache::registerOwner()
{
    return nextOwner_.fetch_add(1, std::memory_order_relaxed);
}

SharedEvaluationCache::Shard &
SharedEvaluationCache::shardFor(const Key &key)
{
    return *shards_[KeyHash{}(key)&shardMask_];
}

std::optional<double>
SharedEvaluationCache::lookup(uint64_t scope, int64_t inputSize,
                              uint64_t fingerprint, uint64_t owner)
{
    const Key key{scope, inputSize, fingerprint};
    Shard &shard = shardFor(key);
    std::shared_lock lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    // Refresh the LRU tick without upgrading to an exclusive lock:
    // concurrent shared-locked readers may race on the tick, which is
    // why it is touched through atomic_ref. (Publishers hold the
    // exclusive lock, so they cannot run concurrently with us.)
    std::atomic_ref<uint64_t>(it->second.tick)
        .store(clock_.fetch_add(1, std::memory_order_relaxed),
               std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (it->second.owner != owner)
        crossSessionHits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.seconds;
}

void
SharedEvaluationCache::publish(uint64_t scope, int64_t inputSize,
                               uint64_t fingerprint, double seconds,
                               uint64_t owner)
{
    // Failures are a property of one run (PR 7's contract): the NaN
    // retry-exhausted sentinel and +inf infeasibility marks stay in
    // the session that observed them.
    if (!std::isfinite(seconds)) {
        rejectedNonFinite_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    const Key key{scope, inputSize, fingerprint};
    Shard &shard = shardFor(key);
    bool inserted = false;
    {
        std::unique_lock lock(shard.mutex);
        auto [it, fresh] = shard.map.try_emplace(
            key,
            Entry{seconds, owner,
                  clock_.fetch_add(1, std::memory_order_relaxed)});
        inserted = fresh;
        if (!fresh) {
            // Keep the first value: evaluators are deterministic per
            // scope, so a disagreement would mean a scope-key bug —
            // first-wins makes every reader see one stable value
            // regardless.
            it->second.tick = clock_.fetch_add(1, std::memory_order_relaxed);
        } else {
            shard.bytes += kEntryBytes;
            if (shard.bytes > perShardBudget_)
                evictSegment(shard);
        }
    }
    if (!inserted)
        return;
    insertions_.fetch_add(1, std::memory_order_relaxed);

    if (store_ != nullptr) {
        size_t pending = 0;
        {
            std::lock_guard lock(journalMutex_);
            journal_.push_back(
                SegmentRecord{scope, inputSize, fingerprint, seconds});
            pending = journal_.size();
        }
        if (options_.flushEveryPublishes > 0 &&
            pending >= options_.flushEveryPublishes)
            flush();
    }
}

void
SharedEvaluationCache::evictSegment(Shard &shard)
{
    // Drop the oldest quarter in one sweep (amortizes the scan and
    // leaves headroom so the next few publishes don't re-trigger it).
    const size_t target = std::max<size_t>(1, shard.map.size() / 4);
    std::vector<uint64_t> ticks;
    ticks.reserve(shard.map.size());
    for (const auto &[key, entry] : shard.map)
        ticks.push_back(entry.tick);
    std::nth_element(ticks.begin(), ticks.begin() + (target - 1),
                     ticks.end());
    const uint64_t cutoff = ticks[target - 1];
    size_t evicted = 0;
    for (auto it = shard.map.begin(); it != shard.map.end();) {
        if (it->second.tick <= cutoff) {
            it = shard.map.erase(it);
            ++evicted;
        } else {
            ++it;
        }
    }
    shard.bytes -= std::min(shard.bytes, evicted * kEntryBytes);
    evictions_.fetch_add(static_cast<int64_t>(evicted),
                         std::memory_order_relaxed);
}

void
SharedEvaluationCache::flush()
{
    if (store_ == nullptr)
        return;
    // Serialize writers so two flushes cannot interleave segment
    // numbering; swap the journal out under its own lock so publishes
    // keep flowing while the segment is written.
    std::lock_guard flushLock(flushMutex_);
    std::vector<SegmentRecord> batch;
    {
        std::lock_guard lock(journalMutex_);
        batch.swap(journal_);
    }
    if (batch.empty())
        return;
    try {
        store_->append(batch);
    } catch (const IoError &e) {
        // Durability degraded, serving unaffected: put the batch back
        // at the journal's front (order preserved) so a later flush
        // retries it, and keep answering from memory.
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        PB_WARN("cache: segment write failed, re-queued "
                << batch.size() << " records (" << e.what() << ")");
        std::lock_guard lock(journalMutex_);
        journal_.insert(journal_.begin(), batch.begin(), batch.end());
        return;
    }
    flushes_.fetch_add(1, std::memory_order_relaxed);
}

SharedCacheStats
SharedEvaluationCache::stats() const
{
    SharedCacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.insertions = insertions_.load(std::memory_order_relaxed);
    out.crossSessionHits = crossSessionHits_.load(std::memory_order_relaxed);
    out.rejectedNonFinite =
        rejectedNonFinite_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.flushes = flushes_.load(std::memory_order_relaxed);
    out.writeFailures = writeFailures_.load(std::memory_order_relaxed);
    out.loadedEntries = loadedEntries_;
    if (store_ != nullptr) {
        out.segmentsLoaded = store_->stats().segmentsLoaded;
        out.segmentsQuarantined = store_->stats().segmentsQuarantined;
    }
    for (const std::unique_ptr<Shard> &shard : shards_) {
        std::shared_lock lock(shard->mutex);
        out.entries += shard->map.size();
        out.bytes += shard->bytes;
    }
    return out;
}

size_t
SharedEvaluationCache::size() const
{
    size_t total = 0;
    for (const std::unique_ptr<Shard> &shard : shards_) {
        std::shared_lock lock(shard->mutex);
        total += shard->map.size();
    }
    return total;
}

} // namespace cache
} // namespace petabricks
