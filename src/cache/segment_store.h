/**
 * @file
 * On-disk persistence for the shared evaluation cache: append-only
 * kvfile segments.
 *
 * The durability model is the same one the service's checkpoint spool
 * uses (PR 6/7): every write is a whole file created under a temporary
 * name and atomically renamed into place, so a crash at any instant
 * leaves either the previous directory state or the new one — never a
 * half-written segment under a live name. What *can* appear after a
 * crash (or a copy of a dying disk) is a torn or truncated file, so
 * loading runs a boot-time fsck: a segment that fails any validation
 * (kvfile syntax, seal, entry count, per-entry format) is
 * renamed aside with a `.quarantine` suffix — preserved for
 * post-mortem, invisible to every later scan — and counted, and the
 * healthy segments still load. A torn segment can cost cached results;
 * it can never fail a boot or poison the cache with garbage.
 *
 * Segment format (one KvFile, sealed `segment` v2; v1 is quarantined):
 *
 *     segment.version  = 2
 *     segment.count    = <records>
 *     segment.checksum = <the seal's fnv1a of every other entry, hex>
 *     entry.<i>        = <scope-hex> <n> <fingerprint-hex> <bits-hex>
 *
 * Seconds are serialized as the double's exact bit pattern, so a value
 * that round-trips through disk compares bit-identical to the one the
 * evaluator produced — the property the byte-identical-champion
 * guarantee rests on.
 */

#ifndef PETABRICKS_CACHE_SEGMENT_STORE_H
#define PETABRICKS_CACHE_SEGMENT_STORE_H

#include <cstdint>
#include <string>
#include <vector>

namespace petabricks {
namespace cache {

/** One persisted evaluation result. */
struct SegmentRecord
{
    uint64_t scope = 0;       ///< (benchmark, engine, machine) partition
    int64_t inputSize = 0;
    uint64_t fingerprint = 0; ///< Config::valueFingerprint
    double seconds = 0.0;

    bool operator==(const SegmentRecord &other) const = default;
};

/** Monotonic counters for the load/fsck path. */
struct SegmentStoreStats
{
    int64_t segmentsLoaded = 0;
    int64_t segmentsQuarantined = 0;
    int64_t recordsLoaded = 0;
    int64_t segmentsWritten = 0;
};

/** See file comment. */
class SegmentStore
{
  public:
    /** @param dir segment directory, created if missing. */
    explicit SegmentStore(std::string dir);

    /**
     * Parse every `seg-<digits>.kv` in the directory (oldest first, so
     * later segments win on duplicate keys) and return the union of
     * their records. Invalid segments are quarantined (see file
     * comment); this never throws for a bad segment.
     */
    std::vector<SegmentRecord> loadAll();

    /** Append @p records as one new segment (write-to-temp + atomic
     * rename). No-op for an empty batch. */
    void append(const std::vector<SegmentRecord> &records);

    /**
     * Rewrite the store as a single segment holding @p records and
     * delete every older segment — run after a warm-start load when
     * the append-only tail has grown long. The new segment is renamed
     * into place before the old ones are removed, so a crash mid-
     * compaction duplicates records (harmless) rather than losing any.
     */
    void compact(const std::vector<SegmentRecord> &records);

    /** Number of live (non-quarantined) segments on disk right now. */
    size_t segmentCount() const;

    const SegmentStoreStats &stats() const { return stats_; }

    const std::string &dir() const { return dir_; }

  private:
    std::string segmentPath(uint64_t index) const;

    /** Parse one segment file; throws FatalError on any validation
     * failure (syntax, seal, count, record format). */
    static std::vector<SegmentRecord> parseSegment(const std::string &path);

    std::string dir_;
    uint64_t nextIndex_ = 0; ///< next segment file number to allocate
    SegmentStoreStats stats_;
};

} // namespace cache
} // namespace petabricks

#endif // PETABRICKS_CACHE_SEGMENT_STORE_H
