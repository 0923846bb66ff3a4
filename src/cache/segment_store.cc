#include "cache/segment_store.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "support/crashpoint.h"
#include "support/error.h"
#include "support/fsck.h"
#include "support/kvfile.h"

namespace petabricks {
namespace cache {

namespace fs = std::filesystem;

namespace {

std::string
recordToText(const SegmentRecord &record)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%016" PRIx64 " %" PRId64 " %016" PRIx64 " %016" PRIx64,
                  record.scope, record.inputSize, record.fingerprint,
                  std::bit_cast<uint64_t>(record.seconds));
    return buf;
}

SegmentRecord
recordFromText(const std::string &text)
{
    SegmentRecord record;
    uint64_t bits = 0;
    char trailing = 0;
    int fields = std::sscanf(text.c_str(),
                             "%" SCNx64 " %" SCNd64 " %" SCNx64
                             " %" SCNx64 " %c",
                             &record.scope, &record.inputSize,
                             &record.fingerprint, &bits, &trailing);
    if (fields != 4)
        PB_FATAL("malformed cache record '" << text << "'");
    record.seconds = std::bit_cast<double>(bits);
    return record;
}

} // namespace

SegmentStore::SegmentStore(std::string dir) : dir_(std::move(dir))
{
    PB_ASSERT(!dir_.empty(), "segment directory is required");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        PB_FATAL("cannot create cache directory '" << dir_
                                                   << "': " << ec.message());
    // Continue the numbering past everything already present
    // (quarantined files included: their index must never be reused,
    // or a fresh segment could collide with a preserved corpse).
    for (const fs::directory_entry &entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        uint64_t index = 0;
        if (std::sscanf(name.c_str(), "seg-%" SCNu64 ".kv", &index) == 1 &&
            index >= nextIndex_)
            nextIndex_ = index + 1;
    }
}

std::string
SegmentStore::segmentPath(uint64_t index) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%08" PRIu64 ".kv", index);
    return dir_ + "/" + name;
}

size_t
SegmentStore::segmentCount() const
{
    return fsck::list(dir_, fsck::FileKind::CacheSegment).size();
}

std::vector<SegmentRecord>
SegmentStore::parseSegment(const std::string &path)
{
    KvFile kv = KvFile::load(path);
    kv.verifySeal("segment", 2, path);
    int64_t count = kv.getInt("segment.count");
    if (count < 0)
        PB_FATAL("'" << path << "' has a negative record count");
    std::vector<SegmentRecord> records;
    records.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i)
        records.push_back(
            recordFromText(kv.get("entry." + std::to_string(i))));
    return records;
}

std::vector<SegmentRecord>
SegmentStore::loadAll()
{
    std::vector<SegmentRecord> all;
    stats_.segmentsQuarantined += fsck::loadEach(
        dir_, fsck::FileKind::CacheSegment, [&](const std::string &path) {
            std::vector<SegmentRecord> records = parseSegment(path);
            stats_.recordsLoaded += static_cast<int64_t>(records.size());
            ++stats_.segmentsLoaded;
            all.insert(all.end(), records.begin(), records.end());
        });
    return all;
}

void
SegmentStore::append(const std::vector<SegmentRecord> &records)
{
    if (records.empty())
        return;
    KvFile kv;
    kv.setInt("segment.count", static_cast<int64_t>(records.size()));
    for (size_t i = 0; i < records.size(); ++i)
        kv.set("entry." + std::to_string(i), recordToText(records[i]));
    kv.seal("segment", 2);

    // The index advances even if the write fails: a later retry gets a
    // fresh slot, and the failed slot's number is never reused (same
    // rule as quarantined corpses).
    kv.saveAtomic(segmentPath(nextIndex_++), "cache.seg");
    ++stats_.segmentsWritten;
}

void
SegmentStore::compact(const std::vector<SegmentRecord> &records)
{
    std::vector<std::string> old =
        fsck::list(dir_, fsck::FileKind::CacheSegment);
    append(records);
    for (const std::string &path : old) {
        std::error_code ec;
        fs::remove(path, ec);
    }
}

} // namespace cache
} // namespace petabricks
