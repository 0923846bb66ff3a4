/**
 * @file
 * SegmentStore persistence: append/load round trips are exact (bit
 * patterns included), torn or corrupt segments are quarantined by the
 * boot-time fsck without failing the load, and compaction collapses
 * the append-only tail without losing records.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "cache/segment_store.h"
#include "support/kvfile.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::cache;

namespace {

namespace fs = std::filesystem;

/** Fresh per-test segment directory. */
std::string
cacheDir(const char *name)
{
    return freshPath(std::string("segment_store_") + name);
}

SegmentRecord
record(uint64_t scope, int64_t n, uint64_t fp, double seconds)
{
    return SegmentRecord{scope, n, fp, seconds};
}

size_t
quarantineCount(const std::string &dir)
{
    size_t count = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".quarantine")
            ++count;
    return count;
}

TEST(SegmentStore, AppendLoadRoundTripIsExact)
{
    const std::string dir = cacheDir("roundtrip");
    // Values chosen to stress the bit-exact path: a subnormal, a
    // negative, and one with no short decimal representation.
    std::vector<SegmentRecord> written = {
        record(0x1234, 64, 0xabcd, 1.0 / 3.0),
        record(0x1234, 128, 0xabce, 5e-324),
        record(0xffff, 256, 0x1, -123.456789012345678),
    };
    {
        SegmentStore store(dir);
        store.append(written);
        EXPECT_EQ(store.segmentCount(), 1u);
        EXPECT_EQ(store.stats().segmentsWritten, 1);
    }
    SegmentStore store(dir);
    std::vector<SegmentRecord> loaded = store.loadAll();
    EXPECT_EQ(loaded, written); // operator== compares exact doubles
    EXPECT_EQ(store.stats().segmentsLoaded, 1);
    EXPECT_EQ(store.stats().recordsLoaded, 3);
    EXPECT_EQ(store.stats().segmentsQuarantined, 0);
}

TEST(SegmentStore, MultipleAppendsLoadOldestFirst)
{
    const std::string dir = cacheDir("multi");
    SegmentStore writer(dir);
    writer.append({record(1, 64, 1, 1.0)});
    writer.append({record(2, 64, 2, 2.0)});
    writer.append({record(3, 64, 3, 3.0)});

    SegmentStore reader(dir);
    std::vector<SegmentRecord> loaded = reader.loadAll();
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded[0].scope, 1u);
    EXPECT_EQ(loaded[1].scope, 2u);
    EXPECT_EQ(loaded[2].scope, 3u);
}

TEST(SegmentStore, EmptyAppendWritesNothing)
{
    const std::string dir = cacheDir("empty");
    SegmentStore store(dir);
    store.append({});
    EXPECT_EQ(store.segmentCount(), 0u);
    EXPECT_EQ(store.stats().segmentsWritten, 0);
}

TEST(SegmentStore, FsckQuarantinesTornSegment)
{
    const std::string dir = cacheDir("torn");
    {
        SegmentStore store(dir);
        store.append({record(1, 64, 1, 1.0)});
        store.append({record(2, 64, 2, 2.0)});
    }
    // Truncate the first segment mid-file: the checksum (or the entry
    // count) can no longer validate.
    std::vector<std::string> segments;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        segments.push_back(entry.path().string());
    std::sort(segments.begin(), segments.end());
    ASSERT_EQ(segments.size(), 2u);
    fs::resize_file(segments[0], fs::file_size(segments[0]) / 2);

    SegmentStore store(dir);
    std::vector<SegmentRecord> loaded = store.loadAll();
    // The healthy segment still loads; the torn one is set aside.
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].scope, 2u);
    EXPECT_EQ(store.stats().segmentsQuarantined, 1);
    EXPECT_EQ(quarantineCount(dir), 1u);
    EXPECT_EQ(store.segmentCount(), 1u);

    // A second load pass never sees the quarantined file again.
    SegmentStore again(dir);
    EXPECT_EQ(again.loadAll().size(), 1u);
    EXPECT_EQ(again.stats().segmentsQuarantined, 0);
}

TEST(SegmentStore, FsckQuarantinesChecksumMismatch)
{
    const std::string dir = cacheDir("checksum");
    {
        SegmentStore store(dir);
        store.append({record(1, 64, 1, 1.0)});
    }
    std::string path;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        path = entry.path().string();
    // Flip one payload value; the file still parses as a kvfile.
    KvFile kv = KvFile::load(path);
    std::string entry0 = kv.get("entry.0");
    entry0[0] = entry0[0] == 'f' ? 'e' : 'f';
    kv.set("entry.0", entry0);
    kv.save(path);

    SegmentStore store(dir);
    EXPECT_TRUE(store.loadAll().empty());
    EXPECT_EQ(store.stats().segmentsQuarantined, 1);
}

TEST(SegmentStore, QuarantinedIndexIsNeverReused)
{
    const std::string dir = cacheDir("reuse");
    {
        SegmentStore store(dir);
        store.append({record(1, 64, 1, 1.0)});
    }
    // Corrupt and quarantine seg 0.
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        fs::resize_file(entry.path(), 4);
    {
        SegmentStore store(dir);
        store.loadAll();
        // The next segment this store writes must not collide with the
        // quarantined corpse's index.
        store.append({record(2, 64, 2, 2.0)});
    }
    SegmentStore reader(dir);
    std::vector<SegmentRecord> loaded = reader.loadAll();
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].scope, 2u);
    EXPECT_EQ(quarantineCount(dir), 1u);
}

TEST(SegmentStore, CompactCollapsesToOneSegment)
{
    const std::string dir = cacheDir("compact");
    SegmentStore writer(dir);
    for (int i = 0; i < 5; ++i)
        writer.append({record(static_cast<uint64_t>(i), 64,
                              static_cast<uint64_t>(i), i * 1.0)});
    EXPECT_EQ(writer.segmentCount(), 5u);

    SegmentStore store(dir);
    std::vector<SegmentRecord> all = store.loadAll();
    ASSERT_EQ(all.size(), 5u);
    store.compact(all);
    EXPECT_EQ(store.segmentCount(), 1u);

    SegmentStore reader(dir);
    EXPECT_EQ(reader.loadAll(), all);
}

TEST(SegmentStore, NonCacheFileIsQuarantinedNotFatal)
{
    const std::string dir = cacheDir("foreign");
    SegmentStore store(dir); // creates the directory
    {
        std::ofstream out(dir + "/seg-00000000.kv");
        out << "not = a segment\n";
    }
    EXPECT_TRUE(store.loadAll().empty());
    EXPECT_EQ(store.stats().segmentsQuarantined, 1);
}

} // namespace
