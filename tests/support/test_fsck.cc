/**
 * @file
 * Unit tests for the shared fsck helpers: filename classification,
 * collision-safe quarantine renames, directory scans, and purge.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "support/fsck.h"

#include "fresh_dir.h"

using namespace petabricks;

namespace {

namespace fs = std::filesystem;

std::string
tempDir(const char *name)
{
    std::string path = freshPath(std::string("fsck_") + name);
    fs::create_directories(path);
    return path;
}

void
touch(const std::string &path, const std::string &content = "x = 1\n")
{
    std::ofstream out(path);
    out << content;
}

TEST(Fsck, ClassifiesEveryStoreArtifact)
{
    using fsck::FileKind;
    EXPECT_EQ(fsck::classify("/spool/s12.meta"), FileKind::SpoolMeta);
    EXPECT_EQ(fsck::classify("/spool/s12.ckpt"),
              FileKind::SpoolCheckpoint);
    EXPECT_EQ(fsck::classify("/spool/s12.ckpt.1"),
              FileKind::SpoolCheckpoint);
    EXPECT_EQ(fsck::classify("/spool/s12.ckpt.1.quarantine"),
              FileKind::Quarantine);
    EXPECT_EQ(fsck::classify("/cache/seg-00000004.kv"),
              FileKind::CacheSegment);
    EXPECT_EQ(fsck::classify("/cache/seg-100000000.kv"),
              FileKind::CacheSegment);
    // A segment name carries digits only: SegmentStore loads nothing
    // else.
    EXPECT_EQ(fsck::classify("/cache/seg-abc.kv"), FileKind::Other);
    EXPECT_EQ(fsck::classify("/cache/seg-4x.kv"), FileKind::Other);
    EXPECT_EQ(fsck::classify("/cache/seg-.kv"), FileKind::Other);
    EXPECT_EQ(fsck::classify(
                  "/p/champ-sort-00c0ffee00c0ffee-1024.kv"),
              FileKind::Champion);
    EXPECT_EQ(fsck::classify("/spool/s12.ckpt.tmp"), FileKind::Temp);
    EXPECT_EQ(fsck::classify("/spool/s12.ckpt.quarantine"),
              FileKind::Quarantine);
    EXPECT_EQ(fsck::classify("/cache/seg-1.kv.quarantine.2"),
              FileKind::Quarantine);
    EXPECT_EQ(fsck::classify("/somewhere/README.md"), FileKind::Other);
}

TEST(Fsck, QuarantineIsCollisionSafe)
{
    const std::string dir = tempDir("quarantine");
    const std::string victim = dir + "/s1.ckpt";

    touch(victim, "first\n");
    EXPECT_EQ(fsck::quarantine(victim), victim + ".quarantine");
    EXPECT_FALSE(fs::exists(victim));

    // Same file torn again on a later boot: the prior corpse must
    // survive, the new one gets a numbered suffix.
    touch(victim, "second\n");
    EXPECT_EQ(fsck::quarantine(victim), victim + ".quarantine.1");
    touch(victim, "third\n");
    EXPECT_EQ(fsck::quarantine(victim), victim + ".quarantine.2");

    EXPECT_TRUE(fs::exists(victim + ".quarantine"));
    EXPECT_TRUE(fs::exists(victim + ".quarantine.1"));
    EXPECT_TRUE(fs::exists(victim + ".quarantine.2"));
}

TEST(Fsck, QuarantineOfMissingFileFailsSoftly)
{
    const std::string dir = tempDir("missing");
    EXPECT_EQ(fsck::quarantine(dir + "/never-existed.kv"), "");
}

TEST(Fsck, ScanClassifiesAndSorts)
{
    const std::string dir = tempDir("scan");
    touch(dir + "/seg-00000001.kv");
    touch(dir + "/seg-00000002.kv.quarantine");
    touch(dir + "/stray.txt");
    touch(dir + "/s4.meta");

    std::vector<fsck::ScanEntry> entries = fsck::scan(dir);
    ASSERT_EQ(entries.size(), 4u);
    // Sorted by path.
    EXPECT_EQ(entries[0].kind, fsck::FileKind::SpoolMeta);
    EXPECT_EQ(entries[1].kind, fsck::FileKind::CacheSegment);
    EXPECT_EQ(entries[2].kind, fsck::FileKind::Quarantine);
    EXPECT_EQ(entries[3].kind, fsck::FileKind::Other);
    EXPECT_GT(entries[0].bytes, 0u);

    EXPECT_TRUE(fsck::scan(dir + "/no-such-dir").empty());
}

TEST(Fsck, PurgeRemovesOnlyWreckage)
{
    const std::string dir = tempDir("purge");
    touch(dir + "/seg-00000001.kv");
    touch(dir + "/seg-00000002.kv.quarantine");
    touch(dir + "/seg-00000003.kv.quarantine.1");
    touch(dir + "/s9.ckpt.tmp");
    touch(dir + "/s9.ckpt");

    // Without --temps: only quarantine files go.
    EXPECT_EQ(fsck::purge(dir, /*alsoTemps=*/false), 2u);
    EXPECT_TRUE(fs::exists(dir + "/s9.ckpt.tmp"));
    EXPECT_TRUE(fs::exists(dir + "/seg-00000001.kv"));

    // With temps: the crash debris goes too; live files never do.
    EXPECT_EQ(fsck::purge(dir, /*alsoTemps=*/true), 1u);
    EXPECT_TRUE(fs::exists(dir + "/seg-00000001.kv"));
    EXPECT_TRUE(fs::exists(dir + "/s9.ckpt"));
}

} // namespace
