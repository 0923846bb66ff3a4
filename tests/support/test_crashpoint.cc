/**
 * @file
 * Unit tests for the crash/IO-fault injection layer: schedule parsing,
 * per-point hit counting, the registered-point catalog, and the fault
 * semantics of KvFile::saveAtomic under torn/ENOSPC/EIO injection.
 *
 * Kill-style points are covered by the fork-based crash matrix in
 * tests/service/test_crash_matrix.cc — killing the gtest process from
 * a unit test would be self-defeating.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <initializer_list>
#include <sstream>

#include "support/crashpoint.h"
#include "support/error.h"
#include "support/fsck.h"
#include "support/kvfile.h"

#include "fresh_dir.h"

using namespace petabricks;

namespace {

namespace fs = std::filesystem;

class CrashpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { crashpoint::clearSchedule(); }
    void TearDown() override { crashpoint::clearSchedule(); }

    std::string
    tempPath(const char *name)
    {
        std::string path = freshPath(std::string("crashpoint_") + name);
        fs::create_directories(path);
        return path;
    }

    KvFile
    sampleKv(int salt = 0)
    {
        KvFile kv;
        kv.setInt("alpha", 1 + salt);
        kv.set("beta", "two");
        kv.set("gamma", std::string(64, 'g'));
        return kv;
    }
};

TEST_F(CrashpointTest, CatalogContainsEveryPersistencePath)
{
    std::vector<std::string> points = crashpoint::catalog();
    auto expectFamily = [&](const char *prefix,
                            std::initializer_list<const char *> suffixes) {
        for (const char *suffix : suffixes) {
            const std::string name = std::string(prefix) + suffix;
            EXPECT_NE(std::find(points.begin(), points.end(), name),
                      points.end())
                << "missing point " << name;
        }
    };
    for (const char *prefix : {"spool.meta", "cache.seg", "portfolio.champ"})
        expectFamily(prefix,
                     {".pre_write", ".write", ".pre_rename", ".post_rename"});
    // Checkpoints are rewritten in place: no rename to crash around.
    expectFamily("spool.ckpt",
                 {".pre_write", ".write", ".pre_sync", ".post_sync"});
    EXPECT_GE(points.size(), 16u);
}

TEST_F(CrashpointTest, UnarmedLayerIsInert)
{
    EXPECT_FALSE(crashpoint::armed());
    crashpoint::fire("cache.seg.pre_rename"); // must not throw or exit
    crashpoint::WriteFault fault =
        crashpoint::fireWrite("cache.seg.write");
    EXPECT_EQ(fault.action, crashpoint::Action::None);
}

TEST_F(CrashpointTest, ScheduleParsingRejectsGarbage)
{
    EXPECT_THROW(crashpoint::setSchedule("no-equals-sign"), FatalError);
    EXPECT_THROW(crashpoint::setSchedule("cache.seg.write=explode"),
                 FatalError);
    EXPECT_THROW(crashpoint::setSchedule("not.a.point=kill"), FatalError);
    EXPECT_THROW(crashpoint::setSchedule("cache.seg.write@0=kill"),
                 FatalError);
    // Write faults only make sense where a write happens.
    EXPECT_THROW(crashpoint::setSchedule("cache.seg.pre_rename=torn"),
                 FatalError);
    // A failed parse leaves nothing armed.
    EXPECT_FALSE(crashpoint::armed());
}

TEST_F(CrashpointTest, HitCountsAreDeterministic)
{
    crashpoint::setSchedule("cache.seg.write@3=eio");
    EXPECT_TRUE(crashpoint::armed());
    EXPECT_EQ(crashpoint::fireWrite("cache.seg.write").action,
              crashpoint::Action::None);
    EXPECT_EQ(crashpoint::fireWrite("cache.seg.write").action,
              crashpoint::Action::None);
    EXPECT_EQ(crashpoint::fireWrite("cache.seg.write").action,
              crashpoint::Action::Eio);
    // Only the scheduled hit fires; later traversals pass clean.
    EXPECT_EQ(crashpoint::fireWrite("cache.seg.write").action,
              crashpoint::Action::None);
    // Resetting the schedule resets the counters.
    crashpoint::setSchedule("cache.seg.write@1=torn:7");
    crashpoint::WriteFault fault =
        crashpoint::fireWrite("cache.seg.write");
    EXPECT_EQ(fault.action, crashpoint::Action::Torn);
    EXPECT_TRUE(fault.explicitBytes);
    EXPECT_EQ(fault.keepBytes, 7u);
}

TEST_F(CrashpointTest, SaveAtomicSurvivesUnarmed)
{
    const std::string dir = tempPath("save_ok");
    const std::string path = dir + "/file.kv";
    sampleKv().saveAtomic(path, "cache.seg");
    EXPECT_EQ(KvFile::load(path), sampleKv());
    EXPECT_FALSE(fs::exists(path + ".tmp")); // renamed away
}

TEST_F(CrashpointTest, TornWriteLandsTruncatedFile)
{
    const std::string dir = tempPath("torn");
    const std::string path = dir + "/file.kv";
    sampleKv().saveAtomic(path, "cache.seg"); // good version first

    crashpoint::setSchedule("cache.seg.write=torn");
    KvFile bigger = sampleKv(7);
    // Torn completes the sequence: the rename happens, so the *live*
    // file is now truncated — exactly the wreckage boot fsck must
    // quarantine.
    bigger.saveAtomic(path, "cache.seg");
    crashpoint::clearSchedule();

    std::ifstream in(path);
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str().size(), bigger.toString().size() / 2);
    EXPECT_NE(content.str(), bigger.toString());
}

TEST_F(CrashpointTest, EnospcFailsWithoutTouchingDestination)
{
    const std::string dir = tempPath("enospc");
    const std::string path = dir + "/file.kv";
    sampleKv().saveAtomic(path, "cache.seg");

    crashpoint::setSchedule("cache.seg.write=enospc");
    EXPECT_THROW(sampleKv(9).saveAtomic(path, "cache.seg"), IoError);
    crashpoint::clearSchedule();

    // Prior state byte-intact: the failure happened in the temp file.
    EXPECT_EQ(KvFile::load(path), sampleKv());
    EXPECT_TRUE(fs::exists(path + ".tmp")); // debris, like real ENOSPC
    EXPECT_EQ(fsck::classify(path + ".tmp"), fsck::FileKind::Temp);
}

TEST_F(CrashpointTest, EioIsAnIoErrorDistinctFromFatal)
{
    const std::string dir = tempPath("eio");
    const std::string path = dir + "/file.kv";
    crashpoint::setSchedule("cache.seg.write=eio");
    try {
        sampleKv().saveAtomic(path, "cache.seg");
        FAIL() << "expected IoError";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("injected"),
                  std::string::npos);
    }
    crashpoint::clearSchedule();
    EXPECT_FALSE(fs::exists(path));
}

TEST_F(CrashpointTest, ExplicitScheduleOverridesAndClears)
{
    crashpoint::setSchedule("portfolio.champ.write=enospc");
    EXPECT_TRUE(crashpoint::armed());
    crashpoint::setSchedule("");
    EXPECT_FALSE(crashpoint::armed());
    crashpoint::setSchedule(
        "portfolio.champ.write=enospc, spool.ckpt.pre_sync=kill");
    EXPECT_TRUE(crashpoint::armed());
    crashpoint::clearSchedule();
    EXPECT_FALSE(crashpoint::armed());
}

} // namespace
