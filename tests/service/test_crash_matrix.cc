/**
 * @file
 * The crash matrix: for EVERY registered crash point, fork a child
 * that runs the matching persistence workload with a kill scheduled at
 * that point, verify the child died exactly there (exit code
 * crashpoint::kCrashExitCode), then recover over the same directories
 * in the parent and assert the recovery invariant:
 *
 *   1. boot fsck never throws;
 *   2. at most the in-flight artifact is lost or quarantined — every
 *      previously persisted artifact is byte-intact;
 *   3. a resumed session replays to a champion byte-identical to an
 *      uninterrupted run.
 *
 * Fork safety: everything here runs with engineParallelism = 1, and
 * ThreadPool(1) spawns zero worker threads, so the gtest process is
 * single-threaded at every fork() (no TuningServer is ever started —
 * the matrix drives SessionTable and the stores directly).
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "cache/shared_cache.h"
#include "portfolio/portfolio.h"
#include "service/hosted_session.h"
#include "service/session_table.h"
#include "support/crashpoint.h"
#include "support/fsck.h"
#include "support/kvfile.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::service;

namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    std::string path = freshPath("crash_matrix_" + name);
    fs::create_directories(path);
    return path;
}

size_t
countQuarantined(const std::string &dir)
{
    size_t n = 0;
    for (const fsck::ScanEntry &entry : fsck::scan(dir))
        if (entry.kind == fsck::FileKind::Quarantine)
            ++n;
    return n;
}

KvFile
tinyCreate(uint64_t seed = 42)
{
    KvFile kv;
    kv.set("benchmark", "Sort");
    kv.setInt("seed", static_cast<int64_t>(seed));
    kv.setInt("populationSize", 4);
    kv.setInt("generationsPerSize", 3);
    kv.setInt("minInputSize", 64);
    kv.setInt("maxInputSize", 256);
    return kv;
}

SessionTableOptions
tableOptions(const std::string &spool)
{
    SessionTableOptions options;
    options.spoolDir = spool;
    options.residentCap = 4;
    return options;
}

cache::SharedCacheOptions
cacheOptions(const std::string &dir)
{
    cache::SharedCacheOptions options;
    options.dir = dir;
    options.flushEveryPublishes = 0; // flush() drives segment writes
    return options;
}

portfolio::ChampionRecord
championRecord(int64_t n)
{
    portfolio::ChampionRecord record;
    record.benchmark = "Sort";
    record.machineName = "Desktop";
    record.machineFingerprint = 0xc0ffee00c0ffee00ull;
    record.inputSize = n;
    record.seconds = 0.001 * static_cast<double>(n);
    record.config = apps::findBenchmark("Sort")->seedConfig();
    return record;
}

/**
 * The per-prefix workload, run inside the forked child with a kill
 * armed. Each traverses its crash-point family at least twice so the
 * scheduled hit lands *after* one artifact is already safely on disk —
 * that prior artifact is what recovery must find intact.
 */
void
runWorkload(const std::string &prefix, const std::string &spool,
            const std::string &cacheDir, const std::string &champDir)
{
    if (prefix == "spool.meta") {
        // Meta save #1 (create A) succeeds; step A checkpoints; meta
        // save #2 (create B) hits the armed point.
        SessionTable table(tableOptions(spool));
        table.create(SessionSpec::fromCreateRequest(tinyCreate()));
        table.step("s1", 1);
        table.create(SessionSpec::fromCreateRequest(tinyCreate(43)));
    } else if (prefix == "spool.ckpt") {
        // Checkpoint saves fire per step; the kill is scheduled at
        // hit 3, so two on-trajectory checkpoints are already good.
        SessionTable table(tableOptions(spool));
        const std::string id =
            table.create(SessionSpec::fromCreateRequest(tinyCreate()));
        for (int i = 0; i < 8; ++i)
            table.step(id, 1);
    } else if (prefix == "cache.seg") {
        // Segment #1 flushes clean; segment #2 hits the armed point.
        cache::SharedEvaluationCache sharedCache(cacheOptions(cacheDir));
        for (int i = 0; i < 4; ++i)
            sharedCache.publish(0x5eedull, 64, 0x1000u + i,
                                0.5 + 0.01 * i, 1);
        sharedCache.flush();
        for (int i = 0; i < 4; ++i)
            sharedCache.publish(0x5eedull, 128, 0x2000u + i,
                                0.7 + 0.01 * i, 1);
        sharedCache.flush();
    } else if (prefix == "portfolio.champ") {
        // Champion #1 persists clean; champion #2 hits the armed point.
        portfolio::ChampionPortfolio portfolio(champDir);
        portfolio.put(championRecord(64));
        portfolio.put(championRecord(128));
    } else {
        FAIL() << "workload missing for prefix " << prefix;
    }
}

/** Scheduled hit for the kill: late enough that prior artifacts exist. */
int
killHit(const std::string &prefix)
{
    return prefix == "spool.ckpt" ? 3 : 2;
}

/**
 * Scheduled hit for the torn-write sweep: the LAST traversal the
 * workload makes. Checkpoints alternate between two slots (s1.ckpt,
 * s1.ckpt.1), so a torn slot anywhere earlier would just be
 * overwritten two checkpoints later — the torn slot must be on disk
 * when the workload ends for the next boot to have anything to set
 * aside. The tiny session runs exactly 6 steps (two sizes, 64 and 256
 * at growth 4, times 3 generations), so its 6th checkpoint write is
 * the last.
 */
int
tornHit(const std::string &prefix)
{
    return prefix == "spool.ckpt" ? 6 : 2;
}

void
recoverAndCheck(const std::string &point, const std::string &prefix,
                const std::string &spool, const std::string &cacheDir,
                const std::string &champDir)
{
    // Recovery must never see an armed schedule.
    crashpoint::clearSchedule();

    if (prefix == "spool.meta" || prefix == "spool.ckpt") {
        // Boot fsck over the wreckage must not throw, and session s1
        // (created before the kill) must resume and replay to the
        // exact champion an uninterrupted run produces.
        SessionTable table(tableOptions(spool));
        EXPECT_LE(table.stats().spoolQuarantined, 1) << point;
        table.resume("s1");
        while (!table.status("s1").done)
            table.step("s1", 4);
        KvFile champion = table.champion("s1");

        // Same spec every time — run the uninterrupted reference once.
        static const tuner::TuningResult reference = runSpecLocally(
            SessionSpec::fromCreateRequest(tinyCreate()));
        KvFile expected = reference.best.toKv();
        for (const std::string &key : expected.keys())
            EXPECT_EQ(champion.get(key), expected.get(key))
                << point << ": config key " << key;
        EXPECT_EQ(champion.getDouble("champion.seconds"),
                  reference.bestSeconds)
            << point;
    } else if (prefix == "cache.seg") {
        // Warm start must not throw; the first flushed segment's four
        // records must all come back; at most the in-flight segment is
        // quarantined (a kill mid-sequence normally just leaves temp
        // debris, which is not wreckage).
        cache::SharedEvaluationCache reborn(cacheOptions(cacheDir));
        EXPECT_LE(reborn.stats().segmentsQuarantined, 1) << point;
        for (int i = 0; i < 4; ++i) {
            auto hit = reborn.lookup(0x5eedull, 64, 0x1000u + i, 2);
            ASSERT_TRUE(hit.has_value()) << point << " record " << i;
            EXPECT_EQ(*hit, 0.5 + 0.01 * i) << point;
        }
    } else if (prefix == "portfolio.champ") {
        portfolio::ChampionPortfolio reborn(champDir);
        EXPECT_LE(reborn.stats().quarantined, 1) << point;
        auto record =
            reborn.exact("Sort", 0xc0ffee00c0ffee00ull, 64);
        ASSERT_TRUE(record.has_value()) << point;
        EXPECT_EQ(record->seconds, 0.001 * 64) << point;
        EXPECT_EQ(record->config.valueFingerprint(),
                  championRecord(64).config.valueFingerprint())
            << point;
    }
}

TEST(CrashMatrix, EveryRegisteredPointRecovers)
{
    std::vector<std::string> points = crashpoint::catalog();
    ASSERT_GE(points.size(), 16u);

    for (const std::string &point : points) {
        const std::string prefix =
            point.substr(0, point.rfind('.'));
        SCOPED_TRACE(point);

        const std::string slug = [&] {
            std::string s = point;
            for (char &c : s)
                if (c == '.')
                    c = '_';
            return s;
        }();
        const std::string spool = freshDir(slug + "_spool");
        const std::string cacheDir = freshDir(slug + "_cache");
        const std::string champDir = freshDir(slug + "_champ");

        // Buffered output duplicated into the child would garble the
        // gtest log; flush before forking.
        std::fflush(stdout);
        std::fflush(stderr);
        pid_t pid = fork();
        ASSERT_GE(pid, 0) << "fork failed";
        if (pid == 0) {
            crashpoint::setSchedule(
                point + "@" + std::to_string(killHit(prefix)) + "=kill");
            runWorkload(prefix, spool, cacheDir, champDir);
            // Reached only if the scheduled kill never fired.
            _exit(66);
        }

        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status))
            << point << ": child did not exit (status " << status << ")";
        ASSERT_EQ(WEXITSTATUS(status), crashpoint::kCrashExitCode)
            << point << ": child exited " << WEXITSTATUS(status)
            << " instead of dying at the crash point";

        recoverAndCheck(point, prefix, spool, cacheDir, champDir);

        // The recovery boot already consumed (or ignored) the
        // wreckage; a SECOND boot over the same dirs must be clean —
        // fsck converges instead of re-quarantining forever.
        recoverAndCheck(point, prefix, spool, cacheDir, champDir);
    }
}

/**
 * Non-kill injection sweep: `torn` at every .write point lands a
 * truncated live file or checkpoint slot; the next boot must set
 * aside exactly that artifact and keep everything older byte-intact.
 */
TEST(CrashMatrix, TornWritesAreQuarantinedOnNextBoot)
{
    for (const std::string &prefix :
         {std::string("spool.ckpt"), std::string("cache.seg"),
          std::string("portfolio.champ")}) {
        SCOPED_TRACE(prefix);
        std::string slug = prefix;
        for (char &c : slug)
            if (c == '.')
                c = '_';
        const std::string spool = freshDir(slug + "_torn_spool");
        const std::string cacheDir = freshDir(slug + "_torn_cache");
        const std::string champDir = freshDir(slug + "_torn_champ");

        std::fflush(stdout);
        std::fflush(stderr);
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Torn write at the LAST traversal: the workload completes
            // (torn continues the sequence) and exits normally, with a
            // truncated live file on disk.
            crashpoint::setSchedule(
                prefix + ".write@" +
                std::to_string(tornHit(prefix)) + "=torn");
            runWorkload(prefix, spool, cacheDir, champDir);
            _exit(0);
        }
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0)
            << prefix << ": torn workload should complete";

        // A torn checkpoint slot fails its seal beside the other slot,
        // which holds the step before: s1 resumes from it and replays
        // to the identical champion.
        const std::string point = prefix + ".write(torn)";
        recoverAndCheck(point, prefix, spool, cacheDir, champDir);

        // The torn artifact really was set aside.
        const std::string dir = prefix == "cache.seg" ? cacheDir
                                : prefix == "portfolio.champ"
                                    ? champDir
                                    : spool;
        EXPECT_GE(countQuarantined(dir), 1u) << prefix;
    }
}

/**
 * A slot write torn at every byte offset of its record: the next boot
 * never throws and resumes the step the other slot holds. The third
 * checkpoint overwrites slot 0 (step 1) while slot 1 holds step 2.
 */
TEST(CrashMatrix, SlotTornAtEveryOffsetResumesTheOtherSlot)
{
    const SessionSpec spec = SessionSpec::fromCreateRequest(tinyCreate());
    HostedSession third(spec);
    third.stepMany(3);
    const size_t length = third.checkpointText().size();

    for (size_t keep = 0; keep < length; ++keep) {
        SCOPED_TRACE("torn after " + std::to_string(keep) + " of " +
                     std::to_string(length) + " bytes");
        const std::string spool = freshDir("torn_offset");
        {
            SessionTable table(tableOptions(spool));
            const std::string id = table.create(spec);
            table.step(id, 2);
            crashpoint::setSchedule("spool.ckpt.write=torn:" +
                                    std::to_string(keep));
            table.step(id, 1);
            crashpoint::clearSchedule();
        }
        SessionTable table(tableOptions(spool));
        ASSERT_EQ(table.stats().spoolQuarantined, 0);
        table.resume("s1");
        ASSERT_EQ(table.status("s1").completedSteps, 2);
    }
}

} // namespace
