/**
 * @file
 * IO-error hardening: injected ENOSPC/EIO on every persistence path,
 * and running out of file descriptors, must degrade to a warning plus
 * a counter — never corrupt previously persisted state, never take the
 * daemon down. Also covers the triple-torn boot (wreckage in spool +
 * cache + portfolio at once), the new /stats surface
 * (io.writeFailures, server.uptimeSeconds, server.restartCount), and
 * the client's Retry-After-driven retry.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "cache/shared_cache.h"
#include "portfolio/portfolio.h"
#include "service/client.h"
#include "service/server.h"
#include "service/session_table.h"
#include "support/crashpoint.h"
#include "support/error.h"
#include "support/slot_file.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::service;

namespace {

namespace fs = std::filesystem;

class IoFaultTest : public ::testing::Test
{
  protected:
    // Injection schedules are process-global; never leak one into the
    // next test.
    void SetUp() override { crashpoint::clearSchedule(); }
    void TearDown() override { crashpoint::clearSchedule(); }

    std::string
    freshDir(const char *name)
    {
        std::string path = freshPath(std::string("io_faults_") + name);
        fs::create_directories(path);
        return path;
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

    ServerOptions
    serverOptions(const std::string &spool)
    {
        ServerOptions options;
        options.port = 0;
        options.workers = 2;
        options.table.spoolDir = spool;
        return options;
    }
};

/**
 * ENOSPC on every checkpoint write: stepping keeps succeeding (the
 * in-memory search is intact), the failures are counted, and once the
 * disk "recovers" the session still runs to the exact champion an
 * undisturbed run produces.
 */
TEST_F(IoFaultTest, EnospcCheckpointsNeverKillTheDaemon)
{
    TuningServer server(serverOptions(freshDir("enospc_spool")));
    server.start();
    Client client("127.0.0.1", server.port());

    const std::string id = client.create(tinyCreate());
    // One arm per point name, so inject one checkpoint failure per
    // step and re-arm in between (re-arming resets the hit counter).
    crashpoint::setSchedule("spool.ckpt.write=enospc");
    EXPECT_EQ(client.step(id, 1), 1); // checkpoint write failed
    crashpoint::setSchedule("spool.ckpt.write=enospc");
    EXPECT_EQ(client.step(id, 1), 1); // and again
    crashpoint::clearSchedule();

    KvFile stats = client.stats();
    EXPECT_EQ(stats.getInt("table.spoolWriteFailures"), 2);
    EXPECT_GE(stats.getInt("io.writeFailures"), 2);

    // Disk is "back": the run completes and the champion is
    // byte-identical to the uninterrupted reference.
    KvFile champion = client.runToCompletion(id);
    tuner::TuningResult reference =
        runSpecLocally(SessionSpec::fromCreateRequest(tinyCreate()));
    KvFile expected = reference.best.toKv();
    for (const std::string &key : expected.keys())
        EXPECT_EQ(champion.get(key), expected.get(key)) << key;
    EXPECT_EQ(champion.getDouble("champion.seconds"),
              reference.bestSeconds);
    server.stop();
}

/**
 * A failed checkpoint write, then a torn one: the failed write leaves
 * the next save on the same slot, so the torn write lands there too and
 * the other slot keeps the last good checkpoint, which replays to the
 * identical champion.
 */
TEST_F(IoFaultTest, FailedThenTornCheckpointKeepsTheOtherSlot)
{
    SessionTableOptions options;
    options.spoolDir = freshDir("failed_then_torn");
    const SessionSpec spec = SessionSpec::fromCreateRequest(tinyCreate());
    std::string id;
    {
        SessionTable table(options);
        id = table.create(spec);
        table.step(id, 2); // slot 0 holds step 1, slot 1 step 2
        crashpoint::setSchedule("spool.ckpt.write=enospc");
        table.step(id, 1); // slot 0 partly written, then ENOSPC
        crashpoint::setSchedule("spool.ckpt.write=torn");
        table.step(id, 1); // slot 0 again, torn
        crashpoint::clearSchedule();
        EXPECT_EQ(table.stats().spoolWriteFailures, 1);
    }
    SessionTable table(options);
    EXPECT_EQ(table.stats().spoolQuarantined, 0);
    EXPECT_EQ(table.stats().slotsQuarantined, 1);
    table.resume(id);
    EXPECT_EQ(table.status(id).completedSteps, 2);
    table.step(id, 1000);
    KvFile champion = table.champion(id);
    tuner::TuningResult reference = runSpecLocally(spec);
    KvFile expected = reference.best.toKv();
    for (const std::string &key : expected.keys())
        EXPECT_EQ(champion.get(key), expected.get(key)) << key;
    EXPECT_EQ(champion.getDouble("champion.seconds"),
              reference.bestSeconds);
}

/**
 * Out of file descriptors (EMFILE) when a session first opens a
 * checkpoint slot: a spool write failure like ENOSPC, and the slot
 * opens on the next save once descriptors are free.
 */
TEST_F(IoFaultTest, DescriptorExhaustionIsASpoolWriteFailure)
{
    SessionTableOptions options;
    options.spoolDir = freshDir("emfile");
    SessionTable table(options);
    const std::string id =
        table.create(SessionSpec::fromCreateRequest(tinyCreate()));
    table.step(id, 1); // slot 0 open

    // The lowest free descriptor becomes the limit: the next open
    // (slot 1's) fails.
    rlimit saved{};
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
    const int lowestFree = ::dup(0);
    ASSERT_GE(lowestFree, 0);
    ::close(lowestFree);
    rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(lowestFree);
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
    const int advanced = table.step(id, 1);
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);

    EXPECT_EQ(advanced, 1);
    EXPECT_EQ(table.stats().spoolWriteFailures, 1);
    const std::string slot1 = SlotFile::slotPath(table.checkpointPath(id), 1);
    EXPECT_FALSE(fs::exists(slot1));
    table.step(id, 1);
    EXPECT_TRUE(fs::exists(slot1));
    EXPECT_EQ(table.stats().spoolWriteFailures, 1);
}

/**
 * A failed segment flush re-queues the batch: nothing is lost, the
 * failure is counted, and the next healthy flush persists every
 * record.
 */
TEST_F(IoFaultTest, CacheFlushFailureRequeuesAndRetries)
{
    const std::string dir = freshDir("cache_retry");
    cache::SharedCacheOptions options;
    options.dir = dir;
    options.flushEveryPublishes = 0;

    {
        cache::SharedEvaluationCache sharedCache(options);
        for (int i = 0; i < 3; ++i)
            sharedCache.publish(0xabcull, 64, 0x100u + i, 1.0 + i, 1);

        crashpoint::setSchedule("cache.seg.write=enospc");
        sharedCache.flush(); // must not throw
        EXPECT_EQ(sharedCache.stats().writeFailures, 1);
        EXPECT_EQ(sharedCache.stats().flushes, 0);
        crashpoint::clearSchedule();

        sharedCache.flush();
        EXPECT_EQ(sharedCache.stats().flushes, 1);
    }

    // Every record survived the failed attempt and landed on disk.
    cache::SharedEvaluationCache reborn(options);
    for (int i = 0; i < 3; ++i) {
        auto hit = reborn.lookup(0xabcull, 64, 0x100u + i, 2);
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(*hit, 1.0 + i);
    }
}

/**
 * A champion whose publish write fails stays served from memory; the
 * next healthy put persists normally.
 */
TEST_F(IoFaultTest, PortfolioWriteFailureKeepsServingFromMemory)
{
    const std::string dir = freshDir("portfolio_degrade");
    portfolio::ChampionRecord record;
    record.benchmark = "Sort";
    record.machineName = "Desktop";
    record.machineFingerprint = 0xfeedull;
    record.inputSize = 64;
    record.seconds = 0.25;
    record.config = apps::findBenchmark("Sort")->seedConfig();

    {
        portfolio::ChampionPortfolio portfolio(dir);
        crashpoint::setSchedule("portfolio.champ.write=eio");
        portfolio.put(record); // must not throw
        crashpoint::clearSchedule();
        EXPECT_EQ(portfolio.stats().writeFailures, 1);

        // Still served from memory within this daemon lifetime.
        auto hit = portfolio.exact("Sort", 0xfeedull, 64);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->seconds, 0.25);

        portfolio::ChampionRecord second = record;
        second.inputSize = 128;
        portfolio.put(second); // healthy again
    }

    // Only the healthy put survived the restart — degradation, not
    // corruption.
    portfolio::ChampionPortfolio reborn(dir);
    EXPECT_EQ(reborn.stats().quarantined, 0);
    EXPECT_FALSE(reborn.exact("Sort", 0xfeedull, 64).has_value());
    EXPECT_TRUE(reborn.exact("Sort", 0xfeedull, 128).has_value());
}

/**
 * Satellite: a daemon booted over torn files in ALL THREE stores at
 * once quarantines all three and serves requests normally.
 */
TEST_F(IoFaultTest, TripleTornBootQuarantinesEveryStoreAndServes)
{
    const std::string spool = freshDir("triple_spool");
    const std::string cacheDir = freshDir("triple_cache");
    const std::string champDir = freshDir("triple_champ");
    auto plant = [](const std::string &path) {
        std::ofstream out(path);
        out << "torn mid-write, not a valid kv file";
    };
    plant(spool + "/s90.meta");
    plant(cacheDir + "/seg-00000000.kv");
    plant(champDir + "/champ-sort-0000000000000000-64.kv");

    ServerOptions options = serverOptions(spool);
    options.cache.dir = cacheDir;
    options.portfolioDir = champDir;
    TuningServer server(options); // boot fsck must not throw
    server.start();
    Client client("127.0.0.1", server.port());
    client.ping();

    KvFile stats = client.stats();
    EXPECT_EQ(stats.getInt("table.spoolQuarantined"), 1);
    EXPECT_EQ(stats.getInt("cache.segmentsQuarantined"), 1);
    EXPECT_EQ(stats.getInt("portfolio.quarantined"), 1);
    EXPECT_TRUE(fs::exists(spool + "/s90.meta.quarantine"));
    EXPECT_TRUE(fs::exists(cacheDir + "/seg-00000000.kv.quarantine"));
    EXPECT_TRUE(fs::exists(
        champDir + "/champ-sort-0000000000000000-64.kv.quarantine"));

    // Not merely alive: the daemon does real work over the wreckage.
    const std::string id = client.create(tinyCreate());
    EXPECT_EQ(client.step(id, 2), 2);
    server.stop();
}

TEST_F(IoFaultTest, StatsExposeUptimeAndRestartCount)
{
    ServerOptions options = serverOptions(freshDir("stats_spool"));
    options.restartCount = 3;
    TuningServer server(options);
    server.start();
    Client client("127.0.0.1", server.port());

    KvFile stats = client.stats();
    EXPECT_TRUE(stats.has("server.uptimeSeconds"));
    EXPECT_GE(stats.getInt("server.uptimeSeconds"), 0);
    EXPECT_EQ(stats.getInt("server.restartCount"), 3);
    EXPECT_EQ(stats.getInt("io.writeFailures"), 0);
    server.stop();
}

/**
 * The client honors the daemon's Retry-After hint on 503 — but capped
 * by policy, so a hint cannot wedge a client: two retries against a
 * permanently full queue with a 1-second hint and a 50 ms cap must
 * finish well under the 2 s the uncapped hint would cost.
 */
TEST_F(IoFaultTest, RetryAfterHintIsHonoredWithCap)
{
    ServerOptions options = serverOptions(freshDir("retry_spool"));
    options.maxQueueDepth = 0; // every worker-routed command → 503
    TuningServer server(options);
    server.start();
    Client client("127.0.0.1", server.port());

    ClientRetryPolicy policy;
    policy.attempts = 2;
    policy.maxSleepMillis = 50;
    policy.jitterCapMillis = 10;
    client.setRetryPolicy(policy);

    auto begin = std::chrono::steady_clock::now();
    EXPECT_THROW(client.create(tinyCreate()), TransientError);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - begin)
                       .count();

    // The hint was seen (the daemon's backpressure 503 carries
    // "Retry-After: 1")...
    EXPECT_EQ(client.lastRetryAfterSeconds(), 1);
    // ...the client really slept between attempts...
    EXPECT_GE(elapsed, 50);
    // ...but the cap kept the two retries far under 2 * 1 s.
    EXPECT_LT(elapsed, 1000);

    client.ping(); // connection healthy after the retries
    server.stop();
}

} // namespace
