/**
 * @file
 * SessionTable behavior: hosted searches match in-process ones,
 * checkpoint-backed eviction is transparent (the satellite's eviction
 * round-trip), the resident cap holds, the sweeper GCs idle and
 * abandoned sessions, and restart + resume picks searches back up.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "service/session_table.h"
#include "sim/machine.h"
#include "support/error.h"
#include "support/slot_file.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::service;

namespace {

namespace fs = std::filesystem;

/** Fresh per-test spool directory. */
std::string
spoolDir(const char *name)
{
    return freshPath(std::string("session_table_") + name);
}

/** A spec small enough that a full search is milliseconds. */
SessionSpec
tinySpec(uint64_t seed = 42, const std::string &benchmark = "Sort")
{
    KvFile kv;
    kv.set("benchmark", benchmark);
    kv.setInt("seed", static_cast<int64_t>(seed));
    kv.setInt("populationSize", 4);
    kv.setInt("generationsPerSize", 3);
    kv.setInt("minInputSize", 64);
    kv.setInt("maxInputSize", 256);
    return SessionSpec::fromCreateRequest(kv);
}

/** Champion body must carry exactly the reference search's config. */
void
expectChampionMatches(const KvFile &champion,
                      const tuner::TuningResult &reference)
{
    KvFile expected = reference.best.toKv();
    for (const std::string &key : expected.keys())
        EXPECT_EQ(champion.get(key), expected.get(key)) << key;
    EXPECT_EQ(champion.getDouble("champion.seconds"),
              reference.bestSeconds);
    EXPECT_EQ(champion.getInt("champion.done"), 1);
}

} // namespace

TEST(SessionTable, HostedSearchMatchesInProcessRun)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("basic");
    SessionTable table(options);

    SessionSpec spec = tinySpec();
    tuner::TuningResult reference = runSpecLocally(spec);

    std::string id = table.create(spec);
    tuner::SessionIntrospection view = table.status(id);
    EXPECT_FALSE(view.done);
    EXPECT_EQ(view.completedSteps, 0);
    EXPECT_GT(view.totalSteps, 0);

    // Step in uneven chunks; the cursor advances exactly as requested.
    EXPECT_EQ(table.step(id, 1), 1);
    EXPECT_EQ(table.status(id).completedSteps, 1);
    table.step(id, 1000); // clamped at completion
    view = table.status(id);
    EXPECT_TRUE(view.done);
    EXPECT_EQ(view.completedSteps, view.totalSteps);
    EXPECT_EQ(table.step(id, 1), 0); // stepping a done session: no-op

    expectChampionMatches(table.champion(id), reference);
}

TEST(SessionTable, EvictionRoundTripIsTransparent)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("evict");
    options.residentCap = 2;
    SessionTable table(options);

    SessionSpec spec = tinySpec(7);
    tuner::TuningResult reference = runSpecLocally(spec);

    // s1 runs half its search, then goes cold while s2/s3 fill the
    // table past the cap — the LRU (s1) is evicted to the spool.
    std::string id = table.create(spec);
    int half = table.status(id).totalSteps / 2;
    table.step(id, half);
    table.create(tinySpec(8));
    table.create(tinySpec(9));
    SessionTableStats stats = table.stats();
    EXPECT_GE(stats.evictions, 1);
    EXPECT_LE(stats.resident, 2u);
    EXPECT_TRUE(fs::exists(table.checkpointPath(id)));

    // status of a cold session answers from the eviction snapshot
    // without rehydrating it...
    EXPECT_EQ(table.status(id).completedSteps, half);
    EXPECT_EQ(table.stats().resident, stats.resident);

    // ...but a touch (step) transparently rehydrates, and the finished
    // search is bit-identical to the one that never left memory.
    table.step(id, 1000);
    EXPECT_GT(table.stats().rehydrations, 0);
    expectChampionMatches(table.champion(id), reference);
}

TEST(SessionTable, ResidentCountNeverExceedsCap)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("cap");
    options.residentCap = 2;
    SessionTable table(options);

    std::vector<std::string> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(table.create(tinySpec(100 + i)));
    for (const std::string &id : ids)
        table.step(id, 2);
    SessionTableStats stats = table.stats();
    EXPECT_EQ(stats.peakResident, 2u);
    EXPECT_EQ(stats.total, 6u);
    EXPECT_GE(stats.evictions, 4);
}

TEST(SessionTable, ConcurrentSteppersUnderCapPressureSerialize)
{
    // Regression: acquiring a session must check idle AND resident as
    // one atomic predicate. With residentCap exhausted, a stepper
    // waits for room with the table mutex dropped; a second stepper on
    // the same session could previously pass the busy check in that
    // window and both would run stepMany() on one HostedSession.
    // Here two threads race step(a) while a third keeps the cap
    // contended with b, forcing constant evict/rehydrate waits; the
    // searches must still finish on their deterministic trajectories.
    SessionTableOptions options;
    options.spoolDir = spoolDir("race");
    options.residentCap = 1;
    SessionTable table(options);

    SessionSpec specA = tinySpec(61);
    SessionSpec specB = tinySpec(62);
    tuner::TuningResult referenceA = runSpecLocally(specA);
    tuner::TuningResult referenceB = runSpecLocally(specB);
    std::string a = table.create(specA);
    std::string b = table.create(specB);

    auto stepUntilDone = [&table](const std::string &id) {
        while (table.step(id, 1) > 0) {
        }
    };
    std::thread racer1([&] { stepUntilDone(a); });
    std::thread racer2([&] { stepUntilDone(a); });
    std::thread contender([&] { stepUntilDone(b); });
    racer1.join();
    racer2.join();
    contender.join();

    EXPECT_TRUE(table.status(a).done);
    EXPECT_TRUE(table.status(b).done);
    EXPECT_EQ(table.stats().peakResident, 1u);
    expectChampionMatches(table.champion(a), referenceA);
    expectChampionMatches(table.champion(b), referenceB);
}

TEST(SessionTable, ResumeAfterRestartFinishesIdentically)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("restart");
    SessionSpec spec = tinySpec(21);
    tuner::TuningResult reference = runSpecLocally(spec);

    std::string id;
    {
        SessionTable table(options);
        id = table.create(spec);
        table.step(id, 2);
    } // daemon "restart": the table (and all live sessions) vanish

    SessionTable table(options);
    EXPECT_THROW(table.status(id), FatalError); // not yet resumed
    EXPECT_EQ(table.resume(id), id);
    EXPECT_EQ(table.status(id).completedSteps, 2);
    table.step(id, 1000);
    expectChampionMatches(table.champion(id), reference);

    // Fresh ids must not collide with spooled ones from the past life.
    std::string fresh = table.create(tinySpec(22));
    EXPECT_NE(fresh, id);
}

TEST(SessionTable, SweeperEvictsIdleAndExpiresAbandoned)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("sweep");
    options.idleEvictSeconds = 10;
    options.expireSeconds = 100;
    SessionTable table(options);

    std::string id = table.create(tinySpec(33));
    table.step(id, 1);
    EXPECT_EQ(table.stats().resident, 1u);

    auto now = std::chrono::steady_clock::now();
    table.sweep(now); // nothing is idle yet
    EXPECT_EQ(table.stats().resident, 1u);

    table.sweep(now + std::chrono::seconds(30)); // idle > 10s: evict
    EXPECT_EQ(table.stats().resident, 0u);
    EXPECT_EQ(table.stats().evictions, 1);
    EXPECT_TRUE(fs::exists(table.metaPath(id)));

    table.sweep(now + std::chrono::seconds(200)); // idle > 100s: GC
    EXPECT_EQ(table.stats().expired, 1);
    EXPECT_EQ(table.stats().total, 0u);
    EXPECT_FALSE(fs::exists(table.metaPath(id)));
    EXPECT_THROW(table.status(id), FatalError);
}

TEST(SessionTable, StopDeletesLiveStateAndSpool)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("stop");
    SessionTable table(options);
    std::string id = table.create(tinySpec(5));
    table.step(id, 1);
    EXPECT_TRUE(fs::exists(table.checkpointPath(id)));

    table.stop(id);
    EXPECT_THROW(table.status(id), FatalError);
    EXPECT_THROW(table.step(id, 1), FatalError);
    EXPECT_FALSE(fs::exists(table.checkpointPath(id)));
    EXPECT_FALSE(fs::exists(table.metaPath(id)));
    EXPECT_EQ(table.stats().resident, 0u);
    EXPECT_THROW(table.resume(id), FatalError); // spool is gone too
}

TEST(SessionTable, UnknownIdsRaiseCleanErrors)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("unknown");
    SessionTable table(options);
    EXPECT_THROW(table.status("s999"), FatalError);
    EXPECT_THROW(table.step("s999", 1), FatalError);
    EXPECT_THROW(table.champion("s999"), FatalError);
    EXPECT_THROW(table.stop("s999"), FatalError);
    EXPECT_THROW(table.resume("s999"), FatalError);
}

TEST(SessionSpec, CreateRequestResolvesAndRoundTrips)
{
    KvFile request;
    request.set("benchmark", "sort"); // case-insensitive lookup
    request.set("machine", "Server");
    request.setInt("seed", 99);
    SessionSpec spec = SessionSpec::fromCreateRequest(request);
    EXPECT_EQ(spec.benchmark, "Sort"); // canonicalized
    EXPECT_EQ(spec.machine, "Server");
    EXPECT_EQ(spec.tuner.seed, 99u);
    // Machine-derived compile model resolved at create time.
    EXPECT_EQ(spec.tuner.kernelCompileSeconds,
              sim::MachineProfile::server().kernelCompileSeconds);

    SessionSpec reloaded = SessionSpec::fromKv(spec.toKv());
    EXPECT_EQ(reloaded.toKv(), spec.toKv());

    KvFile bad;
    bad.set("benchmark", "NoSuchBenchmark");
    EXPECT_THROW(SessionSpec::fromCreateRequest(bad), FatalError);
    KvFile empty;
    EXPECT_THROW(SessionSpec::fromCreateRequest(empty), FatalError);
    for (const char *faultRate : {"1", "nan"}) {
        KvFile outOfRange = request;
        outOfRange.set("faultRate", faultRate);
        EXPECT_THROW(SessionSpec::fromCreateRequest(outOfRange), FatalError)
            << faultRate;
    }
    // A size ladder whose growth overflows int64 (the session's rung
    // loop used to wrap to 0 and append forever), and a population that
    // only fits int once truncated to 1.
    KvFile overflowingLadder = request;
    overflowingLadder.setInt("minInputSize", 1);
    overflowingLadder.setInt("maxInputSize", int64_t{1} << 62);
    overflowingLadder.setInt("sizeGrowthFactor", int64_t{1} << 30);
    EXPECT_THROW(SessionSpec::fromCreateRequest(overflowingLadder),
                 FatalError);
    KvFile truncatedPopulation = request;
    truncatedPopulation.setInt("populationSize", 4294967297);
    EXPECT_THROW(SessionSpec::fromCreateRequest(truncatedPopulation),
                 FatalError);
}

TEST(SessionTable, SpoolFsckQuarantinesCorruptPairsAndKeepsHealthyOnes)
{
    std::string spool = spoolDir("fsck");

    // A healthy session, written by a first daemon life.
    std::string healthyId;
    {
        SessionTableOptions options;
        options.spoolDir = spool;
        SessionTable table(options);
        healthyId = table.create(tinySpec(7));
        table.step(healthyId, 2);
    }

    // Corruption a crash could leave behind: a torn .meta, a torn
    // .ckpt under a valid .meta, and an orphan .ckpt with no spec.
    auto write = [&](const std::string &name, const std::string &text) {
        std::ofstream out(spool + "/" + name);
        out << text;
    };
    write("s90.meta", "spec.benchmark = Sort\ntrunca");
    tinySpec(8).toKv().save(spool + "/s91.meta");
    write("s91.ckpt", "not a checkpoint at all");
    write("s92.ckpt", "orphan checkpoint");

    // Boot on the damaged spool: the fsck must set the corrupt trio
    // aside (renamed, not deleted) and keep serving the healthy one.
    SessionTableOptions options;
    options.spoolDir = spool;
    SessionTable table(options);

    EXPECT_EQ(table.stats().spoolQuarantined, 3);
    EXPECT_TRUE(fs::exists(spool + "/s90.meta.quarantine"));
    EXPECT_TRUE(fs::exists(spool + "/s91.meta.quarantine"));
    EXPECT_TRUE(fs::exists(spool + "/s91.ckpt.quarantine"));
    EXPECT_TRUE(fs::exists(spool + "/s92.ckpt.quarantine"));
    EXPECT_FALSE(fs::exists(spool + "/s90.meta"));
    EXPECT_FALSE(fs::exists(spool + "/s91.meta"));

    // Quarantined ids are invisible: not resumable, and their numbers
    // can be re-issued without tripping over leftover files.
    EXPECT_THROW(table.resume("s90"), FatalError);
    EXPECT_THROW(table.resume("s91"), FatalError);

    // The healthy session survived fsck intact and resumes mid-search.
    table.resume(healthyId);
    EXPECT_EQ(table.status(healthyId).completedSteps, 2);
    while (!table.status(healthyId).done)
        table.step(healthyId, 8);
    expectChampionMatches(table.champion(healthyId),
                          runSpecLocally(tinySpec(7)));
}

namespace {

/** Open file descriptors of this process. */
size_t
openFds()
{
    size_t count = 0;
    for (const auto &entry : fs::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++count;
    }
    return count;
}

} // namespace

TEST(SessionTable, ResidentSessionsHoldAtMostTwoDescriptorsEach)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("fds");
    options.residentCap = 4;
    SessionTable table(options);
    const size_t baseline = openFds();
    size_t peak = baseline;

    // 200 sessions through the cap: each created and stepped (both
    // slots open), the oldest of the last seven rehydrated (evicting
    // another), stepped and stopped.
    std::vector<std::string> live;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const std::string id = table.create(tinySpec(seed));
        table.step(id, 2);
        live.push_back(id);
        if (live.size() > 6) {
            table.step(live.front(), 1);
            table.stop(live.front());
            live.erase(live.begin());
        }
        peak = std::max(peak, openFds());
    }
    EXPECT_GT(table.stats().evictions, 0);
    EXPECT_GT(table.stats().rehydrations, 200);
    for (const std::string &id : live)
        table.stop(id);
    EXPECT_LE(peak, baseline + 2 * options.residentCap);
    EXPECT_EQ(openFds(), baseline);
}

TEST(SessionTable, CheckpointAllFlushesEveryResidentSession)
{
    SessionTableOptions options;
    options.spoolDir = spoolDir("ckptall");
    options.checkpointEachStep = false; // only explicit saves
    SessionTable table(options);

    std::string a = table.create(tinySpec(1));
    std::string b = table.create(tinySpec(2));
    table.step(a, 2);
    table.step(b, 3);
    // step() saved once per step command, to slot 0; checkpointAll()
    // writes the other slot, so it alone can be what a restart finds.
    const std::string slotA = SlotFile::slotPath(table.checkpointPath(a), 1);
    const std::string slotB = SlotFile::slotPath(table.checkpointPath(b), 1);
    EXPECT_FALSE(fs::exists(slotA));
    EXPECT_FALSE(fs::exists(slotB));
    table.checkpointAll();
    EXPECT_TRUE(fs::exists(slotA));
    EXPECT_TRUE(fs::exists(slotB));
    fs::remove(table.checkpointPath(a));
    fs::remove(table.checkpointPath(b));

    // A fresh table on the same spool resumes both at the flushed
    // cursor — the drain-then-restart contract.
    SessionTableOptions reopened;
    reopened.spoolDir = options.spoolDir;
    SessionTable restarted(reopened);
    restarted.resume(a);
    restarted.resume(b);
    EXPECT_EQ(restarted.status(a).completedSteps, 2);
    EXPECT_EQ(restarted.status(b).completedSteps, 3);
}
