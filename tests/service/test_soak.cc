/**
 * @file
 * The service acceptance soak: 64 sessions hosted under a resident cap
 * of 8, stepped round-robin from several threads so every session is
 * evicted and rehydrated many times mid-search. All 64 must complete,
 * every champion must be bit-identical to the same search run
 * in-process, and the resident count must never exceed the cap.
 */

#include <atomic>
#include <filesystem>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "cache/shared_cache.h"
#include "service/session_table.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::service;

namespace {

constexpr int kSessions = 64;
constexpr size_t kCap = 8;
constexpr int kThreads = 4;

SessionSpec
soakSpec(int i, double faultRate = 0.0)
{
    KvFile kv;
    kv.set("benchmark", "Sort");
    kv.setInt("seed", 1000 + i); // distinct searches, not 64 clones
    kv.setInt("populationSize", 4);
    kv.setInt("generationsPerSize", 3);
    kv.setInt("minInputSize", 64);
    kv.setInt("maxInputSize", 256);
    if (faultRate > 0.0) {
        kv.setDouble("faultRate", faultRate);
        kv.setInt("faultSeed", 7000 + i);
    }
    return SessionSpec::fromCreateRequest(kv);
}

/** Drive @p table's sessions round-robin from kThreads workers so
 * every session is evicted and rehydrated many times mid-search. */
int
stepRoundRobin(SessionTable &table, const std::vector<std::string> &ids,
               int totalSteps)
{
    std::atomic<int> cursor{0};
    std::atomic<int> advanced{0};
    auto worker = [&] {
        for (;;) {
            int j = cursor.fetch_add(1);
            if (j >= totalSteps)
                return;
            advanced += table.step(ids[j % ids.size()], 1);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
    return advanced.load();
}

} // namespace

TEST(ServiceSoak, SixtyFourSessionsUnderCapEightFinishIdentically)
{
    std::string spool = freshPath("soak");

    SessionTableOptions options;
    options.spoolDir = spool;
    options.residentCap = kCap;
    SessionTable table(options);

    std::vector<SessionSpec> specs;
    std::vector<std::string> ids;
    for (int i = 0; i < kSessions; ++i) {
        specs.push_back(soakSpec(i));
        ids.push_back(table.create(specs.back()));
    }
    const int stepsPerSession = table.status(ids[0]).totalSteps;
    ASSERT_GT(stepsPerSession, 0);

    // Round-robin one generation at a time across all 64 sessions from
    // kThreads workers: every session cycles resident -> evicted ->
    // rehydrated repeatedly, and concurrent touches of the same session
    // exercise the per-entry busy serialization.
    const int totalSteps = kSessions * stepsPerSession;
    int advanced = stepRoundRobin(table, ids, totalSteps);

    // Exactly the full search ran: round-robin hands each session its
    // own step budget, so nothing is skipped or double-stepped.
    EXPECT_EQ(advanced, totalSteps);

    SessionTableStats stats = table.stats();
    EXPECT_LE(stats.peakResident, kCap);
    EXPECT_EQ(stats.total, static_cast<size_t>(kSessions));
    // With 64 sessions squeezed through 8 slots the churn must be real.
    EXPECT_GT(stats.evictions, kSessions);

    for (int i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(table.status(ids[i]).done) << ids[i];
        tuner::TuningResult reference = runSpecLocally(specs[i]);
        KvFile champion = table.champion(ids[i]);
        KvFile expected = reference.best.toKv();
        for (const std::string &key : expected.keys())
            ASSERT_EQ(champion.get(key), expected.get(key))
                << ids[i] << " " << key;
        ASSERT_EQ(champion.getDouble("champion.seconds"),
                  reference.bestSeconds)
            << ids[i];
    }
}

TEST(ServiceSoak, FaultInjectedSessionsReachTheCleanChampions)
{
    // The same 64-sessions-under-cap-8 churn, with every session's
    // engine injecting deterministic transient faults on ~10% of its
    // evaluation keys. Each fault recovers within the retry budget
    // (FaultPlan::faultsPerKey = 1 on the hosted path), so every
    // champion must be byte-identical to the *clean* in-process run of
    // the same search — and no injected fault may ever surface as an
    // evaluation failure or a cached cost.
    std::string spool = freshPath("soak_fault");

    SessionTableOptions options;
    options.spoolDir = spool;
    options.residentCap = kCap;
    SessionTable table(options);

    std::vector<std::string> ids;
    for (int i = 0; i < kSessions; ++i)
        ids.push_back(table.create(soakSpec(i, 0.1)));
    const int stepsPerSession = table.status(ids[0]).totalSteps;
    ASSERT_GT(stepsPerSession, 0);

    // The fault knobs round-tripped into the hosted spec (and thus the
    // spool: an evicted faulty session rehydrates as a faulty session).
    ASSERT_DOUBLE_EQ(table.spec(ids[0]).faultRate, 0.1);
    ASSERT_EQ(table.spec(ids[5]).faultSeed, 7005);

    const int totalSteps = kSessions * stepsPerSession;
    EXPECT_EQ(stepRoundRobin(table, ids, totalSteps), totalSteps);

    SessionTableStats stats = table.stats();
    EXPECT_LE(stats.peakResident, kCap);
    EXPECT_GT(stats.evictions, kSessions);
    // Every injected fault recovered inside the retry budget: none may
    // be reported as an exhausted-retries failure.
    EXPECT_EQ(stats.evaluationFailures, 0);

    for (int i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(table.status(ids[i]).done) << ids[i];
        // The reference search is CLEAN — no fault injection — so this
        // comparison proves the faults were absorbed invisibly.
        tuner::TuningResult reference = runSpecLocally(soakSpec(i));
        KvFile champion = table.champion(ids[i]);
        KvFile expected = reference.best.toKv();
        for (const std::string &key : expected.keys())
            ASSERT_EQ(champion.get(key), expected.get(key))
                << ids[i] << " " << key;
        ASSERT_EQ(champion.getDouble("champion.seconds"),
                  reference.bestSeconds)
            << ids[i];
        ASSERT_EQ(table.status(ids[i]).evaluationFailures, 0) << ids[i];
    }
}

TEST(ServiceSoak, SharedCacheSoakSharesWorkAndKeepsChampions)
{
    // The same 64-sessions-under-cap-8 churn with a process-wide L2
    // attached to the table. All sessions tune the same benchmark on
    // the same machine (same cache scope), so they hammer overlapping
    // keys from kThreads workers while eviction and rehydration cycle
    // the owners. The acceptance bar: real cross-session sharing
    // happened, and every champion is still byte-identical to the
    // private-cache in-process run — the L2 changes accounting, never
    // the search.
    std::string spool = freshPath("soak_shared");

    cache::SharedCacheOptions cacheOptions;
    cacheOptions.maxBytes = 8u << 20;
    cache::SharedEvaluationCache shared(cacheOptions);

    SessionTableOptions options;
    options.spoolDir = spool;
    options.residentCap = kCap;
    options.sharedCache = &shared;
    SessionTable table(options);

    std::vector<SessionSpec> specs;
    std::vector<std::string> ids;
    for (int i = 0; i < kSessions; ++i) {
        specs.push_back(soakSpec(i));
        ids.push_back(table.create(specs.back()));
    }
    const int stepsPerSession = table.status(ids[0]).totalSteps;
    ASSERT_GT(stepsPerSession, 0);

    const int totalSteps = kSessions * stepsPerSession;
    EXPECT_EQ(stepRoundRobin(table, ids, totalSteps), totalSteps);

    SessionTableStats stats = table.stats();
    EXPECT_LE(stats.peakResident, kCap);
    EXPECT_GT(stats.evictions, kSessions);

    // The proof of sharing: sessions were served results that other
    // sessions published, and nothing non-finite ever got in.
    cache::SharedCacheStats cacheStats = shared.stats();
    EXPECT_GT(cacheStats.crossSessionHits, 0);
    EXPECT_GT(cacheStats.insertions, 0);
    EXPECT_EQ(cacheStats.rejectedNonFinite, 0);
    EXPECT_GT(cacheStats.hits + cacheStats.misses, 0);

    for (int i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(table.status(ids[i]).done) << ids[i];
        tuner::TuningResult reference = runSpecLocally(specs[i]);
        KvFile champion = table.champion(ids[i]);
        KvFile expected = reference.best.toKv();
        for (const std::string &key : expected.keys())
            ASSERT_EQ(champion.get(key), expected.get(key))
                << ids[i] << " " << key;
        ASSERT_EQ(champion.getDouble("champion.seconds"),
                  reference.bestSeconds)
            << ids[i];
    }
}
