/**
 * @file
 * End-to-end service tests: a real TuningServer on an ephemeral port,
 * driven over real sockets by service::Client. Covers the full command
 * lifecycle, detached stepping, error mapping, the stats endpoint, and
 * resume across a server restart on the same spool directory.
 */

#include <chrono>
#include <filesystem>
#include <gtest/gtest.h>
#include <thread>

#include "service/client.h"
#include "service/server.h"
#include "support/error.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::service;

namespace {

namespace fs = std::filesystem;

std::string
spoolDir(const char *name)
{
    return freshPath(std::string("service_e2e_") + name);
}

ServerOptions
serverOptions(const std::string &spool)
{
    ServerOptions options;
    options.port = 0; // ephemeral
    options.workers = 2;
    options.table.spoolDir = spool;
    return options;
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

/** The same search run in-process — the determinism reference. */
tuner::TuningResult
referenceRun(uint64_t seed = 42)
{
    return runSpecLocally(SessionSpec::fromCreateRequest(tinyCreate(seed)));
}

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

TEST(ServiceEndToEnd, FullLifecycleOverRealSockets)
{
    TuningServer server(serverOptions(spoolDir("lifecycle")));
    server.start();
    Client client("127.0.0.1", server.port());
    client.ping();

    std::string id = client.create(tinyCreate());
    EXPECT_FALSE(id.empty());
    tuner::SessionIntrospection view = client.introspect(id);
    EXPECT_FALSE(view.done);
    EXPECT_EQ(view.completedSteps, 0);

    EXPECT_EQ(client.step(id, 2), 2);
    EXPECT_EQ(client.introspect(id).completedSteps, 2);

    KvFile champion = client.runToCompletion(id);
    expectChampionMatches(champion, referenceRun());

    client.stopSession(id);
    EXPECT_THROW(client.status(id), FatalError);
    server.stop();
}

TEST(ServiceEndToEnd, DetachedStepCompletesInBackground)
{
    TuningServer server(serverOptions(spoolDir("detached")));
    server.start();
    Client client("127.0.0.1", server.port());

    std::string id = client.create(tinyCreate(7));
    // wait=0: the daemon answers 202 before the stepping lands.
    EXPECT_EQ(client.step(id, 1000, /*wait=*/false), 0);
    for (int i = 0; i < 600 && !client.introspect(id).done; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(client.introspect(id).done);
    expectChampionMatches(client.champion(id), referenceRun(7));
    server.stop();
}

TEST(ServiceEndToEnd, TwoClientsTuneConcurrently)
{
    TuningServer server(serverOptions(spoolDir("concurrent")));
    server.start();

    // Two sessions stepped from two threads through two connections;
    // each must land exactly its own deterministic champion.
    auto tuneOne = [&](uint64_t seed, KvFile &championOut) {
        Client client("127.0.0.1", server.port());
        std::string id = client.create(tinyCreate(seed));
        championOut = client.runToCompletion(id, 2);
    };
    KvFile championA, championB;
    std::thread threadA(tuneOne, 101, std::ref(championA));
    std::thread threadB(tuneOne, 202, std::ref(championB));
    threadA.join();
    threadB.join();
    expectChampionMatches(championA, referenceRun(101));
    expectChampionMatches(championB, referenceRun(202));
    server.stop();
}

TEST(ServiceEndToEnd, ErrorsMapToCleanHttpFailures)
{
    TuningServer server(serverOptions(spoolDir("errors")));
    server.start();
    Client client("127.0.0.1", server.port());

    // Unknown session -> 404 with the server's message.
    try {
        client.status("s999");
        FAIL() << "unknown session did not throw";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("unknown session"),
                  std::string::npos);
    }

    // Bad create (no benchmark) -> 400.
    EXPECT_THROW(client.create(KvFile()), FatalError);
    KvFile bogus;
    bogus.set("benchmark", "NoSuchBenchmark");
    EXPECT_THROW(client.create(bogus), FatalError);

    // Unknown endpoint -> error, connection stays usable after.
    EXPECT_THROW(client.command("GET", "/no-such-endpoint"), FatalError);
    client.ping();

    // The failures were counted, and the server survived all of them.
    KvFile stats = client.stats();
    EXPECT_GE(stats.getInt("command.status.errors"), 1);
    EXPECT_GE(stats.getInt("command.create.errors"), 2);
    server.stop();
}

TEST(ServiceEndToEnd, StatsEndpointCountsCommands)
{
    TuningServer server(serverOptions(spoolDir("stats")));
    server.start();
    Client client("127.0.0.1", server.port());

    std::string id = client.create(tinyCreate());
    client.step(id, 2);
    client.status(id);
    client.status(id);

    KvFile stats = client.stats();
    EXPECT_EQ(stats.getInt("command.create.count"), 1);
    EXPECT_EQ(stats.getInt("command.step.count"), 1);
    EXPECT_EQ(stats.getInt("command.status.count"), 2);
    EXPECT_GE(stats.getDouble("command.step.meanMicros"), 0.0);
    EXPECT_GE(stats.getInt("server.requests"), 5);
    EXPECT_GE(stats.getInt("server.connectionsAccepted"), 1);
    EXPECT_EQ(stats.getInt("table.resident"), 1);
    server.stop();
}

TEST(ServiceEndToEnd, JunkPathsShareOneStatsBucket)
{
    TuningServer server(serverOptions(spoolDir("junk_paths")));
    server.start();
    Client client("127.0.0.1", server.port());

    // Decoded, these paths hold '=' and a newline: neither may reach
    // a /stats key.
    EXPECT_THROW(client.command("GET", "/a%3Db"), FatalError);
    EXPECT_THROW(client.command("GET", "/x%0Ay"), FatalError);
    client.ping();
    KvFile stats = client.stats(); // throws unless it answers 200
    EXPECT_EQ(stats.getInt("command.unknown.count"), 2);
    EXPECT_EQ(stats.getInt("command.unknown.errors"), 2);
    EXPECT_EQ(stats.getInt("command.ping.count"), 1);

    // Distinct junk paths do not grow the table.
    const size_t keys = client.stats().size();
    for (int i = 0; i < 1000; ++i)
        EXPECT_THROW(client.command("GET", "/junk" + std::to_string(i)),
                     FatalError);
    stats = client.stats();
    EXPECT_EQ(stats.size(), keys);
    EXPECT_EQ(stats.getInt("command.unknown.count"), 1002);
    server.stop();
}

TEST(ServiceEndToEnd, ResumeAfterServerRestartMatchesReference)
{
    const std::string spool = spoolDir("restart");
    std::string id;
    {
        TuningServer server(serverOptions(spool));
        server.start();
        Client client("127.0.0.1", server.port());
        id = client.create(tinyCreate(55));
        client.step(id, 2);
        server.stop();
    } // per-generation checkpoints leave the search on disk

    TuningServer server(serverOptions(spool));
    server.start();
    Client client("127.0.0.1", server.port());
    EXPECT_THROW(client.status(id), FatalError); // needs resume first
    client.resume(id);
    EXPECT_EQ(client.introspect(id).completedSteps, 2);
    expectChampionMatches(client.runToCompletion(id), referenceRun(55));
    server.stop();
}

TEST(ServiceEndToEnd, ShutdownEndpointFlagsTheHostLoop)
{
    TuningServer server(serverOptions(spoolDir("shutdown")));
    server.start();
    Client client("127.0.0.1", server.port());
    EXPECT_FALSE(server.shutdownRequested());
    client.shutdownServer();
    EXPECT_TRUE(server.shutdownRequested());
    server.stop();
}

TEST(ServiceEndToEnd, HealthzAnswersInlineWithLoadCounters)
{
    TuningServer server(serverOptions(spoolDir("healthz")));
    server.start();
    Client client("127.0.0.1", server.port());

    std::string id = client.create(tinyCreate());
    KvFile health = client.command("GET", "/healthz");
    EXPECT_EQ(health.getInt("health.ok"), 1);
    EXPECT_EQ(health.getInt("health.draining"), 0);
    EXPECT_EQ(health.getInt("health.residentSessions"), 1);
    EXPECT_EQ(health.getInt("health.totalSessions"), 1);
    EXPECT_EQ(health.getInt("health.spoolQuarantined"), 0);
    EXPECT_EQ(health.getInt("health.evaluationFailures"), 0);
    EXPECT_GE(health.getInt("health.maxQueueDepth"), 1);
    EXPECT_GE(health.getInt("health.queueDepth"), 0);
    EXPECT_GE(health.getInt("health.busyWorkers"), 0);

    // The hardened counters also ride the stats endpoint.
    KvFile stats = client.stats();
    EXPECT_EQ(stats.getInt("server.draining"), 0);
    EXPECT_EQ(stats.getInt("server.backpressureRejections"), 0);
    EXPECT_EQ(stats.getInt("server.deadlineRejections"), 0);
    EXPECT_EQ(stats.getInt("table.spoolQuarantined"), 0);
    server.stop();
}

TEST(ServiceEndToEnd, FullQueueShedsLoadAsRetryableBackpressure)
{
    // maxQueueDepth = 0 makes every worker-routed command overflow the
    // queue, deterministically: each must come back 503 + Retry-After,
    // which the client surfaces as TransientError (retryable), never
    // as a hard failure. Inline commands keep answering throughout.
    ServerOptions options = serverOptions(spoolDir("backpressure"));
    options.maxQueueDepth = 0;
    TuningServer server(options);
    server.start();
    Client client("127.0.0.1", server.port());

    client.ping(); // inline: unaffected by the full queue
    EXPECT_THROW(client.create(tinyCreate()), TransientError);
    client.ping(); // the connection survived the 503

    KvFile health = client.command("GET", "/healthz");
    EXPECT_GE(health.getInt("health.backpressureRejections"), 1);
    EXPECT_EQ(health.getInt("health.totalSessions"), 0); // never ran
    server.stop();
}

TEST(ServiceEndToEnd, DrainCheckpointsEverySessionForARestart)
{
    const std::string spool = spoolDir("drain");
    tuner::TuningResult reference = referenceRun(77);
    std::string idA, idB;
    {
        ServerOptions options = serverOptions(spool);
        options.table.checkpointEachStep = false;
        TuningServer server(options);
        server.start();
        Client client("127.0.0.1", server.port());
        idA = client.create(tinyCreate(77));
        idB = client.create(tinyCreate(88));
        client.step(idA, 2);
        // Kick off detached work, then drain: the drain must wait for
        // the in-flight stepping to finish before checkpointing.
        client.step(idA, 1000, /*wait=*/false);
        server.drain();
        EXPECT_TRUE(server.draining());
    }

    // The drained spool resumes every session exactly where the drain
    // flushed it: A ran to completion (the detached step), B never
    // stepped at all — both states survived.
    TuningServer server(serverOptions(spool));
    server.start();
    Client client("127.0.0.1", server.port());
    client.resume(idA);
    client.resume(idB);
    EXPECT_TRUE(client.introspect(idA).done);
    expectChampionMatches(client.champion(idA), reference);
    EXPECT_EQ(client.introspect(idB).completedSteps, 0);
    expectChampionMatches(client.runToCompletion(idB), referenceRun(88));
    server.stop();
}

TEST(ServiceEndToEnd, ClientConnectTimeoutIsTransient)
{
    // Nothing listens on the reserved discard port: the bounded
    // connect must fail fast as TransientError (retryable), not hang
    // and not surface as a config-style fatal.
    EXPECT_THROW(Client("127.0.0.1", 9, /*timeoutMillis=*/250),
                 TransientError);
}
