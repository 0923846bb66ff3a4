/**
 * @file
 * Workload `serve`: the tuning service over loopback HTTP.
 *
 * An in-process TuningServer (2 workers, shared L2 cache on,
 * checkpointEachStep on, resident cap above the session count) is
 * driven in a closed loop by 2 client threads, each holding one
 * service::Client connection and a fleet of 4 sessions that it steps
 * round robin, one generation per `POST /step`. A finished session's
 * champion is fetched, the session is stopped and a new one created.
 * Sessions run Sort, Strassen, SVD and Tridiagonal Solver on Desktop,
 * Server and Laptop with default search options. Fleet slot i always
 * runs benchmark i, so every run and every set-up has the same mix;
 * the machine and the tuner seed are drawn per session, the seeds from
 * a pool of 16 so that repeated searches hit the L2 cache. One
 * generation of these models costs microseconds, so HTTP, the worker
 * queue, the session table, checkpoints and the L2 cache do most of
 * the work.
 */

#include <atomic>
#include <bit>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>

#include "benchmarks/registry.h"
#include "cache/shared_cache.h"
#include "layers.h"
#include "service/client.h"
#include "service/http.h"
#include "service/server.h"
#include "workloads.h"

namespace perfledger {

using namespace petabricks;

namespace {

const char *const kBenchmarks[] = {"Sort", "Strassen", "SVD",
                                   "Tridiagonal Solver"};
const char *const kMachines[] = {"Desktop", "Server", "Laptop"};
constexpr int kClients = 2;
constexpr size_t kFleet = 4;
constexpr int kSeedPool = 16;
constexpr double kSetupEverySeconds = 1.0;
/** Reference-kernel repetitions per pause: one pause covers a second
 * of load, ten times a single-threaded workload's. */
constexpr int kKernelReps = 21;
constexpr int kTimeoutMillis = 30000;

/** A session's recipe as the client draws it. */
struct Draw
{
    std::string benchmark;
    std::string machine;
    int64_t seed = 0;

    std::string key() const
    {
        return benchmark + "/" + machine + "/" + std::to_string(seed);
    }
};

/** One live session of a client's fleet. */
struct Live
{
    std::string id;
    Draw draw;
    service::SessionSpec spec;
    uint64_t ordinal = 0; ///< run-wide session number (trace replays)
    int64_t scored = 0;   ///< evaluations + cache hits at the last reply
    int64_t l1Hits = 0;
    int64_t l1Misses = 0;
};

/** A request the traced pass issued, for the replays. */
struct RecordedOp
{
    enum Kind { kCreate, kStep, kChampion, kStop } kind = kStep;
    Clock::time_point when{};
    uint64_t session = 0;      ///< Live::ordinal
    service::SessionSpec spec; ///< kCreate only
    std::string wire;          ///< the request bytes as Client sends them
};

/** The first champion seen for one recipe, and how often it came back. */
struct ChampionSeen
{
    service::SessionSpec spec;
    std::string body; ///< champion kvfile text without the session id
    int64_t count = 0;
};

/** Everything one client did, set-up and timed window. */
struct ClientRun
{
    Rng rng{0};
    uint64_t nextOrdinal = 0;
    std::vector<Live> fleet;
    Histogram latency;
    std::optional<SliceStats> slices; ///< set when the window opens
    int64_t steps = 0;
    int64_t scored = 0;
    int64_t l1Hits = 0;
    int64_t l1Misses = 0;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::map<std::string, ChampionSeen> champions;
    std::vector<RecordedOp> ops;
    bool record = false;
    ThreadTrace *trace = nullptr;
};

std::string
wireRequest(const std::string &method, const std::string &target,
            const std::string &body)
{
    // Byte for byte what service::Client::command writes.
    return method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
           "Content-Length: " + std::to_string(body.size()) +
           "\r\nConnection: keep-alive\r\n\r\n" + body;
}

/**
 * One command through the client. Non-2xx replies (and transport
 * errors) count as failed operations; @return false on failure.
 */
bool
issue(service::Client &client, ClientRun &run, RecordedOp::Kind kind,
      const std::string &method, const std::string &target,
      const std::string &body, const Live &live, KvFile &reply)
{
    ++run.attempted;
    if (run.record) {
        RecordedOp op;
        op.kind = kind;
        op.when = Clock::now();
        op.session = live.ordinal;
        if (kind == RecordedOp::kCreate)
            op.spec = live.spec;
        op.wire = wireRequest(method, target, body);
        run.ops.push_back(std::move(op));
    }
    try {
        reply = client.command(method, target, body);
        return true;
    } catch (const std::exception &) {
        ++run.failed;
        return false;
    }
}

/** Create a session for a fresh draw into fleet slot @p slot. */
void
createSession(service::Client &client, ClientRun &run, uint64_t seed,
              size_t slot)
{
    Live live;
    live.draw.benchmark = kBenchmarks[slot % std::size(kBenchmarks)];
    live.draw.machine = kMachines[run.rng.uniformInt(0, 2)];
    live.draw.seed =
        tunerSeed(seed, 2000 + static_cast<uint64_t>(
                                   run.rng.uniformInt(0, kSeedPool - 1)));
    live.ordinal = ++run.nextOrdinal;
    KvFile body;
    body.set("benchmark", live.draw.benchmark);
    body.set("machine", live.draw.machine);
    body.setInt("seed", live.draw.seed);
    // The daemon resolves the same spec; it is what the replays and the
    // local reference run.
    live.spec = service::SessionSpec::fromCreateRequest(body);
    KvFile reply;
    if (issue(client, run, RecordedOp::kCreate, "POST", "/create",
              body.toString(), live, reply))
        live.id = reply.get("session");
    if (slot < run.fleet.size())
        run.fleet[slot] = std::move(live);
    else
        run.fleet.push_back(std::move(live));
}

/** Fetch the champion of a finished session, stop it, replace it. */
void
retire(service::Client &client, ClientRun &run, uint64_t seed, size_t slot)
{
    Live &live = run.fleet[slot];
    KvFile champion;
    if (issue(client, run, RecordedOp::kChampion, "GET",
              "/champion?session=" + live.id, "", live, champion)) {
        KvFile canonical;
        for (const std::string &key : champion.keys())
            if (key != "session")
                canonical.set(key, champion.get(key));
        ChampionSeen &seen = run.champions[live.draw.key()];
        if (seen.count++ == 0) {
            seen.spec = live.spec;
            seen.body = canonical.toString();
        } else if (seen.body != canonical.toString()) {
            ++run.failed; // same recipe, different champion
        }
    }
    KvFile reply;
    issue(client, run, RecordedOp::kStop, "POST", "/stop?session=" + live.id,
          "", live, reply);
    createSession(client, run, seed, slot);
}

void
clientLoop(service::Client &client, ClientRun &run, uint64_t seed,
           Clock::time_point deadline)
{
    for (size_t next = 0; Clock::now() < deadline;
         next = (next + 1) % run.fleet.size()) {
        Live &live = run.fleet[next];
        KvFile reply;
        Clock::time_point before = Clock::now();
        bool ok;
        {
            SpanScope span(run.trace, "client.step", live.ordinal);
            ok = issue(client, run, RecordedOp::kStep, "POST",
                       "/step?session=" + live.id + "&steps=1", "", live,
                       reply);
        }
        Clock::time_point after = Clock::now();
        if (!ok) {
            // A session the daemon no longer knows cannot recover:
            // replace it rather than failing on it forever.
            createSession(client, run, seed, next);
            continue;
        }
        run.latency.record(microsBetween(before, after));
        run.slices->record(after, microsBetween(before, after));
        ++run.steps;
        int64_t scored = reply.getInt("status.evaluations") +
                         reply.getInt("status.cacheHits");
        run.scored += scored - live.scored;
        live.scored = scored;
        int64_t hits = reply.getInt("cache.hits");
        int64_t misses = reply.getInt("cache.misses");
        run.l1Hits += hits - live.l1Hits;
        run.l1Misses += misses - live.l1Misses;
        live.l1Hits = hits;
        live.l1Misses = misses;
        if (reply.getInt("status.done") != 0)
            retire(client, run, seed, next);
    }
}

/** A booted daemon with its connected clients. Members destroy in
 * reverse order: clients disconnect before the server stops. */
struct Daemon
{
    std::unique_ptr<service::TuningServer> server;
    std::vector<std::unique_ptr<service::Client>> clients;
};

/** The set-up: boot over fresh directories named @p prefix* (fsck
 * passes included), connect the clients, create the first wave of
 * sessions. */
Daemon
boot(const StateDir &state, const std::string &prefix, uint64_t seed,
     std::vector<ClientRun> &runs)
{
    service::ServerOptions options;
    options.workers = 2;
    options.table.spoolDir = state.sub(prefix + "spool");
    options.table.residentCap = 64;
    options.table.checkpointEachStep = true;
    options.cache.dir = state.sub(prefix + "cache");
    options.portfolioDir = state.sub(prefix + "portfolio");
    Daemon daemon;
    daemon.server = std::make_unique<service::TuningServer>(options);
    daemon.server->start();
    runs.assign(kClients, ClientRun{});
    for (size_t c = 0; c < runs.size(); ++c) {
        daemon.clients.push_back(std::make_unique<service::Client>(
            "127.0.0.1", daemon.server->port(), kTimeoutMillis));
        runs[c].rng = Rng(mix(seed, 1000 + c));
        runs[c].nextOrdinal = (c + 1) << 32;
        for (size_t s = 0; s < kFleet; ++s)
            createSession(*daemon.clients[c], runs[c], seed, s);
    }
    return daemon;
}

/** Server-side step time and counters between two /stats snapshots. */
struct StatsDelta
{
    double stepMicros = 0.0;
    int64_t rejected = 0;
    int64_t l2Hits = 0;
    int64_t l2Misses = 0;
    int64_t evaluationFailures = 0;
};

StatsDelta
statsDelta(const KvFile &before, const KvFile &after)
{
    auto total = [](const KvFile &kv) {
        return kv.has("command.step.count")
                   ? kv.getDouble("command.step.meanMicros") *
                         static_cast<double>(kv.getInt("command.step.count"))
                   : 0.0;
    };
    auto delta = [&](const char *key) {
        return after.getIntOr(key, 0) - before.getIntOr(key, 0);
    };
    StatsDelta d;
    d.stepMicros = ratio(total(after) - total(before),
                         static_cast<double>(delta("command.step.count")));
    d.rejected = delta("server.backpressureRejections") +
                 delta("server.deadlineRejections");
    d.l2Hits = delta("cache.hits");
    d.l2Misses = delta("cache.misses");
    d.evaluationFailures = delta("table.evaluationFailures");
    return d;
}

/** One closed-loop pass, merged over its clients. */
struct Pass
{
    std::optional<SliceStats> slices; ///< the end-to-end figures
    Histogram latency;
    int64_t steps = 0;
    int64_t scored = 0;
    int64_t l1Hits = 0;
    int64_t l1Misses = 0;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::map<std::string, ChampionSeen> champions;
    std::vector<RecordedOp> ops; ///< traced pass only, by issue time
    StatsDelta stats;
};

/**
 * Boot the daemon, then run the timed window of @p seconds. With
 * @p setups set, the window runs in parts of kSetupEverySeconds and a
 * throwaway daemon boots between parts: its boot is a set-up
 * repetition, and the whole break is left out of the window.
 */
Pass
runPass(const Options &options, const StateDir &state, double seconds,
        SetupReps *setups, Tracer *tracer)
{
    Pass pass;
    std::vector<ClientRun> runs;
    Clock::time_point bootStart = Clock::now();
    Daemon daemon = boot(state, "", options.seed, runs);
    if (setups)
        setups->add(secondsSince(bootStart));

    KvFile before = daemon.clients[0]->stats();
    const Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (ClientRun &run : runs) {
        run.slices.emplace(start, seconds);
        run.record = tracer != nullptr;
        run.trace = tracer ? tracer->thread() : nullptr;
    }
    while (Clock::now() < deadline) {
        const Clock::time_point partEnd =
            setups ? std::min(deadline,
                              Clock::now() +
                                  std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          kSetupEverySeconds)))
                   : deadline;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < runs.size(); ++c)
            threads.emplace_back([&, c] {
                try {
                    clientLoop(*daemon.clients[c], runs[c], options.seed,
                               partEnd);
                } catch (const std::exception &) {
                    ++runs[c].failed; // malformed reply: stop this client
                }
            });
        for (std::thread &thread : threads)
            thread.join();
        if (!setups)
            continue;
        // The clients are idle: time the reference kernel for this part
        // (the first client's slices carry it into the merged figures).
        Clock::time_point pauseStart = Clock::now();
        runs[0].slices->calibrate(kKernelReps);
        if (Clock::now() >= deadline)
            continue;
        {
            std::vector<ClientRun> scratch;
            Clock::time_point setupStart = Clock::now();
            Daemon extra = boot(state, "setup-", options.seed, scratch);
            setups->add(secondsSince(setupStart));
        } // shuts the throwaway daemon down, untimed
        Clock::duration paused = Clock::now() - pauseStart;
        for (ClientRun &run : runs)
            run.slices->pause(paused);
        deadline += paused;
    }
    pass.stats = statsDelta(before, daemon.clients[0]->stats());
    daemon = Daemon{};

    pass.slices.emplace(start, seconds);
    for (ClientRun &run : runs) {
        pass.slices->merge(*run.slices);
        pass.latency.merge(run.latency);
        pass.steps += run.steps;
        pass.scored += run.scored;
        pass.l1Hits += run.l1Hits;
        pass.l1Misses += run.l1Misses;
        pass.attempted += run.attempted;
        pass.failed += run.failed;
        for (auto &[key, seen] : run.champions) {
            auto [it, inserted] = pass.champions.emplace(key, seen);
            if (inserted)
                continue;
            if (it->second.body != seen.body)
                pass.failed += seen.count;
            it->second.count += seen.count;
        }
        pass.ops.insert(pass.ops.end(), run.ops.begin(), run.ops.end());
    }
    std::sort(pass.ops.begin(), pass.ops.end(),
              [](const RecordedOp &a, const RecordedOp &b) {
                  return a.when < b.when;
              });
    return pass;
}

/** Every distinct recipe's champion must equal service::runSpecLocally
 * on the same spec: config and seconds, bit-exact. @return failures. */
int64_t
checkChampions(const Pass &pass)
{
    int64_t failed = 0;
    for (const auto &[key, seen] : pass.champions) {
        tuner::TuningResult local = service::runSpecLocally(seen.spec);
        KvFile body = KvFile::fromString(seen.body);
        bool same =
            body.getIntOr("champion.done", 0) == 1 &&
            std::bit_cast<uint64_t>(body.getDouble("champion.seconds")) ==
                std::bit_cast<uint64_t>(local.bestSeconds);
        KvFile config = local.best.toKv();
        for (const std::string &configKey : config.keys())
            same = same && body.has(configKey) &&
                   body.get(configKey) == config.get(configKey);
        if (!same)
            failed += seen.count; // every session of the recipe was wrong
    }
    return failed;
}

// ---- Traced-run replays ---------------------------------------------------

constexpr double kReplaySeconds = 1.5;

/** HttpParser over the recorded request bytes: ns per request. */
double
replayParse(const std::vector<RecordedOp> &ops, int64_t &failed)
{
    const size_t count = std::min<size_t>(ops.size(), 20000);
    if (count == 0)
        return 0.0;
    int64_t parsed = 0;
    std::vector<double> perRequest;
    for (int pass = 0; pass < 5; ++pass) {
        Clock::time_point start = Clock::now();
        for (size_t i = 0; i < count; ++i) {
            service::HttpParser parser;
            parser.feed(ops[i].wire.data(), ops[i].wire.size());
            parsed += parser.next().has_value();
        }
        perRequest.push_back(microsBetween(start, Clock::now()) * 1000.0 /
                             static_cast<double>(count));
    }
    failed += 5 * static_cast<int64_t>(count) - parsed;
    return median(perRequest);
}

/** SessionTable::step without HTTP, on the recorded sequence of
 * creates, steps, champions and stops: mean microseconds per step. */
double
replayTable(const std::vector<RecordedOp> &ops, const StateDir &state,
            int64_t &failed)
{
    cache::SharedCacheOptions cacheOptions;
    cacheOptions.dir = state.sub("replay-cache");
    cache::SharedEvaluationCache cache(cacheOptions);
    service::SessionTableOptions options;
    options.spoolDir = state.sub("replay-spool");
    options.residentCap = 64;
    options.checkpointEachStep = true;
    options.sharedCache = &cache;
    service::SessionTable table(options);

    std::map<uint64_t, std::string> ids;
    Histogram steps;
    const Clock::time_point start = Clock::now();
    for (const RecordedOp &op : ops) {
        if (secondsSince(start) > kReplaySeconds)
            break;
        try {
            if (op.kind == RecordedOp::kCreate) {
                ids[op.session] = table.create(op.spec);
                continue;
            }
            auto it = ids.find(op.session);
            if (it == ids.end())
                continue; // created before the window opened
            if (op.kind == RecordedOp::kStep) {
                Clock::time_point before = Clock::now();
                table.step(it->second, 1);
                steps.record(microsBetween(before, Clock::now()));
            } else if (op.kind == RecordedOp::kChampion) {
                table.champion(it->second);
            } else {
                table.stop(it->second);
                ids.erase(it);
            }
        } catch (const std::exception &) {
            ++failed;
        }
    }
    return steps.mean();
}

/** HostedSession::save after every step of a few recorded recipes:
 * mean microseconds and bytes per checkpoint. */
std::pair<double, double>
replayCheckpoint(const std::vector<RecordedOp> &ops, const StateDir &state)
{
    const std::string dir = state.sub("replay-ckpt");
    Histogram saves;
    double bytes = 0.0;
    std::set<std::string> done;
    for (const RecordedOp &op : ops) {
        if (op.kind != RecordedOp::kCreate || done.count(op.spec.benchmark))
            continue;
        done.insert(op.spec.benchmark); // one recipe per benchmark
        service::HostedSession session(op.spec);
        const std::string path = dir + "/" + std::to_string(op.session) + ".ckpt";
        while (!session.done()) {
            session.stepMany(1);
            Clock::time_point before = Clock::now();
            session.save(path);
            saves.record(microsBetween(before, Clock::now()));
            bytes += static_cast<double>(std::filesystem::file_size(path));
        }
    }
    return {saves.mean(), ratio(bytes, static_cast<double>(saves.count()))};
}

/** The recorded recipes re-run in process as TuningSessions behind a
 * fresh L2, each to completion, with session and engine spans. */
struct Mirror
{
    std::map<std::string, SpanSummary> spans;
    EngineCounters engine;
    int64_t retries = 0;
    int64_t failures = 0;
};

Mirror
replayMirror(const std::vector<RecordedOp> &ops, Tracer &tracer,
             PricedSampler &sampler,
             std::map<std::string, sim::MachineProfile> &machines)
{
    Mirror mirror;
    ThreadTrace *trace = tracer.thread();
    cache::SharedEvaluationCache cache(cache::SharedCacheOptions{});
    std::map<std::string, apps::BenchmarkPtr> benchmarks;
    const Clock::time_point start = Clock::now();
    for (const RecordedOp &op : ops) {
        if (op.kind != RecordedOp::kCreate)
            continue;
        if (secondsSince(start) > kReplaySeconds)
            break;
        apps::BenchmarkPtr &benchmark = benchmarks[op.spec.benchmark];
        if (!benchmark)
            benchmark = apps::findBenchmark(op.spec.benchmark);
        auto [it, inserted] = machines.try_emplace(op.spec.machine);
        if (inserted)
            it->second = sim::MachineProfile::byName(op.spec.machine);
        const sim::MachineProfile &machine = it->second;
        engine::ModelEngine engine(machine, op.spec.engineParallelism);
        engine::EngineEvaluator evaluator(*benchmark, engine);
        TracingEvaluator traced(evaluator, trace, mirror.engine, sampler,
                                benchmark, &machine);
        tuner::TuningSession session(traced, benchmark->seedConfig(),
                                     op.spec.tuner);
        session.attachSharedCache(&cache, engine.cacheScope(*benchmark));
        SpanScope searchSpan(trace, "search", op.session);
        while (!session.done()) {
            SpanScope stepSpan(trace, "session.step", op.session);
            session.step();
        }
        engine::EngineFailureStats stats = engine.failureStats();
        mirror.retries += stats.retries;
        mirror.failures += stats.evaluationFailures;
    }
    mirror.spans = tracer.summarize();
    return mirror;
}

} // namespace

Outcome
runServe(const Options &options)
{
    Outcome out;
    StateDir state;
    if (!options.trace) {
        SetupReps setups(kSetupEverySeconds);
        Pass pass = runPass(options, state, options.seconds, &setups, nullptr);
        out.attempted = pass.attempted;
        // A 503 (backpressure or deadline) already fails its request in
        // issue(); the daemon's own count also catches any it retried.
        out.failed = pass.failed + pass.stats.rejected + checkChampions(pass);
        addEndToEnd(out, *pass.slices, setups);
        return out;
    }

    // Traced run: an untraced half for reference, then the traced half
    // (client spans, recorded requests, /stats deltas), then replays of
    // what the traced half did, layer by layer.
    Pass plain = runPass(options, state, options.seconds / 2, nullptr, nullptr);
    Tracer tracer;
    Pass traced = runPass(options, state, options.seconds / 2, nullptr, &tracer);
    int64_t failed = plain.failed + plain.stats.rejected +
                     checkChampions(plain) + traced.failed +
                     traced.stats.rejected + checkChampions(traced);
    int64_t attempted = plain.attempted + traced.attempted;

    const double transport =
        traced.latency.mean() - traced.stats.stepMicros;
    out.add("service.step_server_us", traced.stats.stepMicros, "us");
    out.add("service.transport_us", transport, "us");
    out.add("http.parse_ns", replayParse(traced.ops, failed), "ns");
    out.add("service.rejected", static_cast<double>(traced.stats.rejected),
            "count");
    out.add("table.step_us", replayTable(traced.ops, state, failed), "us");
    auto [saveMicros, saveBytes] = replayCheckpoint(traced.ops, state);
    out.add("checkpoint.save_us", saveMicros, "us");
    out.add("checkpoint.bytes", saveBytes, "bytes");

    PricedSampler sampler(mix(options.seed, 0x5a), 512);
    std::map<std::string, sim::MachineProfile> machines;
    Mirror mirror = replayMirror(traced.ops, tracer, sampler, machines);
    SessionCounters session{traced.steps, traced.scored, traced.l1Hits,
                            traced.l1Misses};
    addSessionMetrics(out, mirror.spans, session, mirror.engine);
    const double l2Probes =
        static_cast<double>(traced.stats.l2Hits + traced.stats.l2Misses);
    out.add("l2.hit_ratio",
            ratio(static_cast<double>(traced.stats.l2Hits), l2Probes), "ratio");
    out.add("l2.probes", l2Probes, "count");
    SharedCacheLayer l2 = replaySharedCache(sampler);
    out.add("l2.lookup_hit_ns", l2.lookupHitNs, "ns");
    out.add("l2.lookup_miss_ns", l2.lookupMissNs, "ns");
    out.add("l2.publish_ns", l2.publishNs, "ns");
    for (const auto &[key, ns] : l2.hitPathNs)
        out.add("l2.hit_path_ns." + key, ns, "ns");
    out.add("engine.retries", static_cast<double>(mirror.retries), "count");
    out.add("engine.failures",
            static_cast<double>(mirror.failures +
                                traced.stats.evaluationFailures),
            "count");
    ModelLayer model = replayModel(sampler);
    addModelMetrics(out, model, sampler);
    attempted += model.checked;
    failed += model.mismatches;
    addTraceMetrics(out, plain.slices->latency(0.5),
                    traced.slices->latency(0.5), traced.slices->rate());
    tracer.write(traceOutPath(options.workload));
    out.attempted = attempted;
    out.failed = failed;
    return out;
}

} // namespace perfledger
