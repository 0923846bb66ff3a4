/**
 * @file
 * Workload `search`: model-bound tuning, in process and single-threaded.
 *
 * Serial TuningSessions run through EngineEvaluator over a
 * ModelEngine(machine, 1) with the L1 cache on and no L2 cache, for the
 * four model-heavy benchmarks at their paper tuning sizes on Desktop,
 * Server and Laptop, population 64. One cycle runs one search per
 * (benchmark, machine); every search takes its own seed derived from
 * the run seed. The cost model does nearly all the work here; the
 * service and L2 layers do none.
 */

#include <bit>
#include <memory>
#include <optional>

#include "benchmarks/registry.h"
#include "layers.h"
#include "workloads.h"

namespace perfledger {

using namespace petabricks;

namespace {

const char *const kBenchmarks[] = {"Poisson2D SOR", "SeparableConv.",
                                   "Black-Scholes", "Mandelbrot"};
const char *const kMachines[] = {"Desktop", "Server", "Laptop"};
constexpr int kPopulation = 64;
constexpr double kSetupEverySeconds = 0.1;
constexpr int kKernelReps = 5;

/** One (benchmark, machine) pair with its engine and search knobs. */
struct Target
{
    apps::BenchmarkPtr benchmark;
    sim::MachineProfile machine;
    std::unique_ptr<engine::ModelEngine> engine;
    tuner::TunerOptions options;
};

/** The set-up: build the benchmarks, the machines and their engines. */
std::vector<Target>
buildTargets()
{
    std::vector<Target> targets;
    for (const char *name : kBenchmarks) {
        apps::BenchmarkPtr benchmark = apps::findBenchmark(name);
        for (const char *machineName : kMachines) {
            Target target;
            target.benchmark = benchmark;
            target.machine = sim::MachineProfile::byName(machineName);
            target.engine =
                std::make_unique<engine::ModelEngine>(target.machine, 1);
            target.options.minInputSize = benchmark->minTuningSize();
            target.options.maxInputSize = benchmark->testingInputSize();
            target.engine->configureTuner(target.options);
            target.options.populationSize = kPopulation;
            targets.push_back(std::move(target));
        }
    }
    return targets;
}

/** Tracing hooks of the traced pass (all null when untraced). */
struct TraceHooks
{
    ThreadTrace *trace = nullptr;
    EngineCounters *engine = nullptr;
    PricedSampler *sampler = nullptr;
    SessionCounters *session = nullptr;
};

struct Pass
{
    std::optional<SliceStats> slices; ///< generation latencies
    int64_t steps = 0;
    int64_t champions = 0;  ///< finished searches, each checked
    int64_t mismatches = 0; ///< champions that failed the check
};

/** A champion's seconds must equal a fresh ModelEngine::measure of its
 * config, bit for bit. */
bool
championHolds(const Target &target, const tuner::TuningResult &result)
{
    engine::ModelEngine fresh(target.machine, 1);
    double seconds = fresh.measure(*target.benchmark, result.best,
                                   target.options.maxInputSize);
    return std::bit_cast<uint64_t>(seconds) ==
           std::bit_cast<uint64_t>(result.bestSeconds);
}

/**
 * Searches back to back for @p seconds of timed work. Each champion is
 * checked as its search finishes, on a paused clock, so that memory
 * does not grow with the number of searches a run completes; the
 * set-up is repeated between searches (when @p setups is set), also on
 * the paused clock.
 */
Pass
runPass(const std::vector<Target> &targets, uint64_t seed, double seconds,
        const TraceHooks &hooks, SetupReps *setups)
{
    Pass pass;
    const Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    pass.slices.emplace(start, seconds);
    uint64_t searchId = 0;
    bool timeUp = false;
    for (uint64_t cycle = 0; !timeUp; ++cycle) {
        for (size_t t = 0; t < targets.size() && !timeUp; ++t) {
            const Target &target = targets[t];
            tuner::TunerOptions options = target.options;
            options.seed = static_cast<uint64_t>(
                tunerSeed(seed, cycle * targets.size() + t));
            engine::EngineEvaluator evaluator(*target.benchmark,
                                              *target.engine);
            std::unique_ptr<TracingEvaluator> traced;
            if (hooks.trace)
                traced = std::make_unique<TracingEvaluator>(
                    evaluator, hooks.trace, *hooks.engine, *hooks.sampler,
                    target.benchmark, &target.machine);
            tuner::TuningSession session(
                traced ? static_cast<tuner::Evaluator &>(*traced)
                       : static_cast<tuner::Evaluator &>(evaluator),
                target.benchmark->seedConfig(), options);

            ++searchId;
            SpanScope searchSpan(hooks.trace, "search", searchId);
            while (!session.done()) {
                Clock::time_point before = Clock::now();
                {
                    SpanScope stepSpan(hooks.trace, "session.step", searchId);
                    session.step();
                }
                Clock::time_point after = Clock::now();
                pass.slices->record(after, microsBetween(before, after));
                ++pass.steps;
                if (after >= deadline) {
                    timeUp = true;
                    break;
                }
            }
            tuner::TuningResult result = session.result();
            if (hooks.session) {
                tuner::SessionIntrospection view = session.introspect();
                hooks.session->steps += view.completedSteps;
                hooks.session->scored += result.evaluations + result.cacheHits;
                hooks.session->l1Hits += view.cacheStats.hits;
                hooks.session->l1Misses += view.cacheStats.misses;
            }
            Clock::time_point pauseStart = Clock::now();
            if (session.done()) {
                ++pass.champions;
                pass.mismatches += championHolds(target, result) ? 0 : 1;
            }
            if (pass.slices->kernelDue())
                pass.slices->calibrate(kKernelReps);
            if (setups && setups->due()) {
                Clock::time_point setupStart = Clock::now();
                buildTargets();
                setups->add(secondsSince(setupStart));
            }
            Clock::duration paused = Clock::now() - pauseStart;
            pass.slices->pause(paused);
            deadline += paused;
        }
    }
    return pass;
}

} // namespace

Outcome
runSearch(const Options &options)
{
    Outcome out;
    SetupReps setups(kSetupEverySeconds);
    Clock::time_point setupStart = Clock::now();
    std::vector<Target> targets = buildTargets();
    setups.add(secondsSince(setupStart));

    if (!options.trace) {
        Pass pass =
            runPass(targets, options.seed, options.seconds, {}, &setups);
        out.attempted = pass.steps + pass.champions;
        out.failed = pass.mismatches;
        addEndToEnd(out, *pass.slices, setups);
        return out;
    }

    // Traced run: an untraced half for reference, then the traced half
    // over the same seed, then the model replays.
    Pass plain =
        runPass(targets, options.seed, options.seconds / 2, {}, nullptr);
    Tracer tracer;
    EngineCounters engineCounters;
    PricedSampler sampler(mix(options.seed, 0x5a), 512);
    SessionCounters sessionCounters;
    TraceHooks hooks{tracer.thread(), &engineCounters, &sampler,
                     &sessionCounters};
    Pass traced =
        runPass(targets, options.seed, options.seconds / 2, hooks, nullptr);
    ModelLayer model = replayModel(sampler);

    out.attempted = plain.steps + traced.steps + plain.champions +
                    traced.champions + model.checked;
    out.failed = plain.mismatches + traced.mismatches + model.mismatches;

    engine::EngineFailureStats failures;
    for (const Target &target : targets) {
        engine::EngineFailureStats stats = target.engine->failureStats();
        failures.retries += stats.retries;
        failures.evaluationFailures += stats.evaluationFailures;
    }
    addSessionMetrics(out, tracer.summarize(), sessionCounters,
                      engineCounters);
    out.add("engine.retries", static_cast<double>(failures.retries), "count");
    out.add("engine.failures",
            static_cast<double>(failures.evaluationFailures), "count");
    addModelMetrics(out, model, sampler);
    // No L2 in this workload: the hit path is timed on what it priced,
    // beside model.evaluate_ns of the same benchmarks.
    SharedCacheLayer l2 = replaySharedCache(sampler);
    for (const auto &[key, ns] : l2.hitPathNs)
        out.add("l2.hit_path_ns." + key, ns, "ns");
    addTraceMetrics(out, plain.slices->latency(0.5),
                    traced.slices->latency(0.5), traced.slices->rate());
    tracer.write(traceOutPath(options.workload));
    return out;
}

} // namespace perfledger
