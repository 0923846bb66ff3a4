/**
 * The fault-tolerance layer: deterministic fault injection, the
 * engine-level retry/backoff budget, the pool's quarantine and
 * watchdog machinery, and the tuner's never-cache-a-failure policy.
 * Every expectation here is exact — the injection schedule is a pure
 * hash of (config fingerprint, input size, seed), so there are no
 * flaky sleeps or probabilistic assertions.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>

#include "benchmarks/convolution.h"
#include "engine/engine_pool.h"
#include "engine/execution_engine.h"
#include "engine/fault_injection.h"
#include "support/error.h"
#include "tuner/session.h"

namespace petabricks {
namespace engine {
namespace {

/** Model-only benchmark: cost = lws, throws for lws == 13, +inf for
 * lws > 500 (mirrors the engine-pool test fixture). */
class SyntheticBenchmark : public apps::Benchmark
{
  public:
    std::string name() const override { return "Synthetic"; }

    tuner::Config
    seedConfig() const override
    {
        tuner::ConfigSchema::Builder schema;
        schema.addTunable({"lws", 1, 1024, 1, false});
        return tuner::Config(schema.build());
    }

    double
    evaluate(const tuner::Config &config, int64_t,
             const sim::MachineProfile &) const override
    {
        int64_t lws = config.tunableValue("lws");
        if (lws == 13)
            PB_FATAL("unlucky configuration");
        if (lws > 500)
            return std::numeric_limits<double>::infinity();
        return static_cast<double>(lws);
    }

    int64_t testingInputSize() const override { return 64; }
    int openclKernelCount() const override { return 0; }
    std::string
    describeConfig(const tuner::Config &, int64_t) const override
    {
        return "n/a";
    }
};

std::vector<tuner::Config>
syntheticBatch(const SyntheticBenchmark &bench,
               std::initializer_list<int64_t> values)
{
    std::vector<tuner::Config> configs;
    for (int64_t lws : values) {
        tuner::Config config = bench.seedConfig();
        config.setTunable("lws", lws);
        configs.push_back(config);
    }
    return configs;
}

std::unique_ptr<FaultInjectingEngine>
faultyModelEngine(FaultPlan plan)
{
    return std::make_unique<FaultInjectingEngine>(
        std::make_unique<ModelEngine>(sim::MachineProfile::desktop(), 1),
        plan);
}

/** A Desktop ModelEngine whose measure() first waits until @p release
 * returns true; after 30 s it sets @p timedOut and goes ahead, so a
 * broken ordering fails the test instead of hanging it. */
class GatedModelEngine : public ModelEngine
{
  public:
    GatedModelEngine(std::function<bool()> release,
                     std::atomic<bool> &timedOut)
        : ModelEngine(sim::MachineProfile::desktop(), 1),
          release_(std::move(release)), timedOut_(timedOut)
    {}

    double
    measure(const apps::Benchmark &benchmark, const tuner::Config &config,
            int64_t n) override
    {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!release_()) {
            if (std::chrono::steady_clock::now() > deadline) {
                timedOut_ = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return ModelEngine::measure(benchmark, config, n);
    }

  private:
    std::function<bool()> release_;
    std::atomic<bool> &timedOut_;
};

TEST(FaultInjection, ScheduleIsDeterministicAcrossEngines)
{
    SyntheticBenchmark bench;
    auto configs =
        syntheticBatch(bench, {5, 1, 9, 3, 8, 2, 44, 17, 23, 99});

    FaultPlan plan;
    plan.transientRate = 0.5;
    plan.faultsPerKey = 1;

    auto a = faultyModelEngine(plan);
    auto b = faultyModelEngine(plan);
    std::vector<double> ra = a->measureBatch(bench, configs, 64);
    std::vector<double> rb = b->measureBatch(bench, configs, 64);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i)
        EXPECT_DOUBLE_EQ(ra[i], rb[i]) << i;

    // The same keys faulted in both engines — not just the same count.
    EXPECT_EQ(a->faultStats().transients, b->faultStats().transients);
    EXPECT_GT(a->faultStats().transients, 0);

    // A different seed draws a different schedule (deterministically:
    // this comparison is exact, not probabilistic).
    FaultPlan reseeded = plan;
    reseeded.seed = 0xfeedface;
    auto c = faultyModelEngine(reseeded);
    c->measureBatch(bench, configs, 64);
    EXPECT_NE(c->faultStats().transients, a->faultStats().transients);
}

TEST(FaultInjection, RetryBudgetAbsorbsRecoverableFaults)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {5, 1, 9, 700, 3, 8, 2, 44});

    ModelEngine clean(sim::MachineProfile::desktop(), 1);
    std::vector<double> expected = clean.measureBatch(bench, configs, 64);

    FaultPlan plan;
    plan.transientRate = 0.5; // every faulting key recovers on retry
    plan.faultsPerKey = 1;
    auto faulty = faultyModelEngine(plan);
    std::vector<double> got = faulty->measureBatch(bench, configs, 64);

    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        if (std::isinf(expected[i]))
            EXPECT_TRUE(std::isinf(got[i])) << i;
        else
            EXPECT_DOUBLE_EQ(got[i], expected[i]) << i;
    }

    EngineFailureStats stats = faulty->failureStats();
    EXPECT_GT(stats.transientFailures, 0);
    EXPECT_EQ(stats.retries, stats.transientFailures);
    EXPECT_EQ(stats.evaluationFailures, 0);
    EXPECT_EQ(faulty->faultStats().transients, stats.transientFailures);
}

TEST(FaultInjection, ExhaustedRetriesYieldTheNaNSentinel)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {5, 9, 44});

    FaultPlan plan;
    plan.transientRate = 1.0; // every key faults...
    plan.faultsPerKey = -1;   // ...and never recovers
    auto faulty = faultyModelEngine(plan);
    std::vector<double> got = faulty->measureBatch(bench, configs, 64);

    ASSERT_EQ(got.size(), configs.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(std::isnan(got[i])) << i;

    EngineFailureStats stats = faulty->failureStats();
    EXPECT_EQ(stats.evaluationFailures,
              static_cast<int64_t>(configs.size()));
    EXPECT_EQ(stats.transientFailures,
              static_cast<int64_t>(configs.size()) * kMaxAttempts);
    EXPECT_EQ(stats.retries,
              static_cast<int64_t>(configs.size()) * (kMaxAttempts - 1));
}

TEST(FaultInjection, InfeasibleConfigsAreNeverRetried)
{
    // FatalError (infeasible) is deterministic: it must price as +inf
    // on the first attempt, with no retries burned on it.
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {13});

    FaultPlan plan; // no faults injected at all
    auto faulty = faultyModelEngine(plan);
    std::vector<double> got = faulty->measureBatch(bench, configs, 64);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(std::isinf(got[0]));
    EXPECT_EQ(faulty->failureStats().retries, 0);
    EXPECT_EQ(faulty->failureStats().evaluationFailures, 0);
}

TEST(FaultInjection, PerturbationScalesSuccessfulCosts)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {5, 9});

    FaultPlan plan;
    plan.perturbRate = 1.0;
    plan.perturbFactor = 2.0;
    auto faulty = faultyModelEngine(plan);
    std::vector<double> got = faulty->measureBatch(bench, configs, 64);
    EXPECT_DOUBLE_EQ(got[0], 10.0);
    EXPECT_DOUBLE_EQ(got[1], 18.0);
    EXPECT_EQ(faulty->faultStats().perturbations, 2);
}

TEST(FaultInjection, PoolQuarantinesAFlakyInstanceAndDegrades)
{
    SyntheticBenchmark bench;
    auto configs =
        syntheticBatch(bench, {5, 1, 9, 3, 8, 2, 44, 17, 23, 99, 37, 6});

    // Instance 0 fails everything forever; instance 1 is clean. The
    // lanes share one work cursor, so instance 1 holds its first item
    // until instance 0 is quarantined: otherwise a lane that starts
    // late could find every item taken and never fail at all.
    int built = 0;
    PoolOptions options;
    options.quarantineAfter = 2;
    std::atomic<EnginePool *> poolRef{nullptr};
    std::atomic<bool> timedOut{false};
    auto flakyQuarantined = [&poolRef] {
        EnginePool *pool = poolRef.load();
        return pool != nullptr && pool->instanceStats(0).quarantined;
    };
    EnginePool pool(
        [&]() -> std::unique_ptr<ExecutionEngine> {
            if (built++ == 0) {
                FaultPlan plan;
                plan.transientRate = 1.0;
                plan.faultsPerKey = -1;
                return faultyModelEngine(plan);
            }
            return std::make_unique<FaultInjectingEngine>(
                std::make_unique<GatedModelEngine>(flakyQuarantined,
                                                   timedOut),
                FaultPlan{});
        },
        2, options);
    poolRef = &pool;

    std::vector<double> got = pool.measureBatch(bench, configs, 64);
    EXPECT_FALSE(timedOut.load()) << "instance 0 was never quarantined";

    // Every item lands correctly via the surviving instance.
    ModelEngine clean(sim::MachineProfile::desktop(), 1);
    std::vector<double> expected = clean.measureBatch(bench, configs, 64);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], expected[i]) << i;

    EXPECT_TRUE(pool.instanceStats(0).quarantined);
    EXPECT_FALSE(pool.instanceStats(1).quarantined);
    EXPECT_EQ(pool.liveInstanceCount(), 1);
    EXPECT_GE(pool.instanceStats(0).transientFailures,
              options.quarantineAfter);
    EXPECT_EQ(pool.instanceStats(1).transientFailures, 0);
    EXPECT_GT(pool.instanceStats(1).calls, 0);
}

TEST(FaultInjection, LastLiveInstanceFailingYieldsNaNNotQuarantine)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {5, 9});

    PoolOptions options;
    options.quarantineAfter = 2;
    EnginePool pool(
        [] {
            FaultPlan plan;
            plan.transientRate = 1.0;
            plan.faultsPerKey = -1;
            return faultyModelEngine(plan);
        },
        1, options);

    std::vector<double> got = pool.measureBatch(bench, configs, 64);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(std::isnan(got[i])) << i;
    // Plain transients never quarantine the final live instance: a
    // degraded pool must keep limping, not go dark.
    EXPECT_FALSE(pool.instanceStats(0).quarantined);
    EXPECT_EQ(pool.liveInstanceCount(), 1);
    EXPECT_GT(pool.failureStats().evaluationFailures, 0);
}

TEST(FaultInjection, WatchdogConvertsHangsIntoQuarantine)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {5, 1, 9, 3});

    // Instance 0 hangs far past the deadline on every key; instance 1
    // is clean. The watchdog must declare the hang transient, bounce
    // the item, and quarantine the wedged instance unconditionally.
    int built = 0;
    PoolOptions options;
    options.deadlineMillis = 40;
    EnginePool pool(
        [&]() -> std::unique_ptr<ExecutionEngine> {
            FaultPlan plan;
            if (built++ == 0) {
                plan.transientRate = 1.0;
                plan.faultsPerKey = -1;
                plan.hangRate = 1.0;
                plan.hangMillis = 2000;
            }
            return faultyModelEngine(plan);
        },
        2, options);

    std::vector<double> got = pool.measureBatch(bench, configs, 64);
    ModelEngine clean(sim::MachineProfile::desktop(), 1);
    std::vector<double> expected = clean.measureBatch(bench, configs, 64);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], expected[i]) << i;

    EXPECT_TRUE(pool.instanceStats(0).quarantined);
    EXPECT_GT(pool.instanceStats(0).timeouts, 0);
    EXPECT_EQ(pool.liveInstanceCount(), 1);
}

TEST(FaultInjection, TuningChampionIsByteIdenticalUnderRecoverableFaults)
{
    // The acceptance bar of the whole layer: a search whose every
    // injected fault recovers within the retry budget must converge to
    // exactly the champion a clean search finds.
    apps::ConvolutionBenchmark bench(5);

    auto tune = [&](std::unique_ptr<ExecutionEngine> engine) {
        EngineEvaluator evaluator(bench, *engine);
        tuner::TunerOptions options;
        options.minInputSize = bench.minTuningSize();
        options.maxInputSize = bench.testingInputSize();
        engine->configureTuner(options);
        tuner::TuningSession session(evaluator, bench.seedConfig(),
                                     options);
        return session.run();
    };

    tuner::TuningResult clean = tune(std::make_unique<ModelEngine>(
        sim::MachineProfile::desktop(), 1));

    FaultPlan plan;
    plan.transientRate = 0.2;
    plan.faultsPerKey = 1;
    tuner::TuningResult faulted = tune(faultyModelEngine(plan));

    EXPECT_EQ(faulted.best.toKv().toString(),
              clean.best.toKv().toString());
    EXPECT_DOUBLE_EQ(faulted.bestSeconds, clean.bestSeconds);
    EXPECT_EQ(faulted.evaluationFailures, 0);
}

/** Evaluator whose evaluateBatch reports one chosen cost as the NaN
 * "failed after retries" sentinel every time it is asked. */
class AlwaysFailingEvaluator : public tuner::Evaluator
{
  public:
    explicit AlwaysFailingEvaluator(int64_t failingLws)
        : failingLws_(failingLws)
    {}

    double
    evaluate(const tuner::Config &config, int64_t) override
    {
        return static_cast<double>(config.tunableValue("lws"));
    }

    std::vector<double>
    evaluateBatch(std::span<const tuner::Config> configs,
                  int64_t) override
    {
        std::vector<double> seconds;
        for (const tuner::Config &config : configs) {
            int64_t lws = config.tunableValue("lws");
            if (lws == failingLws_) {
                ++failingAsked_;
                seconds.push_back(
                    std::numeric_limits<double>::quiet_NaN());
            } else {
                seconds.push_back(static_cast<double>(lws));
            }
        }
        return seconds;
    }

    int failingAsked() const { return failingAsked_; }

  private:
    int64_t failingLws_;
    int failingAsked_ = 0;
};

TEST(FaultInjection, FailedEvaluationsAreNeverCachedAsRealCosts)
{
    // The seed config's cost is the NaN sentinel on every ask. One
    // generation per size with a roomy population keeps the seed alive
    // into the second input size, where the survivor re-measure must
    // ask the evaluator *again* — a cached worst-cost substitute would
    // have answered from the cache instead.
    SyntheticBenchmark bench;
    tuner::Config seed = bench.seedConfig();
    seed.setTunable("lws", 7);

    AlwaysFailingEvaluator evaluator(7);
    tuner::TunerOptions options;
    options.populationSize = 8;
    options.generationsPerSize = 1;
    options.minInputSize = 64;
    options.maxInputSize = 256;
    options.sizeGrowthFactor = 4;
    tuner::TuningSession session(evaluator, seed, options);
    tuner::TuningResult result = session.run();

    EXPECT_GE(evaluator.failingAsked(), 2);
    EXPECT_EQ(result.evaluationFailures, evaluator.failingAsked());
    // The failing key never entered the cache, at either size.
    tuner::EvaluationCache cache = session.cache();
    EXPECT_FALSE(cache.lookup(seed, 64).has_value());
    EXPECT_FALSE(cache.lookup(seed, 256).has_value());
    // The failure was priced as worst cost: it can never be champion.
    EXPECT_NE(result.best.tunableValue("lws"), 7);
    EXPECT_FALSE(std::isnan(result.bestSeconds));
    EXPECT_FALSE(std::isinf(result.bestSeconds));
}

} // namespace
} // namespace engine
} // namespace petabricks
