/**
 * Batched evaluation across the engine layer: the measureBatch
 * default, ModelEngine's parallel batches (order-preserving, so
 * bit-identical to serial), EnginePool fan-out across RuntimeEngine
 * instances, and the concurrency gates that keep function-style
 * benchmarks (shared ChoiceFile) off the parallel path.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "benchmarks/convolution.h"
#include "benchmarks/sort.h"
#include "engine/engine_pool.h"
#include "engine/execution_engine.h"
#include "support/error.h"

namespace petabricks {
namespace engine {
namespace {

/** Model-only benchmark: cost = lws, throws for lws == 13, +inf for
 * lws > 500. */
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

/**
 * Meeting point for the lanes of a pool: arrive() blocks until
 * @p lanes calls have arrived, or until a timeout, which is recorded
 * rather than left to hang the test.
 */
class Rendezvous
{
  public:
    explicit Rendezvous(int lanes) : lanes_(lanes) {}

    void
    arrive()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++arrived_;
        allArrived_.notify_all();
        if (!allArrived_.wait_for(lock, std::chrono::seconds(30),
                                  [this] { return arrived_ >= lanes_; }))
            timedOut_ = true;
    }

    bool
    timedOut() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return timedOut_;
    }

  private:
    const int lanes_;
    mutable std::mutex mutex_;
    std::condition_variable allArrived_;
    int arrived_ = 0;
    bool timedOut_ = false;
};

/** A RuntimeEngine whose runs wait at a Rendezvous before running. A
 * lane held there claims nothing else, so the first arrivals are one
 * per lane: the batch cannot finish on fewer lanes than it fans to. */
class RendezvousEngine : public RuntimeEngine
{
  public:
    explicit RendezvousEngine(Rendezvous &rendezvous)
        : rendezvous_(rendezvous)
    {}

    RunResult
    run(const apps::Benchmark &benchmark, const tuner::Config &config,
        int64_t n) override
    {
        rendezvous_.arrive();
        return RuntimeEngine::run(benchmark, config, n);
    }

  private:
    Rendezvous &rendezvous_;
};

std::vector<tuner::Config>
convolutionBatch()
{
    std::vector<tuner::Config> configs;
    for (bool separable : {false, true})
        for (bool local : {false, true})
            configs.push_back(apps::ConvolutionBenchmark::fixedMapping(
                separable, local));
    return configs;
}

TEST(MeasureBatch, ParallelModelBatchMatchesSerialExactly)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {5, 1, 9, 700, 3, 8, 2, 44});

    ModelEngine serial(sim::MachineProfile::desktop(), 1);
    ModelEngine parallel(sim::MachineProfile::desktop(), 8);

    std::vector<double> a = serial.measureBatch(bench, configs, 64);
    std::vector<double> b = parallel.measureBatch(bench, configs, 64);
    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        if (std::isinf(a[i]))
            EXPECT_TRUE(std::isinf(b[i])) << i;
        else
            EXPECT_DOUBLE_EQ(a[i], b[i]) << i;
    }

    std::vector<double> small = parallel.measureBatch(
        bench, syntheticBatch(bench, {5, 1, 9}), 64);
    ASSERT_EQ(small.size(), 3u);
    EXPECT_DOUBLE_EQ(small[0], 5.0);
    EXPECT_DOUBLE_EQ(small[1], 1.0);
    EXPECT_DOUBLE_EQ(small[2], 9.0);
}

TEST(MeasureBatch, PricesInfeasibleAsInfinityInsteadOfThrowing)
{
    SyntheticBenchmark bench;
    ModelEngine engine(sim::MachineProfile::desktop(), 4);
    auto configs = syntheticBatch(bench, {5, 13, 9});
    std::vector<double> seconds = engine.measureBatch(bench, configs, 64);
    ASSERT_EQ(seconds.size(), 3u);
    EXPECT_DOUBLE_EQ(seconds[0], 5.0);
    EXPECT_TRUE(std::isinf(seconds[1])); // FatalError -> +inf
    EXPECT_DOUBLE_EQ(seconds[2], 9.0);
}

TEST(MeasureBatch, DefaultImplementationLoopsOverMeasure)
{
    // RuntimeEngine does not override measureBatch: the base-class
    // loop must execute every config serially on the one engine.
    // measure() prices a residual above the tolerance as +inf, so a
    // finite result is a correct one.
    apps::ConvolutionBenchmark conv(5);
    RuntimeEngine engine;
    auto configs = convolutionBatch();
    std::vector<double> seconds = engine.measureBatch(conv, configs, 48);
    ASSERT_EQ(seconds.size(), configs.size());
    for (double s : seconds) {
        EXPECT_TRUE(std::isfinite(s));
        EXPECT_GT(s, 0.0);
    }
}

TEST(ConcurrencyGates, FunctionStyleBenchmarksRefuseConcurrentInstances)
{
    apps::ConvolutionBenchmark conv(5); // transform-style: safe
    apps::SortBenchmark sort;           // function-style: shared ChoiceFile
    EXPECT_TRUE(conv.realModeConcurrencySafe());
    EXPECT_FALSE(sort.realModeConcurrencySafe());

    RuntimeEngine runtime;
    EXPECT_TRUE(runtime.concurrentInstancesSafe(conv));
    EXPECT_FALSE(runtime.concurrentInstancesSafe(sort));

    ModelEngine model(sim::MachineProfile::desktop());
    EXPECT_TRUE(model.concurrentInstancesSafe(sort)); // model mode is pure
}

TEST(EnginePool, FansBatchAcrossRuntimeInstances)
{
    apps::ConvolutionBenchmark conv(5);
    Rendezvous rendezvous(3);
    EnginePool pool(
        [&rendezvous] {
            return std::make_unique<RendezvousEngine>(rendezvous);
        },
        3);
    EXPECT_EQ(pool.engineCount(), 3);
    EXPECT_TRUE(pool.supports(conv));

    auto configs = convolutionBatch();
    std::vector<double> seconds = pool.measureBatch(conv, configs, 48);
    EXPECT_FALSE(rendezvous.timedOut())
        << "fewer than 3 lanes claimed an item";
    ASSERT_EQ(seconds.size(), configs.size());
    for (size_t i = 0; i < seconds.size(); ++i) {
        EXPECT_TRUE(std::isfinite(seconds[i])) << i; // within tolerance
        EXPECT_GT(seconds[i], 0.0) << i;
    }
    // All three engines' devices saw kernel launches: the batch really
    // fanned out (4 configs over 3 engines, each engine's first run
    // held at the rendezvous until every lane had claimed one).
    for (int e = 0; e < pool.engineCount(); ++e) {
        auto *runtimeEngine =
            dynamic_cast<RuntimeEngine *>(&pool.engineAt(e));
        ASSERT_NE(runtimeEngine, nullptr);
        EXPECT_GT(runtimeEngine->device()->stats().launches, 0) << e;
    }
}

TEST(EnginePool, SerializesUnsafeBenchmarksInsteadOfRacing)
{
    // Sort shares an armed ChoiceFile: the pool must degrade to a
    // serial loop on one engine and still return correct results.
    apps::SortBenchmark sort;
    EnginePool pool([] { return std::make_unique<RuntimeEngine>(); }, 2);
    EXPECT_FALSE(pool.concurrentInstancesSafe(sort));

    std::vector<tuner::Config> configs(3, sort.seedConfig());
    std::vector<double> seconds = pool.measureBatch(sort, configs, 512);
    ASSERT_EQ(seconds.size(), 3u);
    for (double s : seconds)
        EXPECT_TRUE(std::isfinite(s)); // within tolerance
}

TEST(EnginePool, ModelPoolMatchesSingleEngine)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {7, 700, 2, 13, 41});

    ModelEngine reference(sim::MachineProfile::desktop(), 1);
    EnginePool pool(
        [] {
            return std::make_unique<ModelEngine>(
                sim::MachineProfile::desktop(), 1);
        },
        4);

    std::vector<double> a =
        reference.measureBatch(bench, configs, 64);
    std::vector<double> b = pool.measureBatch(bench, configs, 64);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::isinf(a[i]))
            EXPECT_TRUE(std::isinf(b[i])) << i;
        else
            EXPECT_DOUBLE_EQ(a[i], b[i]) << i;
    }

    // Single-config entry points delegate to the first engine.
    EXPECT_DOUBLE_EQ(pool.measure(bench, configs[0], 64), 7.0);
    EXPECT_DOUBLE_EQ(pool.run(bench, configs[2], 64).seconds, 2.0);
    EXPECT_EQ(pool.name().rfind("pool[4]:", 0), 0u);
}

/** Poll @p done every millisecond, for at most 30 s, so a broken
 * ordering fails the test instead of hanging it. */
void
waitUntil(const std::function<bool()> &done)
{
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done() && std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/** A serial model engine whose measure() throws std::runtime_error, an
 * exception outside the error taxonomy, for lws 21 and 22. The throw
 * for 22 waits for the one for 21, so 21 always fails first. */
class ThrowingEngine : public ModelEngine
{
  public:
    explicit ThrowingEngine(std::atomic<bool> &threw21)
        : ModelEngine(sim::MachineProfile::desktop(), 1), threw21_(threw21)
    {}

    double
    measure(const apps::Benchmark &benchmark, const tuner::Config &config,
            int64_t n) override
    {
        int64_t lws = config.tunableValue("lws");
        if (lws == 21) {
            threw21_ = true;
            throw std::runtime_error("broken at lws 21");
        }
        if (lws == 22) {
            waitUntil([this] { return threw21_.load(); });
            throw std::runtime_error("broken at lws 22");
        }
        return ModelEngine::measure(benchmark, config, n);
    }

  private:
    std::atomic<bool> &threw21_;
};

TEST(EnginePool, RethrowsTheLowestIndexUnexpectedException)
{
    SyntheticBenchmark bench;
    std::atomic<bool> threw21{false};
    EnginePool pool(
        [&threw21] { return std::make_unique<ThrowingEngine>(threw21); },
        3);
    auto configs = syntheticBatch(bench, {5, 22, 9, 21, 3});
    try {
        pool.measureBatch(bench, configs, 64);
        FAIL() << "measureBatch swallowed the exceptions";
    } catch (const std::runtime_error &error) {
        // By index, not by time: item 1 failed after item 3.
        EXPECT_STREQ(error.what(), "broken at lws 22");
    }
    // An exception from the configuration is not an instance fault.
    EXPECT_EQ(pool.liveInstanceCount(), 3);
}

/** A serial model engine whose instances must not run concurrently.
 * Given @p blockUntil, measure() first waits for it to hold. */
class SerialOnlyEngine : public ModelEngine
{
  public:
    explicit SerialOnlyEngine(std::function<bool()> blockUntil = {})
        : ModelEngine(sim::MachineProfile::desktop(), 1),
          blockUntil_(std::move(blockUntil))
    {}

    bool
    concurrentInstancesSafe(const apps::Benchmark &) const override
    {
        return false;
    }

    double
    measure(const apps::Benchmark &benchmark, const tuner::Config &config,
            int64_t n) override
    {
        if (blockUntil_)
            waitUntil(blockUntil_);
        return ModelEngine::measure(benchmark, config, n);
    }

  private:
    std::function<bool()> blockUntil_;
};

TEST(EnginePool, ItemsNoLaneClaimedReachTheFloorPass)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {5, 9, 44});

    // One serial lane: instance 0 blocks on the first item until the
    // watchdog quarantines it, so its lane ends with two items never
    // claimed. The deadline also bounds the floor pass's calls, so it
    // leaves room for a loaded machine.
    const EnginePool *observed = nullptr;
    int built = 0;
    PoolOptions options;
    options.deadlineMillis = 300;
    EnginePool pool(
        [&]() -> std::unique_ptr<ExecutionEngine> {
            if (built++ > 0)
                return std::make_unique<SerialOnlyEngine>();
            return std::make_unique<SerialOnlyEngine>([&observed] {
                return observed->instanceStats(0).quarantined;
            });
        },
        2, options);
    observed = &pool;

    std::vector<double> got = pool.measureBatch(bench, configs, 64);
    ASSERT_EQ(got.size(), configs.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_DOUBLE_EQ(
            got[i], static_cast<double>(configs[i].tunableValue("lws")))
            << i;
    EXPECT_EQ(pool.failureStats().evaluationFailures, 0);
    EXPECT_TRUE(pool.instanceStats(0).quarantined);
    EXPECT_EQ(pool.instanceStats(1).calls, 3);
    EXPECT_EQ(pool.liveInstanceCount(), 1);
}

TEST(EnginePool, ConfiguresTunerLikeItsEngines)
{
    sim::MachineProfile laptop = sim::MachineProfile::laptop();
    EnginePool pool(
        [&] { return std::make_unique<ModelEngine>(laptop); }, 2);
    tuner::TunerOptions options;
    pool.configureTuner(options);
    EXPECT_DOUBLE_EQ(options.kernelCompileSeconds,
                     laptop.kernelCompileSeconds);
    EXPECT_DOUBLE_EQ(options.irCacheSavings, laptop.irCacheSavings);
}

} // namespace
} // namespace engine
} // namespace petabricks
