/**
 * The unified ExecutionEngine API: every benchmark must run through
 * RuntimeEngine on the emulated OpenCL device within its residual
 * tolerance, ModelEngine must agree with direct model evaluation, and
 * the autotuner must accept either engine through the same
 * tuner::Evaluator interface.
 */
#include <gtest/gtest.h>

#include "benchmarks/backend_util.h"
#include "benchmarks/convolution.h"
#include "benchmarks/registry.h"
#include "benchmarks/sort.h"
#include "benchmarks/svd.h"
#include "engine/execution_engine.h"

namespace petabricks {
namespace engine {
namespace {

TEST(RuntimeEngine, RunsAllSevenBenchmarksWithinTolerance)
{
    RuntimeEngine engine;
    for (const apps::BenchmarkPtr &bench : apps::allBenchmarks()) {
        ASSERT_TRUE(bench->supportsRealMode()) << bench->name();
        ASSERT_TRUE(engine.supports(*bench)) << bench->name();
        RunResult result = engine.run(*bench, bench->seedConfig(),
                                      bench->realModeProbeSize());
        EXPECT_LE(result.maxError, bench->realModeTolerance())
            << bench->name();
        EXPECT_GT(result.seconds, 0.0) << bench->name();
    }
}

TEST(RuntimeEngine, TunedConfigsStayCorrect)
{
    // Non-seed choices must also execute correctly: push every
    // transform-style benchmark onto the GPU and every function-style
    // benchmark onto a non-default algorithm.
    RuntimeEngine engine;

    apps::ConvolutionBenchmark conv(5);
    tuner::Config gpuConv =
        apps::ConvolutionBenchmark::fixedMapping(/*separable=*/true,
                                                 /*localMem=*/true);
    RunResult convResult = engine.run(conv, gpuConv, 48);
    EXPECT_LE(convResult.maxError, conv.realModeTolerance());
    EXPECT_EQ(convResult.kernelCount, 2); // rows + columns kernels

    apps::SortBenchmark sort;
    tuner::Config poly = sort.seedConfig();
    tuner::SelectorRef s = poly.selector("Sort.algorithm");
    s.setAlgorithm(0, apps::kSortInsertion);
    s.insertLevel(64, apps::kSortMerge4);
    s.insertLevel(1024, apps::kSortQuick);
    RunResult sortResult = engine.run(sort, poly, 20000);
    EXPECT_LE(sortResult.maxError, sort.realModeTolerance());
}

TEST(RuntimeEngine, GpuPlacementUsesTheManagedDevice)
{
    RuntimeEngine engine;
    apps::ConvolutionBenchmark conv(5);
    int64_t before = engine.device()->stats().launches;
    engine.run(conv,
               apps::ConvolutionBenchmark::fixedMapping(false, false),
               48);
    EXPECT_GT(engine.device()->stats().launches, before);
}

TEST(ModelEngine, MatchesDirectEvaluation)
{
    sim::MachineProfile desktop = sim::MachineProfile::desktop();
    ModelEngine engine(desktop);
    for (const apps::BenchmarkPtr &bench : apps::allBenchmarks()) {
        tuner::Config seed = bench->seedConfig();
        int64_t n = bench->testingInputSize();
        RunResult result = engine.run(*bench, seed, n);
        EXPECT_DOUBLE_EQ(result.seconds,
                         bench->evaluate(seed, n, desktop))
            << bench->name();
        EXPECT_EQ(result.maxError, 0.0);
        EXPECT_EQ(result.kernelCount,
                  static_cast<int>(bench->kernelSources(seed, n).size()));
    }
}

TEST(ModelEngine, ConfiguresTunerFromMachineProfile)
{
    sim::MachineProfile laptop = sim::MachineProfile::laptop();
    ModelEngine engine(laptop);
    tuner::TunerOptions options;
    engine.configureTuner(options);
    EXPECT_DOUBLE_EQ(options.kernelCompileSeconds,
                     laptop.kernelCompileSeconds);
    EXPECT_DOUBLE_EQ(options.irCacheSavings, laptop.irCacheSavings);
}

tuner::TunerOptions
tinySearch(uint64_t seed)
{
    tuner::TunerOptions options;
    options.seed = seed;
    options.populationSize = 3;
    options.generationsPerSize = 2;
    options.minInputSize = 256;
    options.maxInputSize = 1024;
    options.trialsPerEvaluation = 1;
    return options;
}

TEST(EngineEvaluator, TunerAcceptsEitherEngine)
{
    apps::SortBenchmark sort;

    ModelEngine model(sim::MachineProfile::desktop());
    tuner::TuningResult modelTuned =
        apps::tuneWithEngine(sort, model, tinySearch(7));
    EXPECT_GT(modelTuned.evaluations, 0);
    EXPECT_TRUE(std::isfinite(modelTuned.bestSeconds));

    // The paper's actual methodology: the same search, evaluating
    // candidates by really executing them.
    RuntimeEngine runtime;
    tuner::TuningResult realTuned =
        apps::tuneWithEngine(sort, runtime, tinySearch(7));
    EXPECT_GT(realTuned.evaluations, 0);
    EXPECT_TRUE(std::isfinite(realTuned.bestSeconds));
    EXPECT_GT(realTuned.bestSeconds, 0.0);
}

TEST(EngineEvaluator, InfeasibleConfigEvaluatesToInfinity)
{
    // A CPU-only runtime cannot run benchmarks, but an unarmed
    // real-mode surface must surface as +inf, not crash the tuner.
    class NoRealMode : public apps::Benchmark
    {
      public:
        std::string name() const override { return "NoRealMode"; }
        tuner::Config seedConfig() const override { return {}; }
        double
        evaluate(const tuner::Config &, int64_t,
                 const sim::MachineProfile &,
                 const apps::EvalContext *) const override
        {
            return 1.0;
        }
        int64_t testingInputSize() const override { return 64; }
        int openclKernelCount() const override { return 0; }
        std::string
        describeConfig(const tuner::Config &, int64_t) const override
        {
            return "n/a";
        }
    };

    NoRealMode bench;
    RuntimeEngine engine;
    EXPECT_FALSE(engine.supports(bench));
    EXPECT_THROW(engine.run(bench, bench.seedConfig(), 64), FatalError);

    EngineEvaluator evaluator(bench, engine);
    EXPECT_TRUE(std::isinf(evaluator.evaluate(bench.seedConfig(), 64)));
}

TEST(RuntimeEngine, MeasurePricesInaccurateResultsAsInfeasible)
{
    // The variable-accuracy mechanism must survive the engine swap: a
    // truncation rank that misses the accuracy target is fast but
    // wrong, and the tuner's measure() path must never select it.
    apps::SvdBenchmark svd;
    RuntimeEngine engine;
    tuner::Config lowRank = svd.seedConfig();
    lowRank.setTunable("SVD.k8", 1);
    EXPECT_GT(engine.run(svd, lowRank, 32).maxError,
              svd.realModeTolerance());
    EXPECT_TRUE(std::isinf(engine.measure(svd, lowRank, 32)));

    tuner::Config fullRank = svd.seedConfig(); // k8 = 8
    double feasible = engine.measure(svd, fullRank, 32);
    EXPECT_TRUE(std::isfinite(feasible));
    EXPECT_GT(feasible, 0.0);
}

TEST(Benchmark, TuneWithEngineRejectsUnsupportedPairing)
{
    class NoRealMode : public apps::Benchmark
    {
      public:
        std::string name() const override { return "NoRealMode"; }
        tuner::Config seedConfig() const override { return {}; }
        double
        evaluate(const tuner::Config &, int64_t,
                 const sim::MachineProfile &,
                 const apps::EvalContext *) const override
        {
            return 1.0;
        }
        int64_t testingInputSize() const override { return 64; }
        int openclKernelCount() const override { return 0; }
        std::string
        describeConfig(const tuner::Config &, int64_t) const override
        {
            return "n/a";
        }
    };

    NoRealMode bench;
    RuntimeEngine engine;
    EXPECT_THROW(apps::tuneWithEngine(bench, engine, tinySearch(1)),
                 FatalError);
}

TEST(Benchmark, TuneOnMachineStillDeterministic)
{
    apps::SortBenchmark sort;
    sim::MachineProfile desktop = sim::MachineProfile::desktop();
    tuner::TuningResult a = apps::tuneOnMachine(sort, desktop, 99);
    tuner::TuningResult b = apps::tuneOnMachine(sort, desktop, 99);
    EXPECT_EQ(a.best, b.best);
    EXPECT_DOUBLE_EQ(a.bestSeconds, b.bestSeconds);
}

} // namespace
} // namespace engine
} // namespace petabricks
