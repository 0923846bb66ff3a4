// Golden-equality suite for the model-mode evaluation fast path.
//
// The simulator-backed benchmarks (Poisson2D SOR, SeparableConv.,
// Black-Scholes, Mandelbrot) price through an EvaluationContext:
// interned slot ids, coalescing residency, memoized stage costs, the
// reusable scheduler. Each price must be *bit-identical* to the
// reference simulator's — the per-call from-scratch implementation kept
// as the executable spec — replaying the same invocation: the
// benchmark's transform() and planFor(), and the slot extents and
// params of its context. No tolerance comparisons here: any divergence,
// however small, means the fast path changed the model. The analytic
// benchmarks have one implementation of their model; the golden digests
// in tests/benchmarks/test_cost_digests.cc pin it.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "benchmarks/poisson.h"
#include "benchmarks/registry.h"
#include "compiler/simulator.h"
#include "engine/execution_engine.h"
#include "support/rng.h"
#include "support/slot_table.h"
#include "tuner/mutators.h"
#include "tuner/session.h"

namespace petabricks {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** The four benchmarks priced through the simulator. */
std::vector<apps::BenchmarkPtr>
simulatorBenchmarks()
{
    std::vector<apps::BenchmarkPtr> benchmarks;
    for (const char *name :
         {"Black-Scholes", "Poisson2D SOR", "SeparableConv.", "Mandelbrot"})
        benchmarks.push_back(apps::findBenchmark(name));
    return benchmarks;
}

/** The reference simulator's price of @p config: the invocation the
 * benchmark's context describes, rebuilt from scratch; +inf for
 * infeasible placements. */
double
evalReference(const apps::Benchmark &benchmark,
              const tuner::Config &config, int64_t n,
              const sim::MachineProfile &machine)
{
    apps::EvalContextPtr ctx = benchmark.makeEvalContext(n, machine);
    EXPECT_NE(ctx, nullptr) << benchmark.name() << " n=" << n;
    if (ctx == nullptr)
        return kInf;
    compiler::SlotSizes sizes;
    const SlotTable &slots = ctx->analysis().slots;
    for (int id = 0; id < static_cast<int>(slots.size()); ++id)
        sizes[slots.nameOf(id)] = ctx->extent(id);
    try {
        return compiler::simulateTransform(benchmark.transform(),
                                           benchmark.planFor(config, n),
                                           sizes, ctx->params(), machine)
            .seconds;
    } catch (const FatalError &) {
        return kInf;
    }
}

double
evalFast(const apps::Benchmark &benchmark, const tuner::Config &config,
         int64_t n, const sim::MachineProfile &machine,
         const apps::EvalContext *ctx)
{
    try {
        return benchmark.evaluate(config, n, machine, ctx);
    } catch (const FatalError &) {
        return kInf;
    }
}

std::vector<tuner::Config>
mutatedPopulation(const apps::Benchmark &benchmark, int64_t n,
                  int count, uint64_t seed)
{
    tuner::Config base = benchmark.seedConfig();
    const std::vector<tuner::Mutator> &mutators =
        base.schema().mutators();
    Rng rng(seed);
    std::vector<tuner::Config> configs{base};
    while (configs.size() < static_cast<size_t>(count)) {
        tuner::Config config = base;
        int64_t edits = rng.uniformInt(1, 5);
        for (int64_t e = 0; e < edits; ++e) {
            size_t m = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(mutators.size()) - 1));
            mutators[m].apply(config, rng, n);
        }
        configs.push_back(std::move(config));
    }
    return configs;
}

/** Reference and fast path price @p config identically, bit for bit. */
void
expectSameBits(const apps::Benchmark &benchmark,
               const tuner::Config &config, int64_t n,
               const sim::MachineProfile &machine,
               const apps::EvalContext *ctx)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(
                  evalReference(benchmark, config, n, machine)),
              std::bit_cast<uint64_t>(
                  evalFast(benchmark, config, n, machine, ctx)))
        << benchmark.name() << " n=" << n << " on " << machine.name;
}

/** Fast == reference, bit for bit, on every machine profile. */
void
expectGoldenEquality(const apps::Benchmark &benchmark, int64_t n)
{
    for (const sim::MachineProfile &machine :
         sim::MachineProfile::all()) {
        apps::EvalContextPtr ctx =
            benchmark.makeEvalContext(n, machine);
        std::vector<tuner::Config> configs = mutatedPopulation(
            benchmark, n, 30,
            0xFA57 ^ static_cast<uint64_t>(n) ^
                std::hash<std::string>()(machine.name));
        for (const tuner::Config &config : configs) {
            double ref = evalReference(benchmark, config, n, machine);
            double fast =
                evalFast(benchmark, config, n, machine, ctx.get());
            if (std::isinf(ref))
                EXPECT_TRUE(std::isinf(fast))
                    << benchmark.name() << " n=" << n << " on "
                    << machine.name;
            else
                EXPECT_EQ(ref, fast) << benchmark.name() << " n=" << n
                                     << " on " << machine.name;
        }
    }
}

/** Every simulator-backed benchmark, at both ends of its tuning range
 * (the golden digests cover all eight benchmarks). */
TEST(EvalFastPath, BitIdenticalCostsAllBenchmarksTwoSizes)
{
    for (const apps::BenchmarkPtr &benchmark : simulatorBenchmarks()) {
        expectGoldenEquality(*benchmark, benchmark->minTuningSize());
        expectGoldenEquality(*benchmark, benchmark->testingInputSize());
    }
}

/** A simulator-backed benchmark at a size it builds a context for
 * rejects a null one; an analytic benchmark never needs one. */
TEST(EvalFastPath, NullContextIsRejectedWhereAContextExists)
{
    sim::MachineProfile machine = sim::MachineProfile::desktop();
    for (const apps::BenchmarkPtr &benchmark : apps::allBenchmarks()) {
        int64_t n = benchmark->minTuningSize();
        tuner::Config config = benchmark->seedConfig();
        if (benchmark->makeEvalContext(n, machine) != nullptr)
            EXPECT_THROW(benchmark->evaluate(config, n, machine, nullptr),
                         PanicError)
                << benchmark->name();
        else
            EXPECT_EQ(std::bit_cast<uint64_t>(
                          benchmark->evaluate(config, n, machine, nullptr)),
                      std::bit_cast<uint64_t>(
                          benchmark->evaluate(config, n, machine)))
                << benchmark->name();
    }
}

/** Tuner evaluator pricing through the reference simulator. */
class ReferenceEvaluator : public tuner::Evaluator
{
  public:
    ReferenceEvaluator(const apps::Benchmark &benchmark,
                       const sim::MachineProfile &machine)
        : benchmark_(benchmark), machine_(machine)
    {}

    double
    evaluate(const tuner::Config &config, int64_t inputSize) override
    {
        return evalReference(benchmark_, config, inputSize, machine_);
    }

    std::vector<std::string>
    kernelSources(const tuner::Config &config,
                  int64_t inputSize) override
    {
        return benchmark_.kernelSources(config, inputSize);
    }

  private:
    const apps::Benchmark &benchmark_;
    const sim::MachineProfile &machine_;
};

/** A whole search over the fast path lands on the identical champion
 * (and identical accounting) as one over the reference simulator. */
TEST(EvalFastPath, TuningSessionChampionsMatchReferencePath)
{
    sim::MachineProfile machine = sim::MachineProfile::desktop();
    for (const apps::BenchmarkPtr &benchmark : simulatorBenchmarks()) {
        tuner::TunerOptions options;
        options.seed = 0x600D;
        options.populationSize = 6;
        options.generationsPerSize = 3;
        options.minInputSize = benchmark->minTuningSize();
        options.maxInputSize = benchmark->testingInputSize();
        options.kernelCompileSeconds = machine.kernelCompileSeconds;
        options.irCacheSavings = machine.irCacheSavings;

        // Fast path: ModelEngine threads an EvaluationContext through
        // every batched generation.
        engine::ModelEngine engine(machine, /*parallelism=*/2);
        tuner::TuningResult fast =
            apps::tuneWithEngine(*benchmark, engine, options);

        ReferenceEvaluator reference(*benchmark, machine);
        tuner::TuningSession session(reference,
                                     benchmark->seedConfig(), options);
        tuner::TuningResult ref = session.run();

        EXPECT_EQ(fast.best.valueFingerprint(),
                  ref.best.valueFingerprint())
            << benchmark->name();
        EXPECT_EQ(fast.bestSeconds, ref.bestSeconds)
            << benchmark->name();
        EXPECT_EQ(fast.evaluations, ref.evaluations)
            << benchmark->name();
    }
}

/** ReferenceEvaluator that records every (config, n) it prices. */
class RecordingEvaluator : public ReferenceEvaluator
{
  public:
    using ReferenceEvaluator::ReferenceEvaluator;

    double
    evaluate(const tuner::Config &config, int64_t inputSize) override
    {
        priced.emplace_back(config, inputSize);
        return ReferenceEvaluator::evaluate(config, inputSize);
    }

    std::vector<std::pair<tuner::Config, int64_t>> priced;
};

/** Every configuration a seeded search visits, on every machine. */
TEST(EvalFastPath, SearchedConfigsMatchOnEveryMachine)
{
    for (const apps::BenchmarkPtr &benchmark : simulatorBenchmarks()) {
        for (const sim::MachineProfile &machine :
             sim::MachineProfile::all()) {
            tuner::TunerOptions options;
            options.seed = 0x5EA4 ^ std::hash<std::string>()(machine.name);
            options.populationSize = 8;
            options.generationsPerSize = 4;
            options.minInputSize = benchmark->minTuningSize();
            options.maxInputSize = benchmark->testingInputSize();
            RecordingEvaluator recorder(*benchmark, machine);
            tuner::TuningSession(recorder, benchmark->seedConfig(),
                                 options)
                .run();
            ASSERT_FALSE(recorder.priced.empty());

            std::map<int64_t, apps::EvalContextPtr> contexts;
            for (const auto &[config, n] : recorder.priced) {
                apps::EvalContextPtr &ctx = contexts[n];
                if (ctx == nullptr)
                    ctx = benchmark->makeEvalContext(n, machine);
                expectSameBits(*benchmark, config, n, machine, ctx.get());
            }
        }
    }
}

/** Contexts priced alternately on one thread: each switch must drop
 * the thread's memoized stage costs. One benchmark at two sizes shares
 * its shape classes but not its extents. */
TEST(EvalFastPath, InterleavedContextsInvalidateTheMemo)
{
    apps::BenchmarkPtr poisson = apps::findBenchmark("Poisson2D SOR");
    apps::BenchmarkPtr conv = apps::findBenchmark("SeparableConv.");
    for (const sim::MachineProfile &machine :
         sim::MachineProfile::all()) {
        struct Lane
        {
            const apps::Benchmark &benchmark;
            int64_t n;
            apps::EvalContextPtr ctx;
            std::vector<tuner::Config> configs;
        };
        std::vector<Lane> lanes;
        for (auto [benchmark, n] :
             {std::pair{poisson.get(), int64_t{256}},
              std::pair{conv.get(), conv->minTuningSize()},
              std::pair{poisson.get(), int64_t{1024}}})
            lanes.push_back({*benchmark, n,
                             benchmark->makeEvalContext(n, machine),
                             mutatedPopulation(*benchmark, n, 20,
                                               0x1E4F ^ lanes.size())});
        for (size_t i = 0; i < 20; ++i)
            for (const Lane &lane : lanes)
                expectSameBits(lane.benchmark, lane.configs[i], lane.n,
                               machine, lane.ctx.get());
    }
}

/** Benchmarks own their analyses: one built after another was freed
 * (and may reuse its address) prices correctly, also through an engine
 * that outlives both. */
TEST(EvalFastPath, BenchmarkBuiltAfterAnotherWasDestroyed)
{
    sim::MachineProfile machine = sim::MachineProfile::laptop();
    engine::ModelEngine engine(machine);
    for (int round = 0; round < 6; ++round) {
        apps::BenchmarkPtr benchmark = apps::findBenchmark(
            round % 2 == 0 ? "SeparableConv." : "Poisson2D SOR");
        int64_t n = benchmark->minTuningSize();
        apps::EvalContextPtr ctx = benchmark->makeEvalContext(n, machine);
        std::vector<tuner::Config> configs =
            mutatedPopulation(*benchmark, n, 10, 0xDEAD + round);
        std::vector<double> batch =
            engine.measureBatch(*benchmark, configs, n);
        for (size_t i = 0; i < configs.size(); ++i) {
            expectSameBits(*benchmark, configs[i], n, machine, ctx.get());
            EXPECT_EQ(std::bit_cast<uint64_t>(batch[i]),
                      std::bit_cast<uint64_t>(evalReference(
                          *benchmark, configs[i], n, machine)))
                << benchmark->name() << " round " << round;
        }
    }
}

/** Two unrollings of one transform shape: different rule counts, the
 * same rule names and access shapes. */
TEST(EvalFastPath, ShortPoissonAlongsideDefault)
{
    apps::PoissonBenchmark shortSor(3);
    apps::PoissonBenchmark defaultSor;
    for (const sim::MachineProfile &machine :
         sim::MachineProfile::all()) {
        for (int64_t n : {int64_t{256}, int64_t{2048}}) {
            apps::EvalContextPtr shortCtx =
                shortSor.makeEvalContext(n, machine);
            apps::EvalContextPtr defaultCtx =
                defaultSor.makeEvalContext(n, machine);
            std::vector<tuner::Config> configs =
                mutatedPopulation(defaultSor, n, 20, 0x3 ^ n);
            for (const tuner::Config &config : configs) {
                expectSameBits(shortSor, config, n, machine,
                               shortCtx.get());
                expectSameBits(defaultSor, config, n, machine,
                               defaultCtx.get());
            }
        }
    }
}

/** Two rules of one access shape over slots of different extents: the
 * context must keep their memoized stage costs apart. */
TEST(EvalFastPath, SameShapeDifferentExtentsKeepSeparateCosts)
{
    auto transform = std::make_shared<lang::Transform>("Shapes");
    transform->slot("In", lang::SlotRole::Input)
        .slot("Mid", lang::SlotRole::Intermediate)
        .slot("Out", lang::SlotRole::Output);
    auto copyRule = [](const char *name, const char *out, const char *in) {
        return lang::RuleDef::makePoint(
            name, out, {lang::AccessPattern::point(in)},
            [](const lang::PointArgs &pt) {
                return pt.input(0).at(pt.x, pt.y);
            },
            [](const lang::ParamEnv &) { return 4.0; });
    };
    transform->choice("copy", {copyRule("Widen", "Mid", "In"),
                               copyRule("Narrow", "Out", "Mid")});
    auto analysis = std::make_shared<compiler::TransformAnalysis>(*transform);
    ASSERT_EQ(analysis->shapeClassCount, 1);

    const int64_t n = 512;
    compiler::SlotSizes sizes{
        {"In", {n, n}}, {"Mid", {n, n}}, {"Out", {n, n / 4}}};
    auto priced = [](auto &&simulate) {
        try {
            return simulate().seconds;
        } catch (const FatalError &) {
            return kInf;
        }
    };
    for (const sim::MachineProfile &machine :
         sim::MachineProfile::all()) {
        compiler::EvaluationContext ctx(analysis,
                                        {{n, n}, {n, n}, {n, n / 4}}, {},
                                        machine);
        for (compiler::Backend backend :
             {compiler::Backend::Cpu, compiler::Backend::OpenClGlobal}) {
            for (int split : {1, 3, 16}) {
                compiler::StageConfig stage;
                stage.backend = backend;
                stage.gpuRatioEighths = 4;
                stage.cpuSplit = split;
                compiler::TransformConfig config;
                config.stages = {stage, stage};
                double fast = priced(
                    [&] { return compiler::simulateTransform(ctx, config); });
                double ref = priced([&] {
                    return compiler::simulateTransform(*transform, config,
                                                       sizes, {}, machine);
                });
                EXPECT_EQ(std::bit_cast<uint64_t>(ref),
                          std::bit_cast<uint64_t>(fast))
                    << machine.name << " split " << split;
            }
        }
    }
}

} // namespace
} // namespace petabricks
