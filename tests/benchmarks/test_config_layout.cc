// Guards on the configuration layout (tuner::Config is a shared
// ConfigSchema plus a value array).
//
// Golden: a fixed-seed TuningSession per benchmark on Desktop reaches
// exactly the champion, fingerprint and tuning-time accounting the
// pinned constants record. They were recorded with the previous
// representation (name/value pairs per entry and string-keyed compile
// accounting), so any drift in RNG draws, mutation, fingerprinting or
// compile accounting shows here bit for bit.
//
// Property: long random mutation chains keep every configuration inside
// the layout, round-trip through the choice file, and price to a finite
// cost or +inf without any error but FatalError. Their kernel lists name
// each source once, and name some exactly when the model launches a
// kernel.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "engine/execution_engine.h"
#include "sim/machine.h"
#include "support/rng.h"
#include "tuner/mutators.h"
#include "tuner/portfolio_tuner.h"
#include "tuner/session.h"

namespace petabricks {
namespace {

struct Golden
{
    const char *benchmark;
    const char *championKv;
    uint64_t fingerprint;
    uint64_t bestSecondsBits;
    uint64_t tuningSecondsBits;
    uint64_t compileSecondsBits;
};

// Seed 20260417, population 8, minTuningSize()..testingInputSize().
// Sort's tuning and compile seconds were re-recorded when kernel lists
// began to follow the recursion the model prices (a bitonic level below
// a non-recursive one no longer compiles): 1012.132 -> 1010.692 s and
// 10.96 -> 9.52 s.
const Golden kGolden[] = {
    {"Black-Scholes",
     R"(BlackScholes.backend.algorithms = 1
BlackScholes.backend.cutoffs = 
BlackScholes.lws = 64
BlackScholes.ratio = 8
BlackScholes.split = 4
)",
     0xfea2072200f737c0ull, 0x3f753a5222ecf82aull,
     0x40416494277341e4ull, 0x403f1eb851eb8519ull},
    {"Poisson2D SOR",
     R"(Poisson.iterate.backend.algorithms = 2
Poisson.iterate.backend.cutoffs = 
Poisson.iterate.lws = 64
Poisson.iterate.ratio = 8
Poisson.split.backend.algorithms = 0
Poisson.split.backend.cutoffs = 
Poisson.split.chunks = 16
Poisson.split.lws = 347
Poisson.split.ratio = 8
)",
     0xa3f06debe15a3788ull, 0x3fa36029e257c89bull,
     0x40112f3d3403e3caull, 0x400999999999999aull},
    {"SeparableConv.",
     R"(Convolve2D.backend.algorithms = 0,2
Convolve2D.backend.cutoffs = 2837
Convolve2D.lws = 64
Convolve2D.ratio = 8
ConvolveColumns.backend.algorithms = 0
ConvolveColumns.backend.cutoffs = 
ConvolveColumns.lws = 64
ConvolveColumns.ratio = 8
ConvolveRows.backend.algorithms = 0
ConvolveRows.backend.cutoffs = 
ConvolveRows.lws = 64
ConvolveRows.ratio = 8
SeparableConvolution.choice.algorithms = 0
SeparableConvolution.choice.cutoffs = 
SeparableConvolution.split = 16
)",
     0xa5041d6c5b6c48c9ull, 0x3fa63a61d525cdf1ull,
     0x401ba9d99883f3c0ull, 0x400e147ae147ae14ull},
    {"Sort",
     R"(Sort.algorithm.algorithms = 5
Sort.algorithm.cutoffs = 
Sort.pmCutoff = 285234
Sort.taskCutoff = 1308
)",
     0x948cd2f7ebcfd1dfull, 0x3f746cef92559fc8ull,
     0x408f95893c9c41caull, 0x40230a3d70a3d70aull},
    {"Strassen",
     R"(Strassen.mm.algorithm.algorithms = 5
Strassen.mm.algorithm.cutoffs = 
Strassen.mm.lws = 444
)",
     0x87e6b7ed2fc2ad11ull, 0x3f905d2d6282b2a0ull,
     0x400955e44b727e8cull, 0x3ff999999999999aull},
    {"SVD",
     R"(SVD.k8 = 3
SVD.mm.algorithm.algorithms = 5
SVD.mm.algorithm.cutoffs = 
SVD.mm.lws = 64
SVD.phase1.algorithms = 1
SVD.phase1.cutoffs = 
)",
     0x230c4cac19fc490aull, 0x3fb4c8d7c9c494a1ull,
     0x40401fdcb5ce2e18ull, 0x40395c28f5c28f59ull},
    {"Tridiagonal Solver",
     R"(Tridiag.algorithm.algorithms = 2
Tridiag.algorithm.cutoffs = 
Tridiag.lws = 128
)",
     0x469dc87980922e31ull, 0x3f8276007ef295fcull,
     0x4010c8852bf70db5ull, 0x400e147ae147ae14ull},
    {"Mandelbrot",
     R"(Mandelbrot.backend.algorithms = 1
Mandelbrot.backend.cutoffs = 
Mandelbrot.lws = 351
Mandelbrot.ratio = 7
Mandelbrot.split = 11
)",
     0x66f6dfb20ac6e05cull, 0x3f5535aa9522cabeull,
     0x402c6c5039b94822ull, 0x402bae147ae147b0ull},
};

TEST(TuningGolden, ChampionsAndAccountingAreUnchanged)
{
    std::vector<apps::BenchmarkPtr> benchmarks = apps::allBenchmarks();
    ASSERT_EQ(benchmarks.size(), std::size(kGolden));
    for (size_t i = 0; i < benchmarks.size(); ++i) {
        const apps::Benchmark &benchmark = *benchmarks[i];
        const Golden &golden = kGolden[i];
        SCOPED_TRACE(benchmark.name());
        ASSERT_EQ(benchmark.name(), golden.benchmark);

        engine::ModelEngine engine(sim::MachineProfile::desktop(), 1);
        tuner::TunerOptions options;
        options.seed = 20260417;
        options.populationSize = 8;
        options.minInputSize = benchmark.minTuningSize();
        options.maxInputSize = benchmark.testingInputSize();
        engine.configureTuner(options);
        engine::EngineEvaluator evaluator(benchmark, engine);
        tuner::TuningSession session(evaluator, benchmark.seedConfig(),
                                     options);
        tuner::TuningResult result = session.run();

        EXPECT_EQ(result.best.toKv().toString(), golden.championKv);
        EXPECT_EQ(result.best.valueFingerprint(), golden.fingerprint);
        EXPECT_EQ(std::bit_cast<uint64_t>(result.bestSeconds),
                  golden.bestSecondsBits);
        EXPECT_EQ(std::bit_cast<uint64_t>(result.tuningSeconds),
                  golden.tuningSecondsBits);
        EXPECT_EQ(std::bit_cast<uint64_t>(result.compileSeconds),
                  golden.compileSecondsBits);
    }
}

/** Every selector and tunable of @p config obeys the layout. */
void
expectWithinLayout(const tuner::Config &config)
{
    for (size_t s = 0; s < config.schema().selectors().size(); ++s) {
        tuner::SelectorView selector = config.selectorAt(s);
        ASSERT_GE(selector.levels(), 1u) << selector.name();
        ASSERT_LE(selector.levels(),
                  static_cast<size_t>(tuner::kSelectorLevels))
            << selector.name();
        int64_t previous = 1;
        for (int64_t cutoff : selector.cutoffs()) {
            EXPECT_GE(cutoff, previous) << selector.name();
            previous = cutoff;
        }
        for (int64_t algorithm : selector.algorithms()) {
            EXPECT_GE(algorithm, 0) << selector.name();
            EXPECT_LT(algorithm, selector.algorithmCount())
                << selector.name();
        }
    }
    for (size_t t = 0; t < config.schema().tunables().size(); ++t) {
        const tuner::TunableSpec &spec = config.tunableAt(t);
        EXPECT_GE(config.tunableValueAt(t), spec.minValue) << spec.name;
        EXPECT_LE(config.tunableValueAt(t), spec.maxValue) << spec.name;
    }
}

TEST(MutationProperty, ChainsStayInLayoutRoundTripAndPrice)
{
    constexpr int kChains = 2000;
    const sim::MachineProfile machines[] = {
        sim::MachineProfile::desktop(), sim::MachineProfile::bigLittle()};
    uint64_t rngSeed = 1000;
    for (const apps::BenchmarkPtr &benchmark : apps::allBenchmarks()) {
        SCOPED_TRACE(benchmark->name());
        const tuner::Config seed = benchmark->seedConfig();
        const auto &mutators = seed.schema().mutators();
        const std::vector<int64_t> sizes = tuner::PortfolioTuner::sizeLadder(
            benchmark->minTuningSize(), benchmark->testingInputSize(), 4);
        std::vector<std::vector<apps::EvalContextPtr>> contexts;
        for (const sim::MachineProfile &machine : machines) {
            contexts.emplace_back();
            for (int64_t n : sizes)
                contexts.back().push_back(
                    benchmark->makeEvalContext(n, machine));
        }

        // The kernel-list oracle: Desktop, and a copy of it without
        // OpenCL, on which any kernel launch prices +inf or throws.
        sim::MachineProfile noOpenCl = machines[0];
        noOpenCl.hasOpenCL = false;
        std::vector<apps::EvalContextPtr> noOpenClContexts;
        for (int64_t n : sizes)
            noOpenClContexts.push_back(
                benchmark->makeEvalContext(n, noOpenCl));

        Rng rng(rngSeed++);
        int priced = 0;
        int64_t repeats = 0;
        int listMismatches = 0;
        std::string firstMismatch;
        for (int chain = 0; chain < kChains; ++chain) {
            tuner::Config config = seed;
            int64_t length = rng.uniformInt(1, 24);
            for (int64_t m = 0; m < length; ++m) {
                size_t s = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(sizes.size()) - 1));
                const tuner::Mutator &mutator =
                    mutators[static_cast<size_t>(rng.uniformInt(
                        0, static_cast<int64_t>(mutators.size()) - 1))];
                ASSERT_NO_THROW(mutator.apply(config, rng, sizes[s]))
                    << mutator.name();
            }
            expectWithinLayout(config);

            tuner::Config loaded = seed;
            loaded.loadValues(
                KvFile::fromString(config.toKv().toString()));
            ASSERT_EQ(loaded, config);
            ASSERT_EQ(loaded.valueFingerprint(), config.valueFingerprint());

            size_t m = static_cast<size_t>(chain) % std::size(machines);
            size_t s = static_cast<size_t>(chain) % sizes.size();
            auto price = [&](const sim::MachineProfile &machine,
                             const apps::EvalContextPtr &ctx) {
                try {
                    return benchmark->evaluate(config, sizes[s], machine,
                                               ctx.get());
                } catch (const FatalError &) {
                    return std::numeric_limits<double>::infinity();
                }
            };
            double seconds = price(machines[m], contexts[m][s]);
            ASSERT_FALSE(std::isnan(seconds));
            ASSERT_GT(seconds, 0.0);
            priced += std::isfinite(seconds);

            // kernelSources lists each source once, and lists some
            // exactly when the model launches a kernel: the config
            // prices finite on Desktop but not without OpenCL.
            const std::vector<std::string> sources =
                benchmark->kernelSources(config, sizes[s]);
            for (size_t i = 0; i < sources.size(); ++i)
                repeats += std::count(sources.begin(), sources.begin() + i,
                                      sources[i]);
            const bool launches =
                std::isfinite(price(machines[0], contexts[0][s])) &&
                std::isinf(price(noOpenCl, noOpenClContexts[s]));
            if (!sources.empty() != launches && listMismatches++ == 0)
                firstMismatch = "n = " + std::to_string(sizes[s]) + ", " +
                                std::to_string(sources.size()) +
                                " sources:\n" + config.toKv().toString();
        }
        EXPECT_GT(priced, kChains / 10);
        EXPECT_EQ(repeats, 0) << "sources listed twice";
        EXPECT_EQ(listMismatches, 0) << "first: " << firstMismatch;
    }
}

} // namespace
} // namespace petabricks
