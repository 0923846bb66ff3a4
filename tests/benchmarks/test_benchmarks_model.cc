/**
 * Model-mode behavior: the qualitative facts the paper reports must
 * hold in the machine model (who wins where, and why).
 */
#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "benchmarks/backend_util.h"
#include "benchmarks/blackscholes.h"
#include "benchmarks/convolution.h"
#include "benchmarks/poisson.h"
#include "benchmarks/sort.h"
#include "benchmarks/strassen.h"
#include "benchmarks/svd.h"
#include "benchmarks/tridiagonal.h"
#include "support/hash.h"
#include "tuner/mutators.h"

namespace petabricks {
namespace apps {
namespace {

const sim::MachineProfile kDesktop = sim::MachineProfile::desktop();
const sim::MachineProfile kServer = sim::MachineProfile::server();
const sim::MachineProfile kLaptop = sim::MachineProfile::laptop();

TEST(ModelBlackScholes, GpuDominatesOnDesktop)
{
    BlackScholesBenchmark bench;
    tuner::Config gpu = bench.seedConfig();
    gpu.selector("BlackScholes.backend").setAlgorithm(0, backendAlg(compiler::Backend::OpenClGlobal));
    tuner::Config cpu = BlackScholesBenchmark::cpuOnlyConfig();
    int64_t n = bench.testingInputSize();
    // "OpenCL performance ... is an order of magnitude better than the
    // CPU performance on the Desktop".
    EXPECT_GT(bench.evaluate(cpu, n, kDesktop) /
                  bench.evaluate(gpu, n, kDesktop),
              8.0);
}

TEST(ModelBlackScholes, LaptopPrefersSplit)
{
    BlackScholesBenchmark bench;
    int64_t n = bench.testingInputSize();
    tuner::Config gpuOnly = bench.seedConfig();
    gpuOnly.selector("BlackScholes.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::OpenClGlobal));
    tuner::Config split = gpuOnly;
    split.setTunable("BlackScholes.ratio", 6); // 75/25
    double tGpu = bench.evaluate(gpuOnly, n, kLaptop);
    double tSplit = bench.evaluate(split, n, kLaptop);
    EXPECT_LT(tSplit, tGpu); // the split wins on Laptop...
    double tGpuDesktop = bench.evaluate(gpuOnly, n, kDesktop);
    double tSplitDesktop = bench.evaluate(split, n, kDesktop);
    EXPECT_GT(tSplitDesktop, 2.0 * tGpuDesktop); // ...and loses badly
                                                 // on Desktop
}

TEST(ModelConvolution, EachMappingWinsSomewhere)
{
    // Figure 2: each of the four mappings is optimal for at least one
    // machine / kernel-width combination.
    std::set<std::pair<bool, bool>> winners;
    for (const auto &machine : {kDesktop, kServer, kLaptop}) {
        for (int64_t kw : {3, 7, 11, 17}) {
            ConvolutionBenchmark bench(kw);
            double best = std::numeric_limits<double>::infinity();
            std::pair<bool, bool> bestMapping{false, false};
            for (bool separable : {false, true}) {
                for (bool local : {false, true}) {
                    auto config = ConvolutionBenchmark::fixedMapping(
                        separable, local);
                    double t = bench.evaluate(config, 3520, machine);
                    if (t < best) {
                        best = t;
                        bestMapping = {separable, local};
                    }
                }
            }
            winners.insert(bestMapping);
        }
    }
    EXPECT_GE(winners.size(), 3u);
}

TEST(ModelConvolution, SeparableWinsForWideKernels)
{
    ConvolutionBenchmark wide(17);
    auto sep = ConvolutionBenchmark::fixedMapping(true, true);
    auto full = ConvolutionBenchmark::fixedMapping(false, true);
    EXPECT_LT(wide.evaluate(sep, 3520, kDesktop),
              wide.evaluate(full, 3520, kDesktop));
}

TEST(ModelConvolution, LocalMemoryHurtsOnServer)
{
    ConvolutionBenchmark bench(7);
    auto noLocal = ConvolutionBenchmark::fixedMapping(true, false);
    auto local = ConvolutionBenchmark::fixedMapping(true, true);
    EXPECT_LT(bench.evaluate(noLocal, 3520, kServer),
              bench.evaluate(local, 3520, kServer));
}

TEST(ModelSort, CpuPolyAlgorithmBeatsBitonicGpu)
{
    SortBenchmark bench;
    int64_t n = bench.testingInputSize();
    tuner::Config cpu = bench.seedConfig();
    tuner::SelectorRef s = cpu.selector("Sort.algorithm");
    s.setAlgorithm(0, kSortInsertion);
    s.insertLevel(341, kSortMerge4);
    s.insertLevel(64294, kSortQuick);
    s.insertLevel(174762, kSortMerge2);
    tuner::Config gpu = SortBenchmark::gpuOnlyConfig();
    for (const auto &machine : {kDesktop, kServer, kLaptop}) {
        EXPECT_LT(bench.evaluate(cpu, n, machine),
                  bench.evaluate(gpu, n, machine))
            << machine.name;
    }
}

TEST(ModelSort, BitonicPriceReturnsPastTwoToTheSixtyTwo)
{
    // The bitonic model pads n to a power of two, which no longer fits
    // in an int64 once n > 2^62; pricing there must still return.
    SortBenchmark bench;
    tuner::Config gpu = SortBenchmark::gpuOnlyConfig();
    // Up to 2^62, the prices are the bits the int64 padding gave.
    const std::pair<int64_t, uint64_t> golden[] = {
        {2, 0x3f092b362597d60cull},
        {3, 0x3f12e0b031637d2bull},
        {1000, 0x3f47341e64ea34bbull},
        {int64_t{1} << 20, 0x3fa587e324bee816ull},
        {(int64_t{1} << 40) + 1, 0x41139e3fa3624262ull},
        {int64_t{1} << 62, 0x427605dc436dc931ull}};
    for (auto [n, bits] : golden)
        EXPECT_EQ(std::bit_cast<uint64_t>(bench.evaluate(gpu, n, kDesktop)),
                  bits)
            << n;
    const double atLimit = bench.evaluate(gpu, int64_t{1} << 62, kDesktop);
    for (int64_t n : {(int64_t{1} << 62) + 1,
                      std::numeric_limits<int64_t>::max()}) {
        const double seconds = bench.evaluate(gpu, n, kDesktop);
        EXPECT_TRUE(std::isfinite(seconds)) << n;
        EXPECT_GT(seconds, atLimit) << n;
    }
}

TEST(ModelSort, InsertionOnlyGoodForTinyInputs)
{
    SortBenchmark bench;
    tuner::Config insertion = bench.seedConfig(); // IS everywhere
    tuner::Config merge = bench.seedConfig();
    merge.selector("Sort.algorithm").setAlgorithm(0, kSortMerge2);
    EXPECT_LT(bench.evaluate(insertion, 64, kDesktop),
              bench.evaluate(merge, 64, kDesktop));
    EXPECT_GT(bench.evaluate(insertion, 1 << 16, kDesktop),
              bench.evaluate(merge, 1 << 16, kDesktop));
}

TEST(ModelStrassen, GpuWinsOnDesktopLapackOnLaptop)
{
    StrassenBenchmark bench;
    int64_t n = bench.testingInputSize();
    tuner::Config gpu = bench.seedConfig();
    gpu.selector("Strassen.mm.algorithm").setAlgorithm(0, kMmOpenCl);
    tuner::Config lapack = bench.seedConfig();
    lapack.selector("Strassen.mm.algorithm").setAlgorithm(0, kMmLapack);
    EXPECT_LT(bench.evaluate(gpu, n, kDesktop),
              bench.evaluate(lapack, n, kDesktop));
    EXPECT_LT(bench.evaluate(lapack, n, kLaptop),
              bench.evaluate(gpu, n, kLaptop));
}

TEST(ModelStrassen, ServerPrefersParallelDecompositionOverLapack)
{
    StrassenBenchmark bench;
    int64_t n = bench.testingInputSize();
    tuner::Config lapack = bench.seedConfig();
    lapack.selector("Strassen.mm.algorithm").setAlgorithm(0, kMmLapack);
    // 8-way decomposition down to LAPACK leaves below 512.
    tuner::Config decomp = bench.seedConfig();
    tuner::SelectorRef s = decomp.selector("Strassen.mm.algorithm");
    s.setAlgorithm(0, kMmLapack);
    s.insertLevel(512, kMmRecursive8);
    EXPECT_LT(bench.evaluate(decomp, n, kServer),
              bench.evaluate(lapack, n, kServer));
    // On Laptop (2 cores) the direct call is better.
    EXPECT_LT(bench.evaluate(lapack, n, kLaptop),
              bench.evaluate(decomp, n, kLaptop));
}

TEST(ModelStrassen, CrossMachineMigrationIsExpensive)
{
    // The headline: running the Laptop's config (direct LAPACK) on
    // Desktop instead of Desktop's GPU config costs many x.
    StrassenBenchmark bench;
    int64_t n = bench.testingInputSize();
    tuner::Config gpu = bench.seedConfig();
    gpu.selector("Strassen.mm.algorithm").setAlgorithm(0, kMmOpenCl);
    tuner::Config lapack = bench.seedConfig();
    lapack.selector("Strassen.mm.algorithm").setAlgorithm(0, kMmLapack);
    double slowdown = bench.evaluate(lapack, n, kDesktop) /
                      bench.evaluate(gpu, n, kDesktop);
    EXPECT_GT(slowdown, 6.0);
}

/** Kernel lists follow the recursion the model prices: a selector
 * level below a non-recursive algorithm compiles nothing. */
TEST(ModelKernels, ListOnlyKernelsTheModelReaches)
{
    using Sources = std::vector<std::string>;

    // LAPACK at n >= 512, OpenCL below: LAPACK does not recurse.
    StrassenBenchmark strassen;
    tuner::Config mm = strassen.seedConfig();
    tuner::SelectorRef alg = mm.selector("Strassen.mm.algorithm");
    alg.setAlgorithm(0, kMmOpenCl);
    alg.insertLevel(512, kMmLapack);
    EXPECT_EQ(strassen.describeConfig(mm, 1024), "LAPACK");
    EXPECT_EQ(strassen.kernelSources(mm, 1024), Sources{});
    EXPECT_EQ(strassen.kernelSources(mm, 256), Sources{kMatmulKernel});
    // A decomposition does recurse into the OpenCL level.
    alg.setAlgorithm(1, kMmStrassen);
    EXPECT_EQ(strassen.kernelSources(mm, 1024), Sources{kMatmulKernel});

    // SVD walks its matmul selector the same way.
    SvdBenchmark svd;
    tuner::Config svdMm = svd.seedConfig();
    tuner::SelectorRef svdAlg = svdMm.selector("SVD.mm.algorithm");
    svdAlg.setAlgorithm(0, kMmOpenCl);
    svdAlg.insertLevel(128, kMmBlocked);
    EXPECT_EQ(svd.kernelSources(svdMm, 256), Sources{});
    EXPECT_EQ(svd.kernelSources(svdMm, 64), Sources{kMatmulKernel});

    // Radix at n >= 1024, bitonic below: radix does not recurse.
    SortBenchmark sort;
    const Sources bitonic{"pbcl:bitonic:step"};
    tuner::Config radix = sort.seedConfig();
    tuner::SelectorRef sortAlg = radix.selector("Sort.algorithm");
    sortAlg.setAlgorithm(0, kSortBitonicGpu);
    sortAlg.insertLevel(1024, kSortRadix);
    EXPECT_EQ(sort.kernelSources(radix, 1 << 20), Sources{});
    EXPECT_EQ(sort.kernelSources(radix, 512), bitonic);

    // 4-way merge at n >= 4096 recurses to n/4, skipping n/2:
    // insertion below 2048, bitonic in [2048, 4096).
    tuner::Config merge4 = sort.seedConfig();
    tuner::SelectorRef merge4Alg = merge4.selector("Sort.algorithm");
    merge4Alg.insertLevel(2048, kSortBitonicGpu);
    merge4Alg.insertLevel(4096, kSortMerge4);
    EXPECT_EQ(sort.kernelSources(merge4, 4096), Sources{});
    EXPECT_EQ(sort.kernelSources(merge4, 8192), bitonic);

    // Nor does the description name the bitonic level radix never
    // reaches.
    EXPECT_EQ(sort.describeConfig(radix, 1 << 20), "RS");

    // A rank that misses the accuracy target prices +inf before any
    // matmul runs.
    tuner::Config coarse = svd.seedConfig();
    coarse.selector("SVD.mm.algorithm").setAlgorithm(0, kMmOpenCl);
    coarse.setTunable("SVD.k8", 1);
    ASSERT_TRUE(std::isinf(svd.evaluate(coarse, 256, kDesktop)));
    EXPECT_EQ(svd.kernelSources(coarse, 256), Sources{});

    // The OpenCL matmul and the task-parallel phase 1 launch one
    // kernel source between them.
    tuner::Config both = svd.seedConfig();
    both.selector("SVD.mm.algorithm").setAlgorithm(0, kMmOpenCl);
    both.selector("SVD.phase1").setAlgorithm(0, kSvdPhase1TaskParallel);
    EXPECT_EQ(svd.kernelSources(both, 256), Sources{kMatmulKernel});

    // An OpenCL stage at GPU ratio 0 gets no GPU rows: it runs, and is
    // described, as CPU.
    BlackScholesBenchmark bs;
    tuner::Config ratio0 = bs.seedConfig();
    ratio0.selector("BlackScholes.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::OpenClGlobal));
    ratio0.setTunable("BlackScholes.ratio", 0);
    const int64_t options = bs.testingInputSize();
    EXPECT_EQ(bs.kernelSources(ratio0, options), Sources{});
    EXPECT_EQ(bs.describeConfig(ratio0, options), "CPU");
    sim::MachineProfile noOpenCl = kDesktop;
    noOpenCl.hasOpenCL = false;
    EXPECT_EQ(bs.evaluate(ratio0, options, noOpenCl),
              bs.evaluate(BlackScholesBenchmark::cpuOnlyConfig(), options,
                          noOpenCl));
}

/** Names of the levels in a Figure 6 description "A, then B below n". */
std::vector<std::string>
describedLevels(const std::string &text)
{
    std::vector<std::string> names;
    for (size_t at = 0; at <= text.size();) {
        size_t end = std::min(text.find(", then ", at), text.size());
        std::string level = text.substr(at, end - at);
        names.push_back(level.substr(0, level.find(" below ")));
        at = end + 7;
    }
    return names;
}

/**
 * Reference walk: the algorithm at each level a linear recursion
 * visits from @p n, run-length encoded. @p leafAlg is forced at sizes up
 * to @p leaf; @p shrink gives the size an algorithm recurses to (0:
 * none).
 */
template <class Shrink>
std::vector<std::string>
visitedLevels(tuner::SelectorView selector, int64_t n, int64_t leaf,
              int leafAlg, Shrink shrink,
              const std::vector<std::string> &names)
{
    std::vector<std::string> visited;
    for (int64_t s = n; s > 1;) {
        int alg = s <= leaf ? leafAlg : selector.select(s);
        const std::string &name = names[static_cast<size_t>(alg)];
        if (visited.empty() || visited.back() != name)
            visited.push_back(name);
        s = shrink(alg, s);
    }
    return visited;
}

/** Figure 6 descriptions name exactly the algorithms at the levels the
 * model visits, over seeded mutated configurations. */
TEST(ModelKernels, DescriptionsNameTheLevelsTheModelVisits)
{
    const std::vector<std::string> sortNames{"IS",  "SS",  "QS", "RS",
                                             "2MS", "4MS", "BitonicGPU"};
    const std::vector<std::string> mmNames{
        "LAPACK",  "8-way recursive", "Strassen",
        "blocked", "naive",           "data-parallel OpenCL"};
    auto sortShrink = [](int alg, int64_t s) -> int64_t {
        if (alg == kSortQuick || alg == kSortMerge2)
            return s / 2;
        return alg == kSortMerge4 ? s / 4 : 0;
    };
    auto mmShrink = [](int alg, int64_t s) -> int64_t {
        return alg == kMmRecursive8 || alg == kMmStrassen ? s / 2 : 0;
    };
    SortBenchmark sort;
    StrassenBenchmark strassen;
    SvdBenchmark svd;
    const std::vector<const Benchmark *> benchmarks{&sort, &strassen, &svd};
    Rng rng(2013);
    for (const Benchmark *bench : benchmarks) {
        SCOPED_TRACE(bench->name());
        const tuner::Config seed = bench->seedConfig();
        const auto &mutators = seed.schema().mutators();
        const std::vector<int64_t> sizes{bench->minTuningSize(),
                                         bench->testingInputSize()};
        for (int chain = 0; chain < 500; ++chain) {
            tuner::Config config = seed;
            for (int m = 0; m < 12; ++m)
                mutators[static_cast<size_t>(rng.uniformInt(
                             0, static_cast<int64_t>(mutators.size()) - 1))]
                    .apply(config, rng, sizes[static_cast<size_t>(m % 2)]);
            const int64_t n = sizes[static_cast<size_t>(chain % 2)];
            const std::string text = bench->describeConfig(config, n);
            if (bench == &sort) {
                EXPECT_EQ(describedLevels(text),
                          visitedLevels(config.selector("Sort.algorithm"), n,
                                        1, 0, sortShrink, sortNames))
                    << text;
            } else if (bench == &strassen) {
                EXPECT_EQ(describedLevels(text),
                          visitedLevels(
                              config.selector("Strassen.mm.algorithm"), n,
                              16, kMmNaive, mmShrink, mmNames))
                    << text;
            } else if (SvdBenchmark::modeledError(static_cast<int>(
                           config.tunableValue("SVD.k8"))) <=
                       svd.accuracyTarget()) {
                size_t from = text.find("; matmul ") + 9;
                EXPECT_EQ(describedLevels(
                              text.substr(from, text.find("; k=") - from)),
                          visitedLevels(config.selector("SVD.mm.algorithm"),
                                        n, 16, kMmNaive, mmShrink, mmNames))
                    << text;
            } else {
                // Priced +inf before any matmul: no level is visited.
                EXPECT_EQ(text.find("matmul"), std::string::npos) << text;
            }
        }
    }
}

TEST(ModelPoisson, DesktopIteratesOnGpuServerOnCpu)
{
    PoissonBenchmark bench;
    int64_t n = bench.testingInputSize();
    auto mk = [&](int splitAlg, int iterAlg) {
        tuner::Config c = bench.seedConfig();
        c.selector("Poisson.split.backend").setAlgorithm(0, splitAlg);
        c.selector("Poisson.iterate.backend").setAlgorithm(0, iterAlg);
        return c;
    };
    // Desktop: split on CPU, iterate on GPU beats all-CPU.
    EXPECT_LT(bench.evaluate(mk(backendAlg(compiler::Backend::Cpu), backendAlg(compiler::Backend::OpenClLocal)), n,
                             kDesktop),
              bench.evaluate(mk(backendAlg(compiler::Backend::Cpu), backendAlg(compiler::Backend::Cpu)), n, kDesktop));
    // Server: iterating on the CPU beats iterating on CPU-OpenCL with
    // the local-memory variant (prefetch is wasted work there).
    EXPECT_LT(
        bench.evaluate(mk(backendAlg(compiler::Backend::OpenClGlobal), backendAlg(compiler::Backend::Cpu)), n, kServer),
        bench.evaluate(mk(backendAlg(compiler::Backend::OpenClGlobal), backendAlg(compiler::Backend::OpenClLocal)), n,
                       kServer));
}

TEST(ModelTridiag, AlgorithmChoiceFollowsThePaper)
{
    TridiagBenchmark bench;
    int64_t n = bench.testingInputSize();
    auto mk = [&](int alg) {
        tuner::Config c = bench.seedConfig();
        c.selector("Tridiag.algorithm").setAlgorithm(0, alg);
        return c;
    };
    // Desktop: cyclic reduction on the GPU wins.
    EXPECT_LT(bench.evaluate(mk(kTriCyclicGpu), n, kDesktop),
              bench.evaluate(mk(kTriThomas), n, kDesktop));
    // Server and Laptop: the sequential direct solve wins.
    EXPECT_LT(bench.evaluate(mk(kTriThomas), n, kServer),
              bench.evaluate(mk(kTriCyclicGpu), n, kServer));
    EXPECT_LT(bench.evaluate(mk(kTriThomas), n, kLaptop),
              bench.evaluate(mk(kTriCyclicGpu), n, kLaptop));
}

TEST(ModelSvd, AccuracyTargetGatesConfigs)
{
    SvdBenchmark bench(0.30);
    tuner::Config tooCoarse = bench.seedConfig();
    tooCoarse.setTunable("SVD.k8", 1);
    EXPECT_TRUE(std::isinf(
        bench.evaluate(tooCoarse, 256, kDesktop)));
    tuner::Config fine = bench.seedConfig();
    EXPECT_TRUE(std::isfinite(bench.evaluate(fine, 256, kDesktop)));
}

TEST(ModelSvd, TaskParallelPhase1HelpsOnDesktopOnly)
{
    SvdBenchmark bench;
    int64_t n = bench.testingInputSize();
    auto mk = [&](int phase1) {
        tuner::Config c = bench.seedConfig();
        c.selector("SVD.phase1").setAlgorithm(0, phase1);
        // A sensible CPU matmul so phase-1 differences show.
        c.selector("SVD.mm.algorithm").setAlgorithm(0, kMmLapack);
        return c;
    };
    double cpuDesktop =
        bench.evaluate(mk(kSvdPhase1Cpu), n, kDesktop);
    double parDesktop =
        bench.evaluate(mk(kSvdPhase1TaskParallel), n, kDesktop);
    EXPECT_LT(parDesktop, cpuDesktop);
    double cpuLaptop = bench.evaluate(mk(kSvdPhase1Cpu), n, kLaptop);
    double parLaptop =
        bench.evaluate(mk(kSvdPhase1TaskParallel), n, kLaptop);
    EXPECT_GT(parLaptop / cpuLaptop, 0.95); // no real win on Laptop
}

/**
 * The simulator-backed models price only the sizes they can lay out:
 * Poisson2D SOR even n >= 8, SeparableConv. n > kwidth (7), and
 * Black-Scholes and Mandelbrot every size. At any other size a model
 * builds no context, prices every configuration +inf and lists no
 * kernel; at a priced size it builds a context, and pricing through it
 * is the three-argument evaluate() bit for bit. Sizes run from 1 to two
 * past the first priced one (plus an odd Poisson grid), configurations
 * are the seed and 64 seeded mutants, and one digest pins every cost.
 */
TEST(ModelPricedSizes, UnpricedSizesBuildNoContextPriceInfAndListNoKernels)
{
    struct Case
    {
        const char *name;
        int64_t firstPriced;
        bool evenOnly;
        std::vector<int64_t> extraSizes;
    };
    const Case cases[] = {{"Black-Scholes", 1, false, {}},
                          {"Poisson2D SOR", 8, true, {2047}},
                          {"SeparableConv.", 8, false, {}},
                          {"Mandelbrot", 1, false, {}}};
    auto price = [](const Benchmark &bench, const tuner::Config &config,
                    int64_t n, const sim::MachineProfile &machine,
                    const EvalContext *ctx, bool viaContext) {
        try {
            return viaContext ? bench.evaluate(config, n, machine, ctx)
                              : bench.evaluate(config, n, machine);
        } catch (const FatalError &) {
            return std::numeric_limits<double>::infinity();
        }
    };
    Fnv1a digest;
    for (const Case &c : cases) {
        BenchmarkPtr bench = findBenchmark(c.name);
        std::vector<int64_t> sizes = c.extraSizes;
        for (int64_t n = 1; n <= c.firstPriced + 2; ++n)
            sizes.push_back(n);
        for (const sim::MachineProfile &machine : sim::MachineProfile::all())
            for (int64_t n : sizes) {
                const bool priced =
                    n >= c.firstPriced && !(c.evenOnly && n % 2 != 0);
                EvalContextPtr ctx = bench->makeEvalContext(n, machine);
                EXPECT_EQ(ctx != nullptr, priced)
                    << c.name << " n=" << n << " on " << machine.name;
                const tuner::Config seed = bench->seedConfig();
                const std::vector<tuner::Mutator> &mutators =
                    seed.schema().mutators();
                Rng rng(Fnv1a()
                            .mix(std::string_view(c.name))
                            .mix(std::string_view(machine.name))
                            .mix(static_cast<uint64_t>(n))
                            .value());
                for (int i = 0; i <= 64; ++i) {
                    tuner::Config config = seed;
                    for (int64_t e = i == 0 ? 0 : rng.uniformInt(1, 8);
                         e > 0; --e)
                        mutators[static_cast<size_t>(rng.uniformInt(
                                     0, static_cast<int64_t>(
                                            mutators.size()) - 1))]
                            .apply(config, rng, n);
                    const double direct =
                        price(*bench, config, n, machine, nullptr, false);
                    EXPECT_EQ(std::bit_cast<uint64_t>(price(
                                  *bench, config, n, machine, ctx.get(),
                                  true)),
                              std::bit_cast<uint64_t>(direct))
                        << c.name << " n=" << n << " on " << machine.name;
                    if (!priced) {
                        EXPECT_EQ(direct,
                                  std::numeric_limits<double>::infinity())
                            << c.name << " n=" << n;
                        EXPECT_TRUE(bench->kernelSources(config, n).empty())
                            << c.name << " n=" << n;
                    }
                    digest.mix(direct);
                }
            }
    }
    // Recorded against the library in which each of these benchmarks
    // still checked its sizes itself.
    EXPECT_EQ(digest.value(), 0xbc013bfa7ee47d92ull);
}

TEST(ModelRegistry, SevenBenchmarksEvaluateEverywhere)
{
    for (const auto &bench : allBenchmarks()) {
        tuner::Config seed = bench->seedConfig();
        for (const auto &machine : {kDesktop, kServer, kLaptop}) {
            double t = bench->evaluate(seed, bench->testingInputSize(),
                                       machine);
            EXPECT_TRUE(std::isfinite(t))
                << bench->name() << " on " << machine.name;
            EXPECT_GT(t, 0.0);
        }
        EXPECT_GT(bench->openclKernelCount(), 0) << bench->name();
        EXPECT_FALSE(bench->describeConfig(seed,
                                           bench->testingInputSize())
                         .empty());
    }
}

TEST(ModelRegistry, FindBenchmarkResolvesEveryNameInAnyCase)
{
    std::vector<BenchmarkPtr> all = allBenchmarks();
    ASSERT_EQ(all.size(), 8u);
    for (const auto &bench : all) {
        std::string upper = bench->name(), lower = bench->name();
        for (char &c : upper)
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        for (char &c : lower)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        EXPECT_EQ(findBenchmark(upper)->name(), bench->name());
        EXPECT_EQ(findBenchmark(lower)->name(), bench->name());
    }
    try {
        findBenchmark("NoSuchBenchmark");
        FAIL() << "unknown name resolved";
    } catch (const FatalError &error) {
        for (const auto &bench : all)
            EXPECT_NE(std::string(error.what()).find(bench->name()),
                      std::string::npos)
                << bench->name();
    }
}

TEST(ModelRegistry, ConfigSpacesAreAstronomical)
{
    // Figure 8 reports 10^130 .. 10^2435 possible configs.
    for (const auto &bench : allBenchmarks()) {
        double log10 = bench->seedConfig().log10SpaceSize(
            bench->testingInputSize());
        EXPECT_GT(log10, 20.0) << bench->name();
    }
}

} // namespace
} // namespace apps
} // namespace petabricks
