/**
 * Model-mode behavior: the qualitative facts the paper reports must
 * hold in the machine model (who wins where, and why).
 */
#include <bit>
#include <cctype>
#include <cmath>
#include <limits>
#include <utility>

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
