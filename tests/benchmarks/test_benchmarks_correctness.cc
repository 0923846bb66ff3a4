/**
 * Real-mode correctness of every benchmark's algorithmic choices: all
 * choices must produce the same (reference) answer.
 */
#include <gtest/gtest.h>

#include "benchmarks/backend_util.h"
#include "benchmarks/blackscholes.h"
#include "blas/blas.h"
#include "benchmarks/convolution.h"
#include "benchmarks/poisson.h"
#include "benchmarks/sort.h"
#include "benchmarks/strassen.h"
#include "benchmarks/svd.h"
#include "benchmarks/tridiagonal.h"
#include "compiler/executor.h"

namespace petabricks {
namespace apps {
namespace {

// (residuals use apps::maxAbsDiff from benchmark.h)

// ---- Black-Scholes -----------------------------------------------------

TEST(BlackScholesReal, FormulaSanity)
{
    // Deep in-the-money call is worth ~ S - K e^{-rT}.
    double price = blackScholesCall(200.0, 100.0, 1.0, 0.05, 0.2);
    EXPECT_NEAR(price, 200.0 - 100.0 * std::exp(-0.05), 0.2);
    // Far out-of-the-money call is nearly worthless.
    EXPECT_LT(blackScholesCall(10.0, 100.0, 0.5, 0.05, 0.2), 1e-6);
}

TEST(BlackScholesReal, ExecutorMatchesReferenceOnCpuAndGpu)
{
    BlackScholesBenchmark bench;
    Rng rng(3);
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    runtime::Runtime rt(2, &device);
    compiler::TransformExecutor exec(rt);

    for (compiler::Backend backend :
         {compiler::Backend::Cpu, compiler::Backend::OpenClGlobal}) {
        lang::Binding binding = bench.makeBinding(900, rng);
        tuner::Config config = bench.seedConfig();
        config.selector("BlackScholes.backend")
            .setAlgorithm(0, backendAlg(backend));
        exec.execute(bench.transform(), binding,
                     bench.planFor(config, 900));
        exec.syncOutputs(bench.transform(), binding);
        MatrixD ref = BlackScholesBenchmark::reference(binding);
        EXPECT_LT(maxAbsDiff(binding.matrix("Price"), ref), 1e-9)
            << compiler::backendName(backend);
    }
}

TEST(BlackScholesReal, SplitRatioMatchesReference)
{
    BlackScholesBenchmark bench;
    Rng rng(4);
    ocl::Device device(sim::MachineProfile::laptop().ocl);
    runtime::Runtime rt(2, &device);
    compiler::TransformExecutor exec(rt);
    lang::Binding binding = bench.makeBinding(640, rng);
    tuner::Config config = bench.seedConfig();
    config.selector("BlackScholes.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::OpenClGlobal));
    config.setTunable("BlackScholes.ratio", 6); // 75% GPU, 25% CPU
    exec.execute(bench.transform(), binding, bench.planFor(config, 640));
    exec.syncOutputs(bench.transform(), binding);
    EXPECT_LT(maxAbsDiff(binding.matrix("Price"),
                         BlackScholesBenchmark::reference(binding)),
              1e-9);
}

// ---- Convolution -------------------------------------------------------

TEST(ConvolutionReal, AllMappingsMatchReference)
{
    ConvolutionBenchmark bench(5);
    Rng rng(5);
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    runtime::Runtime rt(2, &device);
    compiler::TransformExecutor exec(rt);

    struct Case
    {
        bool separable;
        bool local;
    };
    for (Case c : {Case{false, false}, Case{false, true},
                   Case{true, false}, Case{true, true}}) {
        lang::Binding binding = bench.makeBinding(48, rng);
        tuner::Config config =
            ConvolutionBenchmark::fixedMapping(c.separable, c.local);
        exec.execute(bench.transform(), binding,
                     bench.planFor(config, 48));
        exec.syncOutputs(bench.transform(), binding);
        MatrixD ref = ConvolutionBenchmark::reference(binding, 5);
        EXPECT_LT(maxAbsDiff(binding.matrix("Out"), ref), 1e-9)
            << (c.separable ? "separable" : "2d")
            << (c.local ? "+local" : "");
    }
}

// ---- Poisson -----------------------------------------------------------

TEST(PoissonReal, PackedSorMatchesDirectSor)
{
    PoissonBenchmark bench(4);
    Rng rng(7);
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    runtime::Runtime rt(2, &device);
    compiler::TransformExecutor exec(rt);

    lang::Binding binding = bench.makeBinding(32, rng);
    MatrixD initial = binding.matrix("In").clone();
    tuner::Config config = PoissonBenchmark::cpuOnlyConfig();
    exec.execute(bench.transform(), binding, bench.planFor(config, 32));
    exec.syncOutputs(bench.transform(), binding);
    MatrixD got = bench.unpackResult(binding);
    MatrixD ref = PoissonBenchmark::reference(initial, 4,
                                              PoissonBenchmark::kOmega);
    EXPECT_LT(maxAbsDiff(got, ref), 1e-9);
}

TEST(PoissonReal, GpuIterationMatchesCpu)
{
    PoissonBenchmark bench(3);
    Rng rng(9);
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    runtime::Runtime rt(2, &device);
    compiler::TransformExecutor exec(rt);

    lang::Binding binding = bench.makeBinding(24, rng);
    MatrixD initial = binding.matrix("In").clone();
    tuner::Config config = bench.seedConfig();
    config.selector("Poisson.split.backend").setAlgorithm(0, backendAlg(compiler::Backend::Cpu));
    config.selector("Poisson.iterate.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::OpenClLocal));
    exec.execute(bench.transform(), binding, bench.planFor(config, 24));
    exec.syncOutputs(bench.transform(), binding);
    MatrixD ref = PoissonBenchmark::reference(initial, 3,
                                              PoissonBenchmark::kOmega);
    EXPECT_LT(maxAbsDiff(bench.unpackResult(binding), ref), 1e-9);
}

// ---- Sort --------------------------------------------------------------

TEST(SortReal, EveryAlgorithmSorts)
{
    Rng rng(11);
    for (int alg = 0; alg < kSortAlgCount; ++alg) {
        SortBenchmark bench;
        tuner::Config config = bench.seedConfig();
        config.selector("Sort.algorithm").setAlgorithm(0, alg);
        std::vector<double> data(alg <= kSortSelection ? 500 : 5000);
        for (double &d : data)
            d = rng.uniformReal(-1e6, 1e6);
        std::vector<double> expect = data;
        std::sort(expect.begin(), expect.end());
        SortBenchmark::sortWithConfig(config, data);
        EXPECT_EQ(data, expect) << "algorithm " << alg;
    }
}

TEST(SortReal, PolyAlgorithmSorts)
{
    // The paper's Desktop-style config: 2MS at the top, QS in the
    // middle, 4MS lower, IS at the base.
    SortBenchmark bench;
    tuner::Config config = bench.seedConfig();
    tuner::SelectorRef s = config.selector("Sort.algorithm");
    s.setAlgorithm(0, kSortInsertion);
    s.insertLevel(64, kSortMerge4);
    s.insertLevel(2048, kSortQuick);
    s.insertLevel(1 << 15, kSortMerge2);
    Rng rng(13);
    std::vector<double> data(100000);
    for (double &d : data)
        d = rng.uniformReal(-1e9, 1e9);
    std::vector<double> expect = data;
    std::sort(expect.begin(), expect.end());
    SortBenchmark::sortWithConfig(config, data);
    EXPECT_EQ(data, expect);
}

TEST(SortReal, RadixHandlesNegativesAndDuplicates)
{
    SortBenchmark bench;
    tuner::Config config = bench.seedConfig();
    config.selector("Sort.algorithm").setAlgorithm(0, kSortRadix);
    std::vector<double> data{3.5, -2.0, 0.0, -2.0, 1e300, -1e300,
                             0.25, -0.0, 7.0, 3.5};
    std::vector<double> expect = data;
    std::sort(expect.begin(), expect.end());
    SortBenchmark::sortWithConfig(config, data);
    EXPECT_EQ(data, expect);
}

TEST(SortReal, BitonicGpuSortsNonPowerOfTwo)
{
    SortBenchmark bench;
    tuner::Config config = SortBenchmark::gpuOnlyConfig();
    Rng rng(17);
    std::vector<double> data(1000); // padded to 1024 internally
    for (double &d : data)
        d = rng.uniformReal(-50.0, 50.0);
    std::vector<double> expect = data;
    std::sort(expect.begin(), expect.end());
    SortBenchmark::sortWithConfig(config, data);
    EXPECT_EQ(data, expect);
}

// ---- Strassen ----------------------------------------------------------

TEST(StrassenReal, AllAlgorithmsMatchNaive)
{
    Rng rng(19);
    const int64_t n = 64;
    MatrixD a(n, n), b(n, n);
    for (int64_t i = 0; i < a.size(); ++i) {
        a[i] = rng.uniformReal(-1.0, 1.0);
        b[i] = rng.uniformReal(-1.0, 1.0);
    }
    StrassenBenchmark bench;
    tuner::Config naiveCfg = bench.seedConfig();
    naiveCfg.selector("Strassen.mm.algorithm").setAlgorithm(0, kMmNaive);
    MatrixD ref(n, n);
    runMatmul(naiveCfg, "Strassen", a, b, ref);

    for (int alg = 0; alg < kMmAlgCount; ++alg) {
        tuner::Config config = bench.seedConfig();
        config.selector("Strassen.mm.algorithm").setAlgorithm(0, alg);
        MatrixD c(n, n);
        runMatmul(config, "Strassen", a, b, c);
        EXPECT_LT(maxAbsDiff(c, ref), 1e-9) << "algorithm " << alg;
    }
}

TEST(StrassenReal, PolyAlgorithmRecursion)
{
    // Strassen at the top, 8-way in the middle, LAPACK leaves — the
    // recursion consults the selector at every level.
    Rng rng(23);
    const int64_t n = 128;
    MatrixD a(n, n), b(n, n);
    for (int64_t i = 0; i < a.size(); ++i) {
        a[i] = rng.uniformReal(-1.0, 1.0);
        b[i] = rng.uniformReal(-1.0, 1.0);
    }
    StrassenBenchmark bench;
    tuner::Config config = bench.seedConfig();
    tuner::SelectorRef s = config.selector("Strassen.mm.algorithm");
    s.setAlgorithm(0, kMmLapack);
    s.insertLevel(48, kMmRecursive8);
    s.insertLevel(96, kMmStrassen);
    MatrixD c(n, n), ref(n, n);
    runMatmul(config, "Strassen", a, b, c);
    blas::gemm(a, b, ref);
    EXPECT_LT(maxAbsDiff(c, ref), 1e-8);
}

// ---- SVD ---------------------------------------------------------------

TEST(SvdReal, FullRankReconstructsExactly)
{
    Rng rng(29);
    const int64_t n = 24;
    MatrixD a(n, n);
    for (int64_t i = 0; i < a.size(); ++i)
        a[i] = rng.uniformReal(-1.0, 1.0);
    SvdBenchmark bench;
    tuner::Config config = bench.seedConfig(); // k8 = 8: full rank
    double err = 1.0;
    bench.approximate(config, a, &err);
    EXPECT_LT(err, 1e-6);
}

TEST(SvdReal, ErrorDecreasesWithRank)
{
    Rng rng(31);
    const int64_t n = 32;
    // Build a matrix with decaying spectrum so truncation matters.
    MatrixD a(n, n);
    for (int64_t i = 0; i < a.size(); ++i)
        a[i] = rng.uniformReal(-1.0, 1.0);
    for (int64_t y = 0; y < n; ++y)
        for (int64_t x = 0; x < n; ++x)
            a.at(x, y) += (x == y ? 5.0 * std::exp(-0.2 * x) : 0.0);
    SvdBenchmark bench;
    double prev = 2.0;
    for (int k8 : {2, 4, 8}) {
        tuner::Config config = bench.seedConfig();
        config.setTunable("SVD.k8", k8);
        double err = 0.0;
        bench.approximate(config, a, &err);
        EXPECT_LE(err, prev + 1e-9) << "k8=" << k8;
        prev = err;
    }
    EXPECT_LT(prev, 1e-6); // full rank at the end
}

TEST(SvdReal, RecursiveMatmulsMatchNaiveAtEveryRank)
{
    // The projection multiplies an n x k matrix by a k x n one, so the
    // recursive algorithms must split non-square operands.
    SvdBenchmark bench;
    for (int64_t n : {64, 128}) {
        Rng rng(static_cast<uint64_t>(n));
        MatrixD a(n, n);
        for (int64_t i = 0; i < a.size(); ++i)
            a[i] = rng.uniformReal(-1.0, 1.0);
        for (int k8 = 1; k8 <= 8; ++k8) {
            tuner::Config naive = bench.seedConfig();
            naive.setTunable("SVD.k8", k8);
            naive.selector("SVD.mm.algorithm").setAlgorithm(0, kMmNaive);
            MatrixD ref = bench.approximate(naive, a, nullptr);
            for (int alg : {kMmRecursive8, kMmStrassen}) {
                tuner::Config config = naive;
                config.selector("SVD.mm.algorithm").setAlgorithm(0, alg);
                MatrixD ak = bench.approximate(config, a, nullptr);
                double base = 0.0;
                for (int64_t i = 0; i < ref.size(); ++i)
                    base += ref[i] * ref[i];
                EXPECT_LT(blas::frobeniusDiff(ak, ref) / std::sqrt(base),
                          1e-9)
                    << "n=" << n << " k8=" << k8 << " algorithm " << alg;
            }
        }
    }
}

TEST(SvdReal, JacobiEigenDecomposesSymmetricMatrix)
{
    Rng rng(37);
    const int64_t n = 16;
    MatrixD m(n, n);
    for (int64_t y = 0; y < n; ++y)
        for (int64_t x = 0; x <= y; ++x) {
            double v = rng.uniformReal(-1.0, 1.0);
            m.at(x, y) = v;
            m.at(y, x) = v;
        }
    MatrixD b = m.clone();
    MatrixD v;
    jacobiEigen(b, v);
    // Check M * v_i = lambda_i * v_i for every eigenpair.
    for (int64_t i = 0; i < n; ++i) {
        double lambda = b.at(i, i);
        for (int64_t r = 0; r < n; ++r) {
            double mv = 0.0;
            for (int64_t c = 0; c < n; ++c)
                mv += m.at(c, r) * v.at(i, c);
            EXPECT_NEAR(mv, lambda * v.at(i, r), 1e-8);
        }
    }
}

// ---- Tridiagonal -------------------------------------------------------

TEST(TridiagReal, ThomasSolvesSystems)
{
    Rng rng(41);
    auto p = TridiagBenchmark::makeProblem(32, rng);
    MatrixD x = TridiagBenchmark::referenceSolve(p);
    // Verify residual A x = d per system.
    for (int64_t sys = 0; sys < p.systems(); ++sys) {
        for (int64_t i = 0; i < p.unknowns(); ++i) {
            double ax = p.diag.at(i, sys) * x.at(i, sys);
            if (i > 0)
                ax += p.lower.at(i, sys) * x.at(i - 1, sys);
            if (i + 1 < p.unknowns())
                ax += p.upper.at(i, sys) * x.at(i + 1, sys);
            EXPECT_NEAR(ax, p.rhs.at(i, sys), 1e-8);
        }
    }
}

TEST(TridiagReal, AllAlgorithmsAgree)
{
    Rng rng(43);
    auto p = TridiagBenchmark::makeProblem(64, rng);
    MatrixD ref = TridiagBenchmark::referenceSolve(p);
    TridiagBenchmark bench;
    for (int alg : {kTriCyclicCpu, kTriCyclicGpu}) {
        tuner::Config config = bench.seedConfig();
        config.selector("Tridiag.algorithm").setAlgorithm(0, alg);
        MatrixD x = TridiagBenchmark::solveWithConfig(config, p);
        EXPECT_LT(maxAbsDiff(x, ref), 1e-7) << "algorithm " << alg;
    }
}

} // namespace
} // namespace apps
} // namespace petabricks
