/**
 * @file
 * SVD benchmark: variable-accuracy matrix approximation (Figure 7(f)).
 *
 * Approximates an n x n matrix A through a truncated factorization
 * that consumes less space: B = A^T A is formed with the matmul
 * sub-transform (the Strassen benchmark's machinery under the "SVD"
 * selector prefix, with a data-locality penalty because the multiplies
 * operate on sub-regions of larger arrays — the paper's observation
 * that the best matmul configuration differs inside SVD), B is
 * eigendecomposed by cyclic Jacobi sweeps on the CPU, and A is
 * projected onto the leading k right-singular directions.
 *
 * Variable accuracy: the rank fraction k is a tuned choice; candidate
 * configurations that miss the accuracy target evaluate to +inf, so
 * the autotuner must produce an algorithm that meets the target
 * (Section 6.2's description of the variable-accuracy mechanism).
 *
 * The first phase offers task parallelism: computing the two halves of
 * B concurrently, one on the GPU and one on the CPU — the Desktop
 * config's "task parallelism between CPU/GPU".
 */

#ifndef PETABRICKS_BENCHMARKS_SVD_H
#define PETABRICKS_BENCHMARKS_SVD_H

#include <array>

#include "benchmarks/function_style.h"
#include "benchmarks/strassen.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/** Phase-1 placement ids. */
enum SvdPhase1
{
    kSvdPhase1Cpu = 0,
    kSvdPhase1TaskParallel = 1, // GPU computes one half, CPU the other
};

/** See file comment. */
class SvdBenchmark : public FunctionStyleBenchmark
{
  public:
    /** @param accuracyTarget max relative Frobenius error allowed. */
    explicit SvdBenchmark(double accuracyTarget = 0.30);

    std::string name() const override { return "SVD"; }
    using Benchmark::evaluate;
    double evaluate(const tuner::Config &config, int64_t n,
                    const sim::MachineProfile &machine,
                    const EvalContext *ctx) const override;
    std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t n) const override;
    int64_t testingInputSize() const override { return 256; }
    int64_t minTuningSize() const override { return 32; }
    int openclKernelCount() const override { return 2; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    double accuracyTarget() const { return accuracyTarget_; }

    /**
     * Real-mode approximation: returns the rank-k approximation of
     * @p a under @p config. @p errorOut (optional) receives the
     * relative Frobenius error.
     */
    MatrixD approximate(const tuner::Config &config, const MatrixD &a,
                        double *errorOut = nullptr) const;

    // Real-mode surface: Ak = rank-k approximation of A via a region
    // rule. checkOutput() returns the relative Frobenius error of the
    // approximation — the benchmark's variable-accuracy residual — so
    // the tolerance is the accuracy target itself.
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    double checkOutput(const lang::Binding &binding) const override;
    double realModeTolerance() const override { return accuracyTarget_; }
    int64_t realModeProbeSize() const override { return 32; }

    /**
     * Modeled relative error of a rank-(k8/8 * n) approximation under
     * the synthetic exponential spectrum used for tuning.
     */
    static double modeledError(int k8);

    /** Data-locality penalty applied to matmuls inside SVD. */
    static constexpr double kLocalityPenalty = 1.35;

  private:
    /** The walk of the SVD model, which evaluate(), kernelSources()
     * and describeConfig() read. A rank that misses the accuracy
     * target prices +inf and runs nothing else. */
    struct Walk
    {
        int k8;
        bool feasible;
        bool taskParallel; // phase 1 computes half of B on the GPU
        LevelChain matmul; // phases 1 and 3
    };
    Walk walk(const tuner::Config &config, int64_t n) const;

    double accuracyTarget_;
    MatmulChoiceIds mm_;
    size_t phase1Sel_ = 0;
    size_t k8Tun_ = 0;
    /** By "SVD.k8" value: does that rank meet the accuracy target? */
    std::array<bool, 9> rankFeasible_{};
};

/**
 * Cyclic Jacobi eigendecomposition of a symmetric matrix.
 * @param b symmetric input (destroyed); eigenvalues land on the
 *        diagonal.
 * @param v receives the eigenvectors (columns).
 * @param sweeps number of full Jacobi sweeps.
 */
void jacobiEigen(MatrixD &b, MatrixD &v, int sweeps = 12);

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_SVD_H
