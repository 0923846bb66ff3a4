/**
 * @file
 * Tridiagonal Solver benchmark (paper Figure 7(g)).
 *
 * Solves a batch of n tridiagonal systems of n unknowns each (the
 * paper's 1024^2 testing size). Choices, a subset of Davidson/Zhang's
 * techniques the paper cites: the sequential Thomas direct solve (each
 * system is a dependent forward/backward chain, batch-parallel across
 * systems), cyclic reduction on the CPU, and cyclic reduction on the
 * OpenCL device (log n data-parallel steps, each a kernel launch).
 *
 * The paper's finding: only Desktop's powerful GPU justifies the
 * algorithmic switch to cyclic reduction; Server and Laptop do best
 * with the direct solve on the CPU.
 */

#ifndef PETABRICKS_BENCHMARKS_TRIDIAGONAL_H
#define PETABRICKS_BENCHMARKS_TRIDIAGONAL_H

#include "benchmarks/function_style.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/** Algorithm ids of the Tridiag selector. */
enum TridiagAlg
{
    kTriThomas = 0,
    kTriCyclicCpu = 1,
    kTriCyclicGpu = 2,
    kTriAlgCount = 3,
};

/** One batch problem: rows are systems (lower, diag, upper, rhs). */
struct TridiagProblem
{
    MatrixD lower, diag, upper, rhs;

    int64_t systems() const { return diag.height(); }
    int64_t unknowns() const { return diag.width(); }
};

/** See file comment. */
class TridiagBenchmark : public FunctionStyleBenchmark
{
  public:
    TridiagBenchmark();

    std::string name() const override { return "Tridiagonal Solver"; }
    using Benchmark::evaluate;
    double evaluate(const tuner::Config &config, int64_t n,
                    const sim::MachineProfile &machine,
                    const EvalContext *ctx) const override;
    std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t n) const override;
    int64_t testingInputSize() const override { return 1024; }
    int openclKernelCount() const override { return 2; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    /** Diagonally dominant random batch; n must be a power of two. */
    static TridiagProblem makeProblem(int64_t n, Rng &rng);

    /** Solve honoring the configuration (real mode). */
    static MatrixD solveWithConfig(const tuner::Config &config,
                                   const TridiagProblem &problem);

    /** Reference Thomas solve of every system. */
    static MatrixD referenceSolve(const TridiagProblem &problem);

    /** Modeled seconds of a CUDPP-style hand-tuned GPU CR solver. */
    static double cudppSeconds(int64_t n, const sim::MachineProfile &m);

    // Real-mode surface: solve the Lower/Diag/Upper/Rhs batch into X
    // with the algorithm the armed choice file selects.
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    double checkOutput(const lang::Binding &binding) const override;
    /** Cyclic reduction is less stable than the Thomas reference. */
    double realModeTolerance() const override { return 1e-7; }
    int64_t realModeProbeSize() const override { return 64; }

  private:
    size_t algorithmSel_ = 0;
    size_t lwsTun_ = 0;
    std::string crKernel_ = "pbcl:tridiag:cr";
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_TRIDIAGONAL_H
