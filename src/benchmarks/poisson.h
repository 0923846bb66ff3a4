/**
 * @file
 * Poisson2D SOR benchmark (paper Figure 7(b)).
 *
 * Solves Poisson's equation with Red-Black Successive Over-Relaxation.
 * Before the main iteration the grid is *split* into separate packed
 * red and black buffers for cache efficiency; the iterations then
 * alternate red and black half-sweeps. The paper's headline: on
 * Desktop/Laptop the split runs on the CPU and the iterations on the
 * GPU, while Server does nearly the opposite (OpenCL split, CPU
 * iterations), because its OpenCL backend shares the CPU.
 *
 * The packed layout makes the split rules strided gathers
 * (DimAccess::strided), and the update rules 3x3-window stencils over
 * the opposite color — both synthesizable to OpenCL with local-memory
 * variants.
 */

#ifndef PETABRICKS_BENCHMARKS_POISSON_H
#define PETABRICKS_BENCHMARKS_POISSON_H

#include <memory>

#include "benchmarks/backend_util.h"
#include "benchmarks/benchmark.h"
#include "lang/transform.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/**
 * Build the unrolled transform: pack red/black, then @p iterations
 * alternating half-sweeps. Slots: In, Red0..RedK, Black0..BlackK.
 */
std::shared_ptr<lang::Transform> makePoissonTransform(int iterations);

/** See file comment. */
class PoissonBenchmark : public Benchmark
{
  public:
    /** @param iterations SOR half-sweep pairs the benchmark times. */
    explicit PoissonBenchmark(int iterations = 16);

    std::string name() const override { return "Poisson2D SOR"; }
    tuner::Config seedConfig() const override;
    using Benchmark::evaluate;
    EvalContextPtr
    makeEvalContext(int64_t n,
                    const sim::MachineProfile &machine) const override;
    double evaluate(const tuner::Config &config, int64_t n,
                    const sim::MachineProfile &machine,
                    const EvalContext *ctx) const override;
    std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t n) const override;
    int64_t testingInputSize() const override { return 2048; }
    int openclKernelCount() const override;
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    int iterations() const { return iterations_; }

    // Real-mode surface. makeBinding() binds a random boundary-value
    // problem on an n x n grid (n must be even).
    bool supportsRealMode() const override { return true; }
    const lang::Transform &transform() const override
    {
        return *transform_;
    }
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    compiler::TransformConfig planFor(const tuner::Config &config,
                                      int64_t n) const override;
    double checkOutput(const lang::Binding &binding) const override;
    int64_t realModeProbeSize() const override { return 32; }

    /**
     * Reference: the same red-black SOR computed directly on the
     * unpacked grid; returns the grid after the iterations.
     */
    static MatrixD reference(const MatrixD &grid, int iterations,
                             double omega);

    /** Merge the packed Red/Black outputs of @p binding into a grid. */
    MatrixD unpackResult(const lang::Binding &binding) const;

    /** Figure 7(b)'s CPU-only baseline config. */
    static tuner::Config cpuOnlyConfig();

    /** Over-relaxation factor used throughout. */
    static constexpr double kOmega = 1.5;

  private:
    /** The stage placement of @p config at size @p n, in a per-thread
     * buffer: the one walk planFor(), describeConfig(), kernelSources()
     * and the cost model share. */
    const compiler::TransformConfig &stagePlan(const tuner::Config &config,
                                               int64_t n) const;

    int iterations_;
    std::shared_ptr<lang::Transform> transform_;
    // Model structure every evaluation context shares, built once.
    compiler::TransformAnalysisPtr analysis_;
    tuner::ConfigSchemaPtr schema_;
    StageChoiceIds split_;
    StageChoiceIds iterate_;
    size_t chunksTun_ = 0;
    std::vector<std::string> kernelNames_; // stageKernelNames(*analysis_)
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_POISSON_H
