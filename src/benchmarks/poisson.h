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
#include "benchmarks/transform_style.h"
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
class PoissonBenchmark : public TransformStyleBenchmark<PoissonBenchmark>
{
  public:
    /** @param iterations SOR half-sweep pairs the benchmark times. */
    explicit PoissonBenchmark(int iterations = 16);

    std::string name() const override { return "Poisson2D SOR"; }
    int64_t testingInputSize() const override { return 2048; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    int iterations() const { return iterations_; }

    // Real-mode surface. makeBinding() binds a random boundary-value
    // problem on an n x n grid (n must be even).
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
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
    friend TransformStyleBenchmark; // the model hooks below

    void placeStages(const tuner::Config &config, int64_t n,
                     compiler::TransformConfig &plan) const;
    /** In is n x n; each packed Red/Black slot n/2 x n. */
    compiler::SlotExtent
    slotExtent(int64_t n, int slot) const
    {
        return slot == 0 ? compiler::SlotExtent{n, n}
                         : compiler::SlotExtent{n / 2, n};
    }
    /** Grid width, height and omega * 1e4. */
    lang::ParamEnv
    params(int64_t n) const
    {
        return {n, n, static_cast<int64_t>(kOmega * 1e4)};
    }

    int iterations_;
    StageChoiceIds split_;
    StageChoiceIds iterate_;
    size_t chunksTun_ = 0;
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_POISSON_H
