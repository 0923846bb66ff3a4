/**
 * @file
 * Black-Scholes benchmark (paper Figure 7(a)).
 *
 * Prices n European call options with the closed-form Black-Scholes
 * formula — one output cell per option, a perfectly data-parallel rule
 * with a bounding box of one (so no local-memory variant exists). The
 * interesting choice is placement: all CPU, all OpenCL, or a
 * GPU-CPU ratio split computing different regions of the same output
 * concurrently on both processors; the paper's Laptop picks a 25%/75%
 * split for a 1.3x speedup over GPU-only.
 */

#ifndef PETABRICKS_BENCHMARKS_BLACKSCHOLES_H
#define PETABRICKS_BENCHMARKS_BLACKSCHOLES_H

#include "benchmarks/backend_util.h"
#include "benchmarks/transform_style.h"
#include "lang/transform.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/** The Black-Scholes formula for a European call (for references). */
double blackScholesCall(double spot, double strike, double years,
                        double riskFree, double volatility);

/** See file comment. */
class BlackScholesBenchmark
    : public TransformStyleBenchmark<BlackScholesBenchmark>
{
  public:
    BlackScholesBenchmark();

    std::string name() const override { return "Black-Scholes"; }
    int64_t testingInputSize() const override { return 500000; }
    int64_t minTuningSize() const override { return 4096; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    // Real-mode surface. makeBinding() shapes the n options into a
    // near-square matrix so the GPU-CPU ratio can split rows; inputs
    // Spot, Strike, Years are drawn from realistic ranges, and rate and
    // volatility are transform params scaled by 1e4.
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    double checkOutput(const lang::Binding &binding) const override;
    int64_t realModeProbeSize() const override { return 2048; }

    /** Reference pricing for correctness checks. */
    static MatrixD reference(const lang::Binding &binding);

    /** The Figure 7(a) "CPU-only Config" baseline. */
    static tuner::Config cpuOnlyConfig();

  private:
    friend TransformStyleBenchmark; // the model hooks below

    void placeStages(const tuner::Config &config, int64_t n,
                     compiler::TransformConfig &plan) const;
    compiler::SlotExtent slotExtent(int64_t n, int) const
    {
        return nearSquareExtent(n);
    }
    /** Rate 5% and volatility 20%, scaled by 1e4. */
    lang::ParamEnv params(int64_t) const { return {500, 2000}; }

    StageChoiceIds rule_;
    size_t splitTun_ = 0;
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_BLACKSCHOLES_H
