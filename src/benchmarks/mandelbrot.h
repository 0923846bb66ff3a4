/**
 * @file
 * Mandelbrot benchmark (the eighth workload, beyond the paper's seven).
 *
 * Computes the escape-time iteration count of n points of the complex
 * plane — one output cell per point, a perfectly data-parallel rule
 * with a bounding box of one, like Black-Scholes, but with a bounded
 * inner *loop* instead of a closed-form formula: the per-point work is
 * governed by the MaxIter transform parameter, so the compute/byte
 * ratio is a knob rather than a constant. Exists primarily to prove
 * the Benchmark/ExecutionEngine surface is open: it was added after
 * the engine, tuner, service, and portfolio layers and flows through
 * all of them with no changes outside this directory.
 */

#ifndef PETABRICKS_BENCHMARKS_MANDELBROT_H
#define PETABRICKS_BENCHMARKS_MANDELBROT_H

#include "benchmarks/backend_util.h"
#include "benchmarks/transform_style.h"
#include "lang/transform.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/**
 * Escape-time iteration count of c = (cr, ci), capped at maxIter.
 * Returned as a double so it lives in the standard matrix type.
 */
double mandelbrotEscape(double cr, double ci, int64_t maxIter);

/** See file comment. */
class MandelbrotBenchmark
    : public TransformStyleBenchmark<MandelbrotBenchmark>
{
  public:
    MandelbrotBenchmark();

    std::string name() const override { return "Mandelbrot"; }
    int64_t testingInputSize() const override { return 250000; }
    int64_t minTuningSize() const override { return 4096; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    // Real-mode surface. makeBinding() shapes the n points into a
    // near-square matrix so the GPU-CPU ratio can split rows; Cr and
    // Ci are drawn from the classic viewing window, and the iteration
    // cap is a transform param.
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    double checkOutput(const lang::Binding &binding) const override;
    int64_t realModeProbeSize() const override { return 2048; }

    /** Reference escape counts for correctness checks. */
    static MatrixD reference(const lang::Binding &binding);

  private:
    friend TransformStyleBenchmark; // the model hooks below

    void placeStages(const tuner::Config &config, int64_t n,
                     compiler::TransformConfig &plan) const;
    compiler::SlotExtent slotExtent(int64_t n, int) const
    {
        return nearSquareExtent(n);
    }
    lang::ParamEnv params(int64_t n) const;

    StageChoiceIds rule_;
    size_t splitTun_ = 0;
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_MANDELBROT_H
