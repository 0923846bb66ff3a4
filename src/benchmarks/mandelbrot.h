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

#include <memory>

#include "benchmarks/backend_util.h"
#include "benchmarks/benchmark.h"
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
class MandelbrotBenchmark : public Benchmark
{
  public:
    MandelbrotBenchmark();

    std::string name() const override { return "Mandelbrot"; }
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
    int64_t testingInputSize() const override { return 250000; }
    int64_t minTuningSize() const override { return 4096; }
    int openclKernelCount() const override { return 1; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    // Real-mode surface. makeBinding() shapes the n points into a
    // near-square matrix so the GPU-CPU ratio can split rows; Cr and
    // Ci are drawn from the classic viewing window, and the iteration
    // cap is a transform param.
    bool supportsRealMode() const override { return true; }
    const lang::Transform &transform() const override
    {
        return *transform_;
    }
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    compiler::TransformConfig planFor(const tuner::Config &config,
                                      int64_t n) const override;
    double checkOutput(const lang::Binding &binding) const override;
    int64_t realModeProbeSize() const override { return 2048; }


    /** Reference escape counts for correctness checks. */
    static MatrixD reference(const lang::Binding &binding);

  private:
    /** The stage placement of @p config at size @p n, in a per-thread
     * buffer: the one walk planFor(), describeConfig(), kernelSources()
     * and the cost model share. */
    const compiler::TransformConfig &stagePlan(const tuner::Config &config,
                                               int64_t n) const;

    std::shared_ptr<lang::Transform> transform_;
    // Model structure every evaluation context shares, built once.
    compiler::TransformAnalysisPtr analysis_;
    tuner::ConfigSchemaPtr schema_;
    StageChoiceIds rule_;
    size_t splitTun_ = 0;
    std::vector<std::string> kernelNames_; // stageKernelNames(*analysis_)
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_MANDELBROT_H
