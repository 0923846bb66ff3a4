/**
 * @file
 * SeparableConvolution (paper Figure 1 / Section 2.1, Figures 2 and
 * 7(c)).
 *
 * Convolves an n x n matrix with a separable KWIDTH-wide kernel. Two
 * algorithmic choices — a single-pass 2-D convolution, or two 1-D
 * passes through an intermediate buffer — each of whose rules can run
 * on the CPU backend, the OpenCL backend with global memory, or the
 * OpenCL backend with the synthesized local-memory prefetch variant.
 */

#ifndef PETABRICKS_BENCHMARKS_CONVOLUTION_H
#define PETABRICKS_BENCHMARKS_CONVOLUTION_H

#include <memory>

#include "benchmarks/backend_util.h"
#include "benchmarks/benchmark.h"
#include "lang/transform.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/** See file comment. */
class ConvolutionBenchmark : public Benchmark
{
  public:
    explicit ConvolutionBenchmark(int64_t kwidth = 7);

    std::string name() const override { return "SeparableConv."; }
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
    int64_t testingInputSize() const override { return 3520; }
    int openclKernelCount() const override;
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    int64_t kwidth() const { return kwidth_; }

    // Real-mode surface.
    bool supportsRealMode() const override { return true; }
    const lang::Transform &transform() const override
    {
        return *transform_;
    }
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    compiler::TransformConfig planFor(const tuner::Config &config,
                                      int64_t n) const override;
    double checkOutput(const lang::Binding &binding) const override;
    int64_t realModeProbeSize() const override { return 64; }

    /** Reference result for correctness checks. */
    static MatrixD reference(const lang::Binding &binding, int64_t kwidth);

    /**
     * Fixed expert placements for the Figure 2 sweep: 2D / separable,
     * each with and without local memory, all entirely on OpenCL.
     */
    static tuner::Config fixedMapping(bool separable, bool localMem);

  private:
    /** The stage placement of @p config at size @p n, in a per-thread
     * buffer: the one walk planFor(), describeConfig(), kernelSources()
     * and the cost model share. */
    const compiler::TransformConfig &stagePlan(const tuner::Config &config,
                                               int64_t n) const;

    int64_t kwidth_;
    std::shared_ptr<lang::Transform> transform_;
    // Model structure every evaluation context shares, built once.
    compiler::TransformAnalysisPtr analysis_;
    tuner::ConfigSchemaPtr schema_;
    size_t choiceSel_ = 0;
    StageChoiceIds rules_[3]; // Convolve2D, ConvolveRows, ConvolveColumns
    std::vector<std::string> kernelNames_; // stageKernelNames(*analysis_)
    size_t splitTun_ = 0;
};

/** Build the SeparableConvolution transform for a given kernel width. */
std::shared_ptr<lang::Transform> makeConvolutionTransform(int64_t kwidth);

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_CONVOLUTION_H
