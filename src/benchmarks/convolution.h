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
#include "benchmarks/transform_style.h"
#include "lang/transform.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/** See file comment. */
class ConvolutionBenchmark
    : public TransformStyleBenchmark<ConvolutionBenchmark>
{
  public:
    explicit ConvolutionBenchmark(int64_t kwidth = 7);

    std::string name() const override { return "SeparableConv."; }
    int64_t testingInputSize() const override { return 3520; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    int64_t kwidth() const { return kwidth_; }

    // Real-mode surface.
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
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
    friend TransformStyleBenchmark; // the model hooks below

    void placeStages(const tuner::Config &config, int64_t n,
                     compiler::TransformConfig &plan) const;
    compiler::SlotExtent slotExtent(int64_t n, int slot) const;
    lang::ParamEnv params(int64_t) const { return {kwidth_}; }

    int64_t kwidth_;
    size_t choiceSel_ = 0;
    StageChoiceIds rules_[3]; // Convolve2D, ConvolveRows, ConvolveColumns
    size_t splitTun_ = 0;
};

/** Build the SeparableConvolution transform for a given kernel width. */
std::shared_ptr<lang::Transform> makeConvolutionTransform(int64_t kwidth);

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_CONVOLUTION_H
