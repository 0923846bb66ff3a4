/**
 * @file
 * Sort benchmark (paper Figure 7(d)).
 *
 * Seven sorting algorithms — insertion, selection, quick, radix, 2-way
 * merge, 4-way merge, and OpenCL bitonic — composed by a selector into
 * a poly-algorithm that changes technique at recursive call sites. The
 * merge sorts additionally choose sequential vs. parallel merge via a
 * size cutoff. The paper's finding: none of the natively tuned configs
 * use the GPU for the main sorting routine, and the CPU-side choices
 * alone span a 2.6x performance range across machines.
 */

#ifndef PETABRICKS_BENCHMARKS_SORT_H
#define PETABRICKS_BENCHMARKS_SORT_H

#include <vector>

#include "benchmarks/benchmark.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/** Algorithm ids of the Sort selector. */
enum SortAlg
{
    kSortInsertion = 0,
    kSortSelection = 1,
    kSortQuick = 2,
    kSortRadix = 3,
    kSortMerge2 = 4,
    kSortMerge4 = 5,
    kSortBitonicGpu = 6,
    kSortAlgCount = 7,
};

/** See file comment. */
class SortBenchmark : public Benchmark
{
  public:
    SortBenchmark();

    std::string name() const override { return "Sort"; }
    tuner::Config seedConfig() const override;
    double evaluate(const tuner::Config &config, int64_t n,
                    const sim::MachineProfile &machine) const override;
    EvalContextPtr
    makeEvalContext(int64_t n,
                    const sim::MachineProfile &machine) const override;
    double evaluate(const tuner::Config &config, int64_t n,
                    const sim::MachineProfile &machine,
                    const EvalContext *ctx) const override;
    std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t n) const override;
    int64_t testingInputSize() const override { return 1 << 20; }
    int openclKernelCount() const override { return 7; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    // Real-mode surface: a single region rule sorting In into Out with
    // the poly-algorithm the armed choice file selects.
    bool supportsRealMode() const override { return true; }

    /** The poly-algorithm arms a shared ChoiceFile in planFor(), so
     * concurrent engine instances would clobber each other's plan. */
    bool realModeConcurrencySafe() const override { return false; }
    const lang::Transform &transform() const override
    {
        return *transform_;
    }
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    compiler::TransformConfig planFor(const tuner::Config &config,
                                      int64_t n) const override;
    double checkOutput(const lang::Binding &binding) const override;
    int64_t realModeProbeSize() const override { return 4096; }

    /**
     * Execute the poly-algorithm @p config selects on @p data (real
     * mode; used by tests and examples). The bitonic choice runs on the
     * emulated OpenCL device.
     */
    static void sortWithConfig(const tuner::Config &config,
                               std::vector<double> &data);

    /** The paper's hand-written "GPU-only Config" (bitonic OpenCL). */
    static tuner::Config gpuOnlyConfig();

    /**
     * Modeled seconds of the NVIDIA-SDK-style hand-coded radix sort on
     * the machine's OpenCL device (the Figure 7(d) baseline).
     */
    static double handCodedRadixSeconds(int64_t n,
                                        const sim::MachineProfile &m);

  private:
    ChoiceFilePtr choices_;
    std::shared_ptr<lang::Transform> transform_;
    tuner::ConfigSchemaPtr schema_;
    size_t algorithmSel_ = 0;
    size_t taskCutoffTun_ = 0;
    size_t pmCutoffTun_ = 0;
    std::string bitonicKernel_ = "pbcl:bitonic:step";
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_SORT_H
