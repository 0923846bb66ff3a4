/**
 * @file
 * Strassen benchmark: dense matrix-matrix multiply (paper Figure 7(e)).
 *
 * The choice set follows the paper: naive multiplication, a blocked
 * native variant, recursive 8-multiply decomposition, Strassen's
 * 7-multiply recursion, a call to the external library (src/blas
 * standing in for LAPACK), and the data-parallel OpenCL kernel
 * synthesized from the matmul rule. Recursion consults the selector at
 * every level, so configurations like the Server's "8-way parallel
 * recursive decomposition, call LAPACK when < 682 x 682" arise
 * naturally from selector cutoffs.
 *
 * The matmul machinery is exposed with a configurable selector prefix
 * because SVD reuses it as a sub-transform — with different data
 * locality, hence the paper's observation that the best matmul config
 * inside SVD differs from Strassen in isolation.
 */

#ifndef PETABRICKS_BENCHMARKS_STRASSEN_H
#define PETABRICKS_BENCHMARKS_STRASSEN_H

#include "benchmarks/function_style.h"
#include "benchmarks/level_chain.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace petabricks {
namespace apps {

/** Algorithm ids of the matmul selector. */
enum MatmulAlg
{
    kMmLapack = 0,
    kMmRecursive8 = 1,
    kMmStrassen = 2,
    kMmBlocked = 3,
    kMmNaive = 4,
    kMmOpenCl = 5,
    kMmAlgCount = 6,
};

/** Register the matmul choice structure under @p prefix. */
void addMatmulChoices(tuner::ConfigSchema::Builder &schema,
                      const std::string &prefix);

/**
 * Pre-resolved positions of the "<prefix>.mm" choice structure within
 * a schema — valid for every configuration of the benchmark. The
 * benchmark resolves these once, in its constructor, so the recursive
 * model consults selectors without building key strings.
 */
struct MatmulChoiceIds
{
    size_t algorithm = 0; // selector "<prefix>.mm.algorithm"
    size_t lws = 0;       // tunable "<prefix>.mm.lws"
};

MatmulChoiceIds matmulChoiceIds(const tuner::ConfigSchema &schema,
                                const std::string &prefix);

/**
 * The walk of the matmul model: the levels it prices for an n x n
 * multiply under @p config's choices (positions @p ids). Decompositions
 * recurse at n/2, down to another algorithm or the naive 16 x 16 leaf.
 */
LevelChain matmulLevels(const tuner::Config &config,
                        const MatmulChoiceIds &ids, int64_t n);

/**
 * Modeled seconds on @p machine of the multiply whose walk is
 * @p levels. @p localityPenalty scales CPU/GPU memory costs for calls
 * on sub-regions of larger arrays (SVD).
 */
double matmulSeconds(const tuner::Config &config, const MatmulChoiceIds &ids,
                     const LevelChain &levels,
                     const sim::MachineProfile &machine,
                     double localityPenalty = 1.0);

/** Kernel source of the synthesized matmul kernel (Section 5.4). */
inline const std::string kMatmulKernel = "pbcl:MatMul:global";

/** Execute C = A * B honoring the selector (real mode). */
void runMatmul(const tuner::Config &config, const std::string &prefix,
               const MatrixD &a, const MatrixD &b, MatrixD &c);

/** Figure 6 description of the multiply whose walk is @p levels. */
std::string describeMatmul(const LevelChain &levels);

/** See file comment. */
class StrassenBenchmark : public FunctionStyleBenchmark
{
  public:
    StrassenBenchmark();

    std::string name() const override { return "Strassen"; }
    using Benchmark::evaluate;
    double evaluate(const tuner::Config &config, int64_t n,
                    const sim::MachineProfile &machine,
                    const EvalContext *ctx) const override;
    std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t n) const override;
    int64_t testingInputSize() const override { return 1024; }
    int64_t minTuningSize() const override { return 64; }
    int openclKernelCount() const override { return 1; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    // Real-mode surface: C = A * B via a region rule running the
    // selector-driven matmul poly-algorithm.
    lang::Binding makeBinding(int64_t n, Rng &rng) const override;
    double checkOutput(const lang::Binding &binding) const override;
    /** Strassen's recursion loses a few digits to cancellation. */
    double realModeTolerance() const override { return 1e-8; }
    int64_t realModeProbeSize() const override { return 64; }

    /**
     * Modeled seconds of the NVIDIA-SDK-style hand-coded local-memory
     * matmul kernel (the Figure 7(e) baseline; ~1.4x faster than the
     * synthesized global-memory kernel on Desktop).
     */
    static double handCodedMatmulSeconds(int64_t n,
                                         const sim::MachineProfile &m);

  private:
    MatmulChoiceIds mm_;
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_STRASSEN_H
