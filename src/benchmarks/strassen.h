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

#include "benchmarks/benchmark.h"
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
 * Modeled seconds of an n x n matmul under @p config's "<prefix>.mm"
 * selector on @p machine. @p localityPenalty scales CPU/GPU memory
 * costs for calls on sub-regions of larger arrays (SVD).
 */
double modelMatmulSeconds(const tuner::Config &config,
                          const std::string &prefix, int64_t n,
                          const sim::MachineProfile &machine,
                          double localityPenalty = 1.0);

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
 * Per-recursion-level precomputation of the matmul model for one
 * (n, machine, localityPenalty): every leaf and decomposition constant
 * of the recursive model at sizes n, n/2, ..., leaf is priced once at
 * evaluation-context build time, so pricing a configuration reduces to
 * selector walks plus a few adds and multiplies. Results are
 * bit-identical to modelMatmulSeconds() — each stored constant is the
 * same expression the recursive model evaluates, composed in the same
 * order (the golden-equality suite checks this).
 */
class MatmulLevelModel
{
  public:
    MatmulLevelModel(int64_t n, const sim::MachineProfile &machine,
                     double localityPenalty = 1.0);

    /**
     * Modeled seconds under @p algorithm (the "<prefix>.mm.algorithm"
     * selector) with local work size @p lws (consulted only when a
     * level selects the OpenCL kernel).
     */
    double seconds(tuner::SelectorView algorithm, int lws) const;

  private:
    struct Level
    {
        int64_t size = 0;
        double lapackWork = 0.0, lapackSpan = 0.0;
        double naiveWork = 0.0, naiveSpan = 0.0;
        double blockedWork = 0.0, blockedSpan = 0.0;
        double r8Combine = 0.0, r8CombineOverWorkers = 0.0,
               r8Shuffle = 0.0;
        double stAdds = 0.0, stAddsOverWorkers = 0.0, stShuffle = 0.0;
    };

    std::vector<Level> levels_; // sizes n, n/2, ...; last is <= leaf
    sim::MachineProfile machine_;
    double localityPenalty_ = 1.0;
    int workers_ = 1;
};

/** Kernel source of the synthesized matmul kernel (Section 5.4). */
inline const std::string kMatmulKernel = "pbcl:MatMul:global";

/** True if @p algorithm selects the OpenCL kernel at a level an n x n
 * matmul reaches (it then JIT-compiles kMatmulKernel). */
bool matmulUsesOpenCl(tuner::SelectorView algorithm, int64_t n);

/** Execute C = A * B honoring the selector (real mode). */
void runMatmul(const tuner::Config &config, const std::string &prefix,
               const MatrixD &a, const MatrixD &b, MatrixD &c);

/** One-line description of the matmul poly-algorithm at size @p n. */
std::string describeMatmul(const tuner::Config &config,
                           const std::string &prefix, int64_t n);

/** See file comment. */
class StrassenBenchmark : public Benchmark
{
  public:
    StrassenBenchmark();

    std::string name() const override { return "Strassen"; }
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
    int64_t testingInputSize() const override { return 1024; }
    int64_t minTuningSize() const override { return 64; }
    int openclKernelCount() const override { return 1; }
    std::string describeConfig(const tuner::Config &config,
                               int64_t n) const override;

    // Real-mode surface: C = A * B via a region rule running the
    // selector-driven matmul poly-algorithm.
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
    ChoiceFilePtr choices_;
    std::shared_ptr<lang::Transform> transform_;
    tuner::ConfigSchemaPtr schema_;
    MatmulChoiceIds mm_;
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_STRASSEN_H
