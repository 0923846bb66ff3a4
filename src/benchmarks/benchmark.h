/**
 * @file
 * Common interface of the seven paper benchmarks (Section 6).
 *
 * Every benchmark exposes the structure the experiments need:
 *  - a seed tuner configuration (the searchable choice space),
 *  - a model-mode evaluator pricing a configuration on a machine
 *    profile (used by the autotuner and the figure harnesses),
 *  - the kernel-source list for the tuning-time model (Figure 8),
 *  - metadata for the Figure 8 table, and
 *  - a human-readable config summary for the Figure 6 table.
 *
 * Benchmarks also expose a uniform *real-mode* surface — the transform,
 * an input binding, and the stage placement a configuration selects —
 * so that engine::RuntimeEngine can execute any benchmark on the
 * heterogeneous runtime exactly the way engine::ModelEngine prices it
 * on a machine profile (the paper's Section 6 methodology: autotuning
 * against real execution).
 */

#ifndef PETABRICKS_BENCHMARKS_BENCHMARK_H
#define PETABRICKS_BENCHMARKS_BENCHMARK_H

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "compiler/backend.h"
#include "lang/transform.h"
#include "sim/machine.h"
#include "support/error.h"
#include "support/rng.h"
#include "tuner/evolution.h"

namespace petabricks {

namespace engine {
class ExecutionEngine;
} // namespace engine

namespace apps {

/**
 * Runtime choice state shared between planFor() and the region-rule
 * bodies of function-style transforms (Sort, Strassen, SVD,
 * Tridiagonal), whose poly-algorithms consult selectors at every
 * recursive call site. This mirrors the paper's *choice configuration
 * file* (Figure 3): the compiled program reads the autotuner's
 * selectors at startup and dispatches on them while running.
 * planFor() arms the file; the transform's rules read it during
 * execution.
 */
class ChoiceFile
{
  public:
    void
    arm(const tuner::Config &config)
    {
        config_ = std::make_shared<tuner::Config>(config);
    }

    const tuner::Config &
    get() const
    {
        PB_ASSERT(config_ != nullptr,
                  "choice file not armed: call planFor() before "
                  "executing the transform");
        return *config_;
    }

  private:
    std::shared_ptr<const tuner::Config> config_;
};

using ChoiceFilePtr = std::shared_ptr<ChoiceFile>;

/**
 * Opaque config-invariant evaluation state a benchmark precomputes per
 * (input size, machine) — the model-mode fast path's unit of sharing.
 * Transform-style benchmarks wrap a compiler::EvaluationContext;
 * analytic benchmarks hold their model constants (Strassen, SVD) or
 * nothing at all (Sort, Tridiagonal). Config positions are resolved
 * once, in each benchmark's constructor. Contexts are immutable once
 * built, so one context may serve a whole parallel batch.
 */
class EvalContext
{
  public:
    virtual ~EvalContext() = default;
};

using EvalContextPtr = std::shared_ptr<const EvalContext>;

/**
 * The context of an analytic benchmark whose fast path needs nothing
 * beyond the config positions its constructor resolved: one shared,
 * empty context that only selects the fast path.
 */
EvalContextPtr positionsOnlyContext();

/** See file comment. */
class Benchmark
{
  public:
    Benchmark() : instanceId_(nextInstanceId()) {}

    /** Copies are distinct instances (see instanceId()). */
    Benchmark(const Benchmark &) : instanceId_(nextInstanceId()) {}
    Benchmark &operator=(const Benchmark &) { return *this; }

    virtual ~Benchmark() = default;

    /**
     * Process-unique identity of this benchmark *instance*. Engines
     * key per-(benchmark, n) evaluation-context memos on it instead of
     * the object address, so a destroyed benchmark whose address is
     * reused can never be served another instance's context.
     */
    uint64_t instanceId() const { return instanceId_; }

    /** Display name, as in the paper's tables. */
    virtual std::string name() const = 0;

    /** Structurally complete starting configuration. */
    virtual tuner::Config seedConfig() const = 0;

    /**
     * Modeled execution seconds of @p config at input size @p n on
     * @p machine; +inf for infeasible configurations.
     *
     * This overload is the *reference path*: every call rebuilds the
     * config-invariant scaffolding from scratch. The engines evaluate
     * through the context overload below; this one is the executable
     * spec the golden-equality tests compare against.
     */
    virtual double evaluate(const tuner::Config &config, int64_t n,
                            const sim::MachineProfile &machine) const = 0;

    /**
     * Precompute the config-invariant evaluation state for
     * (@p n, @p machine). State that depends on neither belongs in the
     * benchmark's constructor: the simulator-backed benchmarks build
     * their compiler::TransformAnalysis and selector/tunable positions
     * there once, and a context binds that analysis to slot extents
     * and the machine with O(rules) arithmetic. Built once per batch
     * by engine::ModelEngine (once per query by the portfolio
     * dispatcher) and shared by every candidate. Default: nullptr (no
     * fast path; the context overload of evaluate() then uses the
     * reference path).
     */
    virtual EvalContextPtr
    makeEvalContext(int64_t n, const sim::MachineProfile &machine) const
    {
        (void)n;
        (void)machine;
        return nullptr;
    }

    /**
     * Fast-path evaluate(): identical result to the reference overload
     * (bit-for-bit, including thrown FatalErrors), but sharing the
     * config-invariant work in @p ctx. @p ctx must come from
     * makeEvalContext(n, machine) of this benchmark, or be nullptr to
     * fall back to the reference path.
     */
    virtual double
    evaluate(const tuner::Config &config, int64_t n,
             const sim::MachineProfile &machine,
             const EvalContext *ctx) const
    {
        (void)ctx;
        return evaluate(config, n, machine);
    }

    /** Kernel source identities @p config JIT-compiles. */
    virtual std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t n) const
    {
        (void)config;
        (void)n;
        return {};
    }

    /** Figure 8: the "Testing Input Size" column. */
    virtual int64_t testingInputSize() const = 0;

    /** Smallest input size worth testing during tuning. */
    virtual int64_t minTuningSize() const { return 256; }

    /** Figure 8: synthetic OpenCL kernels the compiler generates. */
    virtual int openclKernelCount() const = 0;

    /** Figure 6: one-line summary of what @p config chose. */
    virtual std::string describeConfig(const tuner::Config &config,
                                       int64_t n) const = 0;

    // ---- Real-mode surface (engine::RuntimeEngine) --------------------

    /** True if the benchmark implements the real-mode surface below. */
    virtual bool supportsRealMode() const { return false; }

    /** The transform real mode executes. Requires supportsRealMode(). */
    virtual const lang::Transform &transform() const;

    /** Bind random inputs for size @p n. Requires supportsRealMode(). */
    virtual lang::Binding makeBinding(int64_t n, Rng &rng) const;

    /**
     * Stage placement @p config selects at size @p n. Function-style
     * benchmarks also arm their ChoiceFile here, so call planFor()
     * before executing the transform. Requires supportsRealMode().
     */
    virtual compiler::TransformConfig
    planFor(const tuner::Config &config, int64_t n) const;

    /**
     * Residual of @p binding's outputs against the benchmark's
     * reference implementation, after a real run (max absolute
     * difference, or relative error for variable-accuracy benchmarks).
     * Requires supportsRealMode().
     */
    virtual double checkOutput(const lang::Binding &binding) const;

    /** Residual bound a correct real run must stay under. */
    virtual double realModeTolerance() const { return 1e-9; }

    /**
     * True if independent engine instances may execute this
     * benchmark's real-mode surface concurrently (engine::EnginePool's
     * fan-out). Function-style benchmarks share one ChoiceFile between
     * planFor() and their region-rule bodies, so a concurrent plan
     * would re-arm the file mid-run; they return false and pooled
     * batches degrade to serial. Model-mode evaluation (evaluate(),
     * kernelSources()) is const and must always be thread-safe.
     */
    virtual bool realModeConcurrencySafe() const { return true; }

    /**
     * Input size for real-mode smoke runs: large enough to exercise
     * every stage, small enough that the emulated device stays fast.
     */
    virtual int64_t realModeProbeSize() const { return minTuningSize(); }

  private:
    static uint64_t nextInstanceId();

    uint64_t instanceId_;
};

using BenchmarkPtr = std::shared_ptr<Benchmark>;

/** Largest absolute elementwise difference (residual helper). */
inline double
maxAbsDiff(const MatrixD &a, const MatrixD &b)
{
    PB_ASSERT(a.width() == b.width() && a.height() == b.height(),
              "residual shape mismatch: " << a.width() << "x"
                                          << a.height() << " vs "
                                          << b.width() << "x"
                                          << b.height());
    double worst = 0.0;
    for (int64_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

/**
 * Autotune @p benchmark against @p engine (model-mode pricing or real
 * execution — the paper's actual methodology). Deterministic for a
 * given seed when the engine is.
 */
tuner::TuningResult tuneWithEngine(const Benchmark &benchmark,
                                   engine::ExecutionEngine &engine,
                                   tuner::TunerOptions options);

/** tuneWithEngine() with the benchmark's default search sizing. */
tuner::TuningResult tuneWithEngine(const Benchmark &benchmark,
                                   engine::ExecutionEngine &engine,
                                   uint64_t seed = 20130316);

/**
 * Autotune @p benchmark for @p machine (the experiment's "X Config"
 * step): tuneWithEngine() over a ModelEngine for the profile.
 * Deterministic for a given seed.
 */
tuner::TuningResult tuneOnMachine(const Benchmark &benchmark,
                                  const sim::MachineProfile &machine,
                                  uint64_t seed = 20130316);

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_BENCHMARK_H
