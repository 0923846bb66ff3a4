/**
 * @file
 * Common interface of the eight benchmarks: the paper's seven (Section
 * 6) and Mandelbrot.
 *
 * Every benchmark exposes the structure the experiments need:
 *  - a seed tuner configuration (the searchable choice space),
 *  - a cost model pricing a configuration on a machine profile (used
 *    by the autotuner, the dispatcher and the figure harnesses),
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
 *
 * Each family of benchmarks implements its shared part of this
 * interface once: TransformStyleBenchmark (benchmarks/transform_style.h)
 * for the simulator-backed ones, whose point rules map onto CPU/OpenCL
 * stages, and FunctionStyleBenchmark (benchmarks/function_style.h) for
 * the poly-algorithms whose region rules read a choice file.
 */

#ifndef PETABRICKS_BENCHMARKS_BENCHMARK_H
#define PETABRICKS_BENCHMARKS_BENCHMARK_H

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "compiler/backend.h"
#include "compiler/eval_context.h"
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
 * Config-invariant evaluation state a simulator-backed benchmark
 * precomputes per (input size, machine): a compiler::EvaluationContext
 * over the TransformAnalysis its base built. Analytic benchmarks
 * (Sort, Strassen, SVD, Tridiagonal) price closed-form models through
 * the config positions their constructors resolve and build none.
 * Contexts are immutable once built, so one context may serve a whole
 * parallel batch.
 */
using EvalContext = compiler::EvaluationContext;
using EvalContextPtr = std::shared_ptr<const EvalContext>;

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
     * @p machine; +inf for infeasible configurations. Builds the
     * evaluation context and prices through the overload below; a
     * caller pricing many configurations at one (n, machine) builds the
     * context once instead.
     */
    double
    evaluate(const tuner::Config &config, int64_t n,
             const sim::MachineProfile &machine) const
    {
        EvalContextPtr ctx = makeEvalContext(n, machine);
        return evaluate(config, n, machine, ctx.get());
    }

    /**
     * Precompute the config-invariant evaluation state for
     * (@p n, @p machine). State that depends on neither belongs in the
     * benchmark's constructor: TransformStyleBenchmark builds the
     * compiler::TransformAnalysis there once, each benchmark its
     * selector/tunable positions, and a context binds that analysis to
     * slot extents and the machine with O(rules) arithmetic. Built once
     * per batch by engine::ModelEngine (once per query by the portfolio
     * dispatcher) and shared by every candidate. Default: nullptr, for
     * the analytic benchmarks, whose models need no context; a
     * simulator-backed benchmark returns nullptr only at sizes it
     * prices +inf without one.
     */
    virtual EvalContextPtr
    makeEvalContext(int64_t n, const sim::MachineProfile &machine) const
    {
        (void)n;
        (void)machine;
        return nullptr;
    }

    /**
     * The benchmark's cost model: modeled execution seconds of
     * @p config at input size @p n on @p machine, +inf (or a thrown
     * FatalError) for infeasible configurations. @p ctx must come from
     * makeEvalContext(n, machine) of this benchmark; derived classes
     * add `using Benchmark::evaluate;` to keep the overload above.
     */
    virtual double evaluate(const tuner::Config &config, int64_t n,
                            const sim::MachineProfile &machine,
                            const EvalContext *ctx) const = 0;

    /**
     * The distinct kernel sources the model launches for @p config at
     * size @p n, in first-launch order (the JIT compiles behind Figure
     * 8 and RunResult::kernelCount); none when the model prices +inf
     * before any kernel runs. From the same walk as evaluate().
     */
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

    /** Figure 6: one-line summary of what @p config runs at @p n. */
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
     * benchmarks also arm their choice file here, so call planFor()
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
     * fan-out). Function-style benchmarks share one choice file between
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
