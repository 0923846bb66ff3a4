/**
 * @file
 * The unified execution API: one polymorphic path for model-mode and
 * real-mode evaluation of any benchmark configuration.
 *
 * The paper evaluates choice configurations two ways: the autotuner's
 * analytic cost model prices a configuration on a machine profile
 * (fast, used during search), and the compiled program executes it on
 * the heterogeneous runtime (ground truth, used for the Section 6
 * results). ExecutionEngine abstracts over both so the tuner, the
 * figure harnesses, and the examples are written once:
 *
 *  - ModelEngine wraps a sim::MachineProfile and Benchmark::evaluate;
 *  - RuntimeEngine owns an emulated ocl::Device, a runtime::Runtime,
 *    and a compiler::TransformExecutor, really executes the transform,
 *    and checks the result against the benchmark's reference.
 *
 * Autotuning against real execution is then a one-line engine swap:
 * EngineEvaluator adapts any engine to the tuner::Evaluator interface.
 */

#ifndef PETABRICKS_ENGINE_EXECUTION_ENGINE_H
#define PETABRICKS_ENGINE_EXECUTION_ENGINE_H

#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "benchmarks/benchmark.h"
#include "compiler/executor.h"
#include "ocl/device.h"
#include "runtime/runtime.h"
#include "support/thread_pool.h"

namespace petabricks {
namespace engine {

/**
 * Total tries an engine gives an evaluation that raises TransientError
 * (flaky device, injected fault, timed-out worker). Non-transient
 * FatalErrors (infeasible configs) are never retried — they are
 * deterministic.
 */
constexpr int kMaxAttempts = 3;

/** Sleep before re-attempt @p attempt (1-based): exponential backoff,
 * 1 ms doubled per attempt, capped at 50 ms. */
void retryBackoffSleep(int attempt);

/** Monotonic failure accounting, per engine (snapshot form). */
struct EngineFailureStats
{
    int64_t transientFailures = 0; ///< TransientErrors observed
    int64_t retries = 0;           ///< re-attempts actually made
    int64_t evaluationFailures = 0; ///< gave up after kMaxAttempts
};

/** Outcome of evaluating one configuration at one input size. */
struct RunResult
{
    /** Execution seconds: modeled (ModelEngine) or measured wall time
     * of the emulated run (RuntimeEngine). */
    double seconds = 0.0;

    /** Residual against the benchmark's reference; always 0 in model
     * mode, which trusts the configuration to be correct. */
    double maxError = 0.0;

    /** OpenCL kernel sources the configuration JIT-compiles (the
     * Section 5.4 tuning-time model's unit of compile cost). */
    int kernelCount = 0;
};

/** See file comment. */
class ExecutionEngine
{
  public:
    virtual ~ExecutionEngine() = default;

    // Copying an engine snapshots its failure counters (the counters
    // are atomics only so guarded() can run on batch worker threads).
    ExecutionEngine() = default;
    ExecutionEngine(const ExecutionEngine &other)
        : transientFailures_(other.transientFailures_.load()),
          retries_(other.retries_.load()),
          evaluationFailures_(other.evaluationFailures_.load())
    {}
    ExecutionEngine &
    operator=(const ExecutionEngine &other)
    {
        transientFailures_.store(other.transientFailures_.load());
        retries_.store(other.retries_.load());
        evaluationFailures_.store(other.evaluationFailures_.load());
        return *this;
    }

    /** Display name ("model:Desktop", "runtime:Desktop", ...). */
    virtual std::string name() const = 0;

    /** True if this engine can evaluate @p benchmark. */
    virtual bool supports(const apps::Benchmark &benchmark) const = 0;

    /**
     * Evaluate @p config on @p benchmark at input size @p n.
     * @throws FatalError for infeasible configurations (inadmissible
     *         placements, local-memory overflow, ...).
     */
    virtual RunResult run(const apps::Benchmark &benchmark,
                          const tuner::Config &config, int64_t n) = 0;

    /**
     * Evaluate a batch of independent configurations at one input size
     * — the unit the TuningSession submits per tuner generation — and
     * return the execution seconds measure() would report for each.
     * Results are index-aligned with @p configs, and implementations
     * must be order-preserving: the returned vector is exactly what
     * the serial loop would produce, whatever parallelism is used
     * underneath. Unlike measure(), infeasible configurations
     * (FatalError) yield +inf instead of throwing, so one bad mutant
     * cannot abort a parallel generation. Transient failures
     * (TransientError — crash, hang, flake) are retried up to
     * kMaxAttempts tries; an evaluation that still fails after the
     * retry budget yields NaN, the "evaluation failed" sentinel:
     * callers must treat it as worst cost and never record it as a
     * real measurement (the TuningSession keeps NaN out of the
     * EvaluationCache). Default: loop over measureGuarded().
     */
    virtual std::vector<double>
    measureBatch(const apps::Benchmark &benchmark,
                 std::span<const tuner::Config> configs, int64_t n);

    /**
     * measure() wrapped in the engine's failure policy: TransientError
     * is retried with bounded exponential backoff, infeasible configs
     * (FatalError) price as +inf, and an evaluation whose retry budget
     * runs out returns NaN (see measureBatch). Never throws for
     * evaluation-level failures; thread-safe counters record what was
     * absorbed.
     */
    double measureGuarded(const apps::Benchmark &benchmark,
                          const tuner::Config &config, int64_t n);

    /** Failures absorbed (or given up on) by this engine so far. */
    EngineFailureStats failureStats() const;

    /**
     * True if *independent instances* of this engine may evaluate
     * @p benchmark concurrently (the EnginePool fan-out). Engines that
     * really execute shared benchmark state must refuse benchmarks
     * whose real-mode surface is not concurrency-safe.
     */
    virtual bool
    concurrentInstancesSafe(const apps::Benchmark &benchmark) const
    {
        (void)benchmark;
        return true;
    }

    /**
     * The tuner's inner loop: execution seconds only, with incorrect
     * results priced as infeasible — a real run whose residual exceeds
     * the benchmark's tolerance returns +inf, so wrong-but-fast
     * configurations can never win the search (the paper's
     * variable-accuracy mechanism, Section 6.2). Engines may override
     * to skip result assembly the tuner discards.
     */
    virtual double
    measure(const apps::Benchmark &benchmark, const tuner::Config &config,
            int64_t n)
    {
        RunResult result = run(benchmark, config, n);
        if (result.maxError > benchmark.realModeTolerance())
            return std::numeric_limits<double>::infinity();
        return result.seconds;
    }

    /**
     * Seed @p options with engine-specific cost-model parameters
     * (e.g. the machine profile's JIT compile model). Default: none.
     */
    virtual void
    configureTuner(tuner::TunerOptions &options) const
    {
        (void)options;
    }

    /**
     * Stable partition key for the shared evaluation cache: two
     * sessions may share cached (config, n) -> seconds results exactly
     * when their engines report equal scopes. An engine must fold in
     * everything its pricing depends on — ModelEngine hashes the full
     * machine-profile content, and decorators that can alter observed
     * costs (FaultInjectingEngine with perturbation enabled) must
     * perturb the scope too, or one session's garbage would poison
     * another's search. The default is deliberately conservative:
     * a hash of the engine's display name and the benchmark name.
     */
    virtual uint64_t cacheScope(const apps::Benchmark &benchmark) const;

  protected:
    /**
     * The retry loop behind measureGuarded(), factored so batch
     * overrides (ModelEngine's parallel lambda) can guard their own
     * evaluation calls. Thread-safe.
     */
    double guarded(const std::function<double()> &evaluate);

    // Failure accounting for subclasses that run their own retry loop
    // (EnginePool) — feeds the same failureStats() surface guarded()
    // reports into.
    void noteTransientFailure() { transientFailures_.fetch_add(1); }
    void noteRetryAttempt() { retries_.fetch_add(1); }
    void noteEvaluationFailure() { evaluationFailures_.fetch_add(1); }

  private:
    std::atomic<int64_t> transientFailures_{0};
    std::atomic<int64_t> retries_{0};
    std::atomic<int64_t> evaluationFailures_{0};
};

/**
 * Model mode: price configurations on a machine profile.
 *
 * Batches are evaluated in parallel on an internal thread pool (the
 * cost model is a pure function of (config, n, machine), so candidates
 * of a tuner generation are independent). Results stay index-aligned,
 * so a parallel batch is bit-identical to the serial loop. Like every
 * engine, a ModelEngine is serial-per-caller: submit one batch at a
 * time; the pool provides the parallelism.
 */
class ModelEngine : public ExecutionEngine
{
  public:
    /**
     * @param machine profile to price configurations on.
     * @param parallelism thread count for batch evaluation; 0 means
     *        one per hardware thread, 1 disables parallelism.
     */
    explicit ModelEngine(sim::MachineProfile machine, int parallelism = 0)
        : machine_(std::move(machine)), parallelism_(parallelism)
    {}

    const sim::MachineProfile &machine() const { return machine_; }

    std::string name() const override { return "model:" + machine_.name; }
    bool
    supports(const apps::Benchmark &) const override
    {
        return true;
    }
    RunResult run(const apps::Benchmark &benchmark,
                  const tuner::Config &config, int64_t n) override;

    std::vector<double>
    measureBatch(const apps::Benchmark &benchmark,
                 std::span<const tuner::Config> configs,
                 int64_t n) override;

    /** Model mode trusts correctness: just the cost-model seconds,
     * without assembling the kernel count run() reports. */
    double
    measure(const apps::Benchmark &benchmark, const tuner::Config &config,
            int64_t n) override
    {
        return benchmark.evaluate(config, n, machine_,
                                  contextFor(benchmark, n));
    }

    void configureTuner(tuner::TunerOptions &options) const override;

    /** Model pricing is a pure function of (config, n, machine), so
     * the scope is the machine-profile content fingerprint plus the
     * benchmark — profiles that merely share a display name do not
     * share cache entries. */
    uint64_t cacheScope(const apps::Benchmark &benchmark) const override;

  private:
    ThreadPool &pool();

    /**
     * The engine's EvaluationContext memo: the benchmark's
     * config-invariant state for (benchmark, n), built on first use
     * and reused until the key changes — so a TuningSession generation
     * (one measureBatch per (benchmark, n)) builds it exactly once, and
     * consecutive single run()/measure() calls share it too. Mutated
     * only on the caller's thread (engines are serial-per-caller); the
     * batch loops resolve it once before fanning out, and the built
     * context itself is immutable and thread-safe to share.
     */
    const apps::EvalContext *contextFor(const apps::Benchmark &benchmark,
                                        int64_t n);

    sim::MachineProfile machine_;
    int parallelism_ = 0;
    std::unique_ptr<ThreadPool> pool_; // created on first batch

    uint64_t ctxBenchmarkId_ = 0; // Benchmark::instanceId(), never reused
    int64_t ctxN_ = -1;
    apps::EvalContextPtr ctx_;
};

/** Construction knobs for RuntimeEngine. */
struct RuntimeEngineOptions
{
    /** Machine whose OpenCL device spec the emulated device uses. */
    sim::MachineProfile machine = sim::MachineProfile::desktop();

    /** CPU worker threads of the runtime. */
    int workers = 2;
};

/**
 * Real mode: execute the benchmark's transform on the heterogeneous
 * runtime (work-stealing CPU workers + GPU management thread driving
 * the emulated OpenCL device) and verify the result.
 *
 * Threading contract — serial per engine, enforced: one RuntimeEngine
 * owns one runtime (worker threads, GPU manager, device memory table),
 * and a run measures wall time on that runtime, so overlapping runs on
 * the same engine would corrupt both the timing and the device state.
 * run() detects concurrent entry and raises FatalError.
 * measureBatch() therefore executes serially; to evaluate a batch in
 * parallel on real execution, fan it across engine *instances* with
 * EnginePool.
 */
class RuntimeEngine : public ExecutionEngine
{
  public:
    explicit RuntimeEngine(RuntimeEngineOptions options = {});
    ~RuntimeEngine() override;

    std::string name() const override;
    bool
    supports(const apps::Benchmark &benchmark) const override
    {
        return benchmark.supportsRealMode();
    }

    /** Instances may run concurrently only if the benchmark's shared
     * real-mode state allows it (function-style benchmarks arm a
     * shared choice file and do not). */
    bool
    concurrentInstancesSafe(const apps::Benchmark &benchmark) const override
    {
        return benchmark.realModeConcurrencySafe();
    }

    RunResult run(const apps::Benchmark &benchmark,
                  const tuner::Config &config, int64_t n) override;

    /**
     * run() on a caller-provided binding, so outputs stay accessible
     * afterwards (run() binds fresh random inputs internally).
     */
    RunResult runOnBinding(const apps::Benchmark &benchmark,
                           const tuner::Config &config, int64_t n,
                           lang::Binding &binding);

    /** The managed device, or nullptr when running CPU-only. */
    ocl::Device *device() { return device_.get(); }

    runtime::Runtime &runtime() { return *runtime_; }

  private:
    /** RAII enforcement of the serial-per-engine contract. */
    class SerialGuard
    {
      public:
        explicit SerialGuard(RuntimeEngine &engine);
        ~SerialGuard();

      private:
        RuntimeEngine &engine_;
    };

    RuntimeEngineOptions options_;
    std::unique_ptr<ocl::Device> device_;
    std::unique_ptr<runtime::Runtime> runtime_;
    std::unique_ptr<compiler::TransformExecutor> executor_;
    std::atomic<bool> running_{false};
};

/**
 * Adapts an ExecutionEngine to the tuner::Evaluator interface, so
 * tuning against real execution is the same code path as tuning
 * against the model. Infeasible configurations evaluate to +inf.
 */
class EngineEvaluator : public tuner::Evaluator
{
  public:
    EngineEvaluator(const apps::Benchmark &benchmark,
                    ExecutionEngine &engine)
        : benchmark_(benchmark), engine_(engine)
    {}

    double
    evaluate(const tuner::Config &config, int64_t inputSize) override
    {
        // measureGuarded prices infeasible placements (local memory
        // overflow, inadmissible backend, ...) as +inf and retries
        // transient faults; a retry budget that runs out is also worst
        // cost on this single-config path (the sentinel-preserving
        // route is evaluateBatch).
        double seconds =
            engine_.measureGuarded(benchmark_, config, inputSize);
        if (std::isnan(seconds))
            return std::numeric_limits<double>::infinity();
        return seconds;
    }

    /** The generation-level batch: one engine call per tuner
     * generation instead of populationSize blocking calls. NaN entries
     * (evaluation failed after retries) pass through so the session
     * can apply its worst-cost-without-caching policy. */
    std::vector<double>
    evaluateBatch(std::span<const tuner::Config> configs,
                  int64_t inputSize) override
    {
        return engine_.measureBatch(benchmark_, configs, inputSize);
    }

    std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t inputSize) override
    {
        return benchmark_.kernelSources(config, inputSize);
    }

  private:
    const apps::Benchmark &benchmark_;
    ExecutionEngine &engine_;
};

} // namespace engine
} // namespace petabricks

#endif // PETABRICKS_ENGINE_EXECUTION_ENGINE_H
