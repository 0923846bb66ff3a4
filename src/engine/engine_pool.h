/**
 * @file
 * EnginePool: batch fan-out across N engine instances, with the
 * fault-tolerance the real-mode path needs.
 *
 * RuntimeEngine is serial per engine (one runtime, one device, wall
 * times that overlap would be garbage), so real-mode batches cannot be
 * parallelized *inside* an engine. The pool owns N independently
 * constructed engines and fans the configurations of one batch across
 * them — a shared work queue drained by one thread per engine, each
 * engine processing its items serially — the same shape as running N
 * autotuner test processes on N machines.
 *
 * Failure semantics (measureBatch, the tuner path):
 *  - TransientError from an instance is retried on that instance with
 *    bounded exponential backoff, up to kMaxAttempts tries.
 *  - An item that exhausts its retries is handed to a surviving
 *    instance (one serial floor pass); if it still fails it yields the
 *    NaN "evaluation failed" sentinel — worst cost upstream, never a
 *    cached measurement.
 *  - An instance accumulating quarantineAfter *consecutive* transient
 *    failures is quarantined: it drops out of this and every later
 *    batch, and the pool degrades to the surviving instances (serial
 *    on the last one as the floor). The final live instance is never
 *    quarantined for plain transients; per-instance counters record
 *    what happened.
 *  - With deadlineMillis set, every evaluation runs under a watchdog:
 *    an evaluation that outlives the deadline becomes a TransientError
 *    instead of a wedged pool lane, and the instance is quarantined
 *    unconditionally (even the last one — its worker may still be
 *    stuck inside the evaluation, so reuse is unsafe). The abandoned
 *    evaluation is reaped at the end of the batch, so it can never
 *    outlive the memory the batch handed it.
 *
 * Correctness gate: the pool asks its engines whether concurrent
 * instances are safe for the benchmark (RuntimeEngine forwards to
 * Benchmark::realModeConcurrencySafe() — the function-style
 * benchmarks share the one choice file FunctionStyleBenchmark arms and
 * are not). Unsafe pairings degrade to a serial loop on the first
 * engine instead of racing.
 */

#ifndef PETABRICKS_ENGINE_ENGINE_POOL_H
#define PETABRICKS_ENGINE_ENGINE_POOL_H

#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "engine/execution_engine.h"

namespace petabricks {
namespace engine {

/** Fault-tolerance knobs for EnginePool (retry uses kMaxAttempts). */
struct PoolOptions
{
    /** Quarantine an instance after this many *consecutive* transient
     * failures (a success resets the streak). <= 0 disables. */
    int quarantineAfter = 3;

    /** Watchdog deadline per evaluation, in milliseconds; an
     * evaluation that exceeds it becomes a TransientError and the
     * instance is quarantined. 0 disables the watchdog. */
    int64_t deadlineMillis = 0;
};

/** Per-instance failure/retry counters (stats inspection). */
struct PoolInstanceStats
{
    int64_t calls = 0;             ///< evaluations completed (any outcome)
    int64_t transientFailures = 0; ///< TransientErrors (incl. timeouts)
    int64_t retries = 0;           ///< same-instance re-attempts
    int64_t timeouts = 0;          ///< watchdog deadline hits
    int consecutiveFailures = 0;   ///< current streak
    bool quarantined = false;
};

/** See file comment. */
class EnginePool : public ExecutionEngine
{
  public:
    using EngineFactory =
        std::function<std::unique_ptr<ExecutionEngine>()>;

    /**
     * @param factory invoked @p engineCount times at construction;
     *        every call must yield an independent engine (own runtime,
     *        own device) of the same kind.
     * @param engineCount number of instances (>= 1).
     * @param options fault-tolerance knobs.
     */
    EnginePool(const EngineFactory &factory, int engineCount,
               PoolOptions options = {});

    /** Joins any watchdog-abandoned evaluations still in flight. */
    ~EnginePool() override;

    int engineCount() const { return static_cast<int>(instances_.size()); }

    /** Member engine @p index (0-based), e.g. for stats inspection. */
    ExecutionEngine &engineAt(int index);

    /** Failure/retry counters for instance @p index. */
    PoolInstanceStats instanceStats(int index) const;

    /** Instances not currently quarantined. */
    int liveInstanceCount() const;

    const PoolOptions &poolOptions() const { return options_; }

    // Single-config calls delegate to the first engine.
    std::string name() const override;
    bool supports(const apps::Benchmark &benchmark) const override;
    RunResult run(const apps::Benchmark &benchmark,
                  const tuner::Config &config, int64_t n) override;
    double measure(const apps::Benchmark &benchmark,
                   const tuner::Config &config, int64_t n) override;
    void configureTuner(tuner::TunerOptions &options) const override;
    bool
    concurrentInstancesSafe(const apps::Benchmark &benchmark) const override;

    std::vector<double>
    measureBatch(const apps::Benchmark &benchmark,
                 std::span<const tuner::Config> configs,
                 int64_t n) override;

  private:
    struct Instance
    {
        std::unique_ptr<ExecutionEngine> engine;
        PoolInstanceStats stats;          ///< guarded by mutex_
        std::vector<std::thread> wedged;  ///< watchdog-abandoned evals
    };

    /** What became of one batch item attempted on one instance. */
    enum class ItemStatus
    {
        Done,  ///< result (or recorded error) is final
        Bounce ///< retries exhausted / instance quarantined: re-queue
    };

    /** Joins watchdog-abandoned evaluations when a batch call unwinds,
     * so they can never outlive the configs span they reference. */
    struct Reaper
    {
        explicit Reaper(EnginePool &pool) : pool_(pool) {}
        ~Reaper() { pool_.reapWedged(); }
        EnginePool &pool_;
    };

    /** The live instances a batch for @p benchmark may use: all of
     * them, or just the first when concurrent instances are unsafe. */
    std::vector<Instance *> laneSet(const apps::Benchmark &benchmark);

    /**
     * One batch item on one instance, with the pool's retry loop:
     * transient failures back off and retry in place. Done leaves the
     * measured seconds in @p result, +inf for an infeasible config
     * (FatalError), or an unexpected exception in @p error. Returns
     * Bounce when the item needs another instance.
     */
    ItemStatus runItem(Instance &instance, const apps::Benchmark &benchmark,
                       const tuner::Config &config, int64_t n,
                       double &result, std::exception_ptr &error);

    /**
     * Evaluate under the watchdog deadline (runs @p evaluate on a
     * helper thread when deadlineMillis > 0). On timeout, stashes the
     * abandoned thread on @p instance and throws the internal timeout
     * marker runItem() converts into quarantine + bounce.
     */
    double timedCall(Instance &instance,
                     const std::function<double()> &evaluate);

    /** Failure bookkeeping; returns true when the caller's lane must
     * stop using this instance (quarantined). Locks mutex_. */
    bool recordFailure(Instance &instance, bool timedOut);
    void recordSuccess(Instance &instance);
    void recordRetry(Instance &instance);
    bool isQuarantined(const Instance &instance) const;

    /** First non-quarantined instance, or null when all are out. */
    Instance *firstLive();

    /** Join evaluations abandoned by the watchdog (end of batch). */
    void reapWedged();

    PoolOptions options_;
    std::vector<std::unique_ptr<Instance>> instances_;
    mutable std::mutex mutex_; ///< guards stats / quarantine flags
};

} // namespace engine
} // namespace petabricks

#endif // PETABRICKS_ENGINE_ENGINE_POOL_H
