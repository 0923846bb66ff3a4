/**
 * @file
 * One tuning search hosted inside the service daemon.
 *
 * A SessionSpec is the *fully resolved* recipe for a search — canonical
 * benchmark name, machine profile, concrete TunerOptions — in KvFile
 * form. Resolving happens exactly once, when a `create` request's
 * partial options meet the benchmark's defaults; after that the spec
 * is immutable and travels with the session to the spool directory.
 * That is what makes checkpoint-backed eviction transparent: a
 * rehydrated session is rebuilt from the identical spec and restores
 * the identical search state, so an evicted-and-resumed search reaches
 * a champion bit-identical to one that never left memory.
 *
 * HostedSession bundles the spec with the live objects it implies
 * (benchmark instance, ModelEngine, EngineEvaluator, TuningSession)
 * and keeps a lock-protected introspection snapshot that the `status`
 * endpoint reads while a worker thread is stepping — status never
 * waits for a generation to finish.
 */

#ifndef PETABRICKS_SERVICE_HOSTED_SESSION_H
#define PETABRICKS_SERVICE_HOSTED_SESSION_H

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "benchmarks/registry.h"
#include "engine/execution_engine.h"
#include "support/kvfile.h"
#include "support/slot_file.h"
#include "tuner/session.h"

namespace petabricks {
namespace service {

/** See file comment. */
struct SessionSpec
{
    std::string benchmark; ///< canonical display name ("Sort", ...)
    std::string machine = "Desktop";

    /** ModelEngine batch parallelism *within* this session. Defaults
     * to 1: a daemon hosting many sessions gets its parallelism from
     * stepping sessions concurrently, not from nested pools. */
    int engineParallelism = 1;

    /**
     * Deterministic fault injection (soak/chaos testing): probability
     * that an evaluation key raises a TransientError on its first
     * attempt (engine::FaultPlan::transientRate). 0 disables. Injected
     * faults always recover within the engine's retry budget, so a
     * faulted search reaches the same champion as a clean one.
     */
    double faultRate = 0.0;
    int64_t faultSeed = 20130316; ///< FaultPlan seed when faultRate > 0

    /** Concrete search knobs (no unresolved defaults). */
    tuner::TunerOptions tuner;

    /**
     * Resolve a `create` request body into a concrete spec. Required
     * key: `benchmark`. Optional keys: `machine`, `seed`,
     * `populationSize`, `generationsPerSize`, `minInputSize`,
     * `maxInputSize`, `sizeGrowthFactor`, `trialsPerEvaluation`,
     * `cacheEvaluations`, `engineParallelism`. Unset search knobs take
     * the benchmark's tuning defaults and the machine's compile-model
     * parameters. Fatal error on unknown benchmark/machine names or
     * out-of-range values.
     */
    static SessionSpec fromCreateRequest(const KvFile &kv);

    /** Spool round-trip (exact); unsealed, as `/create` echoes it. */
    KvFile toKv() const;
    static SessionSpec fromKv(const KvFile &kv);
};

/** See file comment. */
class HostedSession
{
  public:
    /**
     * Build the live search a spec describes (at generation 0). When
     * @p sharedCache is set, the session's private L1 cache is layered
     * over it: L1 miss -> L2 probe -> evaluate -> publish to both,
     * scoped by the engine's cacheScope() so only sessions pricing the
     * same benchmark on the same machine share results. The cache must
     * outlive the session (the SessionTable's owner guarantees that).
     */
    explicit HostedSession(SessionSpec spec,
                           cache::SharedEvaluationCache *sharedCache =
                               nullptr);

    const SessionSpec &spec() const { return spec_; }

    bool done() const { return session_.done(); }

    /**
     * Advance up to @p steps generations (stops early when the search
     * completes), refreshing the status snapshot after every
     * generation and invoking @p afterStep (checkpoint hook) if set.
     * @return generations actually run. Must not be called
     * concurrently with itself, save(), load(), or champion() — the
     * SessionTable's per-session busy flag enforces that.
     */
    int stepMany(int steps,
                 const std::function<void()> &afterStep = nullptr);

    /**
     * Status snapshot. Safe to call from any thread at any time,
     * including while another thread is inside stepMany().
     */
    tuner::SessionIntrospection introspect() const;

    /**
     * Champion in choice-configuration-file form: the config's own
     * keys plus `champion.seconds`, `champion.description`, and
     * `champion.done`.
     */
    KvFile championKv() const;

    /** Champion snapshot as a TuningResult (see TuningSession). */
    tuner::TuningResult result() const { return session_.result(); }

    /** The sealed `session` v2 text save() writes. */
    std::string checkpointText() const { return session_.checkpointText(); }

    /**
     * Checkpoint to one of two slots: @p path itself and
     * `<path>.1` (SlotFile). Each save overwrites the slot that does not
     * hold the newest good copy, so a daemon killed mid-save leaves the
     * other slot intact. The session keeps both files open from its
     * first save until it is destroyed. Throws IoError with the newest
     * good copy untouched.
     */
    void save(const std::string &path);

    /**
     * Restore the newest slot of the checkpoint at @p path that passes
     * its seal and TuningSession's content checks, falling back to the
     * other slot; the records' own (size index, generation) order the
     * slots, and the next save() goes to the other one. A slot that
     * fails beside a good one is renamed aside (fsck::quarantine).
     * FatalError when no slot passes. With no slot at all (a session
     * never saved) the session stays at generation 0.
     * @return the number of slots renamed aside.
     */
    int load(const std::string &path);

  private:
    void refreshSnapshot();

    SessionSpec spec_;
    apps::BenchmarkPtr benchmark_;
    /** ModelEngine, wrapped in a FaultInjectingEngine when the spec
     * asks for fault injection. */
    std::unique_ptr<engine::ExecutionEngine> engine_;
    engine::EngineEvaluator evaluator_;
    tuner::TuningSession session_;
    /** The slots save() writes, once it or load() has named them. */
    std::optional<SlotFile> checkpoint_;

    mutable std::mutex snapshotMutex_;
    tuner::SessionIntrospection snapshot_;
};

/**
 * Run the search @p spec describes start-to-finish in-process — the
 * reference the service tests and the remote-tuning CLI compare a
 * hosted search's champion against.
 */
tuner::TuningResult runSpecLocally(const SessionSpec &spec);

} // namespace service
} // namespace petabricks

#endif // PETABRICKS_SERVICE_HOSTED_SESSION_H
