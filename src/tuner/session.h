/**
 * @file
 * TuningSession: the session-oriented autotuning API.
 *
 * A session runs the paper's evolutionary search (Section 5.2:
 * asexual mutation, accept-if-better, exponentially growing test
 * sizes), with the hot path built around three ideas:
 *
 *  - *Batching*: candidates within a generation are independent, so
 *    the session collects them and issues one
 *    Evaluator::evaluateBatch() call per generation instead of
 *    populationSize blocking calls. Engines parallelize the batch
 *    (ModelEngine on a thread pool, EnginePool across runtime
 *    instances); because batches are order-preserving, the champion is
 *    identical to the serial search for any parallelism.
 *
 *  - *Caching*: an EvaluationCache keyed by (config fingerprint,
 *    input size) answers duplicate mutants and re-tested survivors
 *    without re-running them.
 *
 *  - *Resumability*: the session's complete search state (population,
 *    scores, generation/size cursor, RNG state, accounting) round-
 *    trips through save()/load() as a choice-file-style KvFile, so a
 *    killed search resumes where it left off and reaches the same
 *    champion as an uninterrupted run (deterministic evaluators).
 *
 * step() advances one generation; run() drives to completion; run(k)
 * spends a bounded number of steps, for interleaving tuning with other
 * work. Progress callbacks fire after every step.
 */

#ifndef PETABRICKS_TUNER_SESSION_H
#define PETABRICKS_TUNER_SESSION_H

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ocl/program_cache.h"
#include "tuner/evaluation_cache.h"
#include "tuner/evolution.h"

namespace petabricks {

namespace cache {
class SharedEvaluationCache;
} // namespace cache

namespace tuner {

/** Snapshot handed to progress callbacks after every step(). */
struct SessionProgress
{
    int64_t inputSize = 0;    ///< size the finished step tested at
    int generation = 0;       ///< generations completed at that size
    int generationsPerSize = 0;
    int completedSteps = 0;
    int totalSteps = 0;
    double bestSeconds = 0.0; ///< champion score at inputSize
    int64_t evaluations = 0;
    int64_t cacheHits = 0;
};

/**
 * Point-in-time view of a session's search cursor and accounting,
 * cheap to take between steps. This is what a hosting layer (the
 * service's `status` endpoint) reports without touching the search
 * state, and what tests assert on without driving a full run.
 */
struct SessionIntrospection
{
    bool done = false;
    int completedSteps = 0;
    int totalSteps = 0;
    int generation = 0;       ///< completed generations at currentInputSize
    int generationsPerSize = 0;
    int64_t currentInputSize = 0; ///< size the next step() tests at
    size_t populationSize = 0;    ///< live members (<= options cap)
    double bestSeconds = 0.0;     ///< champion score at the current size

    /** Accounting so far (mirrors TuningResult counters). */
    int64_t evaluations = 0;
    int64_t mutationsAccepted = 0;
    int64_t mutationsRejected = 0;
    int64_t cacheHits = 0;
    int64_t evaluationFailures = 0; ///< retries exhausted (see TuningResult)
    double tuningSeconds = 0.0;
    double compileSeconds = 0.0;

    /** EvaluationCache hit/miss/eviction counters. */
    EvaluationCacheStats cacheStats;

    /**
     * This session's traffic against the shared L2 cache (all zero
     * when none is attached). Session-local accounting, not
     * checkpointed: a resumed session restarts them at zero, same as
     * the L1 cache restarting cold — only modeled accounting, never
     * the champion, can tell the difference.
     */
    int64_t sharedHits = 0;
    int64_t sharedMisses = 0;
    int64_t sharedPublishes = 0;
};

/** See file comment. */
class TuningSession
{
  public:
    using ProgressCallback = std::function<void(const SessionProgress &)>;

    /**
     * @param evaluator benchmark hook (must outlive the session).
     * @param seedConfig structurally complete starting configuration;
     *        also the schema save()/load() deserializes against.
     */
    TuningSession(Evaluator &evaluator, Config seedConfig,
                  TunerOptions options);

    /** True once every generation at every input size has run. */
    bool done() const { return sizeIndex_ >= sizes_.size(); }

    /** Total step() count of a full search. */
    int totalSteps() const;

    int completedSteps() const;

    /** Input size the next step() will test at (last size if done). */
    int64_t currentInputSize() const;

    /**
     * Advance the search by one generation: on entry to a new input
     * size, re-measure the survivors there (previous scores are for
     * smaller inputs and not comparable), then mutate every member,
     * evaluate all changed children as one batch, and apply
     * accept-if-better selection and pruning.
     * @return false when the search is complete (no-op when already
     *         done).
     */
    bool step();

    /** step() until done, then return the champion. */
    TuningResult run();

    /** step() at most @p maxSteps times; returns result() — a
     * resumable snapshot, not necessarily the final champion. */
    TuningResult run(int maxSteps);

    /**
     * Current champion snapshot (best config, its score at the current
     * input size, accounting so far). Before the first step the seed
     * is reported with a score of 0.
     */
    TuningResult result() const;

    /** Register @p callback to run after every step(). */
    void onProgress(ProgressCallback callback);

    const EvaluationCache &cache() const { return cache_; }

    /**
     * Layer the process-wide L2 @p cache behind this session's private
     * L1: an L1 miss probes the L2 under @p scope (the engine's
     * cacheScope for this benchmark) before evaluating, and every
     * finite evaluation result is published back. L2 hits are promoted
     * into the L1 and are bit-identical to what the evaluator would
     * return, so attaching a shared cache never changes the champion.
     * @p cache must outlive the session; nullptr detaches. Gated on
     * options().cacheEvaluations like the L1.
     */
    void attachSharedCache(cache::SharedEvaluationCache *cache,
                           uint64_t scope);

    /** Cursor + accounting snapshot; see SessionIntrospection. */
    SessionIntrospection introspect() const;

    const TunerOptions &options() const { return options_; }

    /**
     * Checkpoint the full search state to @p path (kvfile format):
     * population with scores, size/generation cursor, RNG seed and
     * draw count, and accounting, sealed as `session` v2 (KvFile::seal).
     * Call between steps — a progress callback is a natural place.
     */
    void save(const std::string &path) const;

    /**
     * The sealed checkpoint text save() writes, rendered in one pass
     * (KvWriter) without touching disk: callers that need crash-safe
     * persistence hand it to a SlotFile (the daemon's spool does).
     */
    std::string checkpointText() const;

    /** checkpointText() parsed back into a KvFile. */
    KvFile checkpointKv() const;

    /**
     * Restore a checkpoint written by save(), seal first; a v1 file
     * predates the seal and has none. The session must have
     * been constructed with the same seed configuration and options as
     * the saved one (validated via the seed fingerprint); the
     * evaluation and compile caches restart cold, which affects only
     * the modeled tuning-time accounting, never the champion. The RNG
     * is saved as the session seed plus a draw count; a checkpoint that
     * holds the twister's full-state dump instead (`session.rng`, the
     * older form) is converted. A file that fails validation raises
     * FatalError and leaves the session unchanged.
     */
    void load(const std::string &path);

    /** load()'s seal check alone, of checkpoint @p kv read from
     * @p path: FatalError unless it verifies. */
    static void verifySeal(const KvFile &kv, const std::string &path);

    /** load() of checkpoint @p kv, read from @p path and already passed
     * through verifySeal(). */
    void restore(const KvFile &kv, const std::string &path);

  private:
    struct Member
    {
        Config config;
        double seconds = 0.0; // at the current input size
    };

    /**
     * Score @p configs at @p size with caching, in-batch dedup, and
     * the Section 5.4 per-test compile accounting; one
     * evaluateBatch() call covers every config not answered by the
     * cache. Returns seconds index-aligned with @p configs.
     */
    std::vector<double> measureBatch(const std::vector<Config> &configs,
                                     int64_t size);

    /** The dense id of kernel source @p source, interned on first use. */
    ocl::ProgramId programId(const std::string &source);

    void emitProgress();

    Evaluator &evaluator_;
    Config seed_;
    /** seed_'s value fingerprint as checkpoints store it
     * (`session.schema`); seed_ never changes after construction. */
    std::string schemaText_;
    TunerOptions options_;
    Rng rng_;
    ocl::ProgramCache compileModel_;
    std::unordered_map<std::string, ocl::ProgramId> programIds_;
    EvaluationCache cache_;
    TuningResult report_;
    std::vector<int64_t> sizes_;
    std::vector<Member> population_;
    size_t sizeIndex_ = 0;
    int generation_ = 0; // completed generations at sizes_[sizeIndex_]
    ProgressCallback progress_;

    // Shared L2 binding (see attachSharedCache).
    cache::SharedEvaluationCache *shared_ = nullptr;
    uint64_t sharedScope_ = 0;
    uint64_t sharedOwner_ = 0;
    int64_t sharedHits_ = 0;
    int64_t sharedMisses_ = 0;
    int64_t sharedPublishes_ = 0;
};

} // namespace tuner
} // namespace petabricks

#endif // PETABRICKS_TUNER_SESSION_H
