/**
 * @file
 * The evolutionary autotuning algorithm (paper Section 5.2).
 *
 * A population of candidate configurations is continually expanded by
 * mutation and pruned by performance. Mutation is asexual (one parent
 * per child) and a child is admitted only if it outperforms the parent
 * it was created from. Testing input sizes grow exponentially, which
 * exploits optimal substructure: selectors tuned at small sizes keep
 * governing the small-size levels as larger sizes are explored.
 *
 * The tuner also keeps the Section 5.4 accounting: every test run is a
 * fresh process whose OpenCL kernels must be JIT-compiled, softened by
 * the IR cache. This models why autotuning took an average of 5.2 hours
 * on the paper's systems (Figure 8) even though individual tests are
 * fast, and why small-input tests are skipped.
 *
 * The search itself lives in TuningSession (tuner/session.h); this
 * header keeps the evaluation surface (Evaluator, TunerOptions,
 * TuningResult).
 */

#ifndef PETABRICKS_TUNER_EVOLUTION_H
#define PETABRICKS_TUNER_EVOLUTION_H

#include <span>
#include <vector>

#include "ocl/program_cache.h"
#include "tuner/mutators.h"

namespace petabricks {
namespace tuner {

/** Benchmark-provided evaluation hook. */
class Evaluator
{
  public:
    virtual ~Evaluator() = default;

    /**
     * Modeled execution seconds of @p config at @p inputSize; return
     * +inf for configurations that are invalid or miss an accuracy
     * target (variable-accuracy benchmarks).
     */
    virtual double evaluate(const Config &config, int64_t inputSize) = 0;

    /**
     * Evaluate a generation's worth of independent configurations at
     * one input size. The TuningSession issues exactly one call per
     * generation; overriding this is how an evaluator exploits the
     * candidates' independence (engine::EngineEvaluator forwards to
     * ExecutionEngine::measureBatch). Results must be index-aligned
     * with @p configs and identical to what the serial loop would
     * produce. Default: loop over evaluate().
     */
    virtual std::vector<double>
    evaluateBatch(std::span<const Config> configs, int64_t inputSize)
    {
        std::vector<double> seconds;
        seconds.reserve(configs.size());
        for (const Config &config : configs)
            seconds.push_back(evaluate(config, inputSize));
        return seconds;
    }

    /**
     * Source identities of the OpenCL kernels @p config JIT-compiles,
     * for the tuning-time model. Default: none (CPU-only benchmark).
     */
    virtual std::vector<std::string>
    kernelSources(const Config &config, int64_t inputSize)
    {
        (void)config;
        (void)inputSize;
        return {};
    }
};

/** Search knobs. */
struct TunerOptions
{
    int populationSize = 8;
    int generationsPerSize = 6;

    /** Smallest tested input size; smaller tests are skipped entirely
     * because kernel compilation dominates them (Section 5.4). */
    int64_t minInputSize = 64;
    int64_t maxInputSize = 1 << 20;
    int sizeGrowthFactor = 4; // exponential testing-size growth

    /** Timing repetitions per evaluation. */
    int trialsPerEvaluation = 2;

    uint64_t seed = 20130316; // deterministic by default

    /** JIT compile model parameters (from the machine profile). */
    double kernelCompileSeconds = 1.6;
    double irCacheSavings = 0.55;

    /**
     * Memoize evaluation results by (config fingerprint, input size)
     * so duplicate mutants and re-tested survivors never re-run.
     * Off replicates the legacy one-evaluation-per-candidate
     * accounting exactly; the champion is identical either way for
     * deterministic evaluators.
     */
    bool cacheEvaluations = true;
};

/** Outcome of a tuning run. */
struct TuningResult
{
    Config best;
    double bestSeconds = 0.0;

    /** Modeled wall-clock spent autotuning (tests + JIT compiles). */
    double tuningSeconds = 0.0;
    double compileSeconds = 0.0;

    int64_t evaluations = 0;
    int64_t mutationsAccepted = 0;
    int64_t mutationsRejected = 0;

    /** Evaluations answered from the EvaluationCache (including
     * in-batch duplicates) instead of being re-run. */
    int64_t cacheHits = 0;

    /** Evaluations that failed even after the engine's retry budget
     * (the NaN sentinel). Each was priced as worst cost for its
     * generation only and never entered the EvaluationCache. */
    int64_t evaluationFailures = 0;
};

} // namespace tuner
} // namespace petabricks

#endif // PETABRICKS_TUNER_EVOLUTION_H
