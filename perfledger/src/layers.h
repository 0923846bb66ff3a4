/**
 * @file
 * Per-layer measurement shared by the workloads: a forwarding
 * Evaluator that spans the engine batch inside TuningSession::step,
 * a sampler of the configurations a run priced, and replays that time
 * the model (Benchmark::makeEvalContext, Benchmark::evaluate) and the
 * shared L2 cache (SharedEvaluationCache) on those configurations.
 */

#ifndef PERFLEDGER_LAYERS_H
#define PERFLEDGER_LAYERS_H

#include <map>
#include <span>
#include <string>
#include <vector>

#include "benchmarks/benchmark.h"
#include "engine/execution_engine.h"
#include "support/rng.h"
#include "trace.h"
#include "tuner/session.h"

namespace perfledger {

namespace apps = petabricks::apps;
namespace engine = petabricks::engine;
namespace sim = petabricks::sim;
namespace tuner = petabricks::tuner;

/** Short metric suffix of a benchmark display name ("Poisson2D SOR" ->
 * "poisson"). */
std::string benchKey(const std::string &displayName);

/** The eight benchmark keys, in metric order. */
const std::vector<std::string> &allBenchKeys();

/** One configuration the engine priced. */
struct PricedConfig
{
    apps::BenchmarkPtr benchmark;
    const sim::MachineProfile *machine = nullptr; ///< owned by the workload
    int64_t n = 0;
    tuner::Config config;
    double seconds = 0.0;
};

/** Reservoir sample (per benchmark) of everything a run priced, plus
 * exact counts of priced and infeasible configurations. */
class PricedSampler
{
  public:
    PricedSampler(uint64_t seed, size_t perBenchmark);

    void offer(const apps::BenchmarkPtr &benchmark,
               const sim::MachineProfile *machine, int64_t n,
               std::span<const tuner::Config> configs,
               const std::vector<double> &seconds);

    const std::map<std::string, std::vector<PricedConfig>> &
    samples() const
    {
        return samples_;
    }

    int64_t priced() const { return priced_; }
    int64_t infeasible() const { return infeasible_; }

  private:
    petabricks::Rng rng_;
    size_t perBenchmark_;
    std::map<std::string, int64_t> seen_;
    std::map<std::string, std::vector<PricedConfig>> samples_;
    int64_t priced_ = 0;
    int64_t infeasible_ = 0;
};

/** Batch accounting of one or more traced evaluators. */
struct EngineCounters
{
    int64_t batches = 0;
    int64_t configs = 0;
};

/**
 * Forwards to an EngineEvaluator, opening an `engine.batch` span around
 * each evaluateBatch() — the one engine call TuningSession::step makes
 * per generation, so `session.step` minus its `engine.batch` children
 * is the tuner's own work (mutation, fingerprinting, L1, selection).
 */
class TracingEvaluator : public tuner::Evaluator
{
  public:
    TracingEvaluator(engine::EngineEvaluator &inner, ThreadTrace *trace,
                     EngineCounters &counters, PricedSampler &sampler,
                     apps::BenchmarkPtr benchmark,
                     const sim::MachineProfile *machine);

    double evaluate(const tuner::Config &config, int64_t inputSize) override;

    std::vector<double> evaluateBatch(std::span<const tuner::Config> configs,
                                      int64_t inputSize) override;

    std::vector<std::string> kernelSources(const tuner::Config &config,
                                           int64_t inputSize) override;

  private:
    engine::EngineEvaluator &inner_;
    ThreadTrace *trace_;
    EngineCounters &counters_;
    PricedSampler &sampler_;
    apps::BenchmarkPtr benchmark_;
    const sim::MachineProfile *machine_;
};

/** Model replay results. */
struct ModelLayer
{
    double contextMicros = 0.0;                ///< mean makeEvalContext
    std::map<std::string, double> evaluateNs; ///< by bench key
    int64_t mismatches = 0; ///< replayed cost != the cost the run saw
    int64_t checked = 0;
};

/** Time makeEvalContext and evaluate(config, n, machine, ctx) on the
 * sampled configurations; every replayed cost must equal, bit for bit,
 * the cost the run observed. */
ModelLayer replayModel(const PricedSampler &sampler);

/** Shared-cache replay results (nanoseconds per call). */
struct SharedCacheLayer
{
    double lookupHitNs = 0.0;
    double lookupMissNs = 0.0;
    double publishNs = 0.0;
    /** valueFingerprint + lookup hit, by bench key: the whole L2 hit
     * path, to set beside model.evaluate_ns of the same benchmark. */
    std::map<std::string, double> hitPathNs;
};

/** Publish the sampled finite costs into a fresh in-memory
 * SharedEvaluationCache and time publish, hit and miss lookups. */
SharedCacheLayer replaySharedCache(const PricedSampler &sampler);

/** Tuner-layer accounting summed over introspection deltas. */
struct SessionCounters
{
    int64_t steps = 0;
    int64_t scored = 0;   ///< evaluations + cache hits
    int64_t l1Hits = 0;
    int64_t l1Misses = 0;
};

/** Add the session.*, l1.* and engine.* metrics of a traced run. */
void addSessionMetrics(Outcome &out,
                       const std::map<std::string, SpanSummary> &spans,
                       const SessionCounters &session,
                       const EngineCounters &engine);

/** Add model.* metrics (replay plus the sampler's exact counts). */
void addModelMetrics(Outcome &out, const ModelLayer &model,
                     const PricedSampler &sampler);

/** Add the traced run's own end-to-end numbers and the tracing
 * overhead: traced p50 over the untraced half's p50. */
void addTraceMetrics(Outcome &out, double plainP50, double tracedP50,
                     double tracedOpsPerSecond);

/** Ratio with a zero base reported as 0. */
inline double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

} // namespace perfledger

#endif // PERFLEDGER_LAYERS_H
