#include "layers.h"

#include <bit>
#include <cmath>
#include <limits>
#include <tuple>

#include "cache/shared_cache.h"
#include "support/error.h"

namespace perfledger {

using namespace petabricks;

namespace {

/** evaluate() the way the engine prices: infeasible throws -> +inf. */
double
priceDirect(const apps::Benchmark &benchmark, const tuner::Config &config,
            int64_t n, const sim::MachineProfile &machine,
            const apps::EvalContext *ctx)
{
    try {
        return benchmark.evaluate(config, n, machine, ctx);
    } catch (const FatalError &) {
        return std::numeric_limits<double>::infinity();
    }
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Median over @p passes of the per-item nanoseconds of @p pass. */
template <typename Pass>
double
nanosPerItem(size_t items, int passes, Pass pass)
{
    std::vector<double> perItem;
    for (int p = 0; p < passes; ++p) {
        Clock::time_point start = Clock::now();
        pass();
        perItem.push_back(microsBetween(start, Clock::now()) * 1000.0 /
                          static_cast<double>(items));
    }
    return median(perItem);
}

} // namespace

std::string
benchKey(const std::string &displayName)
{
    static const std::map<std::string, std::string> keys = {
        {"Poisson2D SOR", "poisson"}, {"SeparableConv.", "conv"},
        {"Black-Scholes", "blackscholes"}, {"Mandelbrot", "mandelbrot"},
        {"Sort", "sort"}, {"Strassen", "strassen"}, {"SVD", "svd"},
        {"Tridiagonal Solver", "tridiag"}};
    auto it = keys.find(displayName);
    return it != keys.end() ? it->second : displayName;
}

const std::vector<std::string> &
allBenchKeys()
{
    static const std::vector<std::string> keys = {
        "poisson", "conv", "blackscholes", "mandelbrot",
        "sort",    "strassen", "svd",      "tridiag"};
    return keys;
}

PricedSampler::PricedSampler(uint64_t seed, size_t perBenchmark)
    : rng_(seed), perBenchmark_(perBenchmark)
{}

void
PricedSampler::offer(const apps::BenchmarkPtr &benchmark,
                     const sim::MachineProfile *machine, int64_t n,
                     std::span<const tuner::Config> configs,
                     const std::vector<double> &seconds)
{
    const std::string name = benchmark->name();
    std::vector<PricedConfig> &sample = samples_[name];
    int64_t &seen = seen_[name];
    for (size_t i = 0; i < configs.size(); ++i) {
        ++priced_;
        if (std::isinf(seconds[i]))
            ++infeasible_;
        ++seen;
        // Reservoir sampling: every priced config is equally likely
        // to be in the sample, whatever the run's length.
        size_t slot = sample.size();
        if (sample.size() >= perBenchmark_) {
            slot = static_cast<size_t>(rng_.uniformInt(0, seen - 1));
            if (slot >= perBenchmark_)
                continue;
        }
        PricedConfig priced{benchmark, machine, n, configs[i], seconds[i]};
        if (slot == sample.size())
            sample.push_back(std::move(priced));
        else
            sample[slot] = std::move(priced);
    }
}

TracingEvaluator::TracingEvaluator(engine::EngineEvaluator &inner,
                                   ThreadTrace *trace,
                                   EngineCounters &counters,
                                   PricedSampler &sampler,
                                   apps::BenchmarkPtr benchmark,
                                   const sim::MachineProfile *machine)
    : inner_(inner), trace_(trace), counters_(counters), sampler_(sampler),
      benchmark_(std::move(benchmark)), machine_(machine)
{}

double
TracingEvaluator::evaluate(const tuner::Config &config, int64_t inputSize)
{
    return inner_.evaluate(config, inputSize);
}

std::vector<double>
TracingEvaluator::evaluateBatch(std::span<const tuner::Config> configs,
                                int64_t inputSize)
{
    std::vector<double> seconds;
    {
        SpanScope span(trace_, "engine.batch");
        seconds = inner_.evaluateBatch(configs, inputSize);
    }
    ++counters_.batches;
    counters_.configs += static_cast<int64_t>(configs.size());
    sampler_.offer(benchmark_, machine_, inputSize, configs, seconds);
    return seconds;
}

std::vector<std::string>
TracingEvaluator::kernelSources(const tuner::Config &config,
                                int64_t inputSize)
{
    return inner_.kernelSources(config, inputSize);
}

ModelLayer
replayModel(const PricedSampler &sampler)
{
    ModelLayer layer;
    using Key = std::tuple<const apps::Benchmark *,
                           const sim::MachineProfile *, int64_t>;
    std::map<Key, apps::EvalContextPtr> contexts;
    std::vector<double> contextMicros;
    for (const auto &[name, sample] : sampler.samples()) {
        for (const PricedConfig &priced : sample) {
            Key key{priced.benchmark.get(), priced.machine, priced.n};
            if (contexts.count(key))
                continue;
            // Median of three builds per (benchmark, machine, n).
            std::vector<double> builds;
            for (int rep = 0; rep < 3; ++rep) {
                Clock::time_point start = Clock::now();
                contexts[key] = priced.benchmark->makeEvalContext(
                    priced.n, *priced.machine);
                builds.push_back(microsBetween(start, Clock::now()));
            }
            contextMicros.push_back(median(builds));
        }
    }
    double total = 0.0;
    for (double micros : contextMicros)
        total += micros;
    layer.contextMicros = ratio(total, static_cast<double>(contextMicros.size()));

    for (const auto &[name, sample] : sampler.samples()) {
        if (sample.empty())
            continue;
        std::vector<const apps::EvalContext *> ctx;
        for (const PricedConfig &priced : sample)
            ctx.push_back(contexts[Key{priced.benchmark.get(), priced.machine,
                                       priced.n}]
                              .get());
        for (size_t i = 0; i < sample.size(); ++i) {
            const PricedConfig &priced = sample[i];
            ++layer.checked;
            if (!sameBits(priceDirect(*priced.benchmark, priced.config,
                                      priced.n, *priced.machine, ctx[i]),
                          priced.seconds))
                ++layer.mismatches;
        }
        double sink = 0.0;
        layer.evaluateNs[benchKey(name)] =
            nanosPerItem(sample.size(), 5, [&] {
                for (size_t i = 0; i < sample.size(); ++i)
                    sink += priceDirect(*sample[i].benchmark,
                                        sample[i].config, sample[i].n,
                                        *sample[i].machine, ctx[i]);
            });
        if (std::isnan(sink))
            ++layer.mismatches; // unreachable; keeps the loop observable
    }
    return layer;
}

SharedCacheLayer
replaySharedCache(const PricedSampler &sampler)
{
    struct Entry
    {
        const PricedConfig *priced;
        uint64_t scope;
        uint64_t fingerprint;
    };
    std::vector<Entry> entries;
    std::map<std::string, std::vector<size_t>> byBench;
    for (const auto &[name, sample] : sampler.samples())
        for (const PricedConfig &priced : sample) {
            if (!std::isfinite(priced.seconds))
                continue; // the L2 refuses non-finite costs
            engine::ModelEngine engine(*priced.machine, 1);
            byBench[benchKey(name)].push_back(entries.size());
            entries.push_back({&priced, engine.cacheScope(*priced.benchmark),
                               priced.config.valueFingerprint()});
        }
    SharedCacheLayer layer;
    if (entries.empty())
        return layer;

    cache::SharedEvaluationCache cache(cache::SharedCacheOptions{});
    const uint64_t owner = cache.registerOwner();
    {
        Clock::time_point start = Clock::now();
        for (const Entry &entry : entries)
            cache.publish(entry.scope, entry.priced->n, entry.fingerprint,
                          entry.priced->seconds, owner);
        layer.publishNs = microsBetween(start, Clock::now()) * 1000.0 /
                          static_cast<double>(entries.size());
    }
    int64_t found = 0;
    layer.lookupHitNs = nanosPerItem(entries.size(), 5, [&] {
        for (const Entry &entry : entries)
            found += cache.lookup(entry.scope, entry.priced->n,
                                  entry.fingerprint, 0)
                         .has_value();
    });
    layer.lookupMissNs = nanosPerItem(entries.size(), 5, [&] {
        for (const Entry &entry : entries)
            found += cache.lookup(entry.scope, entry.priced->n,
                                  ~entry.fingerprint, 0)
                         .has_value();
    });
    for (const auto &[key, indices] : byBench)
        layer.hitPathNs[key] = nanosPerItem(indices.size(), 5, [&] {
            for (size_t i : indices)
                found += cache.lookup(entries[i].scope, entries[i].priced->n,
                                      entries[i].priced->config
                                          .valueFingerprint(),
                                      0)
                             .has_value();
        });
    (void)found;
    return layer;
}

void
addSessionMetrics(Outcome &out,
                  const std::map<std::string, SpanSummary> &spans,
                  const SessionCounters &session,
                  const EngineCounters &engine)
{
    auto summary = [&](const char *name) {
        auto it = spans.find(name);
        return it != spans.end() ? it->second : SpanSummary{};
    };
    SpanSummary step = summary("session.step");
    SpanSummary batch = summary("engine.batch");
    out.add("session.step_us", step.meanMicros(), "us");
    out.add("session.self_us", step.meanSelfMicros(), "us");
    out.add("session.configs_per_step",
            ratio(static_cast<double>(session.scored),
                  static_cast<double>(session.steps)),
            "count");
    const double l1Probes =
        static_cast<double>(session.l1Hits + session.l1Misses);
    out.add("l1.hit_ratio", ratio(static_cast<double>(session.l1Hits), l1Probes),
            "ratio");
    out.add("l1.probes", l1Probes, "count");
    out.add("engine.batch_us", batch.meanMicros(), "us");
    out.add("engine.per_config_ns",
            ratio(batch.totalMicros * 1000.0,
                  static_cast<double>(engine.configs)),
            "ns");
}

void
addModelMetrics(Outcome &out, const ModelLayer &model,
                const PricedSampler &sampler)
{
    out.add("model.context_us", model.contextMicros, "us");
    for (const auto &[key, ns] : model.evaluateNs)
        out.add("model.evaluate_ns." + key, ns, "ns");
    out.add("model.infeasible_ratio",
            ratio(static_cast<double>(sampler.infeasible()),
                  static_cast<double>(sampler.priced())),
            "ratio");
    out.add("model.priced", static_cast<double>(sampler.priced()), "count");
}

void
addTraceMetrics(Outcome &out, double plainP50, double tracedP50,
                double tracedOpsPerSecond)
{
    out.add("trace.op_p50_us", tracedP50, "us");
    out.add("trace.ops_per_s", tracedOpsPerSecond, "1/s");
    out.add("trace.overhead_pct",
            plainP50 > 0.0 ? (tracedP50 / plainP50 - 1.0) * 100.0 : 0.0, "%");
}

} // namespace perfledger
