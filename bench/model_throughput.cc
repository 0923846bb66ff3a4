/**
 * @file
 * Model-mode evaluation throughput: configs/sec per benchmark, on the
 * reference path (per-call from-scratch scaffolding — the pre-fast-path
 * behavior) vs. the EvaluationContext fast path the engines use.
 *
 * Search throughput is the autotuner's real currency: every configs/sec
 * gained multiplies how much of the choice space a fixed tuning budget
 * covers. This harness guards the fast path's speedup from regressing
 * and emits BENCH_model_throughput.json so the trajectory is tracked
 * across commits (CI runs `model_throughput --short` and uploads the
 * JSON as an artifact).
 *
 * Methodology: per benchmark, a deterministic population of mutated
 * configurations (fixed RNG seed) is evaluated at the paper's testing
 * input size on the Desktop profile. Both paths price the identical
 * config list; equality of every returned cost is asserted before any
 * timing. The fast path re-builds its EvaluationContext once per timing
 * round — exactly the per-generation rebuild the TuningSession pays.
 *
 * Usage: model_throughput [--short] [--out PATH]
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "benchmarks/registry.h"
#include "cache/shared_cache.h"
#include "support/hash.h"
#include "support/rng.h"
#include "tuner/mutators.h"

using namespace petabricks;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Deterministic population of structurally valid mutants. */
std::vector<tuner::Config>
makePopulation(const apps::Benchmark &benchmark, int64_t n, int count,
               Rng &rng)
{
    tuner::Config seed = benchmark.seedConfig();
    const std::vector<tuner::Mutator> &mutators =
        seed.schema().mutators();
    std::vector<tuner::Config> configs;
    configs.reserve(static_cast<size_t>(count));
    configs.push_back(seed); // always include the seed itself
    while (configs.size() < static_cast<size_t>(count)) {
        tuner::Config config = seed;
        int64_t edits = rng.uniformInt(1, 4);
        for (int64_t e = 0; e < edits; ++e) {
            size_t m = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(mutators.size()) - 1));
            mutators[m].apply(config, rng, n);
        }
        configs.push_back(std::move(config));
    }
    return configs;
}

/** One evaluation on the reference path; +inf for infeasible. */
double
evalReference(const apps::Benchmark &benchmark,
              const tuner::Config &config, int64_t n,
              const sim::MachineProfile &machine)
{
    try {
        return benchmark.evaluate(config, n, machine);
    } catch (const FatalError &) {
        return std::numeric_limits<double>::infinity();
    }
}

/** One evaluation on the fast path; +inf for infeasible. */
double
evalFast(const apps::Benchmark &benchmark, const tuner::Config &config,
         int64_t n, const sim::MachineProfile &machine,
         const apps::EvalContext *ctx)
{
    try {
        return benchmark.evaluate(config, n, machine, ctx);
    } catch (const FatalError &) {
        return std::numeric_limits<double>::infinity();
    }
}

struct PathTiming
{
    double seconds = 0.0;
    int64_t evaluations = 0;

    double
    configsPerSec() const
    {
        return seconds > 0.0
                   ? static_cast<double>(evaluations) / seconds
                   : 0.0;
    }
};

struct BenchmarkRow
{
    std::string name;
    int64_t n = 0;
    int configs = 0;
    PathTiming reference;
    PathTiming fast;
    /** Serving from a warm SharedEvaluationCache: fingerprint + L2
     * lookup per config, no model evaluation at all — the per-config
     * cost of a tunerd whose fleet has already priced these points. */
    PathTiming warm;

    double
    speedup() const
    {
        double ref = reference.configsPerSec();
        return ref > 0.0 ? fast.configsPerSec() / ref : 0.0;
    }
};

/** Defeats dead-code elimination of the timed cache lookups. */
volatile double g_sink = 0.0;

/** Repeat whole-population sweeps until minSeconds of work is timed. */
template <typename Sweep>
PathTiming
timePath(double minSeconds, int64_t evalsPerSweep, const Sweep &sweep)
{
    PathTiming timing;
    auto start = Clock::now();
    do {
        sweep();
        timing.evaluations += evalsPerSweep;
        timing.seconds = secondsSince(start);
    } while (timing.seconds < minSeconds);
    return timing;
}

std::string
jsonNum(double v)
{
    if (std::isinf(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bool shortPreset = false;
    std::string outPath = "BENCH_model_throughput.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--short") {
            shortPreset = true;
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::cerr << "usage: model_throughput [--short] [--out PATH]\n";
            return 2;
        }
    }

    // The population stays generation-sized in both presets: the fast
    // path's per-sweep context rebuild amortizes over it, so shrinking
    // the population would distort the comparison, not just shorten it.
    const int populationSize = 64;
    const double minSeconds = shortPreset ? 0.08 : 0.25;
    const sim::MachineProfile machine = sim::MachineProfile::desktop();

    std::vector<BenchmarkRow> rows;
    int mismatches = 0;

    for (const apps::BenchmarkPtr &benchmark : apps::allBenchmarks()) {
        BenchmarkRow row;
        row.name = benchmark->name();
        row.n = benchmark->testingInputSize();
        row.configs = populationSize;

        Rng rng(0x5EED2013 ^ static_cast<uint64_t>(row.n));
        std::vector<tuner::Config> configs =
            makePopulation(*benchmark, row.n, populationSize, rng);

        // Correctness gate: the fast path must reproduce the reference
        // path bit-for-bit before its throughput means anything.
        apps::EvalContextPtr ctx =
            benchmark->makeEvalContext(row.n, machine);
        for (const tuner::Config &config : configs) {
            double ref = evalReference(*benchmark, config, row.n, machine);
            double fast =
                evalFast(*benchmark, config, row.n, machine, ctx.get());
            bool equal = std::isinf(ref) ? std::isinf(fast) : ref == fast;
            if (!equal) {
                std::cerr << "MISMATCH: " << row.name << " ref=" << ref
                          << " fast=" << fast << "\n";
                ++mismatches;
            }
        }

        row.reference = timePath(
            minSeconds, populationSize, [&] {
                for (const tuner::Config &config : configs)
                    evalReference(*benchmark, config, row.n, machine);
            });
        row.fast = timePath(
            minSeconds, populationSize, [&] {
                // Context rebuilt per sweep: the per-generation cost a
                // TuningSession actually pays.
                apps::EvalContextPtr sweepCtx =
                    benchmark->makeEvalContext(row.n, machine);
                for (const tuner::Config &config : configs)
                    evalFast(*benchmark, config, row.n, machine,
                             sweepCtx.get());
            });

        // Warm shared cache: pre-publish every finite cost, then time
        // the serving path a session pays on an L2 hit — config
        // fingerprint plus one sharded lookup. Infeasible (+inf)
        // configs are never published (the never-cache-failures
        // contract), so they fall through to the fast path, exactly as
        // a live session would.
        cache::SharedCacheOptions cacheOptions;
        cacheOptions.maxBytes = 8u << 20;
        cache::SharedEvaluationCache shared(cacheOptions);
        const uint64_t scope = Fnv1a().mix(row.name).value();
        const uint64_t owner = shared.registerOwner();
        for (const tuner::Config &config : configs)
            shared.publish(scope, row.n, config.valueFingerprint(),
                           evalFast(*benchmark, config, row.n, machine,
                                    ctx.get()),
                           owner);
        row.warm = timePath(
            minSeconds, populationSize, [&] {
                apps::EvalContextPtr sweepCtx =
                    benchmark->makeEvalContext(row.n, machine);
                for (const tuner::Config &config : configs) {
                    uint64_t fp = config.valueFingerprint();
                    if (std::optional<double> hit =
                            shared.lookup(scope, row.n, fp, owner))
                        g_sink = g_sink + *hit;
                    else
                        g_sink = g_sink +
                                 evalFast(*benchmark, config, row.n,
                                          machine, sweepCtx.get());
                }
            });
        rows.push_back(row);

        std::cout << row.name << " (n=" << row.n << "): reference "
                  << jsonNum(row.reference.configsPerSec())
                  << " configs/s, fast "
                  << jsonNum(row.fast.configsPerSec()) << " configs/s ("
                  << jsonNum(row.speedup()) << "x), warm shared cache "
                  << jsonNum(row.warm.configsPerSec()) << " configs/s\n";
    }

    int fiveTimes = 0;
    for (const BenchmarkRow &row : rows)
        if (row.speedup() >= 5.0)
            ++fiveTimes;
    std::cout << "\n" << fiveTimes << "/" << rows.size()
              << " benchmarks at >= 5x\n";

    std::ofstream out(outPath);
    out << "{\n"
        << "  \"bench\": \"model_throughput\",\n"
        << "  \"machine\": \"" << machine.name << "\",\n"
        << "  \"preset\": \"" << (shortPreset ? "short" : "full")
        << "\",\n"
        << "  \"population\": " << populationSize << ",\n"
        << "  \"benchmarks\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const BenchmarkRow &row = rows[i];
        out << "    {\"name\": \"" << row.name << "\", \"n\": " << row.n
            << ", \"reference_configs_per_sec\": "
            << jsonNum(row.reference.configsPerSec())
            << ", \"fast_configs_per_sec\": "
            << jsonNum(row.fast.configsPerSec())
            << ", \"warm_cache_configs_per_sec\": "
            << jsonNum(row.warm.configsPerSec())
            << ", \"speedup\": " << jsonNum(row.speedup()) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"benchmarks_at_5x\": " << fiveTimes << ",\n"
        << "  \"cost_mismatches\": " << mismatches << "\n"
        << "}\n";
    std::cout << "wrote " << outPath << "\n";

    return mismatches == 0 ? 0 : 1;
}
