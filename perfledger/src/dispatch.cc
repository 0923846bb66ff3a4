/**
 * @file
 * Workload `dispatch`: input-adaptive champion selection, in process
 * and single-threaded.
 *
 * Set-up fills a memory-only ChampionPortfolio with PortfolioTuner
 * ladders for all eight benchmarks on Desktop, Server and Laptop, with
 * fixed tuner seeds: the run seed draws only the queries (note:
 * PortfolioTuner builds its own default-parallelism ModelEngine, so the
 * set-up starts one thread pool per ladder). Each query is one
 * Dispatcher::dispatch call: every benchmark and every machine (the
 * three tuned ones, and Ultrabook, which has no native champions and
 * takes the foreign fallback) get the same share of queries; a quarter
 * ask for a tuned rung size and the rest draw a size log-uniformly over
 * the ladder range. Every decision is checked against a brute-force
 * reference written here.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "benchmarks/registry.h"
#include "layers.h"
#include "portfolio/dispatcher.h"
#include "tuner/portfolio_tuner.h"
#include "workloads.h"

namespace perfledger {

using namespace petabricks;

namespace {

const char *const kTunedMachines[] = {"Desktop", "Server", "Laptop"};
const char *const kQueryMachines[] = {"Desktop", "Server", "Laptop",
                                      "Ultrabook"};
constexpr double kSetupEverySeconds = 1.0;
constexpr int kKernelReps = 5;
/** Distinct queries per (benchmark, machine) pair; all 32 pairs get as
 * many, a quarter of them rung sizes. The 2048 queries are cycled, and
 * a 100 ms slice covers at least one cycle, so every slice dispatches
 * the same mix. */
constexpr size_t kQueriesPerPair = 64;
constexpr int kTopK = portfolio::DispatchOptions{}.topK;

enum Policy : uint8_t { kExact, kPriced, kForeign };

Policy
policyCode(const std::string &policy)
{
    return policy == "exact" ? kExact : policy == "priced" ? kPriced : kForeign;
}

struct Query
{
    size_t benchmark = 0;
    size_t machine = 0;
    int64_t n = 0;
};

/** Benchmarks, machines and the filled portfolio. */
struct Fixture
{
    std::vector<apps::BenchmarkPtr> benchmarks;
    std::vector<sim::MachineProfile> machines; ///< kQueryMachines order
    std::unique_ptr<portfolio::ChampionPortfolio> portfolio;
};

/** The tuned program the queries dispatch into: the same for every run
 * seed, which varies only the queries. */
constexpr uint64_t kPortfolioSeed = 20130316;

/** The set-up: PortfolioTuner ladders for every benchmark on the three
 * tuned machines. @return seconds spent inside PortfolioTuner::tune. */
double
fill(Fixture &fixture)
{
    fixture.portfolio = std::make_unique<portfolio::ChampionPortfolio>();
    tuner::PortfolioTuner tuner(*fixture.portfolio);
    double tuneSeconds = 0.0;
    for (size_t b = 0; b < fixture.benchmarks.size(); ++b)
        for (size_t m = 0; m < std::size(kTunedMachines); ++m) {
            tuner::PortfolioTunerOptions options;
            options.tuner.seed =
                static_cast<uint64_t>(tunerSeed(kPortfolioSeed, b * 8 + m));
            Clock::time_point start = Clock::now();
            tuner.tune(*fixture.benchmarks[b], fixture.machines[m], options);
            tuneSeconds += secondsSince(start);
        }
    return tuneSeconds;
}

/** The whole set-up: benchmarks, machines, then the fill. @return
 * seconds spent inside PortfolioTuner::tune. */
double
setUp(Fixture &fixture)
{
    fixture.benchmarks = apps::allBenchmarks();
    fixture.machines.clear();
    for (const char *name : kQueryMachines)
        fixture.machines.push_back(sim::MachineProfile::byName(name));
    return fill(fixture);
}

std::vector<Query>
makeQueries(const Fixture &fixture, uint64_t seed)
{
    Rng rng(mix(seed, 7));
    const uint64_t desktop = fixture.machines[0].fingerprint();
    std::vector<std::vector<int64_t>> ladders;
    for (const apps::BenchmarkPtr &benchmark : fixture.benchmarks) {
        std::vector<int64_t> sizes;
        for (const portfolio::ChampionRecord &record :
             fixture.portfolio->championsFor(benchmark->name(), desktop))
            sizes.push_back(record.inputSize);
        ladders.push_back(sizes);
    }
    std::vector<Query> queries;
    for (size_t b = 0; b < ladders.size(); ++b)
        for (size_t m = 0; m < std::size(kQueryMachines); ++m)
            for (size_t i = 0; i < kQueriesPerPair; ++i) {
                Query query{b, m, 0};
                const std::vector<int64_t> &ladder = ladders[b];
                if (i < kQueriesPerPair / 4) {
                    query.n = ladder[static_cast<size_t>(rng.uniformInt(
                        0, static_cast<int64_t>(ladder.size()) - 1))];
                } else {
                    double lo = std::log(static_cast<double>(ladder.front()));
                    double hi = std::log(static_cast<double>(ladder.back()));
                    query.n = std::max<int64_t>(
                        1, std::llround(std::exp(rng.uniformReal(lo, hi))));
                }
                queries.push_back(query);
            }
    for (size_t i = queries.size() - 1; i > 0; --i)
        std::swap(queries[i], queries[static_cast<size_t>(rng.uniformInt(
                                  0, static_cast<int64_t>(i)))]);
    return queries;
}

/** What a dispatch decided, in comparable form. */
struct Decision
{
    uint64_t configFingerprint = 0;
    uint64_t secondsBits = 0;
    Policy policy = kExact;
    int candidatesPriced = 0;

    bool operator==(const Decision &other) const
    {
        return configFingerprint == other.configFingerprint &&
               secondsBits == other.secondsBits && policy == other.policy;
    }
};

/**
 * Brute-force dispatch: the stored champion on an exact hit, else the
 * cheapest of the topK nearest candidates (log-size distance, stable in
 * portfolio order) priced directly with Benchmark::evaluate; ties keep
 * the earlier candidate. Priced candidates go to @p sampler.
 */
Decision
reference(const portfolio::ChampionPortfolio &store,
          const apps::BenchmarkPtr &benchmark, int64_t n,
          const sim::MachineProfile &machine, PricedSampler &sampler)
{
    const std::string name = benchmark->name();
    const uint64_t machineFp = machine.fingerprint();
    if (auto hit = store.exact(name, machineFp, n))
        return {hit->config.valueFingerprint(),
                std::bit_cast<uint64_t>(hit->seconds), kExact, 0};

    std::vector<portfolio::ChampionRecord> candidates =
        store.championsFor(name, machineFp);
    bool foreign = candidates.empty();
    if (foreign)
        candidates = store.allFor(name);

    auto distance = [n](int64_t size) {
        return std::abs(std::log(static_cast<double>(std::max<int64_t>(size, 1))) -
                        std::log(static_cast<double>(std::max<int64_t>(n, 1))));
    };
    std::vector<size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return distance(candidates[a].inputSize) <
               distance(candidates[b].inputSize);
    });
    order.resize(std::min(order.size(), static_cast<size_t>(kTopK)));

    apps::EvalContextPtr ctx = benchmark->makeEvalContext(n, machine);
    std::vector<tuner::Config> configs;
    std::vector<double> prices;
    for (size_t index : order) {
        configs.push_back(candidates[index].config);
        double seconds;
        try {
            seconds = benchmark->evaluate(candidates[index].config, n, machine,
                                          ctx.get());
        } catch (const FatalError &) {
            seconds = std::numeric_limits<double>::infinity();
        }
        prices.push_back(seconds);
    }
    size_t best = 0;
    for (size_t i = 1; i < prices.size(); ++i)
        if (prices[i] < prices[best])
            best = i;
    sampler.offer(benchmark, &machine, n, configs, prices);

    const portfolio::ChampionRecord &winner = candidates[order[best]];
    Policy policy = foreign || winner.machineFingerprint != machineFp
                        ? kForeign
                        : kPriced;
    return {winner.config.valueFingerprint(),
            std::bit_cast<uint64_t>(prices[best]), policy,
            static_cast<int>(order.size())};
}

struct Pass
{
    std::optional<SliceStats> slices;
    Histogram byPolicy[3];
    int64_t dispatches = 0;
    int64_t inconsistent = 0; ///< same query, different decision
    std::vector<Decision> first;  ///< per query index
    std::vector<int64_t> count;   ///< dispatches per query index
};

/** Dispatch for @p seconds of timed work; when @p setups is set, repeat
 * the set-up (into a scratch fixture) whenever one is due, on a paused
 * clock. */
Pass
runPass(const Fixture &fixture, const std::vector<Query> &queries,
        double seconds, ThreadTrace *trace, SetupReps *setups)
{
    Pass pass;
    pass.first.resize(queries.size());
    pass.count.assign(queries.size(), 0);
    portfolio::Dispatcher dispatcher(*fixture.portfolio);
    const Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    pass.slices.emplace(start, seconds);
    for (size_t i = 0;; ++i) {
        const size_t index = i % queries.size();
        const Query &query = queries[index];
        Clock::time_point before = Clock::now();
        portfolio::DispatchDecision decision;
        {
            SpanScope span(trace, "dispatch", i + 1);
            decision = dispatcher.dispatch(*fixture.benchmarks[query.benchmark],
                                           query.n,
                                           fixture.machines[query.machine]);
        }
        Clock::time_point after = Clock::now();
        const double micros = microsBetween(before, after);
        Decision seen{decision.champion.configFingerprint,
                      std::bit_cast<uint64_t>(decision.pricedSeconds),
                      policyCode(decision.policy), 0};
        pass.slices->record(after, micros);
        pass.byPolicy[seen.policy].record(micros);
        ++pass.dispatches;
        if (pass.count[index]++ == 0)
            pass.first[index] = seen;
        else if (!(pass.first[index] == seen))
            ++pass.inconsistent;
        if (after >= deadline)
            break;
        const bool setupDue = setups && setups->due();
        if (setupDue || pass.slices->kernelDue()) {
            Clock::time_point pauseStart = Clock::now();
            if (pass.slices->kernelDue())
                pass.slices->calibrate(kKernelReps);
            if (setupDue) {
                Fixture scratch;
                Clock::time_point setupStart = Clock::now();
                setUp(scratch);
                setups->add(secondsSince(setupStart));
            }
            Clock::duration paused = Clock::now() - pauseStart;
            pass.slices->pause(paused);
            deadline += paused;
        }
    }
    return pass;
}

/** Reference check of every distinct query the pass dispatched. */
struct Check
{
    int64_t mismatches = 0;
    int64_t candidatesPriced = 0;
    int64_t pricedDispatches = 0;
};

Check
checkPass(const Fixture &fixture, const std::vector<Query> &queries,
          Pass &pass, PricedSampler &sampler)
{
    Check check;
    for (size_t index = 0; index < queries.size(); ++index) {
        if (pass.count[index] == 0)
            continue;
        const Query &query = queries[index];
        Decision expected =
            reference(*fixture.portfolio, fixture.benchmarks[query.benchmark],
                      query.n, fixture.machines[query.machine], sampler);
        if (!(expected == pass.first[index]))
            check.mismatches += pass.count[index];
        if (expected.policy != kExact) {
            check.candidatesPriced +=
                pass.count[index] * expected.candidatesPriced;
            check.pricedDispatches += pass.count[index];
        }
    }
    return check;
}

/** Mean microseconds of the portfolio lookups a dispatch starts with:
 * exact() then championsFor(). */
double
lookupMicros(const Fixture &fixture, const std::vector<Query> &queries)
{
    const size_t count = std::min<size_t>(queries.size(), 4096);
    std::vector<double> perQuery;
    size_t sink = 0;
    for (int pass = 0; pass < 5; ++pass) {
        Clock::time_point start = Clock::now();
        for (size_t i = 0; i < count; ++i) {
            const std::string name =
                fixture.benchmarks[queries[i].benchmark]->name();
            const uint64_t fp = fixture.machines[queries[i].machine].fingerprint();
            sink += fixture.portfolio->exact(name, fp, queries[i].n).has_value();
            sink += fixture.portfolio->championsFor(name, fp).size();
        }
        perQuery.push_back(microsBetween(start, Clock::now()) /
                           static_cast<double>(count));
    }
    return sink ? median(perQuery) : 0.0;
}

} // namespace

Outcome
runDispatch(const Options &options)
{
    Outcome out;
    Fixture fixture;
    SetupReps setups(kSetupEverySeconds);
    Clock::time_point setupStart = Clock::now();
    const double fillSeconds = setUp(fixture);
    setups.add(secondsSince(setupStart));
    const std::vector<Query> queries = makeQueries(fixture, options.seed);

    if (!options.trace) {
        Pass pass =
            runPass(fixture, queries, options.seconds, nullptr, &setups);
        PricedSampler sampler(mix(options.seed, 0x5a), 0);
        Check check = checkPass(fixture, queries, pass, sampler);
        out.attempted = pass.dispatches;
        out.failed = check.mismatches + pass.inconsistent;
        addEndToEnd(out, *pass.slices, setups);
        return out;
    }

    Pass plain =
        runPass(fixture, queries, options.seconds / 2, nullptr, nullptr);
    Tracer tracer;
    Pass traced =
        runPass(fixture, queries, options.seconds / 2, tracer.thread(),
                nullptr);
    PricedSampler sampler(mix(options.seed, 0x5a), 512);
    Check plainCheck = checkPass(fixture, queries, plain, sampler);
    Check check = checkPass(fixture, queries, traced, sampler);
    ModelLayer model = replayModel(sampler);
    out.attempted = plain.dispatches + traced.dispatches + model.checked;
    out.failed = plainCheck.mismatches + plain.inconsistent +
                 check.mismatches + traced.inconsistent + model.mismatches;

    const double queriesRun = static_cast<double>(traced.dispatches);
    const char *policies[] = {"exact", "priced", "foreign"};
    out.add("portfolio.lookup_us", lookupMicros(fixture, queries), "us");
    for (int p = 0; p < 3; ++p) {
        out.add(std::string("dispatch.") + policies[p] + "_p50_us",
                traced.byPolicy[p].quantile(0.5), "us");
        out.add(std::string("dispatch.") + policies[p] + "_share",
                ratio(static_cast<double>(traced.byPolicy[p].count()),
                      queriesRun),
                "ratio");
    }
    out.add("dispatch.queries", queriesRun, "count");
    out.add("dispatch.candidates_priced",
            ratio(static_cast<double>(check.candidatesPriced),
                  static_cast<double>(check.pricedDispatches)),
            "count");
    out.add("portfolio.fill_s", fillSeconds, "s");
    addModelMetrics(out, model, sampler);
    addTraceMetrics(out, plain.slices->latency(0.5),
                    traced.slices->latency(0.5), traced.slices->rate());
    tracer.write(traceOutPath(options.workload));
    return out;
}

} // namespace perfledger
