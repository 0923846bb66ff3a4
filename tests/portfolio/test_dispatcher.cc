/**
 * @file
 * Input-adaptive dispatch: exact hits, determinism of the served
 * config identity across Dispatcher instances and portfolio reloads,
 * the neighbor bound for sizes between rungs, foreign fallback,
 * cross-machine pricing, agreement with a brute-force reference, and
 * dispatches racing puts.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <gtest/gtest.h>
#include <limits>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "benchmarks/registry.h"
#include "portfolio/dispatcher.h"
#include "portfolio/portfolio.h"
#include "sim/machine.h"
#include "support/error.h"
#include "tuner/portfolio_tuner.h"

using namespace petabricks;
using namespace petabricks::portfolio;

namespace {

namespace fs = std::filesystem;

std::string
freshDir(const char *name)
{
    std::string path =
        std::string(::testing::TempDir()) + "pb_dispatch_" + name;
    fs::remove_all(path);
    return path;
}

/** Tune a small real ladder for Black-Scholes on @p machine. */
void
tuneLadder(ChampionPortfolio &portfolio,
           const sim::MachineProfile &machine)
{
    tuner::PortfolioTuner tuner(portfolio);
    tuner::PortfolioTunerOptions options;
    options.sizes = {4096, 16384, 65536};
    options.tuner.populationSize = 4;
    options.tuner.generationsPerSize = 2;
    tuner.tune(*apps::findBenchmark("Black-Scholes"), machine, options);
}

/** What a dispatch decided, in comparable form. */
struct Decision
{
    uint64_t configFingerprint = 0;
    uint64_t secondsBits = 0;
    std::string policy;

    bool operator==(const Decision &other) const = default;
};

std::ostream &
operator<<(std::ostream &out, const Decision &decision)
{
    return out << decision.policy << " config " << std::hex
               << decision.configFingerprint << " seconds bits "
               << decision.secondsBits << std::dec;
}

Decision
seen(const DispatchDecision &decision)
{
    return {decision.champion.configFingerprint,
            std::bit_cast<uint64_t>(decision.pricedSeconds),
            decision.policy};
}

/**
 * Dispatch written out by brute force over allFor(): the stored
 * champion on an exact hit; else the topK candidates nearest in log
 * size (stable in portfolio order) among this machine's champions, or
 * among all of them for the foreign fallback and crossMachine, priced
 * under the model, strict < keeping the earlier on a tie.
 */
Decision
reference(const ChampionPortfolio &portfolio,
          const apps::Benchmark &benchmark, int64_t n,
          const sim::MachineProfile &machine, const DispatchOptions &options)
{
    const std::vector<ChampionRecord> all = portfolio.allFor(benchmark.name());
    const uint64_t machineFp = machine.fingerprint();
    std::vector<ChampionRecord> native;
    for (const ChampionRecord &record : all)
        if (record.machineFingerprint == machineFp)
            native.push_back(record);
    if (!options.crossMachine)
        for (const ChampionRecord &record : native)
            if (record.inputSize == n)
                return {record.configFingerprint,
                        std::bit_cast<uint64_t>(record.seconds), "exact"};

    const bool foreign = !options.crossMachine && native.empty();
    const std::vector<ChampionRecord> &candidates =
        options.crossMachine || foreign ? all : native;
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
    order.resize(std::min(order.size(),
                          static_cast<size_t>(std::max(options.topK, 2))));

    apps::EvalContextPtr ctx = benchmark.makeEvalContext(n, machine);
    const ChampionRecord *best = nullptr;
    double bestSeconds = std::numeric_limits<double>::infinity();
    for (size_t index : order) {
        double seconds;
        try {
            seconds = benchmark.evaluate(candidates[index].config, n,
                                         machine, ctx.get());
        } catch (const FatalError &) {
            seconds = std::numeric_limits<double>::infinity();
        }
        if (best == nullptr || seconds < bestSeconds) {
            best = &candidates[index];
            bestSeconds = seconds;
        }
    }
    return {best->configFingerprint, std::bit_cast<uint64_t>(bestSeconds),
            foreign || best->machineFingerprint != machineFp ? "foreign"
                                                             : "priced"};
}

} // namespace

TEST(Dispatcher, ExactHitServesTheStoredChampion)
{
    ChampionPortfolio portfolio;
    tuneLadder(portfolio, sim::MachineProfile::desktop());
    Dispatcher dispatcher(portfolio);
    apps::BenchmarkPtr benchmark = apps::findBenchmark("Black-Scholes");

    DispatchDecision decision = dispatcher.dispatch(
        *benchmark, 16384, sim::MachineProfile::desktop());
    EXPECT_EQ(decision.policy, "exact");
    EXPECT_EQ(decision.champion.inputSize, 16384);
    auto stored = portfolio.exact(
        "Black-Scholes", sim::MachineProfile::desktop().fingerprint(),
        16384);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(decision.champion.configFingerprint,
              stored->configFingerprint);
    EXPECT_EQ(decision.pricedSeconds, stored->seconds);
}

TEST(Dispatcher, DeterministicAcrossInstancesAndReload)
{
    std::string dir = freshDir("determinism");
    apps::BenchmarkPtr benchmark = apps::findBenchmark("Black-Scholes");
    const sim::MachineProfile machine = sim::MachineProfile::desktop();

    uint64_t firstFingerprint = 0;
    double firstSeconds = 0.0;
    {
        ChampionPortfolio portfolio(dir);
        tuneLadder(portfolio, machine);
        Dispatcher dispatcher(portfolio);
        // 30000 sits between the 16384 and 65536 rungs: the priced
        // path, not an exact hit.
        DispatchDecision a =
            dispatcher.dispatch(*benchmark, 30000, machine);
        DispatchDecision b =
            dispatcher.dispatch(*benchmark, 30000, machine);
        EXPECT_EQ(a.champion.configFingerprint,
                  b.champion.configFingerprint);
        EXPECT_EQ(a.pricedSeconds, b.pricedSeconds);
        EXPECT_EQ(a.policy, "priced");
        firstFingerprint = a.champion.configFingerprint;
        firstSeconds = a.pricedSeconds;
    }
    // A fresh portfolio instance loaded from disk (the restart case)
    // serves the identical config identity and the identical price.
    ChampionPortfolio reloaded(dir);
    Dispatcher dispatcher(reloaded);
    DispatchDecision after =
        dispatcher.dispatch(*benchmark, 30000, machine);
    EXPECT_EQ(after.champion.configFingerprint, firstFingerprint);
    EXPECT_EQ(after.pricedSeconds, firstSeconds);
}

TEST(Dispatcher, UnseenSizeNeverWorseThanEitherNeighbor)
{
    ChampionPortfolio portfolio;
    const sim::MachineProfile machine = sim::MachineProfile::desktop();
    tuneLadder(portfolio, machine);
    Dispatcher dispatcher(portfolio);
    apps::BenchmarkPtr benchmark = apps::findBenchmark("Black-Scholes");

    const int64_t n = 30000; // strictly between two rungs
    DispatchDecision decision =
        dispatcher.dispatch(*benchmark, n, machine);

    // Price both ladder neighbors' champions at n; the dispatched
    // config must be at least as good as the worse of the two (it
    // prices both, so in fact it is at least as good as the better).
    apps::EvalContextPtr ctx = benchmark->makeEvalContext(n, machine);
    for (int64_t rung : {16384, 65536}) {
        auto neighbor = portfolio.exact("Black-Scholes",
                                        machine.fingerprint(), rung);
        ASSERT_TRUE(neighbor.has_value());
        double neighborSeconds = benchmark->evaluate(
            neighbor->config, n, machine, ctx.get());
        EXPECT_LE(decision.pricedSeconds, neighborSeconds)
            << "dispatch lost to the rung-" << rung << " champion";
    }
}

TEST(Dispatcher, ForeignFallbackWhenMachineHasNoChampions)
{
    ChampionPortfolio portfolio;
    tuneLadder(portfolio, sim::MachineProfile::desktop());
    Dispatcher dispatcher(portfolio);
    apps::BenchmarkPtr benchmark = apps::findBenchmark("Black-Scholes");

    // The laptop has no champions: dispatch borrows desktop's, priced
    // on the laptop, and labels the decision foreign.
    DispatchDecision decision = dispatcher.dispatch(
        *benchmark, 16384, sim::MachineProfile::laptop());
    EXPECT_EQ(decision.policy, "foreign");
    EXPECT_EQ(decision.champion.machineName, "Desktop");
    EXPECT_TRUE(std::isfinite(decision.pricedSeconds));
}

TEST(Dispatcher, CrossMachinePricesEveryCandidate)
{
    ChampionPortfolio portfolio;
    const sim::MachineProfile desktop = sim::MachineProfile::desktop();
    tuneLadder(portfolio, desktop);
    tuneLadder(portfolio, sim::MachineProfile::laptop());
    Dispatcher dispatcher(portfolio);
    apps::BenchmarkPtr benchmark = apps::findBenchmark("Black-Scholes");

    DispatchOptions options;
    options.crossMachine = true;
    options.topK = 1000;
    DispatchDecision decision =
        dispatcher.dispatch(*benchmark, 16384, desktop, options);
    // Must beat (or match) every stored champion priced on desktop.
    apps::EvalContextPtr ctx =
        benchmark->makeEvalContext(16384, desktop);
    for (const ChampionRecord &candidate :
         portfolio.allFor("Black-Scholes")) {
        double seconds;
        try {
            seconds = benchmark->evaluate(candidate.config, 16384,
                                          desktop, ctx.get());
        } catch (const FatalError &) {
            continue;
        }
        EXPECT_LE(decision.pricedSeconds, seconds);
    }
}

TEST(Dispatcher, UnknownBenchmarkIsFatal)
{
    ChampionPortfolio portfolio; // empty
    Dispatcher dispatcher(portfolio);
    apps::BenchmarkPtr benchmark = apps::findBenchmark("Black-Scholes");
    EXPECT_THROW(dispatcher.dispatch(*benchmark, 1024,
                                     sim::MachineProfile::desktop()),
                 FatalError);
}

TEST(Dispatcher, MatchesABruteForceReference)
{
    // Every benchmark tuned on three machines, queried on all five
    // (Ultrabook and BigLittle take the foreign fallback), at every
    // rung, between rungs and outside the ladder.
    ChampionPortfolio portfolio;
    tuner::PortfolioTuner tuner(portfolio);
    const std::vector<sim::MachineProfile> machines =
        sim::MachineProfile::all();
    const std::vector<apps::BenchmarkPtr> benchmarks = apps::allBenchmarks();
    for (size_t b = 0; b < benchmarks.size(); ++b)
        for (const char *name : {"Desktop", "Server", "Laptop"}) {
            tuner::PortfolioTunerOptions options;
            options.tuner.seed = 1000 + b;
            tuner.tune(*benchmarks[b], sim::MachineProfile::byName(name),
                       options);
        }

    Dispatcher dispatcher(portfolio);
    std::map<std::string, int64_t> policies;
    for (const apps::BenchmarkPtr &benchmark : benchmarks) {
        std::vector<int64_t> rungs;
        for (const ChampionRecord &record : portfolio.championsFor(
                 benchmark->name(), machines[0].fingerprint()))
            rungs.push_back(record.inputSize);
        ASSERT_GE(rungs.size(), 2u) << benchmark->name();
        std::vector<int64_t> sizes = rungs;
        for (size_t i = 0; i + 1 < rungs.size(); ++i)
            sizes.push_back(static_cast<int64_t>(
                std::sqrt(static_cast<double>(rungs[i]) *
                          static_cast<double>(rungs[i + 1]))));
        sizes.push_back(std::max<int64_t>(1, rungs.front() / 3));
        sizes.push_back(rungs.back() * 3);
        for (const sim::MachineProfile &machine : machines)
            for (int64_t n : sizes)
                for (int topK : {1, 2, 8, 100})
                    for (bool crossMachine : {false, true}) {
                        DispatchOptions options;
                        options.topK = topK;
                        options.crossMachine = crossMachine;
                        const Decision decision = seen(dispatcher.dispatch(
                            *benchmark, n, machine, options));
                        EXPECT_EQ(decision, reference(portfolio, *benchmark,
                                                      n, machine, options))
                            << benchmark->name() << " n=" << n << " on "
                            << machine.name << " topK=" << topK
                            << " crossMachine=" << crossMachine;
                        ++policies[decision.policy];
                    }
    }
    EXPECT_GT(policies["exact"], 100);
    EXPECT_GT(policies["priced"], 500);
    EXPECT_GT(policies["foreign"], 500);
}

TEST(Dispatcher, PutsDuringDispatchesAreSafe)
{
    // A writer replaces and adds champions while four readers
    // dispatch. Each decision must be the reference decision of some
    // state the portfolio passed through, which a shadow portfolio
    // replays put by put beforehand.
    apps::BenchmarkPtr benchmark = apps::findBenchmark("Black-Scholes");
    const sim::MachineProfile desktop = sim::MachineProfile::desktop();
    const sim::MachineProfile laptop = sim::MachineProfile::laptop();
    auto record = [&](const sim::MachineProfile &machine, int64_t n,
                      int variant) {
        ChampionRecord champion;
        champion.benchmark = benchmark->name();
        champion.machineName = machine.name;
        champion.machineFingerprint = machine.fingerprint();
        champion.inputSize = n;
        champion.seconds = 1e-3 * (variant + 1);
        champion.config = benchmark->seedConfig();
        champion.config.selector("BlackScholes.backend")
            .setAlgorithm(0, variant % 2);
        champion.config.setTunable("BlackScholes.split", 1 + variant % 64);
        champion.config.setTunable("BlackScholes.ratio", variant % 9);
        return champion;
    };
    const std::vector<int64_t> rungs = {4096, 16384, 65536, 262144};
    std::vector<ChampionRecord> initial;
    for (size_t i = 0; i < rungs.size(); ++i)
        initial.push_back(record(desktop, rungs[i], static_cast<int>(i)));
    std::vector<ChampionRecord> puts;
    for (int k = 0; k < 48; ++k)
        puts.push_back(record(k % 12 == 11 ? laptop : desktop,
                              rungs[static_cast<size_t>(k) % rungs.size()] +
                                  (k % 5 == 4 ? 1000 : 0),
                              10 + k));

    struct Query
    {
        const sim::MachineProfile *machine;
        int64_t n;
        DispatchOptions options;
    };
    std::vector<Query> queries;
    for (const sim::MachineProfile *machine : {&desktop, &laptop})
        for (int64_t n : {4096, 10000, 16384, 17384, 40000, 300000})
            for (bool crossMachine : {false, true}) {
                DispatchOptions options;
                options.topK = 2;
                options.crossMachine = crossMachine;
                queries.push_back({machine, n, options});
            }

    // Reference decisions of every query in every state, in order.
    ChampionPortfolio shadow;
    for (const ChampionRecord &champion : initial)
        shadow.put(champion);
    std::vector<std::vector<Decision>> allowed(queries.size());
    auto recordState = [&] {
        for (size_t q = 0; q < queries.size(); ++q)
            allowed[q].push_back(reference(shadow, *benchmark, queries[q].n,
                                           *queries[q].machine,
                                           queries[q].options));
    };
    recordState();
    for (const ChampionRecord &champion : puts) {
        shadow.put(champion);
        recordState();
    }
    for (const std::vector<Decision> &states : allowed)
        ASSERT_NE(std::find(states.begin(), states.end(), states.back()),
                  states.begin())
            << "every query's decision must change over the puts";

    ChampionPortfolio live;
    for (const ChampionRecord &champion : initial)
        live.put(champion);
    Dispatcher dispatcher(live);
    std::atomic<bool> writerDone{false};
    std::atomic<int64_t> dispatches{0};
    std::vector<std::vector<std::pair<size_t, Decision>>> decided(4);
    std::vector<std::thread> readers;
    for (size_t t = 0; t < decided.size(); ++t)
        readers.emplace_back([&, t] {
            for (size_t i = t; !writerDone.load() || i < t + 2 * queries.size();
                 ++i) {
                const Query &query = queries[i % queries.size()];
                decided[t].emplace_back(
                    i % queries.size(),
                    seen(dispatcher.dispatch(*benchmark, query.n,
                                             *query.machine, query.options)));
                dispatches.fetch_add(1);
            }
        });
    for (const ChampionRecord &champion : puts) {
        // Let the readers dispatch between puts.
        const int64_t target = dispatches.load() + 16;
        while (dispatches.load() < target)
            std::this_thread::yield();
        live.put(champion);
    }
    writerDone.store(true);
    for (std::thread &reader : readers)
        reader.join();

    int64_t checked = 0;
    for (const auto &thread : decided)
        for (const auto &[q, decision] : thread) {
            const std::vector<Decision> &states = allowed[q];
            EXPECT_NE(std::find(states.begin(), states.end(), decision),
                      states.end())
                << "query " << q << " decided " << decision;
            ++checked;
        }
    EXPECT_GE(checked, static_cast<int64_t>(puts.size()) * 16);
    // Once the puts are done, dispatch serves the final state.
    for (size_t q = 0; q < queries.size(); ++q)
        EXPECT_EQ(seen(dispatcher.dispatch(*benchmark, queries[q].n,
                                           *queries[q].machine,
                                           queries[q].options)),
                  allowed[q].back());
}
