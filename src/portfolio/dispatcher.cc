#include "portfolio/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"

namespace petabricks {
namespace portfolio {

namespace {

/** Log-scale distance between a champion's tuned size and the query —
 * the right metric for a geometric size ladder. */
double
logDistance(int64_t tunedSize, int64_t n)
{
    double a = std::log(static_cast<double>(std::max<int64_t>(tunedSize, 1)));
    double b = std::log(static_cast<double>(std::max<int64_t>(n, 1)));
    return std::abs(a - b);
}

} // namespace

DispatchDecision
Dispatcher::dispatch(const apps::Benchmark &benchmark, int64_t n,
                     const sim::MachineProfile &machine,
                     const DispatchOptions &options) const
{
    const std::string name = benchmark.name();
    const uint64_t machineFp = machine.fingerprint();

    if (!options.crossMachine) {
        if (std::optional<ChampionRecord> hit =
                portfolio_.exact(name, machineFp, n))
            return {*hit, "exact", hit->seconds};
    }

    std::vector<ChampionRecord> candidates =
        options.crossMachine ? portfolio_.allFor(name)
                             : portfolio_.championsFor(name, machineFp);
    bool foreignFallback = false;
    if (candidates.empty()) {
        candidates = portfolio_.allFor(name);
        foreignFallback = true;
    }
    if (candidates.empty())
        PB_FATAL("portfolio holds no champion for benchmark '" << name
                                                               << "'");

    // Preselect the topK nearest tuned sizes. stable_sort over the
    // portfolio's stable key order keeps the whole pipeline
    // deterministic; clamping to >= 2 guarantees both ladder
    // neighbors of an in-between n stay in contention. Each distance
    // is computed once and the sort runs on (distance, position).
    const size_t topK =
        static_cast<size_t>(std::max(options.topK, 2));
    std::vector<std::pair<double, size_t>> order;
    order.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i)
        order.emplace_back(logDistance(candidates[i].inputSize, n), i);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<ChampionRecord> nearest;
    nearest.reserve(std::min(topK, order.size()));
    for (size_t k = 0; k < order.size() && k < topK; ++k)
        nearest.push_back(std::move(candidates[order[k].second]));
    candidates = std::move(nearest);

    // Price every surviving candidate at the queried n under the pure
    // model; infeasible placements (e.g. GPU-placed champions dispatched
    // onto a machine without OpenCL) price +inf and simply lose.
    apps::EvalContextPtr ctx = benchmark.makeEvalContext(n, machine);
    const ChampionRecord *best = nullptr;
    double bestSeconds = std::numeric_limits<double>::infinity();
    for (const ChampionRecord &candidate : candidates) {
        double seconds;
        try {
            seconds = benchmark.evaluate(candidate.config, n, machine,
                                         ctx.get());
        } catch (const FatalError &) {
            seconds = std::numeric_limits<double>::infinity();
        }
        // Strict < with candidates in nearest-first stable order:
        // ties go to the nearer tuned size, then the portfolio's key
        // order — fully deterministic.
        if (best == nullptr || seconds < bestSeconds) {
            best = &candidate;
            bestSeconds = seconds;
        }
    }

    DispatchDecision decision;
    decision.champion = *best;
    decision.pricedSeconds = bestSeconds;
    decision.policy =
        foreignFallback ||
                best->machineFingerprint != machineFp
            ? "foreign"
            : "priced";
    return decision;
}

} // namespace portfolio
} // namespace petabricks
