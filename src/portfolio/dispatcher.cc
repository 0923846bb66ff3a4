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
    // One shared_ptr copy under the portfolio's lock; puts from here
    // on swap in a new vector and leave this one intact.
    const std::shared_ptr<const ChampionIndex> index = portfolio_.index(name);
    if (index == nullptr)
        PB_FATAL("portfolio holds no champion for benchmark '" << name
                                                               << "'");

    ChampionRange candidates = machineRange(*index, machineFp);
    if (!options.crossMachine) {
        if (const ChampionRecord *hit = atSize(candidates, n))
            return {*hit, "exact", hit->seconds};
    }
    const bool foreignFallback = !options.crossMachine && candidates.empty();
    if (options.crossMachine || foreignFallback)
        candidates = *index;

    // Preselect the topK nearest tuned sizes. stable_sort over the
    // portfolio's stable key order keeps the whole pipeline
    // deterministic; clamping to >= 2 guarantees both ladder
    // neighbors of an in-between n stay in contention. Each distance
    // is computed once and the sort runs on (distance, record).
    const size_t topK =
        static_cast<size_t>(std::max(options.topK, 2));
    std::vector<std::pair<double, const ChampionRecord *>> nearest;
    nearest.reserve(candidates.size());
    for (const std::shared_ptr<const ChampionRecord> &candidate : candidates)
        nearest.emplace_back(logDistance(candidate->inputSize, n),
                             candidate.get());
    std::stable_sort(nearest.begin(), nearest.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    nearest.resize(std::min(topK, nearest.size()));

    // Price every surviving candidate at the queried n under the pure
    // model; infeasible placements (e.g. GPU-placed champions dispatched
    // onto a machine without OpenCL) price +inf and simply lose.
    apps::EvalContextPtr ctx = benchmark.makeEvalContext(n, machine);
    const ChampionRecord *best = nullptr;
    double bestSeconds = std::numeric_limits<double>::infinity();
    for (const auto &[distance, candidate] : nearest) {
        double seconds;
        try {
            seconds = benchmark.evaluate(candidate->config, n, machine,
                                         ctx.get());
        } catch (const FatalError &) {
            seconds = std::numeric_limits<double>::infinity();
        }
        // Strict < with candidates in nearest-first stable order:
        // ties go to the nearer tuned size, then the portfolio's key
        // order — fully deterministic.
        if (best == nullptr || seconds < bestSeconds) {
            best = candidate;
            bestSeconds = seconds;
        }
    }

    // The only record copied: the winner.
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
