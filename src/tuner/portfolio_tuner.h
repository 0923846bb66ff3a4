/**
 * @file
 * PortfolioTuner: the multi-size tuning driver that fills a
 * ChampionPortfolio.
 *
 * One TuningSession produces one champion for one target input size.
 * The paper's input-sensitivity argument (and the dispatch layer built
 * on it) needs a champion *per size*: this driver runs a ladder of
 * TuningSessions over a geometric schedule of input sizes on one
 * machine, storing each rung's champion into the portfolio keyed
 * (benchmark, machine fingerprint, rung size).
 *
 * Rungs share work two ways: every rung's session walks its own
 * exponential size schedule up from the same floor (optimal
 * substructure, Section 5.2 — small-size levels keep governing as
 * larger sizes are explored), and when a SharedEvaluationCache is
 * attached all rungs publish into the same (benchmark, machine) scope,
 * so rung k+1 re-prices the sizes rung k already visited as L2 hits.
 * The search is deterministic per rung (fixed seed), so re-tuning the
 * same ladder reproduces identical champions.
 */

#ifndef PETABRICKS_TUNER_PORTFOLIO_TUNER_H
#define PETABRICKS_TUNER_PORTFOLIO_TUNER_H

#include <cstdint>
#include <vector>

#include "benchmarks/benchmark.h"
#include "portfolio/portfolio.h"
#include "sim/machine.h"
#include "tuner/evolution.h"

namespace petabricks {

namespace cache {
class SharedEvaluationCache;
} // namespace cache

namespace tuner {

/** Ladder + per-rung search knobs. */
struct PortfolioTunerOptions
{
    /**
     * Explicit rung sizes (ascending, deduplicated by the driver).
     * Empty means a geometric ladder from minSize to maxSize.
     */
    std::vector<int64_t> sizes;

    /** Ladder floor; 0 means the benchmark's minTuningSize(). */
    int64_t minSize = 0;

    /** Ladder ceiling; 0 means the benchmark's testingInputSize(). */
    int64_t maxSize = 0;

    /** Geometric growth between rungs (>= 2). */
    int growthFactor = 4;

    /** Search knobs applied at every rung (population, generations,
     * seed, ...); the engine layers its compile-model parameters on
     * top and the driver pins the size window per rung. */
    TunerOptions tuner;
};

/** One rung's outcome: the champion now stored in the portfolio. */
struct PortfolioRung
{
    int64_t inputSize = 0;
    portfolio::ChampionRecord champion;

    /** This rung's traffic against the shared L2 cache. */
    int64_t sharedHits = 0;
    int64_t sharedPublishes = 0;
};

/** See file comment. */
class PortfolioTuner
{
  public:
    /**
     * @param portfolio champion store tuned rungs are put() into.
     * @param sharedCache optional L2 shared across rungs (and across
     *        sessions/daemons); nullptr tunes without one.
     */
    explicit PortfolioTuner(portfolio::ChampionPortfolio &portfolio,
                            cache::SharedEvaluationCache *sharedCache =
                                nullptr)
        : portfolio_(portfolio), sharedCache_(sharedCache)
    {}

    /**
     * The geometric size schedule: minSize, minSize*growth, ...,
     * always ending exactly at maxSize. TuningSession walks the same
     * ladder.
     * @throws FatalError for an empty range, a growth factor below 2,
     *         or a step that would overflow int64.
     */
    static std::vector<int64_t> sizeLadder(int64_t minSize,
                                           int64_t maxSize,
                                           int growthFactor);

    /**
     * Tune @p benchmark on @p machine at every rung of the schedule,
     * storing one champion per rung. Returns the rungs in ascending
     * size order.
     */
    std::vector<PortfolioRung>
    tune(const apps::Benchmark &benchmark,
         const sim::MachineProfile &machine,
         const PortfolioTunerOptions &options = {});

  private:
    portfolio::ChampionPortfolio &portfolio_;
    cache::SharedEvaluationCache *sharedCache_ = nullptr;
};

} // namespace tuner
} // namespace petabricks

#endif // PETABRICKS_TUNER_PORTFOLIO_TUNER_H
