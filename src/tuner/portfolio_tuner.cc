#include "tuner/portfolio_tuner.h"

#include <algorithm>
#include <limits>

#include "engine/execution_engine.h"
#include "support/error.h"
#include "tuner/session.h"

namespace petabricks {
namespace tuner {

std::vector<int64_t>
PortfolioTuner::sizeLadder(int64_t minSize, int64_t maxSize,
                           int growthFactor)
{
    if (minSize < 1 || maxSize < minSize)
        PB_FATAL("invalid size ladder [" << minSize << ", " << maxSize
                                         << "]");
    if (growthFactor < 2)
        PB_FATAL("size ladder growth factor must be >= 2 (got "
                 << growthFactor << ")");
    std::vector<int64_t> sizes;
    for (int64_t size = minSize; size < maxSize;
         size *= growthFactor) {
        sizes.push_back(size);
        // A step past int64 would wrap, and a wrapped rung can climb
        // forever: refuse the ladder instead.
        if (size > std::numeric_limits<int64_t>::max() / growthFactor)
            PB_FATAL("size ladder [" << minSize << ", " << maxSize
                                     << "] growing by " << growthFactor
                                     << " overflows int64 after "
                                     << size);
    }
    sizes.push_back(maxSize);
    return sizes;
}

std::vector<PortfolioRung>
PortfolioTuner::tune(const apps::Benchmark &benchmark,
                     const sim::MachineProfile &machine,
                     const PortfolioTunerOptions &options)
{
    const int64_t minSize =
        options.minSize > 0 ? options.minSize : benchmark.minTuningSize();
    const int64_t maxSize = options.maxSize > 0
                                ? options.maxSize
                                : benchmark.testingInputSize();
    std::vector<int64_t> sizes = options.sizes;
    if (sizes.empty()) {
        sizes = sizeLadder(minSize, maxSize, options.growthFactor);
    } else {
        std::sort(sizes.begin(), sizes.end());
        sizes.erase(std::unique(sizes.begin(), sizes.end()),
                    sizes.end());
        if (sizes.front() < 1)
            PB_FATAL("portfolio rung sizes must be positive");
    }

    engine::ModelEngine engine(machine);
    const uint64_t scope = engine.cacheScope(benchmark);

    std::vector<PortfolioRung> rungs;
    rungs.reserve(sizes.size());
    for (int64_t rungSize : sizes) {
        // Per-rung search: same seed and knobs at every rung, with the
        // size window pinned so the session's own exponential schedule
        // tops out exactly at this rung. The engine layers the
        // machine's compile-model parameters on top, as everywhere.
        TunerOptions tunerOptions = options.tuner;
        engine.configureTuner(tunerOptions);
        tunerOptions.maxInputSize = rungSize;
        tunerOptions.minInputSize =
            std::min(tunerOptions.minInputSize, rungSize);

        engine::EngineEvaluator evaluator(benchmark, engine);
        TuningSession session(evaluator, benchmark.seedConfig(),
                              tunerOptions);
        if (sharedCache_ != nullptr)
            session.attachSharedCache(sharedCache_, scope);
        TuningResult result = session.run();
        SessionIntrospection view = session.introspect();

        portfolio::ChampionRecord record;
        record.benchmark = benchmark.name();
        record.machineName = machine.name;
        record.machineFingerprint = machine.fingerprint();
        record.inputSize = rungSize;
        record.seconds = result.bestSeconds;
        record.config = result.best;
        portfolio_.put(record);

        PortfolioRung rung;
        rung.inputSize = rungSize;
        rung.champion = std::move(record);
        // put() recomputed the stored fingerprint; mirror it here so
        // callers see the identity the portfolio serves.
        rung.champion.configFingerprint =
            rung.champion.config.valueFingerprint();
        rung.sharedHits = view.sharedHits;
        rung.sharedPublishes = view.sharedPublishes;
        rungs.push_back(std::move(rung));
    }
    return rungs;
}

} // namespace tuner
} // namespace petabricks
