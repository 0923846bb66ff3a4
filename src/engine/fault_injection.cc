#include "engine/fault_injection.h"

#include <chrono>
#include <thread>

#include "support/error.h"
#include "support/hash.h"

namespace petabricks {
namespace engine {

namespace {

/** splitmix64: cheap, well-mixed, and stable across platforms. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Deterministic uniform draw in [0,1) for (key, salt). */
double
draw(uint64_t key, uint64_t salt)
{
    return static_cast<double>(mix(key ^ mix(salt)) >> 11) *
           0x1.0p-53;
}

} // namespace

FaultInjectingEngine::FaultInjectingEngine(
    std::unique_ptr<ExecutionEngine> inner, FaultPlan plan)
    : inner_(std::move(inner)), plan_(plan)
{
    PB_ASSERT(inner_ != nullptr, "fault injector needs an inner engine");
}

FaultStats
FaultInjectingEngine::faultStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

double
FaultInjectingEngine::applySchedule(const tuner::Config &config, int64_t n)
{
    const uint64_t key =
        mix(config.valueFingerprint() ^
            mix(static_cast<uint64_t>(n)) ^ mix(plan_.seed));

    bool faulted = false;
    bool hang = false;
    double scale = 1.0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.calls;
        if (plan_.transientRate > 0.0 &&
            draw(key, 1) < plan_.transientRate) {
            int attempt = ++attempts_[key];
            if (plan_.faultsPerKey < 0 || attempt <= plan_.faultsPerKey) {
                faulted = true;
                hang = plan_.hangRate > 0.0 &&
                       draw(key, 2) < plan_.hangRate;
                ++stats_.transients;
                if (hang)
                    ++stats_.hangs;
            }
        }
        if (!faulted && plan_.perturbRate > 0.0 &&
            draw(key, 3) < plan_.perturbRate) {
            ++stats_.perturbations;
            scale = plan_.perturbFactor;
        }
    }
    if (hang)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan_.hangMillis));
    if (faulted)
        PB_TRANSIENT("injected fault for evaluation key "
                     << key << (hang ? " (after hang)" : ""));
    return scale;
}

RunResult
FaultInjectingEngine::run(const apps::Benchmark &benchmark,
                          const tuner::Config &config, int64_t n)
{
    double scale = applySchedule(config, n);
    RunResult result = inner_->run(benchmark, config, n);
    result.seconds *= scale;
    return result;
}

double
FaultInjectingEngine::measure(const apps::Benchmark &benchmark,
                              const tuner::Config &config, int64_t n)
{
    double scale = applySchedule(config, n);
    return inner_->measure(benchmark, config, n) * scale;
}

std::string
FaultInjectingEngine::name() const
{
    return "fault:" + inner_->name();
}

bool
FaultInjectingEngine::supports(const apps::Benchmark &benchmark) const
{
    return inner_->supports(benchmark);
}

void
FaultInjectingEngine::configureTuner(tuner::TunerOptions &options) const
{
    inner_->configureTuner(options);
}

bool
FaultInjectingEngine::concurrentInstancesSafe(
    const apps::Benchmark &benchmark) const
{
    return inner_->concurrentInstancesSafe(benchmark);
}

uint64_t
FaultInjectingEngine::cacheScope(const apps::Benchmark &benchmark) const
{
    uint64_t scope = inner_->cacheScope(benchmark);
    if (plan_.perturbRate > 0.0)
        scope = Fnv1a()
                    .mix(std::string("perturbed"))
                    .mix(scope)
                    .mix(plan_.seed)
                    .mix(plan_.perturbRate)
                    .mix(plan_.perturbFactor)
                    .value();
    return scope;
}

} // namespace engine
} // namespace petabricks
