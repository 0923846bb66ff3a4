#include "engine/execution_engine.h"

#include <chrono>
#include <thread>

#include "support/error.h"
#include "support/hash.h"
#include "support/logging.h"

namespace petabricks {
namespace engine {

// ---- ExecutionEngine failure policy ------------------------------------

void
retryBackoffSleep(int attempt)
{
    constexpr int64_t kBackoffMaxMillis = 50;
    int64_t millis = 1;
    for (int i = 1; i < attempt && millis < kBackoffMaxMillis; ++i)
        millis *= 2;
    millis = std::min(millis, kBackoffMaxMillis);
    std::this_thread::sleep_for(std::chrono::milliseconds(millis));
}

uint64_t
ExecutionEngine::cacheScope(const apps::Benchmark &benchmark) const
{
    return Fnv1a().mix(name()).mix(benchmark.name()).value();
}

EngineFailureStats
ExecutionEngine::failureStats() const
{
    EngineFailureStats stats;
    stats.transientFailures = transientFailures_.load();
    stats.retries = retries_.load();
    stats.evaluationFailures = evaluationFailures_.load();
    return stats;
}

double
ExecutionEngine::guarded(const std::function<double()> &evaluate)
{
    for (int attempt = 1;; ++attempt) {
        try {
            return evaluate();
        } catch (const TransientError &error) {
            // Environment fault, not a property of the configuration:
            // retry within budget, then surface the NaN sentinel so the
            // caller prices it as worst cost without caching it.
            transientFailures_.fetch_add(1);
            if (attempt >= kMaxAttempts) {
                evaluationFailures_.fetch_add(1);
                PB_WARN("evaluation failed after "
                        << attempt << " attempts: " << error.what());
                return std::numeric_limits<double>::quiet_NaN();
            }
            retries_.fetch_add(1);
            retryBackoffSleep(attempt);
        } catch (const FatalError &) {
            // Infeasible configuration: deterministic, never retried.
            return std::numeric_limits<double>::infinity();
        }
    }
}

double
ExecutionEngine::measureGuarded(const apps::Benchmark &benchmark,
                                const tuner::Config &config, int64_t n)
{
    return guarded([&] { return measure(benchmark, config, n); });
}

// ---- ExecutionEngine batch default -------------------------------------

std::vector<double>
ExecutionEngine::measureBatch(const apps::Benchmark &benchmark,
                              std::span<const tuner::Config> configs,
                              int64_t n)
{
    std::vector<double> seconds;
    seconds.reserve(configs.size());
    for (const tuner::Config &config : configs)
        seconds.push_back(measureGuarded(benchmark, config, n));
    return seconds;
}

// ---- ModelEngine -------------------------------------------------------

const apps::EvalContext *
ModelEngine::contextFor(const apps::Benchmark &benchmark, int64_t n)
{
    if (ctxBenchmarkId_ != benchmark.instanceId() || ctxN_ != n) {
        ctx_ = benchmark.makeEvalContext(n, machine_);
        ctxBenchmarkId_ = benchmark.instanceId();
        ctxN_ = n;
    }
    return ctx_.get();
}

RunResult
ModelEngine::run(const apps::Benchmark &benchmark,
                 const tuner::Config &config, int64_t n)
{
    RunResult result;
    result.seconds =
        benchmark.evaluate(config, n, machine_, contextFor(benchmark, n));
    result.kernelCount =
        static_cast<int>(benchmark.kernelSources(config, n).size());
    return result;
}

ThreadPool &
ModelEngine::pool()
{
    if (!pool_) {
        int threads = parallelism_;
        if (threads <= 0)
            threads =
                static_cast<int>(std::thread::hardware_concurrency());
        if (threads < 1)
            threads = 1;
        pool_ = std::make_unique<ThreadPool>(threads);
    }
    return *pool_;
}

std::vector<double>
ModelEngine::measureBatch(const apps::Benchmark &benchmark,
                          std::span<const tuner::Config> configs,
                          int64_t n)
{
    // Resolve the shared context on the caller's thread: the memo is
    // not touched inside the parallel region.
    const apps::EvalContext *ctx = contextFor(benchmark, n);
    std::vector<double> seconds(configs.size(), 0.0);
    pool().parallelFor(configs.size(), [&](size_t i) {
        // guarded() prices infeasible configs as +inf and absorbs
        // transient faults (retry, then the NaN sentinel) — same
        // failure semantics as the serial default.
        seconds[i] = guarded(
            [&] { return benchmark.evaluate(configs[i], n, machine_, ctx); });
    });
    return seconds;
}

void
ModelEngine::configureTuner(tuner::TunerOptions &options) const
{
    options.kernelCompileSeconds = machine_.kernelCompileSeconds;
    options.irCacheSavings = machine_.irCacheSavings;
}

uint64_t
ModelEngine::cacheScope(const apps::Benchmark &benchmark) const
{
    return Fnv1a()
        .mix(std::string("model"))
        .mix(machine_.fingerprint())
        .mix(benchmark.name())
        .value();
}

// ---- RuntimeEngine -----------------------------------------------------

/** Seed for the runtime and for the random input bindings runs are
 * checked on. */
constexpr uint64_t kBindingSeed = 20130316;

RuntimeEngine::RuntimeEngine(RuntimeEngineOptions options)
    : options_(std::move(options))
{
    if (options_.machine.hasOpenCL)
        device_ = std::make_unique<ocl::Device>(options_.machine.ocl);
    runtime_ = std::make_unique<runtime::Runtime>(
        options_.workers, device_.get(), kBindingSeed);
    executor_ = std::make_unique<compiler::TransformExecutor>(*runtime_);
}

RuntimeEngine::~RuntimeEngine() = default;

RuntimeEngine::SerialGuard::SerialGuard(RuntimeEngine &engine)
    : engine_(engine)
{
    if (engine_.running_.exchange(true))
        PB_FATAL("RuntimeEngine is serial-per-engine: a run is already "
                 "in flight on '"
                 << engine_.name()
                 << "'; fan batches across instances with EnginePool");
}

RuntimeEngine::SerialGuard::~SerialGuard()
{
    engine_.running_.store(false);
}

std::string
RuntimeEngine::name() const
{
    return "runtime:" + options_.machine.name +
           (device_ ? "" : " (CPU-only)");
}

RunResult
RuntimeEngine::run(const apps::Benchmark &benchmark,
                   const tuner::Config &config, int64_t n)
{
    if (!benchmark.supportsRealMode())
        PB_FATAL("benchmark '" << benchmark.name()
                               << "' has no real-mode implementation");
    Rng rng(kBindingSeed ^ static_cast<uint64_t>(n));
    lang::Binding binding = benchmark.makeBinding(n, rng);
    return runOnBinding(benchmark, config, n, binding);
}

RunResult
RuntimeEngine::runOnBinding(const apps::Benchmark &benchmark,
                            const tuner::Config &config, int64_t n,
                            lang::Binding &binding)
{
    if (!benchmark.supportsRealMode())
        PB_FATAL("benchmark '" << benchmark.name()
                               << "' has no real-mode implementation");
    SerialGuard guard(*this);

    // planFor() both builds the stage placement and arms the choice
    // file the function-style transforms dispatch on.
    compiler::TransformConfig plan = benchmark.planFor(config, n);

    auto start = std::chrono::steady_clock::now();
    executor_->execute(benchmark.transform(), binding, plan);
    executor_->syncOutputs(benchmark.transform(), binding);
    auto stop = std::chrono::steady_clock::now();

    RunResult result;
    result.seconds =
        std::chrono::duration<double>(stop - start).count();
    result.maxError = benchmark.checkOutput(binding);
    result.kernelCount =
        static_cast<int>(benchmark.kernelSources(config, n).size());
    return result;
}

} // namespace engine
} // namespace petabricks
