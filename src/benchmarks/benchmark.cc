#include "benchmarks/benchmark.h"

#include <atomic>

#include "engine/execution_engine.h"
#include "tuner/session.h"

namespace petabricks {
namespace apps {

uint64_t
Benchmark::nextInstanceId()
{
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

// ---- Default real-mode surface (benchmarks must opt in) ----------------

const lang::Transform &
Benchmark::transform() const
{
    PB_FATAL("benchmark '" << name()
                           << "' has no real-mode transform");
}

lang::Binding
Benchmark::makeBinding(int64_t n, Rng &rng) const
{
    (void)n;
    (void)rng;
    PB_FATAL("benchmark '" << name()
                           << "' has no real-mode binding");
}

compiler::TransformConfig
Benchmark::planFor(const tuner::Config &config, int64_t n) const
{
    (void)config;
    (void)n;
    PB_FATAL("benchmark '" << name() << "' has no real-mode plan");
}

double
Benchmark::checkOutput(const lang::Binding &binding) const
{
    (void)binding;
    PB_FATAL("benchmark '" << name()
                           << "' has no real-mode reference check");
}

// ---- Engine-driven autotuning ------------------------------------------

tuner::TuningResult
tuneWithEngine(const Benchmark &benchmark,
               engine::ExecutionEngine &engine,
               tuner::TunerOptions options)
{
    if (!engine.supports(benchmark))
        PB_FATAL("engine '" << engine.name()
                            << "' cannot evaluate benchmark '"
                            << benchmark.name() << "'");
    engine::EngineEvaluator evaluator(benchmark, engine);
    tuner::TuningSession session(evaluator, benchmark.seedConfig(),
                                 options);
    return session.run();
}

tuner::TuningResult
tuneWithEngine(const Benchmark &benchmark,
               engine::ExecutionEngine &engine, uint64_t seed)
{
    tuner::TunerOptions options;
    options.seed = seed;
    options.minInputSize = benchmark.minTuningSize();
    options.maxInputSize = benchmark.testingInputSize();
    engine.configureTuner(options);
    return tuneWithEngine(benchmark, engine, options);
}

tuner::TuningResult
tuneOnMachine(const Benchmark &benchmark,
              const sim::MachineProfile &machine, uint64_t seed)
{
    engine::ModelEngine engine(machine);
    return tuneWithEngine(benchmark, engine,
                          seed ^ std::hash<std::string>()(machine.name));
}

} // namespace apps
} // namespace petabricks
