/**
 * Option pricing: price a portfolio of European calls with the
 * Black-Scholes transform, splitting the work between the CPU workers
 * and the (emulated) GPU with the paper's ratio mechanism — executed
 * through the RuntimeEngine.
 *
 * Build & run:  ./build/option_pricing
 */

#include <iostream>

#include "benchmarks/backend_util.h"
#include "benchmarks/blackscholes.h"
#include "engine/execution_engine.h"

using namespace petabricks;
using namespace petabricks::apps;

int
main()
{
    const int64_t options = 40000;
    BlackScholesBenchmark bench;
    Rng rng(7);

    // The Laptop-style configuration: 75% of the portfolio priced on
    // the GPU, 25% concurrently on the CPU workers.
    tuner::Config config = bench.seedConfig();
    config.selector("BlackScholes.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::OpenClGlobal));
    config.setTunable("BlackScholes.ratio", 6);

    engine::RuntimeEngineOptions engineOptions;
    engineOptions.machine = sim::MachineProfile::laptop();
    engine::RuntimeEngine engine(engineOptions);

    lang::Binding binding = bench.makeBinding(options, rng);
    engine::RunResult run =
        engine.runOnBinding(bench, config, options, binding);

    const MatrixD &price = binding.matrix("Price");
    double total = 0.0;
    for (int64_t i = 0; i < price.size(); ++i)
        total += price[i];
    std::cout << "priced " << options << " options, portfolio value "
              << total << ", max error vs reference " << run.maxError
              << "\n";

    auto stats = engine.runtime().gpuMemory().statsSnapshot();
    std::cout << "GPU memory table: " << stats.copyInsPerformed
              << " copy-ins, " << stats.lazyCopyOuts
              << " lazy copy-outs\n";
    std::cout << "GPU/CPU split: 75% / 25% (ratio 6/8, the paper's "
                 "Laptop-style configuration)\n";
    return 0;
}
