/**
 * Figure 7(a): Black-Scholes — the three autotuned configs plus the
 * CPU-only baseline, cross-run on all machines (normalized; lower is
 * better).
 */

#include <iostream>

#include "benchmarks/backend_util.h"
#include "benchmarks/blackscholes.h"
#include "common.h"

using namespace petabricks;
using namespace petabricks::apps;

int
main()
{
    std::cout << "=== Figure 7(a): Black-Scholes (n=500000) ===\n";
    BlackScholesBenchmark bench;
    auto configs = bench::tuneAllMachines(bench);
    configs.push_back(
        {"CPU-only Config", BlackScholesBenchmark::cpuOnlyConfig()});
    bench::printCrossTable(bench, configs);
    bench::printConfigSummaries(bench, configs);

    // The paper's Laptop finding: a 25%/75% CPU/GPU split gives ~1.3x
    // over GPU-only on Laptop and a large slowdown on Desktop.
    tuner::Config gpuOnly = bench.seedConfig();
    gpuOnly.selector("BlackScholes.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::OpenClGlobal));
    tuner::Config split = gpuOnly;
    split.setTunable("BlackScholes.ratio", 6);
    auto laptop = sim::MachineProfile::laptop();
    auto desktop = sim::MachineProfile::desktop();
    int64_t n = bench.testingInputSize();
    std::cout << "\nSplit (75% GPU / 25% CPU) vs GPU-only:\n"
              << "  Laptop speedup:   "
              << TextTable::num(bench.evaluate(gpuOnly, n, laptop) /
                                    bench.evaluate(split, n, laptop), 2)
              << "x (paper: 1.3x)\n"
              << "  Desktop slowdown: "
              << TextTable::num(bench.evaluate(split, n, desktop) /
                                    bench.evaluate(gpuOnly, n, desktop),
                                2)
              << "x (paper: 7x)\n";
    return 0;
}
