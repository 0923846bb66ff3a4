/**
 * Poly-algorithm sorting: build the paper's Desktop-style sort
 * configuration (2-way merge sort at the top, quicksort in the middle,
 * 4-way merge sort lower, insertion sort at the base) with selectors,
 * run it through the RuntimeEngine, and compare algorithm choices with
 * the ModelEngine.
 *
 * Build & run:  ./build/poly_sort
 */

#include <iostream>

#include "benchmarks/sort.h"
#include "engine/execution_engine.h"

using namespace petabricks;
using namespace petabricks::apps;

int
main()
{
    SortBenchmark bench;

    // The paper's Desktop config: "above 174762 2MS (PM), then QS
    // until 64294, then 4MS until 341, then IS" (Figure 6).
    tuner::Config config = bench.seedConfig();
    tuner::SelectorRef s = config.selector("Sort.algorithm");
    s.setAlgorithm(0, kSortInsertion);
    s.insertLevel(341, kSortMerge4);
    s.insertLevel(64294, kSortQuick);
    s.insertLevel(174762, kSortMerge2);

    const int64_t n = 500000;
    engine::RuntimeEngine real;
    engine::RunResult run = real.run(bench, config, n);
    std::cout << "poly-algorithm sort of " << n << " doubles: "
              << (run.maxError <= bench.realModeTolerance() ? "correct"
                                                            : "WRONG")
              << " (" << run.seconds * 1e3 << " ms measured)\n";
    std::cout << "configuration: " << bench.describeConfig(config, n)
              << "\n";

    // Compare modeled cost against single-algorithm configs per machine.
    for (const auto &machine : sim::MachineProfile::all()) {
        engine::ModelEngine model(machine);
        tuner::Config merge = bench.seedConfig();
        merge.selector("Sort.algorithm").setAlgorithm(0, kSortMerge2);
        double poly = model.run(bench, config, 1 << 20).seconds;
        double mono = model.run(bench, merge, 1 << 20).seconds;
        double gpu = model.run(bench, SortBenchmark::gpuOnlyConfig(),
                               1 << 20).seconds;
        std::cout << machine.name << ": poly " << poly * 1e3
                  << " ms, pure 2MS " << mono * 1e3
                  << " ms, GPU bitonic " << gpu * 1e3 << " ms\n";
    }
    return 0;
}
