/**
 * @file
 * Registry of the paper's seven benchmarks, in Figure 8 order, plus
 * Mandelbrot.
 */

#ifndef PETABRICKS_BENCHMARKS_REGISTRY_H
#define PETABRICKS_BENCHMARKS_REGISTRY_H

#include <vector>

#include "benchmarks/benchmark.h"

namespace petabricks {
namespace apps {

/** All eight benchmarks, in the paper's table order. */
std::vector<BenchmarkPtr> allBenchmarks();

/**
 * Fresh instance of the benchmark whose display name is @p name
 * (case-insensitive; "Black-Scholes", "Sort", ...); constructs only
 * that one. Fatal error with the list of known names when no benchmark
 * matches — this is the service's `create` lookup, so the message is
 * user-facing.
 */
BenchmarkPtr findBenchmark(const std::string &name);

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_REGISTRY_H
