/**
 * @file
 * Shared glue mapping tuner configurations onto stage placements.
 *
 * Convention used by the transform-style benchmarks: a backend selector
 * named "<Rule>.backend" whose algorithm ids are the
 * compiler::Backend enumerators (CPU, OpenCL global memory, OpenCL +
 * local memory), plus tunables "<Rule>.lws" (local work size),
 * "<Rule>.ratio" (GPU-CPU workload ratio in eighths), and a
 * per-benchmark "<Bench>.split" (CPU chunking) — the Section 5.3
 * choice encoding.
 */

#ifndef PETABRICKS_BENCHMARKS_BACKEND_UTIL_H
#define PETABRICKS_BENCHMARKS_BACKEND_UTIL_H

#include <string>

#include "compiler/backend.h"
#include "tuner/config.h"

namespace petabricks {
namespace apps {

/** Selector algorithm id of a backend (selectors store plain ints). */
inline int
backendAlg(compiler::Backend backend)
{
    return static_cast<int>(backend);
}

/** Number of backends a rule can choose from. */
inline constexpr int kBackendCount = 3;

/** Register the standard per-rule choice structure on @p config. */
inline void
addBackendChoices(tuner::Config &config, const std::string &rule,
                  bool hasLocalVariant)
{
    config.addSelector(tuner::Selector(
        rule + ".backend", hasLocalVariant ? kBackendCount : 2,
        backendAlg(compiler::Backend::Cpu)));
    config.addTunable({rule + ".lws", 1, 1024, 64, false});
    config.addTunable({rule + ".ratio", 0, 8, 8, false});
}

/**
 * Resolved positions of one rule's choice structure within a Config —
 * the fast path's replacement for by-name lookups. Valid for every
 * configuration sharing the seed's structure (mutation never adds or
 * removes selectors/tunables), so an evaluation context resolves them
 * once per batch.
 */
struct StageChoiceIds
{
    size_t backend = 0; // selector "<Rule>.backend"
    size_t lws = 0;     // tunable "<Rule>.lws"
    size_t ratio = 0;   // tunable "<Rule>.ratio"
};

/** Resolve the standard per-rule choice structure of @p rule. */
inline StageChoiceIds
stageChoiceIds(const tuner::Config &config, const std::string &rule)
{
    return {config.selectorIndex(rule + ".backend"),
            config.tunableIndex(rule + ".lws"),
            config.tunableIndex(rule + ".ratio")};
}

/** stageFor() via pre-resolved positions (no string construction). */
inline compiler::StageConfig
stageForIds(const tuner::Config &config, const StageChoiceIds &ids,
            int64_t n, int cpuSplit)
{
    int alg = config.selectorAt(ids.backend).select(n);
    PB_ASSERT(alg >= 0 && alg < kBackendCount,
              "bad backend algorithm " << alg);
    compiler::StageConfig stage;
    stage.backend = static_cast<compiler::Backend>(alg);
    stage.localWorkSize =
        static_cast<int>(config.tunableValueAt(ids.lws));
    stage.gpuRatioEighths =
        static_cast<int>(config.tunableValueAt(ids.ratio));
    stage.cpuSplit = cpuSplit;
    return stage;
}

/** Build the stage placement the configuration selects at size @p n. */
inline compiler::StageConfig
stageFor(const tuner::Config &config, const std::string &rule, int64_t n,
         int cpuSplit)
{
    int alg = config.selector(rule + ".backend").select(n);
    PB_ASSERT(alg >= 0 && alg < kBackendCount,
              "bad backend algorithm " << alg << " for rule '" << rule
                                       << "'");
    compiler::StageConfig stage;
    stage.backend = static_cast<compiler::Backend>(alg);
    stage.localWorkSize =
        static_cast<int>(config.tunableValue(rule + ".lws"));
    stage.gpuRatioEighths =
        static_cast<int>(config.tunableValue(rule + ".ratio"));
    stage.cpuSplit = cpuSplit;
    return stage;
}

/** Human-readable backend description for the Figure 6 table. */
inline std::string
describeStage(const compiler::StageConfig &stage)
{
    std::string name = compiler::backendName(stage.backend);
    if (stage.backend == compiler::Backend::Cpu ||
        stage.gpuRatioEighths >= 8)
        return name;
    // A partial GPU ratio computes the rest concurrently on the CPU.
    int gpuPercent = stage.gpuRatioEighths * 100 / 8;
    std::string split =
        name + " " + std::to_string(gpuPercent) + "%";
    if (stage.backend == compiler::Backend::OpenClGlobal)
        split += " / CPU " + std::to_string(100 - gpuPercent) + "%";
    return split;
}

/** Kernel source ids a stage JIT-compiles under the Section 5.4 model. */
inline void
appendKernelSources(std::vector<std::string> &sources,
                    const compiler::StageConfig &stage,
                    const std::string &rule)
{
    if (stage.backend == compiler::Backend::OpenClGlobal)
        sources.push_back("pbcl:" + rule + ":global");
    else if (stage.backend == compiler::Backend::OpenClLocal)
        sources.push_back("pbcl:" + rule + ":local");
}

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_BACKEND_UTIL_H
