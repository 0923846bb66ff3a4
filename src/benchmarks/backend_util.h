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
 *
 * Each simulator-backed benchmark resolves these positions once, in its
 * constructor, and builds every stage placement through stageAt(). The
 * resulting plan is the one walk of its model: the simulator prices it,
 * stageKernelSources() lists the kernels it launches (a stage's, only
 * when the stage gets GPU rows, as in the simulator and the executor),
 * and describeStage() renders each stage for Figure 6.
 */

#ifndef PETABRICKS_BENCHMARKS_BACKEND_UTIL_H
#define PETABRICKS_BENCHMARKS_BACKEND_UTIL_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "benchmarks/benchmark.h"
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

/** Register the standard per-rule choice structure on @p schema. */
inline void
addBackendChoices(tuner::ConfigSchema::Builder &schema,
                  const std::string &rule, bool hasLocalVariant)
{
    schema.addSelector(rule + ".backend",
                       hasLocalVariant ? kBackendCount : 2,
                       backendAlg(compiler::Backend::Cpu));
    schema.addTunable({rule + ".lws", 1, 1024, 64, false});
    schema.addTunable({rule + ".ratio", 0, 8, 8, false});
}

/**
 * Resolved positions of one rule's choice structure within a schema.
 * Valid for every configuration of the benchmark (mutation never adds
 * or removes selectors/tunables), so a benchmark resolves them once, in
 * its constructor, and its plans and kernel lists read values by
 * position.
 */
struct StageChoiceIds
{
    size_t backend = 0; // selector "<Rule>.backend"
    size_t lws = 0;     // tunable "<Rule>.lws"
    size_t ratio = 0;   // tunable "<Rule>.ratio"
};

/** Resolve the standard per-rule choice structure of @p rule. */
inline StageChoiceIds
stageChoiceIds(const tuner::ConfigSchema &schema, const std::string &rule)
{
    return {schema.selectorIndex(rule + ".backend"),
            schema.tunableIndex(rule + ".lws"),
            schema.tunableIndex(rule + ".ratio")};
}

/** The stage placement the rule's choices select at size @p n. */
inline compiler::StageConfig
stageAt(const tuner::Config &config, const StageChoiceIds &ids, int64_t n,
        int cpuSplit)
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

/**
 * The one near-square shape of a transform over n cells whose slots
 * all take it, so that a GPU ratio splits rows (Black-Scholes,
 * Mandelbrot).
 */
inline compiler::SlotExtent
nearSquareExtent(int64_t n)
{
    int64_t rows = static_cast<int64_t>(
        std::sqrt(static_cast<double>(std::max<int64_t>(n, 1))));
    rows = std::max<int64_t>(rows, 1);
    return {(n + rows - 1) / rows, rows};
}

/** Slot extents of @p slots slots that all take nearSquareExtent(n). */
inline std::vector<compiler::SlotExtent>
nearSquareExtents(int64_t n, size_t slots)
{
    return std::vector<compiler::SlotExtent>(slots, nearSquareExtent(n));
}

/** Human-readable backend description for the Figure 6 table. */
inline std::string
describeStage(const compiler::StageConfig &stage)
{
    // At ratio 0 an OpenCL stage gets no GPU rows: it runs on the CPU.
    if (stage.backend == compiler::Backend::Cpu ||
        stage.gpuRatioEighths == 0)
        return compiler::backendName(compiler::Backend::Cpu);
    std::string name = compiler::backendName(stage.backend);
    if (stage.gpuRatioEighths >= 8)
        return name;
    // A partial GPU ratio computes the rest concurrently on the CPU.
    int gpuPercent = stage.gpuRatioEighths * 100 / 8;
    name += " " + std::to_string(gpuPercent) + "%";
    if (stage.backend == compiler::Backend::OpenClGlobal)
        name += " / CPU " + std::to_string(100 - gpuPercent) + "%";
    return name;
}

/**
 * The kernel sources of a transform's rules (Section 5.4): each
 * distinct "pbcl:<Rule>:global" and ":local" name once, and for each
 * rule variant, at 2 * RuleEvalInfo::id (+1 for local), the position
 * of its name. Rules that share a name (Poisson's per-iteration
 * updates) share a position, so a list dedups by a bitmask. A
 * simulator-backed benchmark builds it once, in its constructor.
 */
struct StageKernelNames
{
    std::vector<std::string> names;
    std::vector<uint8_t> position;
};

inline StageKernelNames
stageKernelNames(const compiler::TransformAnalysis &analysis)
{
    StageKernelNames kernels;
    kernels.position.resize(2 * analysis.ruleCount);
    for (const std::vector<compiler::RuleEvalInfo> &rules : analysis.choices)
        for (const compiler::RuleEvalInfo &rule : rules)
            for (size_t local = 0; local < 2; ++local) {
                const std::string name = "pbcl:" + rule.rule->name() +
                                         (local ? ":local" : ":global");
                auto it = std::find(kernels.names.begin(),
                                    kernels.names.end(), name);
                if (it == kernels.names.end())
                    it = kernels.names.insert(it, name);
                kernels.position[2 * rule.id + local] =
                    static_cast<uint8_t>(it - kernels.names.begin());
            }
    PB_ASSERT(kernels.names.size() <= 64,
              "a kernel list dedups by a 64-bit mask");
    return kernels;
}

/**
 * The distinct kernel sources @p plan launches, in stage order: a
 * stage's, from @p kernels, only when the simulator gives the stage
 * GPU rows. @p extentOf(slot id) is the slot's (w, h). Allocates only
 * the returned list.
 */
template <typename ExtentOf>
std::vector<std::string>
stageKernelSources(const compiler::TransformAnalysis &analysis,
                   const StageKernelNames &kernels,
                   const compiler::TransformConfig &plan, ExtentOf extentOf)
{
    uint8_t listed[64];
    size_t count = 0;
    uint64_t seen = 0;
    for (const compiler::RuleEvalInfo &rule :
         analysis.choices[plan.choiceIndex]) {
        const compiler::StageConfig &stage = plan.stage(rule.ruleIndex);
        if (stage.gpuRows(extentOf(rule.outputSlotId).second) <= 0)
            continue; // the simulator runs it wholly on the CPU
        const uint8_t at =
            kernels.position[2 * rule.id +
                             (stage.backend == compiler::Backend::OpenClLocal
                                  ? 1
                                  : 0)];
        if (seen >> at & 1)
            continue;
        seen |= uint64_t{1} << at;
        listed[count++] = at;
    }
    std::vector<std::string> sources;
    sources.reserve(count);
    for (size_t i = 0; i < count; ++i)
        sources.push_back(kernels.names[listed[i]]);
    return sources;
}

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_BACKEND_UTIL_H
