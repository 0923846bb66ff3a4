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
 * Slot extents of a transform over n cells whose @p slots all take one
 * near-square shape, so that a GPU ratio splits rows (Black-Scholes,
 * Mandelbrot).
 */
inline std::vector<compiler::SlotExtent>
nearSquareExtents(int64_t n, size_t slots)
{
    int64_t rows = static_cast<int64_t>(
        std::sqrt(static_cast<double>(std::max<int64_t>(n, 1))));
    rows = std::max<int64_t>(rows, 1);
    return std::vector<compiler::SlotExtent>(slots,
                                             {(n + rows - 1) / rows, rows});
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
 * The kernel sources of @p analysis's rules (Section 5.4), at
 * 2 * RuleEvalInfo::id: "pbcl:<Rule>:global", then ":local". A
 * simulator-backed benchmark builds them once, in its constructor.
 */
inline std::vector<std::string>
stageKernelNames(const compiler::TransformAnalysis &analysis)
{
    std::vector<std::string> names(2 * analysis.ruleCount);
    for (const std::vector<compiler::RuleEvalInfo> &rules : analysis.choices)
        for (const compiler::RuleEvalInfo &rule : rules) {
            names[2 * rule.id] = "pbcl:" + rule.rule->name() + ":global";
            names[2 * rule.id + 1] = "pbcl:" + rule.rule->name() + ":local";
        }
    return names;
}

/**
 * The distinct kernel sources @p plan launches at slot extents
 * @p extents, in stage order: a stage's, from @p names, only when the
 * simulator gives the stage GPU rows.
 */
inline std::vector<std::string>
stageKernelSources(const compiler::TransformAnalysis &analysis,
                   const std::vector<std::string> &names,
                   const compiler::TransformConfig &plan,
                   const std::vector<compiler::SlotExtent> &extents)
{
    std::vector<std::string> sources;
    for (const compiler::RuleEvalInfo &rule :
         analysis.choices[plan.choiceIndex]) {
        const compiler::StageConfig &stage = plan.stage(rule.ruleIndex);
        const size_t out = static_cast<size_t>(rule.outputSlotId);
        if (stage.gpuRows(extents[out].second) <= 0)
            continue; // the simulator runs it wholly on the CPU
        const std::string &name =
            names[2 * rule.id +
                  (stage.backend == compiler::Backend::OpenClLocal ? 1 : 0)];
        if (std::find(sources.begin(), sources.end(), name) == sources.end())
            sources.push_back(name);
    }
    return sources;
}

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_BACKEND_UTIL_H
