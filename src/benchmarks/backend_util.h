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

#include "benchmarks/benchmark.h"
#include "compiler/backend.h"
#include "compiler/eval_context.h"
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
 * Resolved positions of one rule's choice structure within a schema —
 * the fast path's replacement for by-name lookups. Valid for every
 * configuration of the benchmark (mutation never adds or removes
 * selectors/tunables), so a benchmark resolves them once, in its
 * constructor.
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

/** The backend the rule's selector picks at size @p n. */
inline compiler::Backend
backendAt(const tuner::Config &config, const StageChoiceIds &ids,
          int64_t n)
{
    int alg = config.selectorAt(ids.backend).select(n);
    PB_ASSERT(alg >= 0 && alg < kBackendCount,
              "bad backend algorithm " << alg);
    return static_cast<compiler::Backend>(alg);
}

/** stageFor() via pre-resolved positions (no string construction). */
inline compiler::StageConfig
stageForIds(const tuner::Config &config, const StageChoiceIds &ids,
            int64_t n, int cpuSplit)
{
    compiler::StageConfig stage;
    stage.backend = backendAt(config, ids, n);
    stage.localWorkSize =
        static_cast<int>(config.tunableValueAt(ids.lws));
    stage.gpuRatioEighths =
        static_cast<int>(config.tunableValueAt(ids.ratio));
    stage.cpuSplit = cpuSplit;
    return stage;
}

/** EvalContext of the simulator-backed benchmarks: a
 * compiler::EvaluationContext over the benchmark's TransformAnalysis. */
struct SimEvalContext : EvalContext, compiler::EvaluationContext
{
    using compiler::EvaluationContext::EvaluationContext;
};

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

/**
 * The kernel source names one rule's OpenCL variants JIT-compile under
 * the Section 5.4 model, built once per rule (in the benchmark's
 * constructor) so that kernelSources() only copies them.
 */
struct KernelNames
{
    std::string global;
    std::string local;

    explicit KernelNames(const std::string &rule)
        : global("pbcl:" + rule + ":global"), local("pbcl:" + rule + ":local")
    {}
};

/** Append the kernel source a stage on @p backend JIT-compiles. */
inline void
appendKernelSources(std::vector<std::string> &sources,
                    compiler::Backend backend, const KernelNames &names)
{
    if (backend == compiler::Backend::OpenClGlobal)
        sources.push_back(names.global);
    else if (backend == compiler::Backend::OpenClLocal)
        sources.push_back(names.local);
}

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_BACKEND_UTIL_H
