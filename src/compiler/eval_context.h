/**
 * @file
 * Config-invariant precomputation for model-mode evaluation, in two
 * tiers by lifetime.
 *
 * A TransformAnalysis depends on the transform alone: interned slot
 * ids, each choice's execution order, per-rule slot ids, admissibility,
 * the copy-out classification's reader lists and access-shape classes.
 * A benchmark builds it once, in its constructor. An EvaluationContext
 * binds it to one (slot extents, params, machine) with O(rules)
 * arithmetic — flops-per-point, region-rule costs and the
 * shared-bandwidth CPU spec — so the autotuner can build one per
 * generation and the dispatcher one per query, and the per-config inner
 * loop (simulateTransform(ctx, config)) touches nothing but dense
 * arrays.
 *
 * Thread safety: both tiers are immutable once built, so one context
 * may be shared by all threads of a parallel batch (engine::ModelEngine's
 * pool); per-evaluation scratch lives in thread-local workspaces inside
 * the simulator.
 */

#ifndef PETABRICKS_COMPILER_EVAL_CONTEXT_H
#define PETABRICKS_COMPILER_EVAL_CONTEXT_H

#include <memory>
#include <utility>
#include <vector>

#include "compiler/admissibility.h"
#include "compiler/data_movement.h"
#include "compiler/rule_cost.h"
#include "sim/machine.h"
#include "support/slot_table.h"

namespace petabricks {
namespace compiler {

/** Transform-invariant data of one rule, in execution-order position. */
struct RuleEvalInfo
{
    /** Index into the choice's rule list (StagePlan::ruleIndex). */
    size_t ruleIndex = 0;

    /** Index of the rule's per-context data (rules of all choices). */
    size_t id = 0;

    lang::RulePtr rule;

    int outputSlotId = -1;
    std::vector<int> inputSlotIds; // aligned with rule->inputSlots()

    /** Phase 1-2 conversion analysis (planStages' per-config work). */
    Admissibility admissibility;

    /** True if the output slot is a transform output (may-copy-out). */
    bool writesTransformOutput = false;

    /** Execution-order positions of later rules reading this rule's
     * output — the copy-out classification's reader scan. */
    std::vector<size_t> readersAfter;

    /** Access-shape class: shared by point rules with equal access
     * patterns (slot names aside) and GPU cache hit rates, so with equal
     * stage costs wherever flops and slot extents agree; -1 for region
     * rules. */
    int shapeClass = -1;
};

/** Per-transform tier (see file comment); shared as const. */
struct TransformAnalysis
{
    explicit TransformAnalysis(const lang::Transform &transform);

    /** Slot ids; id i is the transform's i-th declared slot. */
    SlotTable slots;

    /** Slot ids of the transform's outputs (final lazy copy-out). */
    std::vector<int> outputSlotIds;

    /** Per choice, its rules in a valid execution order. */
    std::vector<std::vector<RuleEvalInfo>> choices;

    /** Rules across all choices (RuleEvalInfo::id is below this). */
    size_t ruleCount = 0;

    /** Access-shape classes (RuleEvalInfo::shapeClass is below this). */
    int shapeClassCount = 0;
};

using TransformAnalysisPtr = std::shared_ptr<const TransformAnalysis>;

/** (w, h) of one slot. */
using SlotExtent = std::pair<int64_t, int64_t>;

/** Per-(extents, params, machine) data of one rule. */
struct RuleSizing
{
    double flopsPerPoint = 0.0; // point rules

    /** Region rules: native cost of the whole output, priced once. */
    bool regionSequential = false;
    double regionSeconds = 0.0;

    /** Point rules: the key of the rule's stage costs in the simulator's
     * memos. Its shape class when its flops and extents match the
     * class's first rule, else a class of its own. */
    int costClass = -1;
};

/** Per-(n, machine) tier (see file comment). */
class EvaluationContext
{
  public:
    /**
     * @param analysis the transform's analysis, kept alive.
     * @param extents (w, h) of every slot, indexed by slot id.
     * @param params bound transform parameters.
     * @param machine profile configurations are priced on (copied).
     */
    EvaluationContext(TransformAnalysisPtr analysis,
                      std::vector<SlotExtent> extents,
                      const lang::ParamEnv &params,
                      const sim::MachineProfile &machine);

    const TransformAnalysis &analysis() const { return *analysis_; }
    const sim::MachineProfile &machine() const { return machine_; }

    SlotExtent
    extent(int slot) const
    {
        return extents_[static_cast<size_t>(slot)];
    }

    const RuleSizing &
    sizing(const RuleEvalInfo &rule) const
    {
        return sizing_[rule.id];
    }

    /** machine().cpu with bandwidth split across concurrent workers
     * (the per-chunk pricing spec the simulator derives per call). */
    const sim::DeviceSpec &cpuSharedSpec() const { return cpuShared_; }

    /**
     * Process-unique id of this context instance. Thread-local
     * evaluation workspaces key their memo tables on it, so a stale
     * workspace can never serve results from a different context (a
     * freed context's address may be reused; its id never is).
     */
    uint64_t contextId() const { return contextId_; }

  private:
    TransformAnalysisPtr analysis_;
    sim::MachineProfile machine_;
    std::vector<SlotExtent> extents_; // by slot id
    std::vector<RuleSizing> sizing_;  // by RuleEvalInfo::id
    sim::DeviceSpec cpuShared_;
    uint64_t contextId_ = 0;
};

} // namespace compiler
} // namespace petabricks

#endif // PETABRICKS_COMPILER_EVAL_CONTEXT_H
