#include "compiler/eval_context.h"

#include <algorithm>
#include <atomic>

#include "sim/cost_model.h"
#include "support/error.h"

namespace petabricks {
namespace compiler {

namespace {

uint64_t
nextContextId()
{
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

/** Equal access patterns (slot names aside) and GPU cache hit rates:
 * all of a point rule that its stage costs read. */
bool
sameAccessShape(const lang::RuleDef &a, const lang::RuleDef &b)
{
    auto sameDims = [](const lang::AccessPattern &p,
                       const lang::AccessPattern &q) {
        return p.x == q.x && p.y == q.y;
    };
    return a.gpuCacheHitRate() == b.gpuCacheHitRate() &&
           std::equal(a.accesses().begin(), a.accesses().end(),
                      b.accesses().begin(), b.accesses().end(), sameDims);
}

} // namespace

TransformAnalysis::TransformAnalysis(const lang::Transform &transform)
{
    for (const lang::MatrixSlot &slot : transform.slots()) {
        int id = slots.intern(slot.name);
        if (slot.role == lang::SlotRole::Output)
            outputSlotIds.push_back(id);
    }

    std::vector<const lang::RuleDef *> shapeOf; // first rule per class
    for (size_t c = 0; c < transform.choices().size(); ++c) {
        lang::ChoiceDependencyGraph graph(transform, c);
        const lang::Choice &choice = transform.choiceAt(c);

        std::vector<RuleEvalInfo> rules;
        for (size_t ruleIndex : graph.executionOrder()) {
            const lang::RulePtr &rule = choice.rules[ruleIndex];
            RuleEvalInfo ri;
            ri.ruleIndex = ruleIndex;
            ri.id = ruleCount++;
            ri.rule = rule;
            ri.outputSlotId = slots.idOf(rule->outputSlot());
            for (const std::string &input : rule->inputSlots())
                ri.inputSlotIds.push_back(slots.idOf(input));
            if (rule->isPointRule()) {
                auto same = std::find_if(
                    shapeOf.begin(), shapeOf.end(),
                    [&](const lang::RuleDef *first) {
                        return sameAccessShape(*first, *rule);
                    });
                ri.shapeClass = static_cast<int>(same - shapeOf.begin());
                if (same == shapeOf.end())
                    shapeOf.push_back(rule.get());
            }
            ri.admissibility = analyzeRule(graph, ruleIndex);
            ri.writesTransformOutput =
                transform.slotRole(rule->outputSlot()) ==
                lang::SlotRole::Output;
            rules.push_back(std::move(ri));
        }

        for (size_t p = 0; p < rules.size(); ++p) {
            for (size_t q = p + 1; q < rules.size(); ++q) {
                const auto &inputs = rules[q].inputSlotIds;
                if (std::find(inputs.begin(), inputs.end(),
                              rules[p].outputSlotId) != inputs.end())
                    rules[p].readersAfter.push_back(q);
            }
        }

        choices.push_back(std::move(rules));
    }
    shapeClassCount = static_cast<int>(shapeOf.size());
}

EvaluationContext::EvaluationContext(TransformAnalysisPtr analysis,
                                     std::vector<SlotExtent> extents,
                                     const lang::ParamEnv &params,
                                     const sim::MachineProfile &machine)
    : analysis_(std::move(analysis)), params_(params), machine_(machine),
      extents_(std::move(extents)), sizing_(analysis_->ruleCount),
      contextId_(nextContextId())
{
    PB_ASSERT(extents_.size() == analysis_->slots.size(),
              extents_.size() << " slot extents for "
                              << analysis_->slots.size() << " slots");

    cpuShared_ = machine_.cpu;
    cpuShared_.memBandwidthGBs /= std::max(
        1, std::min(machine_.workerThreads, machine_.cpu.cores));

    // A point rule's stage costs are a function of its access shape,
    // flops and slot extents, so rules of one shape class share memo
    // entries when the latter two match the class's first rule.
    std::vector<const RuleEvalInfo *> firstOfClass(
        static_cast<size_t>(analysis_->shapeClassCount), nullptr);
    for (const std::vector<RuleEvalInfo> &rules : analysis_->choices) {
        for (const RuleEvalInfo &ri : rules) {
            RuleSizing &sizing = sizing_[ri.id];
            if (!ri.rule->isPointRule()) {
                auto [outW, outH] = extent(ri.outputSlotId);
                sim::CostReport cost =
                    ri.rule->regionCost(Region(0, 0, outW, outH), params);
                sizing.regionSequential = cost.sequentialFraction >= 0.99;
                sizing.regionSeconds = sim::CostModel::cpuSeconds(
                    machine_.cpu, cost,
                    sizing.regionSequential ? 1 : machine_.workerThreads);
                continue;
            }
            sizing.flopsPerPoint = ri.rule->flopsPerPoint(params);
            const RuleEvalInfo *&first =
                firstOfClass[static_cast<size_t>(ri.shapeClass)];
            if (first == nullptr)
                first = &ri;
            bool same =
                sizing_[first->id].flopsPerPoint == sizing.flopsPerPoint &&
                extent(first->outputSlotId) == extent(ri.outputSlotId);
            for (size_t i = 0; same && i < ri.inputSlotIds.size(); ++i)
                same = extent(first->inputSlotIds[i]) ==
                       extent(ri.inputSlotIds[i]);
            sizing.costClass =
                same ? ri.shapeClass
                     : analysis_->shapeClassCount + static_cast<int>(ri.id);
        }
    }
}

} // namespace compiler
} // namespace petabricks
