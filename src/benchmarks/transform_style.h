/**
 * @file
 * The base of the transform-style benchmarks (Black-Scholes, Poisson2D
 * SOR, SeparableConv., Mandelbrot): point rules the compiler maps onto
 * CPU and OpenCL stages, which the simulator prices.
 *
 * The base owns the transform, its compiler::TransformAnalysis, the
 * config schema and the kernel names, and implements the model, the
 * kernel list and the real-mode plan once. A benchmark supplies what
 * differs, as private members its base is a friend of:
 *  - placeStages(config, n, plan): appends to @p plan (choice 0, no
 *    stages yet) the stage placement @p config selects at size n, and
 *    sets the choice. The base writes it into one per-thread buffer:
 *    the one walk of the model, which the simulator prices,
 *    kernelSources() lists, planFor() executes and the benchmark's
 *    describeConfig() renders (through stagePlan());
 *  - slotExtent(n, slot) and params(n): the (w, h) of each slot, by
 *    slot id, and the transform's params at size n, which an
 *    evaluation context binds;
 * and, to the constructor, the sizes its model prices (PricedSizes).
 *
 * The base is a template over the benchmark, so these calls are bound
 * at compile time: evaluate() and kernelSources() run once per
 * configuration a search prices, and make no virtual call of their own.
 */

#ifndef PETABRICKS_BENCHMARKS_TRANSFORM_STYLE_H
#define PETABRICKS_BENCHMARKS_TRANSFORM_STYLE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "benchmarks/benchmark.h"
#include "compiler/admissibility.h"
#include "compiler/simulator.h"

namespace petabricks {
namespace apps {

/** See file comment. */
template <typename Self>
class TransformStyleBenchmark : public Benchmark
{
  public:
    using Benchmark::evaluate;

    tuner::Config seedConfig() const final { return tuner::Config(schema_); }

    EvalContextPtr makeEvalContext(
        int64_t n, const sim::MachineProfile &machine) const final;

    double
    evaluate(const tuner::Config &config, int64_t n,
             const sim::MachineProfile &, const EvalContext *ctx) const final
    {
        if (!prices(n))
            return std::numeric_limits<double>::infinity();
        PB_ASSERT(ctx != nullptr, name() << " priced without its context");
        return compiler::simulateTransform(*ctx, stagePlan(config, n))
            .seconds;
    }

    std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t n) const final;

    int
    openclKernelCount() const final
    {
        return compiler::countSynthesizedKernels(*transform_);
    }

    bool supportsRealMode() const final { return true; }
    const lang::Transform &transform() const final { return *transform_; }

    compiler::TransformConfig
    planFor(const tuner::Config &config, int64_t n) const final
    {
        return stagePlan(config, n);
    }

  protected:
    /** Sizes n >= min, even ones only if evenOnly. At any other size
     * the model prices +inf, builds no context and lists no kernel. */
    struct PricedSizes
    {
        int64_t min = std::numeric_limits<int64_t>::min();
        bool evenOnly = false;
    };

    TransformStyleBenchmark(std::shared_ptr<lang::Transform> transform,
                            tuner::ConfigSchemaPtr schema,
                            PricedSizes priced = {});

    const tuner::ConfigSchema &schema() const { return *schema_; }

    /** The stage placement of @p config at size @p n, in a per-thread
     * buffer (see file comment). */
    const compiler::TransformConfig &
    stagePlan(const tuner::Config &config, int64_t n) const
    {
        thread_local compiler::TransformConfig plan; // no allocation per call
        plan.choiceIndex = 0;
        plan.stages.clear();
        self().placeStages(config, n, plan);
        return plan;
    }

  private:
    const Self &self() const { return static_cast<const Self &>(*this); }

    bool
    prices(int64_t n) const
    {
        return n >= priced_.min && !(priced_.evenOnly && n % 2 != 0);
    }

    std::shared_ptr<lang::Transform> transform_;
    // Model structure every evaluation context shares, built once.
    compiler::TransformAnalysisPtr analysis_;
    tuner::ConfigSchemaPtr schema_;
    PricedSizes priced_;
    // Each distinct "pbcl:<Rule>:global" and ":local" kernel once, and
    // for each rule variant, at 2 * RuleEvalInfo::id (+1 for local), the
    // position of its name. Rules that share a name (Poisson's
    // per-iteration updates) share a position, so a list dedups by a
    // 64-bit mask.
    std::vector<std::string> kernelNames_;
    std::vector<uint8_t> kernelAt_;
};

template <typename Self>
TransformStyleBenchmark<Self>::TransformStyleBenchmark(
    std::shared_ptr<lang::Transform> transform,
    tuner::ConfigSchemaPtr schema, PricedSizes priced)
    : transform_(std::move(transform)),
      analysis_(std::make_shared<compiler::TransformAnalysis>(*transform_)),
      schema_(std::move(schema)), priced_(priced),
      kernelAt_(2 * analysis_->ruleCount)
{
    for (const std::vector<compiler::RuleEvalInfo> &rules :
         analysis_->choices)
        for (const compiler::RuleEvalInfo &rule : rules)
            for (size_t local = 0; local < 2; ++local) {
                const std::string name = "pbcl:" + rule.rule->name() +
                                         (local ? ":local" : ":global");
                auto it = std::find(kernelNames_.begin(),
                                    kernelNames_.end(), name);
                if (it == kernelNames_.end())
                    it = kernelNames_.insert(it, name);
                kernelAt_[2 * rule.id + local] =
                    static_cast<uint8_t>(it - kernelNames_.begin());
            }
    PB_ASSERT(kernelNames_.size() <= 64,
              "a kernel list dedups by a 64-bit mask");
}

template <typename Self>
EvalContextPtr
TransformStyleBenchmark<Self>::makeEvalContext(
    int64_t n, const sim::MachineProfile &machine) const
{
    if (!prices(n))
        return nullptr; // evaluate() is +inf without one
    std::vector<compiler::SlotExtent> extents;
    extents.reserve(analysis_->slots.size());
    for (int slot = 0; slot < static_cast<int>(analysis_->slots.size());
         ++slot)
        extents.push_back(self().slotExtent(n, slot));
    return std::make_shared<EvalContext>(analysis_, std::move(extents),
                                         self().params(n), machine);
}

/** A stage's kernel, only when the simulator gives the stage GPU rows,
 * once, in stage order; allocates only the returned list. */
template <typename Self>
std::vector<std::string>
TransformStyleBenchmark<Self>::kernelSources(const tuner::Config &config,
                                             int64_t n) const
{
    if (!prices(n))
        return {}; // priced +inf before any kernel runs
    const compiler::TransformConfig &plan = stagePlan(config, n);
    uint8_t listed[64];
    size_t count = 0;
    uint64_t seen = 0;
    for (const compiler::RuleEvalInfo &rule :
         analysis_->choices[plan.choiceIndex]) {
        const compiler::StageConfig &stage = plan.stage(rule.ruleIndex);
        if (stage.gpuRows(self().slotExtent(n, rule.outputSlotId).second) <=
            0)
            continue; // the simulator runs it wholly on the CPU
        const uint8_t at =
            kernelAt_[2 * rule.id +
                      (stage.backend == compiler::Backend::OpenClLocal ? 1
                                                                       : 0)];
        if (seen >> at & 1)
            continue;
        seen |= uint64_t{1} << at;
        listed[count++] = at;
    }
    std::vector<std::string> sources;
    sources.reserve(count);
    for (size_t i = 0; i < count; ++i)
        sources.push_back(kernelNames_[listed[i]]);
    return sources;
}

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_TRANSFORM_STYLE_H
