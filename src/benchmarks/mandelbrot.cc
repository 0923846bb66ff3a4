#include "benchmarks/mandelbrot.h"

#include <cmath>

#include "benchmarks/backend_util.h"
#include "compiler/simulator.h"

namespace petabricks {
namespace apps {

namespace {

using lang::AccessPattern;
using lang::ParamEnv;
using lang::PointArgs;
using lang::RuleDef;

/** flops one escape-loop iteration costs (5 mul, 3 add, 1 compare). */
constexpr double kFlopsPerIteration = 9.0;

/**
 * Modeled flops per point. The real loop exits early for escaping
 * points, but the cost model must be a pure function of the parameter
 * environment (the same for every cell), so it prices the cap — the
 * worst case, and the exact cost for in-set points, which dominate the
 * classic viewing window.
 */
double
flopsPerPoint(const ParamEnv &params)
{
    return static_cast<double>(params.at(0)) * kFlopsPerIteration;
}

lang::RulePtr
mandelbrotRule()
{
    return RuleDef::makePoint(
        "Mandelbrot", "Iter",
        {AccessPattern::point("Cr"), AccessPattern::point("Ci")},
        [](const PointArgs &pt) {
            double cr = pt.input(0).at(pt.x, pt.y);
            double ci = pt.input(1).at(pt.x, pt.y);
            return mandelbrotEscape(cr, ci, pt.param(0));
        },
        flopsPerPoint);
}

/** The escape-loop cap: 64 keeps a probe-sized run quick while still
 * making each point strongly compute bound. */
constexpr int64_t kMaxIter = 64;

} // namespace

double
mandelbrotEscape(double cr, double ci, int64_t maxIter)
{
    double zr = 0.0, zi = 0.0;
    int64_t it = 0;
    while (it < maxIter && zr * zr + zi * zi <= 4.0) {
        double t = zr * zr - zi * zi + cr;
        zi = 2.0 * zr * zi + ci;
        zr = t;
        ++it;
    }
    return static_cast<double>(it);
}

MandelbrotBenchmark::MandelbrotBenchmark()
{
    transform_ = std::make_shared<lang::Transform>("Mandelbrot");
    transform_->slot("Cr", lang::SlotRole::Input)
        .slot("Ci", lang::SlotRole::Input)
        .slot("Iter", lang::SlotRole::Output);
    transform_->choice("escape", {mandelbrotRule()});
    analysis_ = std::make_shared<compiler::TransformAnalysis>(*transform_);
    tuner::ConfigSchema::Builder schema;
    addBackendChoices(schema, "Mandelbrot", /*hasLocalVariant=*/false);
    schema.addTunable({"Mandelbrot.split", 1, 256, 16, true});
    schema_ = schema.build();
    rule_ = stageChoiceIds(*schema_, "Mandelbrot");
    splitTun_ = schema_->tunableIndex("Mandelbrot.split");
}

int64_t
MandelbrotBenchmark::rowsFor(int64_t n)
{
    int64_t rows = static_cast<int64_t>(std::sqrt(
        static_cast<double>(std::max<int64_t>(n, 1))));
    return std::max<int64_t>(rows, 1);
}

tuner::Config
MandelbrotBenchmark::seedConfig() const
{
    return tuner::Config(schema_);
}

void
MandelbrotBenchmark::buildPlan(const tuner::Config &config, int64_t n,
                               compiler::TransformConfig &plan) const
{
    plan.choiceIndex = 0;
    plan.stages.clear();
    plan.stages.push_back(stageAt(
        config, rule_, n,
        static_cast<int>(config.tunableValueAt(splitTun_))));
}

compiler::TransformConfig
MandelbrotBenchmark::planFor(const tuner::Config &config,
                             int64_t n) const
{
    compiler::TransformConfig plan;
    buildPlan(config, n, plan);
    return plan;
}

apps::EvalContextPtr
MandelbrotBenchmark::makeEvalContext(
    int64_t n, const sim::MachineProfile &machine) const
{
    int64_t rows = rowsFor(n); // one shape for every slot
    return std::make_shared<EvalContext>(
        analysis_,
        std::vector<compiler::SlotExtent>(transform_->slots().size(),
                                          {(n + rows - 1) / rows, rows}),
        lang::ParamEnv{kMaxIter}, machine);
}

double
MandelbrotBenchmark::evaluate(const tuner::Config &config, int64_t n,
                              const sim::MachineProfile &,
                              const EvalContext *ctx) const
{
    PB_ASSERT(ctx != nullptr, name() << " priced without its context");
    // A reused per-thread plan: no allocation in the batch loop.
    thread_local compiler::TransformConfig plan;
    buildPlan(config, n, plan);
    return compiler::simulateTransform(*ctx, plan).seconds;
}

std::vector<std::string>
MandelbrotBenchmark::kernelSources(const tuner::Config &config,
                                   int64_t n) const
{
    std::vector<std::string> sources;
    appendKernelSources(sources, backendAt(config, rule_, n), kernels_);
    return sources;
}

std::string
MandelbrotBenchmark::describeConfig(const tuner::Config &config,
                                    int64_t n) const
{
    return describeStage(planFor(config, n).stages[0]);
}

lang::Binding
MandelbrotBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    int64_t rows = rowsFor(n);
    int64_t cols = (n + rows - 1) / rows;
    lang::Binding binding;
    MatrixD cr(cols, rows), ci(cols, rows);
    for (int64_t i = 0; i < cr.size(); ++i) {
        cr[i] = rng.uniformReal(-2.0, 0.5);
        ci[i] = rng.uniformReal(-1.25, 1.25);
    }
    binding.matrices.emplace("Cr", cr);
    binding.matrices.emplace("Ci", ci);
    binding.matrices.emplace("Iter", MatrixD(cols, rows));
    binding.params = {kMaxIter};
    return binding;
}

MatrixD
MandelbrotBenchmark::reference(const lang::Binding &binding)
{
    const MatrixD &cr = binding.matrix("Cr");
    const MatrixD &ci = binding.matrix("Ci");
    int64_t maxIter = binding.params[0];
    MatrixD out(cr.width(), cr.height());
    for (int64_t i = 0; i < out.size(); ++i)
        out[i] = mandelbrotEscape(cr[i], ci[i], maxIter);
    return out;
}

double
MandelbrotBenchmark::checkOutput(const lang::Binding &binding) const
{
    return maxAbsDiff(binding.matrix("Iter"), reference(binding));
}

} // namespace apps
} // namespace petabricks
