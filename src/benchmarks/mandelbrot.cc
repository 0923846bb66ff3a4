#include "benchmarks/mandelbrot.h"

#include <cmath>

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

std::shared_ptr<lang::Transform>
makeMandelbrotTransform()
{
    auto t = std::make_shared<lang::Transform>("Mandelbrot");
    t->slot("Cr", lang::SlotRole::Input)
        .slot("Ci", lang::SlotRole::Input)
        .slot("Iter", lang::SlotRole::Output);
    t->choice("escape", {mandelbrotRule()});
    return t;
}

tuner::ConfigSchemaPtr
mandelbrotSchema()
{
    tuner::ConfigSchema::Builder schema;
    addBackendChoices(schema, "Mandelbrot", /*hasLocalVariant=*/false);
    schema.addTunable({"Mandelbrot.split", 1, 256, 16, true});
    return schema.build();
}

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
    : TransformStyleBenchmark(makeMandelbrotTransform(), mandelbrotSchema()),
      rule_(stageChoiceIds(schema(), "Mandelbrot")),
      splitTun_(schema().tunableIndex("Mandelbrot.split"))
{}

void
MandelbrotBenchmark::placeStages(const tuner::Config &config, int64_t n,
                                 compiler::TransformConfig &plan) const
{
    plan.stages.push_back(stageAt(
        config, rule_, n,
        static_cast<int>(config.tunableValueAt(splitTun_))));
}

lang::ParamEnv
MandelbrotBenchmark::params(int64_t) const
{
    return {kMaxIter};
}

std::string
MandelbrotBenchmark::describeConfig(const tuner::Config &config,
                                    int64_t n) const
{
    return describeStage(stagePlan(config, n).stages[0]);
}

lang::Binding
MandelbrotBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    auto [cols, rows] = nearSquareExtent(n);
    lang::Binding binding;
    MatrixD cr(cols, rows), ci(cols, rows);
    for (int64_t i = 0; i < cr.size(); ++i) {
        cr[i] = rng.uniformReal(-2.0, 0.5);
        ci[i] = rng.uniformReal(-1.25, 1.25);
    }
    binding.matrices.emplace("Cr", cr);
    binding.matrices.emplace("Ci", ci);
    binding.matrices.emplace("Iter", MatrixD(cols, rows));
    binding.params = params(n);
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
