#include "benchmarks/blackscholes.h"

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

/** Abramowitz-Stegun style normal CDF via erf. */
double
normCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

/**
 * flops one option costs. The transcendental-heavy inner loop (log,
 * sqrt, exp, and two erfc evaluations, each a polynomial expansion in
 * scalar code) makes pricing strongly compute bound.
 */
constexpr double kFlopsPerOption = 2500.0;

lang::RulePtr
blackScholesRule()
{
    return RuleDef::makePoint(
        "BlackScholes", "Price",
        {AccessPattern::point("Spot"), AccessPattern::point("Strike"),
         AccessPattern::point("Years")},
        [](const PointArgs &pt) {
            double spot = pt.input(0).at(pt.x, pt.y);
            double strike = pt.input(1).at(pt.x, pt.y);
            double years = pt.input(2).at(pt.x, pt.y);
            double rate = static_cast<double>(pt.param(0)) * 1e-4;
            double vol = static_cast<double>(pt.param(1)) * 1e-4;
            return blackScholesCall(spot, strike, years, rate, vol);
        },
        [](const ParamEnv &) { return kFlopsPerOption; });
}

} // namespace

double
blackScholesCall(double spot, double strike, double years,
                 double riskFree, double volatility)
{
    double sigmaSqrtT = volatility * std::sqrt(years);
    double d1 = (std::log(spot / strike) +
                 (riskFree + 0.5 * volatility * volatility) * years) /
                sigmaSqrtT;
    double d2 = d1 - sigmaSqrtT;
    return spot * normCdf(d1) -
           strike * std::exp(-riskFree * years) * normCdf(d2);
}

BlackScholesBenchmark::BlackScholesBenchmark()
{
    transform_ = std::make_shared<lang::Transform>("BlackScholes");
    transform_->slot("Spot", lang::SlotRole::Input)
        .slot("Strike", lang::SlotRole::Input)
        .slot("Years", lang::SlotRole::Input)
        .slot("Price", lang::SlotRole::Output);
    transform_->choice("formula", {blackScholesRule()});
    analysis_ = std::make_shared<compiler::TransformAnalysis>(*transform_);
    kernelNames_ = stageKernelNames(*analysis_);
    tuner::ConfigSchema::Builder schema;
    addBackendChoices(schema, "BlackScholes", /*hasLocalVariant=*/false);
    schema.addTunable({"BlackScholes.split", 1, 256, 16, true});
    schema_ = schema.build();
    rule_ = stageChoiceIds(*schema_, "BlackScholes");
    splitTun_ = schema_->tunableIndex("BlackScholes.split");
}

tuner::Config
BlackScholesBenchmark::seedConfig() const
{
    return tuner::Config(schema_);
}

const compiler::TransformConfig &
BlackScholesBenchmark::stagePlan(const tuner::Config &config,
                                 int64_t n) const
{
    thread_local compiler::TransformConfig plan; // no allocation per call
    plan.choiceIndex = 0;
    plan.stages.clear();
    plan.stages.push_back(stageAt(
        config, rule_, n,
        static_cast<int>(config.tunableValueAt(splitTun_))));
    return plan;
}

compiler::TransformConfig
BlackScholesBenchmark::planFor(const tuner::Config &config,
                               int64_t n) const
{
    return stagePlan(config, n);
}

apps::EvalContextPtr
BlackScholesBenchmark::makeEvalContext(
    int64_t n, const sim::MachineProfile &machine) const
{
    return std::make_shared<EvalContext>(
        analysis_, nearSquareExtents(n, transform_->slots().size()),
        lang::ParamEnv{500, 2000}, machine);
}

double
BlackScholesBenchmark::evaluate(const tuner::Config &config, int64_t n,
                                const sim::MachineProfile &,
                                const EvalContext *ctx) const
{
    PB_ASSERT(ctx != nullptr, name() << " priced without its context");
    return compiler::simulateTransform(*ctx, stagePlan(config, n)).seconds;
}

std::vector<std::string>
BlackScholesBenchmark::kernelSources(const tuner::Config &config,
                                     int64_t n) const
{
    const compiler::SlotExtent extent = nearSquareExtent(n);
    return stageKernelSources(*analysis_, kernelNames_, stagePlan(config, n),
                              [extent](int) { return extent; });
}

std::string
BlackScholesBenchmark::describeConfig(const tuner::Config &config,
                                      int64_t n) const
{
    return describeStage(stagePlan(config, n).stages[0]);
}

lang::Binding
BlackScholesBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    auto [cols, rows] = nearSquareExtent(n);
    lang::Binding binding;
    MatrixD spot(cols, rows), strike(cols, rows), years(cols, rows);
    for (int64_t i = 0; i < spot.size(); ++i) {
        spot[i] = rng.uniformReal(10.0, 200.0);
        strike[i] = rng.uniformReal(10.0, 200.0);
        years[i] = rng.uniformReal(0.1, 5.0);
    }
    binding.matrices.emplace("Spot", spot);
    binding.matrices.emplace("Strike", strike);
    binding.matrices.emplace("Years", years);
    binding.matrices.emplace("Price", MatrixD(cols, rows));
    binding.params = {500, 2000}; // rate 5%, volatility 20%
    return binding;
}

MatrixD
BlackScholesBenchmark::reference(const lang::Binding &binding)
{
    const MatrixD &spot = binding.matrix("Spot");
    const MatrixD &strike = binding.matrix("Strike");
    const MatrixD &years = binding.matrix("Years");
    double rate = static_cast<double>(binding.params[0]) * 1e-4;
    double vol = static_cast<double>(binding.params[1]) * 1e-4;
    MatrixD out(spot.width(), spot.height());
    for (int64_t i = 0; i < out.size(); ++i)
        out[i] = blackScholesCall(spot[i], strike[i], years[i], rate,
                                  vol);
    return out;
}

double
BlackScholesBenchmark::checkOutput(const lang::Binding &binding) const
{
    return maxAbsDiff(binding.matrix("Price"), reference(binding));
}

tuner::Config
BlackScholesBenchmark::cpuOnlyConfig()
{
    BlackScholesBenchmark proto;
    tuner::Config config = proto.seedConfig();
    config.selector("BlackScholes.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::Cpu));
    return config;
}

} // namespace apps
} // namespace petabricks
