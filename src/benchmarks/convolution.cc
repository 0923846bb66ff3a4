#include "benchmarks/convolution.h"

#include <array>

#include "benchmarks/backend_util.h"
#include "compiler/admissibility.h"
#include "compiler/simulator.h"

namespace petabricks {
namespace apps {

namespace {

using lang::AccessPattern;
using lang::DimAccess;
using lang::ParamEnv;
using lang::PointArgs;
using lang::RuleDef;

lang::RulePtr
convolve2dRule(int64_t kwidth)
{
    return RuleDef::makePoint(
        "Convolve2D", "Out",
        {AccessPattern{"In", DimAccess::window(0, kwidth),
                       DimAccess::window(0, kwidth)},
         AccessPattern{"Kernel", DimAccess::all(),
                       DimAccess::window(0, 1)}},
        [](const PointArgs &pt) {
            int64_t kw = pt.param(0);
            double sum = 0.0;
            for (int64_t j = 0; j < kw; ++j)
                for (int64_t i = 0; i < kw; ++i)
                    sum += pt.input(0).at(pt.x + i, pt.y + j) *
                           pt.input(1).at(i, 0) * pt.input(1).at(j, 0);
            return sum;
        },
        [](const ParamEnv &params) {
            // ~8 scalar ops per window tap: multiply-accumulate plus
            // the strided address arithmetic of the 2-D window.
            double kw = static_cast<double>(params[0]);
            return 8.0 * kw * kw;
        });
}

lang::RulePtr
convolveRowsRule(int64_t kwidth)
{
    return RuleDef::makePoint(
        "ConvolveRows", "buffer",
        {AccessPattern{"In", DimAccess::window(0, kwidth),
                       DimAccess::window(0, 1)},
         AccessPattern{"Kernel", DimAccess::all(),
                       DimAccess::window(0, 1)}},
        [](const PointArgs &pt) {
            int64_t kw = pt.param(0);
            double sum = 0.0;
            for (int64_t i = 0; i < kw; ++i)
                sum += pt.input(0).at(pt.x + i, pt.y) *
                       pt.input(1).at(i, 0);
            return sum;
        },
        [](const ParamEnv &params) {
            return 8.0 * static_cast<double>(params[0]);
        });
}

lang::RulePtr
convolveColumnsRule(int64_t kwidth)
{
    return RuleDef::makePoint(
        "ConvolveColumns", "Out",
        {AccessPattern{"buffer", DimAccess::window(0, 1),
                       DimAccess::window(0, kwidth)},
         AccessPattern{"Kernel", DimAccess::all(),
                       DimAccess::window(0, 1)}},
        [](const PointArgs &pt) {
            int64_t kw = pt.param(0);
            double sum = 0.0;
            for (int64_t i = 0; i < kw; ++i)
                sum += pt.input(0).at(pt.x, pt.y + i) *
                       pt.input(1).at(i, 0);
            return sum;
        },
        [](const ParamEnv &params) {
            return 8.0 * static_cast<double>(params[0]);
        });
}

/** Slot extents by slot id: In, Kernel, Out, buffer. */
std::array<compiler::SlotExtent, 4>
convExtents(int64_t n, int64_t kw)
{
    return {{{n, n}, {kw, 1}, {n - kw + 1, n - kw + 1}, {n - kw + 1, n}}};
}

constexpr const char *kRules[] = {"Convolve2D", "ConvolveRows",
                                  "ConvolveColumns"};

} // namespace

std::shared_ptr<lang::Transform>
makeConvolutionTransform(int64_t kwidth)
{
    auto t = std::make_shared<lang::Transform>("SeparableConvolution");
    t->slot("In", lang::SlotRole::Input)
        .slot("Kernel", lang::SlotRole::Input)
        .slot("Out", lang::SlotRole::Output)
        .slot("buffer", lang::SlotRole::Intermediate);
    t->choice("2d", {convolve2dRule(kwidth)});
    t->choice("separable",
              {convolveRowsRule(kwidth), convolveColumnsRule(kwidth)});
    return t;
}

ConvolutionBenchmark::ConvolutionBenchmark(int64_t kwidth)
    : kwidth_(kwidth), transform_(makeConvolutionTransform(kwidth)),
      analysis_(std::make_shared<compiler::TransformAnalysis>(*transform_)),
      kernelNames_(stageKernelNames(*analysis_))
{
    PB_ASSERT(kwidth >= 3 && kwidth % 2 == 1,
              "kernel width must be odd and >= 3");
    tuner::ConfigSchema::Builder schema;
    schema.addSelector("SeparableConvolution.choice", 2, 0);
    for (const char *rule : kRules)
        addBackendChoices(schema, rule, /*hasLocalVariant=*/true);
    schema.addTunable({"SeparableConvolution.split", 1, 256, 16, true});
    schema_ = schema.build();
    choiceSel_ = schema_->selectorIndex("SeparableConvolution.choice");
    for (int r = 0; r < 3; ++r)
        rules_[r] = stageChoiceIds(*schema_, kRules[r]);
    splitTun_ = schema_->tunableIndex("SeparableConvolution.split");
}

tuner::Config
ConvolutionBenchmark::seedConfig() const
{
    return tuner::Config(schema_);
}

const compiler::TransformConfig &
ConvolutionBenchmark::stagePlan(const tuner::Config &config,
                                int64_t n) const
{
    thread_local compiler::TransformConfig plan; // no allocation per call
    int split = static_cast<int>(config.tunableValueAt(splitTun_));
    plan.stages.clear();
    if (config.selectorAt(choiceSel_).select(n) == 0) {
        plan.choiceIndex = 0;
        plan.stages.push_back(stageAt(config, rules_[0], n, split));
    } else {
        plan.choiceIndex = 1;
        plan.stages.push_back(stageAt(config, rules_[1], n, split));
        plan.stages.push_back(stageAt(config, rules_[2], n, split));
    }
    return plan;
}

compiler::TransformConfig
ConvolutionBenchmark::planFor(const tuner::Config &config,
                              int64_t n) const
{
    return stagePlan(config, n);
}

apps::EvalContextPtr
ConvolutionBenchmark::makeEvalContext(
    int64_t n, const sim::MachineProfile &machine) const
{
    if (n <= kwidth_)
        return nullptr; // degenerate size: evaluate() is +inf anyway
    const std::array<compiler::SlotExtent, 4> extents =
        convExtents(n, kwidth_);
    return std::make_shared<EvalContext>(
        analysis_,
        std::vector<compiler::SlotExtent>(extents.begin(), extents.end()),
        lang::ParamEnv{kwidth_}, machine);
}

double
ConvolutionBenchmark::evaluate(const tuner::Config &config, int64_t n,
                               const sim::MachineProfile &,
                               const EvalContext *ctx) const
{
    if (n <= kwidth_)
        return std::numeric_limits<double>::infinity();
    PB_ASSERT(ctx != nullptr, name() << " priced without its context");
    return compiler::simulateTransform(*ctx, stagePlan(config, n)).seconds;
}

std::vector<std::string>
ConvolutionBenchmark::kernelSources(const tuner::Config &config,
                                    int64_t n) const
{
    if (n <= kwidth_)
        return {}; // priced +inf before any kernel runs
    const std::array<compiler::SlotExtent, 4> extents =
        convExtents(n, kwidth_);
    return stageKernelSources(*analysis_, kernelNames_, stagePlan(config, n),
                              [&extents](int slot) { return extents[slot]; });
}

int
ConvolutionBenchmark::openclKernelCount() const
{
    return compiler::countSynthesizedKernels(*transform_);
}

std::string
ConvolutionBenchmark::describeConfig(const tuner::Config &config,
                                     int64_t n) const
{
    const compiler::TransformConfig &plan = stagePlan(config, n);
    std::string out = plan.choiceIndex == 0 ? "2D kernel on " : "1D kernel on ";
    for (size_t i = 0; i < plan.stages.size(); ++i)
        out += (i ? " then " : "") + describeStage(plan.stages[i]);
    return out;
}

lang::Binding
ConvolutionBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    lang::Binding binding;
    MatrixD in(n, n);
    for (int64_t i = 0; i < in.size(); ++i)
        in[i] = rng.uniformReal(-1.0, 1.0);
    MatrixD kernel = MatrixD::vector(kwidth_);
    for (int64_t i = 0; i < kwidth_; ++i)
        kernel.at(i, 0) = rng.uniformReal(0.0, 1.0);
    binding.matrices.emplace("In", in);
    binding.matrices.emplace("Kernel", kernel);
    binding.matrices.emplace(
        "Out", MatrixD(n - kwidth_ + 1, n - kwidth_ + 1));
    binding.matrices.emplace("buffer", MatrixD(n - kwidth_ + 1, n));
    binding.params = {kwidth_};
    return binding;
}

MatrixD
ConvolutionBenchmark::reference(const lang::Binding &binding,
                                int64_t kwidth)
{
    const MatrixD &in = binding.matrix("In");
    const MatrixD &kernel = binding.matrix("Kernel");
    int64_t ow = in.width() - kwidth + 1;
    int64_t oh = in.height() - kwidth + 1;
    MatrixD out(ow, oh);
    for (int64_t y = 0; y < oh; ++y)
        for (int64_t x = 0; x < ow; ++x) {
            double sum = 0.0;
            for (int64_t j = 0; j < kwidth; ++j)
                for (int64_t i = 0; i < kwidth; ++i)
                    sum += in.at(x + i, y + j) * kernel.at(i, 0) *
                           kernel.at(j, 0);
            out.at(x, y) = sum;
        }
    return out;
}

double
ConvolutionBenchmark::checkOutput(const lang::Binding &binding) const
{
    return maxAbsDiff(binding.matrix("Out"),
                      reference(binding, kwidth_));
}

tuner::Config
ConvolutionBenchmark::fixedMapping(bool separable, bool localMem)
{
    ConvolutionBenchmark proto;
    tuner::Config config = proto.seedConfig();
    config.selector("SeparableConvolution.choice")
        .setAlgorithm(0, separable ? 1 : 0);
    int backend = backendAlg(localMem ? compiler::Backend::OpenClLocal
                                      : compiler::Backend::OpenClGlobal);
    for (const char *rule : kRules)
        config.selector(std::string(rule) + ".backend")
            .setAlgorithm(0, backend);
    return config;
}

} // namespace apps
} // namespace petabricks
