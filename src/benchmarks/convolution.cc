#include "benchmarks/convolution.h"

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

compiler::SlotSizes
convSizes(int64_t n, int64_t kw)
{
    return {{"In", {n, n}},
            {"Kernel", {kw, 1}},
            {"Out", {n - kw + 1, n - kw + 1}},
            {"buffer", {n - kw + 1, n}}};
}

constexpr const char *kRules[] = {"Convolve2D", "ConvolveRows",
                                  "ConvolveColumns"};

/** Config-invariant state shared by a batch (see Benchmark docs). */
struct ConvEvalContext : apps::EvalContext
{
    compiler::EvaluationContext sim;
    size_t choiceSel;
    StageChoiceIds rules[3]; // aligned with kRules
    size_t splitTun;

    ConvEvalContext(const std::shared_ptr<lang::Transform> &transform,
                    int64_t n, int64_t kwidth,
                    const sim::MachineProfile &machine,
                    const tuner::Config &schema)
        : sim(transform, convSizes(n, kwidth), {kwidth}, machine),
          choiceSel(
              schema.selectorIndex("SeparableConvolution.choice")),
          rules{stageChoiceIds(schema, kRules[0]),
                stageChoiceIds(schema, kRules[1]),
                stageChoiceIds(schema, kRules[2])},
          splitTun(schema.tunableIndex("SeparableConvolution.split"))
    {}
};

/** planFor() via the context's pre-resolved config positions, into a
 * reused per-thread plan (no allocation in the batch loop). */
const compiler::TransformConfig &
planForFast(const tuner::Config &config, int64_t n,
            const ConvEvalContext &ctx)
{
    thread_local compiler::TransformConfig plan;
    int split = static_cast<int>(config.tunableValueAt(ctx.splitTun));
    plan.stages.clear();
    if (config.selectorAt(ctx.choiceSel).select(n) == 0) {
        plan.choiceIndex = 0;
        plan.stages.push_back(
            stageForIds(config, ctx.rules[0], n, split));
    } else {
        plan.choiceIndex = 1;
        plan.stages.push_back(
            stageForIds(config, ctx.rules[1], n, split));
        plan.stages.push_back(
            stageForIds(config, ctx.rules[2], n, split));
    }
    return plan;
}

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
    : kwidth_(kwidth), transform_(makeConvolutionTransform(kwidth))
{
    PB_ASSERT(kwidth >= 3 && kwidth % 2 == 1,
              "kernel width must be odd and >= 3");
}

tuner::Config
ConvolutionBenchmark::seedConfig() const
{
    tuner::Config config;
    config.addSelector(
        tuner::Selector("SeparableConvolution.choice", 2, 0));
    for (const char *rule : kRules)
        addBackendChoices(config, rule, /*hasLocalVariant=*/true);
    config.addTunable({"SeparableConvolution.split", 1, 256, 16, true});
    return config;
}

compiler::TransformConfig
ConvolutionBenchmark::planFor(const tuner::Config &config,
                              int64_t n) const
{
    int split = static_cast<int>(
        config.tunableValue("SeparableConvolution.split"));
    compiler::TransformConfig plan;
    if (config.selector("SeparableConvolution.choice").select(n) == 0) {
        plan.choiceIndex = 0;
        plan.stages = {stageFor(config, "Convolve2D", n, split)};
    } else {
        plan.choiceIndex = 1;
        plan.stages = {stageFor(config, "ConvolveRows", n, split),
                       stageFor(config, "ConvolveColumns", n, split)};
    }
    return plan;
}

double
ConvolutionBenchmark::evaluate(const tuner::Config &config, int64_t n,
                               const sim::MachineProfile &machine) const
{
    if (n <= kwidth_)
        return std::numeric_limits<double>::infinity();
    auto outcome =
        compiler::simulateTransform(*transform_, planFor(config, n),
                                    convSizes(n, kwidth_), {kwidth_},
                                    machine);
    return outcome.seconds;
}

apps::EvalContextPtr
ConvolutionBenchmark::makeEvalContext(
    int64_t n, const sim::MachineProfile &machine) const
{
    if (n <= kwidth_)
        return nullptr; // degenerate size: evaluate() is +inf anyway
    return std::make_shared<ConvEvalContext>(transform_, n, kwidth_,
                                             machine, seedConfig());
}

double
ConvolutionBenchmark::evaluate(const tuner::Config &config, int64_t n,
                               const sim::MachineProfile &machine,
                               const EvalContext *ctx) const
{
    if (n <= kwidth_)
        return std::numeric_limits<double>::infinity();
    if (ctx == nullptr)
        return evaluate(config, n, machine);
    const auto &conv = static_cast<const ConvEvalContext &>(*ctx);
    return compiler::simulateTransform(conv.sim,
                                       planForFast(config, n, conv))
        .seconds;
}

std::vector<std::string>
ConvolutionBenchmark::kernelSources(const tuner::Config &config,
                                    int64_t n) const
{
    std::vector<std::string> sources;
    compiler::TransformConfig plan = planFor(config, n);
    const lang::Choice &choice = transform_->choiceAt(plan.choiceIndex);
    for (size_t i = 0; i < choice.rules.size(); ++i)
        appendKernelSources(sources, plan.stages[i],
                            choice.rules[i]->name());
    return sources;
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
    compiler::TransformConfig plan = planFor(config, n);
    std::string algo = plan.choiceIndex == 0 ? "2D kernel" : "1D kernel";
    const lang::Choice &choice = transform_->choiceAt(plan.choiceIndex);
    std::string backends;
    for (size_t i = 0; i < choice.rules.size(); ++i) {
        if (i)
            backends += " then ";
        backends += describeStage(plan.stages[i]);
    }
    return algo + " on " + backends;
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
