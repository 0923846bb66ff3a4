#include "benchmarks/poisson.h"

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

/** params: [gridW, gridH, omega * 1e4]. */
double
omegaOf(const PointArgs &pt)
{
    return static_cast<double>(pt.param(2)) * 1e-4;
}

/** Packed red cell (x, y) sits at grid column 2x + (y & 1). */
lang::RulePtr
packRule(const std::string &name, const std::string &outSlot,
         int64_t parity)
{
    return RuleDef::makePoint(
        name, outSlot,
        {AccessPattern{"In", DimAccess::strided(2, 0, 2),
                       DimAccess::window(0, 1)}},
        [parity](const PointArgs &pt) {
            int64_t gx = 2 * pt.x + ((pt.y + parity) & 1);
            return pt.input(0).at(gx, pt.y);
        },
        [](const ParamEnv &) { return 1.0; });
}

/**
 * Red half-sweep: update packed red cells from the packed black buffer
 * (their four grid neighbors) and their own previous value. Boundary
 * cells hold their initial values.
 */
lang::RulePtr
updateRule(const std::string &name, const std::string &outSlot,
           const std::string &ownSlot, const std::string &otherSlot,
           int64_t parity)
{
    return RuleDef::makePoint(
        name, outSlot,
        {AccessPattern{ownSlot, DimAccess::window(0, 1),
                       DimAccess::window(0, 1)},
         AccessPattern{otherSlot, DimAccess::window(-1, 3),
                       DimAccess::window(-1, 3)}},
        [parity](const PointArgs &pt) {
            int64_t w = pt.param(0);
            int64_t h = pt.param(1);
            int64_t gx = 2 * pt.x + ((pt.y + parity) & 1);
            double own = pt.input(0).at(pt.x, pt.y);
            if (gx == 0 || gx == w - 1 || pt.y == 0 || pt.y == h - 1)
                return own;
            // Packed columns of the left/right grid neighbors.
            int64_t xl, xr;
            if (((pt.y + parity) & 1) == 0) {
                xl = pt.x - 1;
                xr = pt.x;
            } else {
                xl = pt.x;
                xr = pt.x + 1;
            }
            double sum = pt.input(1).at(xl, pt.y) +
                         pt.input(1).at(xr, pt.y) +
                         pt.input(1).at(pt.x, pt.y - 1) +
                         pt.input(1).at(pt.x, pt.y + 1);
            double omega = omegaOf(pt);
            return (1.0 - omega) * own + omega * 0.25 * sum;
        },
        [](const ParamEnv &) { return 8.0; });
}

compiler::SlotSizes
poissonSizes(int64_t n, int iterations)
{
    compiler::SlotSizes sizes{{"In", {n, n}}};
    for (int k = 0; k <= iterations; ++k) {
        sizes["Red" + std::to_string(k)] = {n / 2, n};
        sizes["Black" + std::to_string(k)] = {n / 2, n};
    }
    return sizes;
}

/** poissonSizes() by slot id: In, then the Red/Black pairs. */
std::vector<compiler::SlotExtent>
poissonExtents(int64_t n, int iterations)
{
    std::vector<compiler::SlotExtent> extents(
        2 * static_cast<size_t>(iterations) + 3, {n / 2, n});
    extents[0] = {n, n};
    return extents;
}

} // namespace

std::shared_ptr<lang::Transform>
makePoissonTransform(int iterations)
{
    PB_ASSERT(iterations >= 1, "need at least one iteration");
    auto t = std::make_shared<lang::Transform>("Poisson2D");
    t->slot("In", lang::SlotRole::Input);
    for (int k = 0; k <= iterations; ++k) {
        auto role = k == iterations ? lang::SlotRole::Output
                                    : lang::SlotRole::Intermediate;
        t->slot("Red" + std::to_string(k), role);
        t->slot("Black" + std::to_string(k), role);
    }
    std::vector<lang::RulePtr> rules;
    rules.push_back(packRule("PackRed", "Red0", 0));
    rules.push_back(packRule("PackBlack", "Black0", 1));
    for (int k = 1; k <= iterations; ++k) {
        std::string rk = "Red" + std::to_string(k);
        std::string rp = "Red" + std::to_string(k - 1);
        std::string bk = "Black" + std::to_string(k);
        std::string bp = "Black" + std::to_string(k - 1);
        // Gauss-Seidel ordering: black half-sweeps read the new red.
        rules.push_back(updateRule("UpdateRed", rk, rp, bp, 0));
        rules.push_back(updateRule("UpdateBlack", bk, bp, rk, 1));
    }
    t->choice("sor", std::move(rules));
    return t;
}

PoissonBenchmark::PoissonBenchmark(int iterations)
    : iterations_(iterations),
      transform_(makePoissonTransform(iterations)),
      analysis_(std::make_shared<compiler::TransformAnalysis>(*transform_))
{
    tuner::ConfigSchema::Builder schema;
    addBackendChoices(schema, "Poisson.split", /*hasLocalVariant=*/true);
    addBackendChoices(schema, "Poisson.iterate", /*hasLocalVariant=*/true);
    schema.addTunable({"Poisson.split.chunks", 1, 256, 16, true});
    schema_ = schema.build();
    split_ = stageChoiceIds(*schema_, "Poisson.split");
    iterate_ = stageChoiceIds(*schema_, "Poisson.iterate");
    chunksTun_ = schema_->tunableIndex("Poisson.split.chunks");
}

tuner::Config
PoissonBenchmark::seedConfig() const
{
    return tuner::Config(schema_);
}

compiler::TransformConfig
PoissonBenchmark::planFor(const tuner::Config &config, int64_t n) const
{
    int chunks = static_cast<int>(
        config.tunableValue("Poisson.split.chunks"));
    compiler::StageConfig split =
        stageFor(config, "Poisson.split", n, chunks);
    compiler::StageConfig iterate =
        stageFor(config, "Poisson.iterate", n, chunks);
    compiler::TransformConfig plan;
    plan.choiceIndex = 0;
    plan.stages = {split, split};
    for (int k = 0; k < iterations_; ++k) {
        plan.stages.push_back(iterate);
        plan.stages.push_back(iterate);
    }
    return plan;
}

double
PoissonBenchmark::evaluate(const tuner::Config &config, int64_t n,
                           const sim::MachineProfile &machine) const
{
    if (n < 8 || n % 2 != 0)
        return std::numeric_limits<double>::infinity();
    auto outcome = compiler::simulateTransform(
        *transform_, planFor(config, n), poissonSizes(n, iterations_),
        {n, n, 15000}, machine);
    return outcome.seconds;
}

apps::EvalContextPtr
PoissonBenchmark::makeEvalContext(int64_t n,
                                  const sim::MachineProfile &machine) const
{
    if (n < 8 || n % 2 != 0)
        return nullptr; // degenerate size: evaluate() is +inf anyway
    return std::make_shared<SimEvalContext>(
        analysis_, poissonExtents(n, iterations_),
        lang::ParamEnv{n, n, 15000}, machine);
}

double
PoissonBenchmark::evaluate(const tuner::Config &config, int64_t n,
                           const sim::MachineProfile &machine,
                           const EvalContext *ctx) const
{
    if (n < 8 || n % 2 != 0)
        return std::numeric_limits<double>::infinity();
    if (ctx == nullptr)
        return evaluate(config, n, machine);
    int chunks = static_cast<int>(config.tunableValueAt(chunksTun_));
    compiler::StageConfig split = stageForIds(config, split_, n, chunks);
    compiler::StageConfig iterate =
        stageForIds(config, iterate_, n, chunks);
    thread_local compiler::TransformConfig plan;
    plan.choiceIndex = 0;
    plan.stages.clear();
    plan.stages.push_back(split);
    plan.stages.push_back(split);
    for (int k = 0; k < iterations_; ++k) {
        plan.stages.push_back(iterate);
        plan.stages.push_back(iterate);
    }
    return compiler::simulateTransform(
               static_cast<const SimEvalContext &>(*ctx), plan)
        .seconds;
}

std::vector<std::string>
PoissonBenchmark::kernelSources(const tuner::Config &config,
                                int64_t n) const
{
    // The pack rules run on the split stage's backend, the updates on
    // the iterate stage's (planFor()'s stage order).
    std::vector<std::string> sources;
    compiler::Backend split = backendAt(config, split_, n);
    appendKernelSources(sources, split, packRedKernels_);
    appendKernelSources(sources, split, packBlackKernels_);
    if (iterations_ >= 1) {
        compiler::Backend iterate = backendAt(config, iterate_, n);
        appendKernelSources(sources, iterate, updateRedKernels_);
        appendKernelSources(sources, iterate, updateBlackKernels_);
    }
    return sources;
}

int
PoissonBenchmark::openclKernelCount() const
{
    // Count distinct rule names, not unrolled stages.
    auto tiny = makePoissonTransform(1);
    return compiler::countSynthesizedKernels(*tiny);
}

std::string
PoissonBenchmark::describeConfig(const tuner::Config &config,
                                 int64_t n) const
{
    compiler::TransformConfig plan = planFor(config, n);
    return "split on " + describeStage(plan.stages[0]) +
           " followed by compute on " + describeStage(plan.stages[2]);
}

lang::Binding
PoissonBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    PB_ASSERT(n % 2 == 0, "grid width must be even");
    lang::Binding binding;
    MatrixD grid(n, n);
    for (int64_t i = 0; i < grid.size(); ++i)
        grid[i] = rng.uniformReal(-1.0, 1.0);
    binding.matrices.emplace("In", grid);
    for (int k = 0; k <= iterations_; ++k) {
        binding.matrices.emplace("Red" + std::to_string(k),
                                 MatrixD(n / 2, n));
        binding.matrices.emplace("Black" + std::to_string(k),
                                 MatrixD(n / 2, n));
    }
    binding.params = {n, n,
                      static_cast<int64_t>(kOmega * 1e4)};
    return binding;
}

MatrixD
PoissonBenchmark::reference(const MatrixD &grid, int iterations,
                            double omega)
{
    MatrixD g = grid.clone();
    int64_t w = g.width(), h = g.height();
    for (int it = 0; it < iterations; ++it) {
        for (int color = 0; color < 2; ++color) {
            for (int64_t y = 1; y < h - 1; ++y) {
                for (int64_t x = 1; x < w - 1; ++x) {
                    if (((x + y) & 1) != color)
                        continue;
                    double sum = g.at(x - 1, y) + g.at(x + 1, y) +
                                 g.at(x, y - 1) + g.at(x, y + 1);
                    g.at(x, y) =
                        (1.0 - omega) * g.at(x, y) + omega * 0.25 * sum;
                }
            }
        }
    }
    return g;
}

MatrixD
PoissonBenchmark::unpackResult(const lang::Binding &binding) const
{
    const MatrixD &red =
        binding.matrix("Red" + std::to_string(iterations_));
    const MatrixD &black =
        binding.matrix("Black" + std::to_string(iterations_));
    int64_t w = red.width() * 2;
    int64_t h = red.height();
    MatrixD grid(w, h);
    for (int64_t y = 0; y < h; ++y)
        for (int64_t x = 0; x < w / 2; ++x) {
            grid.at(2 * x + (y & 1), y) = red.at(x, y);
            grid.at(2 * x + ((y + 1) & 1), y) = black.at(x, y);
        }
    return grid;
}

double
PoissonBenchmark::checkOutput(const lang::Binding &binding) const
{
    // The rules only write the packed Red/Black slots, so the bound
    // input grid still holds the initial state.
    MatrixD ref = reference(binding.matrix("In"), iterations_, kOmega);
    return maxAbsDiff(unpackResult(binding), ref);
}

tuner::Config
PoissonBenchmark::cpuOnlyConfig()
{
    PoissonBenchmark proto(1);
    tuner::Config config = proto.seedConfig();
    int cpu = backendAlg(compiler::Backend::Cpu);
    config.selector("Poisson.split.backend").setAlgorithm(0, cpu);
    config.selector("Poisson.iterate.backend").setAlgorithm(0, cpu);
    return config;
}

} // namespace apps
} // namespace petabricks
