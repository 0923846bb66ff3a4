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

/** Extent of slot @p slot: In, then the packed Red/Black pairs. */
compiler::SlotExtent
poissonExtent(int64_t n, int slot)
{
    return slot == 0 ? compiler::SlotExtent{n, n}
                     : compiler::SlotExtent{n / 2, n};
}

/** Slot extents by slot id. */
std::vector<compiler::SlotExtent>
poissonExtents(int64_t n, int iterations)
{
    std::vector<compiler::SlotExtent> extents;
    for (int slot = 0; slot < 2 * iterations + 3; ++slot)
        extents.push_back(poissonExtent(n, slot));
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
      analysis_(std::make_shared<compiler::TransformAnalysis>(*transform_)),
      kernelNames_(stageKernelNames(*analysis_))
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

const compiler::TransformConfig &
PoissonBenchmark::stagePlan(const tuner::Config &config, int64_t n) const
{
    thread_local compiler::TransformConfig plan; // no allocation per call
    int chunks = static_cast<int>(config.tunableValueAt(chunksTun_));
    compiler::StageConfig split = stageAt(config, split_, n, chunks);
    compiler::StageConfig iterate = stageAt(config, iterate_, n, chunks);
    plan.choiceIndex = 0;
    plan.stages.clear();
    plan.stages.push_back(split);
    plan.stages.push_back(split);
    for (int k = 0; k < iterations_; ++k) {
        plan.stages.push_back(iterate);
        plan.stages.push_back(iterate);
    }
    return plan;
}

compiler::TransformConfig
PoissonBenchmark::planFor(const tuner::Config &config, int64_t n) const
{
    return stagePlan(config, n);
}

apps::EvalContextPtr
PoissonBenchmark::makeEvalContext(int64_t n,
                                  const sim::MachineProfile &machine) const
{
    if (n < 8 || n % 2 != 0)
        return nullptr; // degenerate size: evaluate() is +inf anyway
    return std::make_shared<EvalContext>(
        analysis_, poissonExtents(n, iterations_),
        lang::ParamEnv{n, n, 15000}, machine);
}

double
PoissonBenchmark::evaluate(const tuner::Config &config, int64_t n,
                           const sim::MachineProfile &,
                           const EvalContext *ctx) const
{
    if (n < 8 || n % 2 != 0)
        return std::numeric_limits<double>::infinity();
    PB_ASSERT(ctx != nullptr, name() << " priced without its context");
    return compiler::simulateTransform(*ctx, stagePlan(config, n)).seconds;
}

std::vector<std::string>
PoissonBenchmark::kernelSources(const tuner::Config &config,
                                int64_t n) const
{
    if (n < 8 || n % 2 != 0)
        return {}; // priced +inf before any kernel runs
    return stageKernelSources(*analysis_, kernelNames_, stagePlan(config, n),
                              [n](int slot) { return poissonExtent(n, slot); });
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
    const compiler::TransformConfig &plan = stagePlan(config, n);
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
