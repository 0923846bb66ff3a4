#include "benchmarks/tridiagonal.h"

#include <cmath>

#include "ocl/device.h"
#include "sim/cost_model.h"

namespace petabricks {
namespace apps {

namespace {

/**
 * Model constants. Divisions in the Thomas recurrence form a dependent
 * chain that neither pipelines nor vectorizes, so they are charged as
 * kDivFlopEquiv scalar-flop equivalents and the whole solve runs at
 * kChainRate of peak.
 */
constexpr double kDivFlopEquiv = 60.0;
constexpr double kThomasOps = 14.0 + 2.0 * kDivFlopEquiv;
constexpr double kChainRate = 0.5;
constexpr double kThomasBytes = 56.0; // per unknown, through caches
constexpr double kCrOpsCpu = 23.0 + 3.0 * kDivFlopEquiv;
constexpr double kCrFlopsGpu = 14.0;  // GPU divide throughput is high
constexpr double kCrBytesGpu = 120.0; // per item, global-memory CR

/** Thomas solve of one system (a: sub, b: diag, c: super, d: rhs). */
void
thomasRow(const double *a, const double *b, const double *c,
          const double *d, double *x, int64_t n)
{
    std::vector<double> cp(static_cast<size_t>(n));
    std::vector<double> dp(static_cast<size_t>(n));
    cp[0] = c[0] / b[0];
    dp[0] = d[0] / b[0];
    for (int64_t i = 1; i < n; ++i) {
        double m = b[i] - a[i] * cp[static_cast<size_t>(i - 1)];
        cp[static_cast<size_t>(i)] = c[i] / m;
        dp[static_cast<size_t>(i)] =
            (d[i] - a[i] * dp[static_cast<size_t>(i - 1)]) / m;
    }
    x[n - 1] = dp[static_cast<size_t>(n - 1)];
    for (int64_t i = n - 2; i >= 0; --i)
        x[i] = dp[static_cast<size_t>(i)] -
               cp[static_cast<size_t>(i)] * x[i + 1];
}

/** Recursive cyclic reduction of one system (n a power of two). */
void
cyclicReduceRow(std::vector<double> a, std::vector<double> b,
                std::vector<double> c, std::vector<double> d, double *x,
                int64_t n)
{
    if (n == 1) {
        x[0] = d[0] / b[0];
        return;
    }
    int64_t half = n / 2;
    std::vector<double> a2(half), b2(half), c2(half), d2(half);
    for (int64_t j = 0; j < half; ++j) {
        int64_t i = 2 * j + 1;
        double alpha = a[static_cast<size_t>(i)] /
                       b[static_cast<size_t>(i - 1)];
        double beta = i + 1 < n ? c[static_cast<size_t>(i)] /
                                      b[static_cast<size_t>(i + 1)]
                                : 0.0;
        a2[static_cast<size_t>(j)] =
            -alpha * a[static_cast<size_t>(i - 1)];
        b2[static_cast<size_t>(j)] =
            b[static_cast<size_t>(i)] -
            alpha * c[static_cast<size_t>(i - 1)] -
            (i + 1 < n ? beta * a[static_cast<size_t>(i + 1)] : 0.0);
        c2[static_cast<size_t>(j)] =
            i + 1 < n ? -beta * c[static_cast<size_t>(i + 1)] : 0.0;
        d2[static_cast<size_t>(j)] =
            d[static_cast<size_t>(i)] -
            alpha * d[static_cast<size_t>(i - 1)] -
            (i + 1 < n ? beta * d[static_cast<size_t>(i + 1)] : 0.0);
    }
    std::vector<double> xo(static_cast<size_t>(half));
    cyclicReduceRow(std::move(a2), std::move(b2), std::move(c2),
                    std::move(d2), xo.data(), half);
    for (int64_t j = 0; j < half; ++j)
        x[2 * j + 1] = xo[static_cast<size_t>(j)];
    for (int64_t j = 0; j < half; ++j) {
        int64_t i = 2 * j;
        double left = i > 0 ? a[static_cast<size_t>(i)] * x[i - 1] : 0.0;
        double right =
            i + 1 < n ? c[static_cast<size_t>(i)] * x[i + 1] : 0.0;
        x[i] = (d[static_cast<size_t>(i)] - left - right) /
               b[static_cast<size_t>(i)];
    }
}

std::vector<double>
rowVec(const MatrixD &m, int64_t row)
{
    std::vector<double> v(static_cast<size_t>(m.width()));
    for (int64_t i = 0; i < m.width(); ++i)
        v[static_cast<size_t>(i)] = m.at(i, row);
    return v;
}

/** Batched CR routed through the emulated device: one work-item per
 * system (the real per-level parallel structure is captured by the
 * timing model, the device run provides functional fidelity). */
MatrixD
cyclicReduceGpu(const TridiagProblem &p)
{
    int64_t n = p.unknowns();
    int64_t m = p.systems();
    auto upload = [](const MatrixD &mat) {
        auto buf = std::make_shared<ocl::Buffer>(mat.bytes());
        std::memcpy(buf->raw(), mat.data(),
                    static_cast<size_t>(mat.bytes()));
        return buf;
    };
    auto aB = upload(p.lower), bB = upload(p.diag), cB = upload(p.upper),
         dB = upload(p.rhs);
    auto xB = std::make_shared<ocl::Buffer>(n * m * 8);

    auto kernel = std::make_shared<ocl::Kernel>(
        "cr_solve", "pbcl:tridiag:cr",
        [n](ocl::GroupCtx &ctx) {
            const double *a = ctx.args().buffer(0).as<double>();
            const double *b = ctx.args().buffer(1).as<double>();
            const double *c = ctx.args().buffer(2).as<double>();
            const double *d = ctx.args().buffer(3).as<double>();
            double *x = ctx.args().buffer(4).as<double>();
            ctx.forEachItem([&](int64_t sys, int64_t, int64_t, int64_t) {
                std::vector<double> av(a + sys * n, a + (sys + 1) * n);
                std::vector<double> bv(b + sys * n, b + (sys + 1) * n);
                std::vector<double> cv(c + sys * n, c + (sys + 1) * n);
                std::vector<double> dv(d + sys * n, d + (sys + 1) * n);
                cyclicReduceRow(std::move(av), std::move(bv),
                                std::move(cv), std::move(dv),
                                x + sys * n, n);
            });
        },
        [n](const ocl::KernelArgs &, const ocl::NDRange &range) {
            sim::CostReport cost;
            double items = static_cast<double>(range.items()) * 2 *
                           static_cast<double>(n);
            cost.flops = kCrFlopsGpu * items;
            cost.globalBytesRead = kCrBytesGpu * items;
            return cost;
        });
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    ocl::KernelArgs args;
    args.buffers = {aB, bB, cB, dB, xB};
    device.launch(*kernel, args, ocl::NDRange::linear(m, 64));

    MatrixD x(n, m);
    std::memcpy(x.data(), xB->raw(), static_cast<size_t>(x.bytes()));
    return x;
}

/** View the bound batch as a TridiagProblem (shares storage). */
TridiagProblem
problemOf(const lang::Binding &binding)
{
    return TridiagProblem{
        binding.matrix("Lower"), binding.matrix("Diag"),
        binding.matrix("Upper"), binding.matrix("Rhs")};
}

/** The Tridiagonal transform: one region rule running the solver. */
std::shared_ptr<lang::Transform>
makeTridiagTransform(const ChoiceFilePtr &choices)
{
    auto t = std::make_shared<lang::Transform>("TridiagonalSolver");
    t->slot("Lower", lang::SlotRole::Input)
        .slot("Diag", lang::SlotRole::Input)
        .slot("Upper", lang::SlotRole::Input)
        .slot("Rhs", lang::SlotRole::Input)
        .slot("X", lang::SlotRole::Output);
    auto rule = lang::RuleDef::makeRegion(
        "TridiagSolve", "X", {"Lower", "Diag", "Upper", "Rhs"},
        [choices](lang::RuleDef::RegionRunArgs &args) {
            TridiagProblem p{args.inputs[0], args.inputs[1],
                             args.inputs[2], args.inputs[3]};
            MatrixD x =
                TridiagBenchmark::solveWithConfig(choices->get(), p);
            for (int64_t i = 0; i < x.size(); ++i)
                args.output[i] = x[i];
        },
        [](const Region &region, const lang::ParamEnv &) {
            double unknowns =
                static_cast<double>(region.w * region.h);
            sim::CostReport cost;
            cost.flops = kThomasOps * unknowns;
            cost.globalBytesRead = kThomasBytes * unknowns;
            return cost;
        });
    t->choice("solve", {rule});
    return t;
}

tuner::ConfigSchemaPtr
tridiagSchema()
{
    tuner::ConfigSchema::Builder schema;
    schema.addSelector("Tridiag.algorithm", kTriAlgCount, kTriThomas);
    schema.addTunable({"Tridiag.lws", 1, 1024, 128, false});
    return schema.build();
}

} // namespace

TridiagBenchmark::TridiagBenchmark()
    : FunctionStyleBenchmark(makeTridiagTransform, tridiagSchema()),
      algorithmSel_(schema().selectorIndex("Tridiag.algorithm")),
      lwsTun_(schema().tunableIndex("Tridiag.lws"))
{}

lang::Binding
TridiagBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    TridiagProblem p = makeProblem(n, rng);
    lang::Binding binding;
    binding.matrices.emplace("Lower", p.lower);
    binding.matrices.emplace("Diag", p.diag);
    binding.matrices.emplace("Upper", p.upper);
    binding.matrices.emplace("Rhs", p.rhs);
    binding.matrices.emplace("X", MatrixD(n, n));
    return binding;
}

double
TridiagBenchmark::checkOutput(const lang::Binding &binding) const
{
    return maxAbsDiff(binding.matrix("X"),
                      referenceSolve(problemOf(binding)));
}

namespace {

double
modelThomasSeconds(int64_t n, const sim::MachineProfile &machine)
{
    double dn = static_cast<double>(n);
    double unknowns = dn * dn; // n systems of n
    int workers = std::min(machine.workerThreads, machine.cpu.cores);
    double rate = machine.cpu.gflopsPerCore * 1e9;
    double memRate = machine.cpu.memBandwidthGBs * 1e9;
    double work = unknowns * kThomasOps / (rate * kChainRate);
    double span = dn * kThomasOps / (rate * kChainRate);
    double mem = unknowns * kThomasBytes / memRate;
    return std::max({work / workers, span, mem});
}

double
modelCyclicCpuSeconds(int64_t n, const sim::MachineProfile &machine)
{
    double dn = static_cast<double>(n);
    double unknowns = dn * dn;
    int workers = std::min(machine.workerThreads, machine.cpu.cores);
    double rate = machine.cpu.gflopsPerCore * 1e9;
    double memRate = machine.cpu.memBandwidthGBs * 1e9;
    // Twice the items (forward + back), heavier per-item ops.
    double work = 2.0 * unknowns * kCrOpsCpu / (rate * kChainRate);
    double mem = 2.0 * unknowns * kCrBytesGpu / memRate;
    return std::max(work / workers, mem);
}

double
modelCyclicGpuSeconds(int64_t n, int lws,
                      const sim::MachineProfile &machine)
{
    double dn = static_cast<double>(n);
    double unknowns = dn * dn;
    double transfers = machine.transfer.seconds(4.0 * 8.0 * unknowns) +
                       machine.transfer.seconds(8.0 * unknowns);
    double items = 2.0 * unknowns;
    sim::CostReport level;
    // 2 log2(n) kernel launches sweep ~n^2 total items each way.
    double launches = 2.0 * std::log2(dn);
    level.flops = kCrFlopsGpu * items;
    level.globalBytesRead = kCrBytesGpu * items;
    level.invocations = launches;
    double kernels =
        sim::CostModel::kernelSeconds(machine.ocl, level, lws);
    return transfers + kernels;
}

} // namespace

double
TridiagBenchmark::evaluate(const tuner::Config &config, int64_t n,
                           const sim::MachineProfile &machine,
                           const EvalContext *) const
{
    switch (config.selectorAt(algorithmSel_).select(n)) {
      case kTriThomas:
        return modelThomasSeconds(n, machine);
      case kTriCyclicCpu:
        return modelCyclicCpuSeconds(n, machine);
      case kTriCyclicGpu: {
        if (!machine.hasOpenCL)
            return std::numeric_limits<double>::infinity();
        int lws = static_cast<int>(config.tunableValueAt(lwsTun_));
        return modelCyclicGpuSeconds(n, lws, machine);
      }
      default:
        PB_PANIC("bad tridiag algorithm");
    }
}

std::vector<std::string>
TridiagBenchmark::kernelSources(const tuner::Config &config,
                                int64_t n) const
{
    if (config.selectorAt(algorithmSel_).select(n) == kTriCyclicGpu)
        return {crKernel_};
    return {};
}

std::string
TridiagBenchmark::describeConfig(const tuner::Config &config,
                                 int64_t n) const
{
    static constexpr const char *kDescriptions[kTriAlgCount] = {
        "direct solve on CPU", "cyclic reduction on CPU",
        "cyclic reduction on GPU"};
    return kDescriptions[config.selectorAt(algorithmSel_).select(n)];
}

TridiagProblem
TridiagBenchmark::makeProblem(int64_t n, Rng &rng)
{
    PB_ASSERT(n >= 2 && (n & (n - 1)) == 0,
              "system size must be a power of two");
    TridiagProblem p{MatrixD(n, n), MatrixD(n, n), MatrixD(n, n),
                     MatrixD(n, n)};
    for (int64_t sys = 0; sys < n; ++sys) {
        for (int64_t i = 0; i < n; ++i) {
            double lo = i == 0 ? 0.0 : rng.uniformReal(-1.0, 1.0);
            double hi = i == n - 1 ? 0.0 : rng.uniformReal(-1.0, 1.0);
            p.lower.at(i, sys) = lo;
            p.upper.at(i, sys) = hi;
            // Strictly diagonally dominant: stable for both solvers.
            p.diag.at(i, sys) =
                4.0 + std::abs(lo) + std::abs(hi) +
                rng.uniformReal(0.0, 1.0);
            p.rhs.at(i, sys) = rng.uniformReal(-10.0, 10.0);
        }
    }
    return p;
}

MatrixD
TridiagBenchmark::solveWithConfig(const tuner::Config &config,
                                  const TridiagProblem &p)
{
    int64_t n = p.unknowns();
    switch (config.selector("Tridiag.algorithm").select(n)) {
      case kTriThomas:
        return referenceSolve(p);
      case kTriCyclicCpu: {
        MatrixD x(n, p.systems());
        for (int64_t sys = 0; sys < p.systems(); ++sys) {
            cyclicReduceRow(rowVec(p.lower, sys), rowVec(p.diag, sys),
                            rowVec(p.upper, sys), rowVec(p.rhs, sys),
                            x.data() + sys * n, n);
        }
        return x;
      }
      case kTriCyclicGpu:
        return cyclicReduceGpu(p);
      default:
        PB_PANIC("bad tridiag algorithm");
    }
}

MatrixD
TridiagBenchmark::referenceSolve(const TridiagProblem &p)
{
    int64_t n = p.unknowns();
    MatrixD x(n, p.systems());
    for (int64_t sys = 0; sys < p.systems(); ++sys) {
        thomasRow(p.lower.data() + sys * n, p.diag.data() + sys * n,
                  p.upper.data() + sys * n, p.rhs.data() + sys * n,
                  x.data() + sys * n, n);
    }
    return x;
}

double
TridiagBenchmark::cudppSeconds(int64_t n, const sim::MachineProfile &m)
{
    if (!m.hasOpenCL)
        return std::numeric_limits<double>::infinity();
    // CUDA CR with bank-conflict-free shared memory: single staging
    // load per item, the rest in the scratchpad; CUDA also skips the
    // OpenCL runtime's launch overhead. CUDPP's published numbers do
    // not include PCIe transfers, and neither does this model.
    double unknowns = static_cast<double>(n) * n;
    sim::CostReport level;
    level.flops = kCrFlopsGpu * 2.0 * unknowns;
    level.globalBytesRead = 40.0 * unknowns;
    level.localBytes = kCrBytesGpu * 2.0 * unknowns;
    level.invocations = 2.0 * std::log2(static_cast<double>(n));
    return sim::CostModel::kernelSeconds(m.ocl, level, 256);
}

} // namespace apps
} // namespace petabricks
