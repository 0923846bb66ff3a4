#include "benchmarks/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "benchmarks/strassen.h"
#include "blas/blas.h"

namespace petabricks {
namespace apps {

namespace {

/** Jacobi sweep cost: ~6 rotations' worth of row/col updates. */
constexpr double kJacobiFlopsPerN3 = 12.0;
constexpr int kJacobiSweeps = 8;

} // namespace

void
jacobiEigen(MatrixD &b, MatrixD &v, int sweeps)
{
    int64_t n = b.width();
    PB_ASSERT(b.height() == n, "jacobiEigen needs a square matrix");
    v = MatrixD(n, n);
    for (int64_t i = 0; i < n; ++i)
        v.at(i, i) = 1.0;

    for (int sweep = 0; sweep < sweeps; ++sweep) {
        double off = 0.0;
        for (int64_t p = 0; p < n; ++p)
            for (int64_t q = p + 1; q < n; ++q)
                off += b.at(q, p) * b.at(q, p);
        if (off < 1e-24)
            break;
        for (int64_t p = 0; p < n; ++p) {
            for (int64_t q = p + 1; q < n; ++q) {
                double apq = b.at(q, p);
                if (std::abs(apq) < 1e-300)
                    continue;
                double app = b.at(p, p);
                double aqq = b.at(q, q);
                double theta = 0.5 * (aqq - app) / apq;
                double t = (theta >= 0 ? 1.0 : -1.0) /
                           (std::abs(theta) +
                            std::sqrt(1.0 + theta * theta));
                double c = 1.0 / std::sqrt(1.0 + t * t);
                double s = t * c;
                for (int64_t i = 0; i < n; ++i) {
                    double bip = b.at(p, i);
                    double biq = b.at(q, i);
                    b.at(p, i) = c * bip - s * biq;
                    b.at(q, i) = s * bip + c * biq;
                }
                for (int64_t i = 0; i < n; ++i) {
                    double bpi = b.at(i, p);
                    double bqi = b.at(i, q);
                    b.at(i, p) = c * bpi - s * bqi;
                    b.at(i, q) = s * bpi + c * bqi;
                }
                for (int64_t i = 0; i < n; ++i) {
                    double vip = v.at(p, i);
                    double viq = v.at(q, i);
                    v.at(p, i) = c * vip - s * viq;
                    v.at(q, i) = s * vip + c * viq;
                }
            }
        }
    }
}

namespace {

/** The real-mode approximation (see SvdBenchmark::approximate). */
MatrixD
approximateWithConfig(const tuner::Config &config, const MatrixD &a,
                      double *errorOut)
{
    int64_t n = a.width();
    PB_ASSERT(a.height() == n, "square matrices only");
    int64_t k = std::max<int64_t>(1, n * config.tunableValue("SVD.k8") / 8);

    // Phase 1: B = A^T A via the configured matmul machinery.
    MatrixD at(n, n);
    blas::transpose(a, at);
    MatrixD b(n, n);
    runMatmul(config, "SVD", at, a, b);

    // Phase 2: eigendecompose B (B is SPD; eigenvectors of B are the
    // right singular vectors of A).
    MatrixD v;
    jacobiEigen(b, v, kJacobiSweeps);

    // Order eigenpairs by eigenvalue, descending.
    std::vector<int64_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int64_t i, int64_t j) {
        return b.at(i, i) > b.at(j, j);
    });

    // Phase 3: A_k = A Vk Vk^T.
    MatrixD vk(k, n);
    for (int64_t c = 0; c < k; ++c)
        for (int64_t r = 0; r < n; ++r)
            vk.at(c, r) = v.at(order[static_cast<size_t>(c)], r);
    MatrixD vkt(n, k);
    blas::transpose(vk, vkt);
    MatrixD proj(n, n);
    runMatmul(config, "SVD", vk, vkt, proj);
    MatrixD ak(n, n);
    runMatmul(config, "SVD", a, proj, ak);

    if (errorOut) {
        double base = 0.0;
        for (int64_t i = 0; i < a.size(); ++i)
            base += a[i] * a[i];
        *errorOut = blas::frobeniusDiff(a, ak) /
                    std::max(std::sqrt(base), 1e-300);
    }
    return ak;
}

/** The SVD transform: Ak = truncated approximation of A. */
std::shared_ptr<lang::Transform>
makeSvdTransform(const ChoiceFilePtr &choices)
{
    auto t = std::make_shared<lang::Transform>("SVD");
    t->slot("A", lang::SlotRole::Input)
        .slot("Ak", lang::SlotRole::Output);
    auto rule = lang::RuleDef::makeRegion(
        "SvdApproximate", "Ak", {"A"},
        [choices](lang::RuleDef::RegionRunArgs &args) {
            MatrixD ak = approximateWithConfig(choices->get(),
                                               args.inputs[0], nullptr);
            for (int64_t i = 0; i < ak.size(); ++i)
                args.output[i] = ak[i];
        },
        [](const Region &region, const lang::ParamEnv &) {
            // Three matmuls plus Jacobi sweeps; the choice-aware model
            // lives in evaluate().
            double n = static_cast<double>(region.w);
            sim::CostReport cost;
            cost.flops = (6.0 + kJacobiFlopsPerN3) * n * n * n;
            return cost;
        });
    t->choice("approximate", {rule});
    return t;
}

} // namespace

SvdBenchmark::SvdBenchmark(double accuracyTarget)
    : accuracyTarget_(accuracyTarget),
      choices_(std::make_shared<ChoiceFile>()),
      transform_(makeSvdTransform(choices_))
{
    tuner::ConfigSchema::Builder schema;
    schema.addSelector("SVD.phase1", 2, kSvdPhase1Cpu);
    addMatmulChoices(schema, "SVD");
    // Rank fraction in eighths: the variable-accuracy knob. Start at
    // full rank (always meets the target).
    schema.addTunable({"SVD.k8", 1, 8, 8, false});
    schema_ = schema.build();
    mm_ = matmulChoiceIds(*schema_, "SVD");
    phase1Sel_ = schema_->selectorIndex("SVD.phase1");
    k8Tun_ = schema_->tunableIndex("SVD.k8");
}

lang::Binding
SvdBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    lang::Binding binding;
    MatrixD a(n, n);
    for (int64_t i = 0; i < a.size(); ++i)
        a[i] = rng.uniformReal(-1.0, 1.0);
    // A decaying diagonal boost gives the spectrum the truncation-aware
    // structure the tuning model assumes.
    for (int64_t i = 0; i < n; ++i)
        a.at(i, i) += 5.0 * std::exp(-4.0 * static_cast<double>(i) /
                                     static_cast<double>(n));
    binding.matrices.emplace("A", a);
    binding.matrices.emplace("Ak", MatrixD(n, n));
    return binding;
}

compiler::TransformConfig
SvdBenchmark::planFor(const tuner::Config &config, int64_t n) const
{
    (void)n;
    choices_->arm(config);
    compiler::TransformConfig plan;
    plan.choiceIndex = 0;
    plan.stages = {compiler::StageConfig{}}; // region rule: CPU native
    return plan;
}

double
SvdBenchmark::checkOutput(const lang::Binding &binding) const
{
    const MatrixD &a = binding.matrix("A");
    const MatrixD &ak = binding.matrix("Ak");
    double base = 0.0;
    for (int64_t i = 0; i < a.size(); ++i)
        base += a[i] * a[i];
    return blas::frobeniusDiff(a, ak) /
           std::max(std::sqrt(base), 1e-300);
}

tuner::Config
SvdBenchmark::seedConfig() const
{
    return tuner::Config(schema_);
}

double
SvdBenchmark::modeledError(int k8)
{
    // Synthetic exponentially decaying spectrum sigma_i ~ exp(-4 i/n):
    // err(k)^2 = sum_{i>=k} sigma_i^2 / sum_i sigma_i^2, evaluated in
    // the continuum limit (independent of n).
    double frac = static_cast<double>(k8) / 8.0;
    return std::sqrt(std::exp(-8.0 * frac));
}

double
SvdBenchmark::evaluate(const tuner::Config &config, int64_t n,
                       const sim::MachineProfile &machine) const
{
    int k8 = static_cast<int>(config.tunableValue("SVD.k8"));
    if (modeledError(k8) > accuracyTarget_)
        return std::numeric_limits<double>::infinity();
    double dn = static_cast<double>(n);
    double k = dn * k8 / 8.0;

    // Phase 1: B = A^T A (two halves of the output).
    double halfMm = modelMatmulSeconds(config, "SVD", n, machine,
                                       kLocalityPenalty) / 2.0;
    double phase1;
    if (config.selector("SVD.phase1").select(n) ==
        kSvdPhase1TaskParallel) {
        if (!machine.hasOpenCL)
            return std::numeric_limits<double>::infinity();
        // One half on the GPU (with its transfers), one on the CPU,
        // concurrently; the phase ends when both do.
        double bytes = 8.0 * dn * dn;
        sim::CostReport gpuHalf;
        gpuHalf.flops = 2.2 * dn * dn * dn; // half of 2n^3, inefficient kernel
        gpuHalf.globalBytesRead =
            0.1 * dn * dn * dn * 8.0 * kLocalityPenalty;
        gpuHalf.globalBytesWritten = 4.0 * dn * dn;
        double gpuSec =
            machine.transfer.seconds(2.0 * bytes) +
            sim::CostModel::kernelSeconds(machine.ocl, gpuHalf, 64);
        phase1 = std::max(halfMm, gpuSec);
    } else {
        phase1 = 2.0 * halfMm;
    }

    // Phase 2: Jacobi sweeps on the CPU (parallel rotations per sweep).
    int workers = std::min(machine.workerThreads, machine.cpu.cores);
    double rate = machine.cpu.gflopsPerCore * 1e9;
    double jacobi = kJacobiSweeps * kJacobiFlopsPerN3 * dn * dn * dn /
                    (rate * std::min(workers, 8));

    // Phase 3: project A onto the leading k directions (two n*k*n
    // multiplies, through the same matmul machinery cost-wise).
    double project = modelMatmulSeconds(config, "SVD", n, machine,
                                        kLocalityPenalty) *
                     (2.0 * k / dn);
    return phase1 + jacobi + project;
}

namespace {

/**
 * Everything in the SVD model that does not depend on the
 * configuration: the Jacobi phase, the task-parallel GPU half, the
 * matmul level constants, and the rank projection factor per k8
 * setting. Each stored value is the exact expression the reference
 * evaluate() computes (bit-identical).
 */
struct SvdEvalContext : apps::EvalContext
{
    MatmulLevelModel model;
    double jacobiSeconds;
    double gpuHalfSeconds;
    double projFactor[9] = {};
    bool k8Feasible[9] = {};

    SvdEvalContext(int64_t n, const sim::MachineProfile &machine,
                   double accuracyTarget)
        : model(n, machine, SvdBenchmark::kLocalityPenalty)
    {
        double dn = static_cast<double>(n);

        int workers = std::min(machine.workerThreads, machine.cpu.cores);
        double rate = machine.cpu.gflopsPerCore * 1e9;
        jacobiSeconds = kJacobiSweeps * kJacobiFlopsPerN3 * dn * dn *
                        dn / (rate * std::min(workers, 8));

        double bytes = 8.0 * dn * dn;
        sim::CostReport gpuHalf;
        gpuHalf.flops = 2.2 * dn * dn * dn;
        gpuHalf.globalBytesRead =
            0.1 * dn * dn * dn * 8.0 * SvdBenchmark::kLocalityPenalty;
        gpuHalf.globalBytesWritten = 4.0 * dn * dn;
        gpuHalfSeconds =
            machine.transfer.seconds(2.0 * bytes) +
            sim::CostModel::kernelSeconds(machine.ocl, gpuHalf, 64);

        for (int k8 = 1; k8 <= 8; ++k8) {
            double k = dn * k8 / 8.0;
            projFactor[k8] = 2.0 * k / dn;
            k8Feasible[k8] =
                SvdBenchmark::modeledError(k8) <= accuracyTarget;
        }
    }
};

} // namespace

apps::EvalContextPtr
SvdBenchmark::makeEvalContext(int64_t n,
                              const sim::MachineProfile &machine) const
{
    return std::make_shared<SvdEvalContext>(n, machine, accuracyTarget_);
}

double
SvdBenchmark::evaluate(const tuner::Config &config, int64_t n,
                       const sim::MachineProfile &machine,
                       const EvalContext *ctx) const
{
    if (ctx == nullptr)
        return evaluate(config, n, machine);
    const auto &svd = static_cast<const SvdEvalContext &>(*ctx);

    // Same arithmetic as the reference overload over the context's
    // precomputed constants, with the (identical) matmul model priced
    // once instead of twice.
    int k8 = static_cast<int>(config.tunableValueAt(k8Tun_));
    if (!svd.k8Feasible[k8])
        return std::numeric_limits<double>::infinity();

    double mm = svd.model.seconds(
        config.selectorAt(mm_.algorithm),
        static_cast<int>(config.tunableValueAt(mm_.lws)));
    double halfMm = mm / 2.0;
    double phase1;
    if (config.selectorAt(phase1Sel_).select(n) ==
        kSvdPhase1TaskParallel) {
        if (!machine.hasOpenCL)
            return std::numeric_limits<double>::infinity();
        phase1 = std::max(halfMm, svd.gpuHalfSeconds);
    } else {
        phase1 = 2.0 * halfMm;
    }

    return phase1 + svd.jacobiSeconds + mm * svd.projFactor[k8];
}

std::vector<std::string>
SvdBenchmark::kernelSources(const tuner::Config &config, int64_t n) const
{
    std::vector<std::string> sources;
    if (matmulUsesOpenCl(config.selectorAt(mm_.algorithm), n))
        sources.push_back(kMatmulKernel);
    if (config.selectorAt(phase1Sel_).select(n) == kSvdPhase1TaskParallel)
        sources.push_back(kMatmulKernel);
    return sources;
}

std::string
SvdBenchmark::describeConfig(const tuner::Config &config, int64_t n) const
{
    std::string phase1 =
        config.selector("SVD.phase1").select(n) == kSvdPhase1TaskParallel
            ? "task parallel CPU+GPU"
            : "all on CPU";
    return "first phase " + phase1 + "; matmul " +
           describeMatmul(config, "SVD", n) + "; k=" +
           std::to_string(config.tunableValue("SVD.k8")) + "/8";
}

MatrixD
SvdBenchmark::approximate(const tuner::Config &config, const MatrixD &a,
                          double *errorOut) const
{
    return approximateWithConfig(config, a, errorOut);
}

} // namespace apps
} // namespace petabricks
