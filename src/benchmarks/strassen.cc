#include "benchmarks/strassen.h"

#include <cmath>

#include "benchmarks/backend_util.h"
#include "blas/blas.h"
#include "compiler/kernel_synth.h"
#include "compiler/rule_cost.h"
#include "ocl/device.h"

namespace petabricks {
namespace apps {

namespace {

using lang::AccessPattern;
using lang::DimAccess;
using lang::ParamEnv;
using lang::PointArgs;
using lang::RuleDef;

/** Smallest size recursion bottoms out at regardless of the selector. */
constexpr int64_t kLeafSize = 16;

/**
 * Bandwidth-bound overhead of one level of recursive decomposition:
 * quadrant extraction, temporaries for the partial products, and the
 * combining adds all stream ~this many bytes per n^2 cells. It does not
 * scale with cores, which is why few-core machines (Laptop) prefer the
 * direct library call while many-core machines (Server) decompose.
 */
constexpr double kDecompBytesPerN2 = 240.0;

/**
 * The data-parallel matmul rule: Out(x,y) = sum_k A(k,y) * B(x,k).
 * Full-extent accesses mean the bounding box is not a constant, so no
 * local-memory variant is synthesized — matching the paper, where the
 * hand-coded local-memory matmul optimization was *not* something
 * their system generated.
 */
lang::RulePtr
matmulRule()
{
    auto rule = RuleDef::makePoint(
        "MatMul", "Out",
        {AccessPattern{"A", DimAccess::all(), DimAccess::window(0, 1)},
         AccessPattern{"B", DimAccess::window(0, 1), DimAccess::all()}},
        [](const PointArgs &pt) {
            int64_t k = pt.param(0);
            double sum = 0.0;
            for (int64_t i = 0; i < k; ++i)
                sum += pt.input(0).at(i, pt.y) * pt.input(1).at(pt.x, i);
            return sum;
        },
        [](const ParamEnv &params) {
            // One-output-per-item matmul kernels reach well below peak
            // (no register blocking): charge the inefficiency here.
            return 2.2 * 2.0 * static_cast<double>(params[0]);
        });
    // Matmul rows/columns live in registers and L1 across a work-group;
    // far more reuse than a stencil window.
    rule->setGpuCacheHitRate(0.97);
    return rule;
}

const lang::RulePtr &
sharedMatmulRule()
{
    static lang::RulePtr rule = matmulRule();
    return rule;
}

/** The synthesized OpenCL matmul kernel at size n, with its transfers. */
double
openclMatmulSeconds(int lws, int64_t n, const sim::MachineProfile &machine,
                    double localityPenalty)
{
    if (!machine.hasOpenCL)
        return std::numeric_limits<double>::infinity();
    const lang::RuleDef &rule = *sharedMatmulRule();
    ocl::NDRange range(n, n, lws, 1);
    compiler::SlotExtents extents;
    extents.inputs = {{n, n}, {n, n}};
    extents.outputW = n;
    extents.outputH = n;
    sim::CostReport cost = compiler::pointRuleGlobalCost(
        rule, Region(0, 0, n, n), extents, {n}, range);
    cost.globalBytesRead *= localityPenalty;
    if (machine.oclSharesCpu) {
        // An untiled kernel vectorized onto the host CPU misses the
        // caches the hit-rate model assumes a GPU provides.
        cost.globalBytesRead *= 4.0;
    }
    double kernel =
        sim::CostModel::kernelSeconds(machine.ocl, cost, lws);
    double bytes = 3.0 * 8.0 * static_cast<double>(n) * n;
    return machine.transfer.seconds(bytes) + kernel;
}

// ---- Real-mode execution ----------------------------------------------

// Quadrants halve each dimension separately: SVD's projection
// multiplies an n x k matrix by a k x n one.

MatrixD
quadrant(const MatrixD &m, int qx, int qy)
{
    int64_t w = m.width() / 2, h = m.height() / 2;
    MatrixD out(w, h);
    for (int64_t y = 0; y < h; ++y)
        for (int64_t x = 0; x < w; ++x)
            out.at(x, y) = m.at(qx * w + x, qy * h + y);
    return out;
}

void
placeQuadrant(MatrixD &m, const MatrixD &q, int qx, int qy)
{
    int64_t w = m.width() / 2, h = m.height() / 2;
    for (int64_t y = 0; y < h; ++y)
        for (int64_t x = 0; x < w; ++x)
            m.at(qx * w + x, qy * h + y) = q.at(x, y);
}

/** True when every dimension of c = a * b halves evenly above the
 * leaf size, so the recursive algorithms can split it. */
bool
halvable(const MatrixD &a, const MatrixD &c)
{
    for (int64_t extent : {c.height(), a.width(), c.width()})
        if (extent <= kLeafSize || extent % 2 != 0)
            return false;
    return true;
}

MatrixD
addM(const MatrixD &a, const MatrixD &b)
{
    MatrixD out(a.width(), a.height());
    for (int64_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + b[i];
    return out;
}

MatrixD
subM(const MatrixD &a, const MatrixD &b)
{
    MatrixD out(a.width(), a.height());
    for (int64_t i = 0; i < a.size(); ++i)
        out[i] = a[i] - b[i];
    return out;
}

void
naiveMM(const MatrixD &a, const MatrixD &b, MatrixD &c)
{
    int64_t n = a.height(), k = a.width(), m = b.width();
    for (int64_t y = 0; y < n; ++y)
        for (int64_t x = 0; x < m; ++x) {
            double sum = 0.0;
            for (int64_t p = 0; p < k; ++p)
                sum += a.at(p, y) * b.at(x, p);
            c.at(x, y) = sum;
        }
}

void
openclMM(const MatrixD &a, const MatrixD &b, MatrixD &c, int lws)
{
    const lang::RulePtr &rule = sharedMatmulRule();
    static compiler::SynthesizedKernel kernels =
        compiler::synthesizeKernels(rule);
    auto upload = [](const MatrixD &m) {
        auto buf = std::make_shared<ocl::Buffer>(m.bytes());
        std::memcpy(buf->raw(), m.data(), static_cast<size_t>(m.bytes()));
        return buf;
    };
    auto aBuf = upload(a);
    auto bBuf = upload(b);
    auto cBuf = std::make_shared<ocl::Buffer>(c.bytes());
    ocl::KernelArgs args = compiler::makeKernelArgs(
        *rule, cBuf, {aBuf, bBuf}, c.width(), c.height(),
        c.fullRegion(), {{a.width(), a.height()}, {b.width(), b.height()}},
        {a.width()});
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    device.launch(*kernels.global, args,
                  ocl::NDRange(c.width(), c.height(), lws, 1));
    std::memcpy(c.data(), cBuf->raw(), static_cast<size_t>(c.bytes()));
}

void
dispatchMM(const tuner::Config &config, const std::string &prefix,
           const MatrixD &a, const MatrixD &b, MatrixD &c)
{
    int64_t n = c.width();
    int alg = halvable(a, c)
                  ? config.selector(prefix + ".mm.algorithm").select(n)
                  : kMmNaive;
    int64_t w = n / 2, h = c.height() / 2; // the quadrants of c
    switch (alg) {
      case kMmLapack:
        blas::gemm(a, b, c);
        return;
      case kMmNaive:
        naiveMM(a, b, c);
        return;
      case kMmBlocked:
        blas::gemm(a, b, c); // blocked native path
        return;
      case kMmOpenCl:
        openclMM(a, b, c,
                 static_cast<int>(
                     config.tunableValue(prefix + ".mm.lws")));
        return;
      case kMmRecursive8: {
        for (int qy = 0; qy < 2; ++qy)
            for (int qx = 0; qx < 2; ++qx) {
                MatrixD p1(w, h), p2(w, h);
                dispatchMM(config, prefix, quadrant(a, 0, qy),
                           quadrant(b, qx, 0), p1);
                dispatchMM(config, prefix, quadrant(a, 1, qy),
                           quadrant(b, qx, 1), p2);
                placeQuadrant(c, addM(p1, p2), qx, qy);
            }
        return;
      }
      case kMmStrassen: {
        MatrixD a11 = quadrant(a, 0, 0), a12 = quadrant(a, 1, 0);
        MatrixD a21 = quadrant(a, 0, 1), a22 = quadrant(a, 1, 1);
        MatrixD b11 = quadrant(b, 0, 0), b12 = quadrant(b, 1, 0);
        MatrixD b21 = quadrant(b, 0, 1), b22 = quadrant(b, 1, 1);
        MatrixD m1(w, h), m2(w, h), m3(w, h), m4(w, h), m5(w, h),
            m6(w, h), m7(w, h);
        dispatchMM(config, prefix, addM(a11, a22), addM(b11, b22), m1);
        dispatchMM(config, prefix, addM(a21, a22), b11, m2);
        dispatchMM(config, prefix, a11, subM(b12, b22), m3);
        dispatchMM(config, prefix, a22, subM(b21, b11), m4);
        dispatchMM(config, prefix, addM(a11, a12), b22, m5);
        dispatchMM(config, prefix, subM(a21, a11), addM(b11, b12), m6);
        dispatchMM(config, prefix, subM(a12, a22), addM(b21, b22), m7);
        placeQuadrant(c, addM(subM(addM(m1, m4), m5), m7), 0, 0);
        placeQuadrant(c, addM(m3, m5), 1, 0);
        placeQuadrant(c, addM(m2, m4), 0, 1);
        placeQuadrant(c, addM(subM(addM(m1, m3), m2), m6), 1, 1);
        return;
      }
      default:
        PB_PANIC("bad matmul algorithm " << alg);
    }
}

/** Figure 6 names, by MatmulAlg. */
constexpr const char *kMmAlgNames[] = {
    "LAPACK",  "8-way recursive", "Strassen",
    "blocked", "naive",           "data-parallel OpenCL"};
static_assert(std::size(kMmAlgNames) == kMmAlgCount);

} // namespace

void
addMatmulChoices(tuner::ConfigSchema::Builder &schema,
                 const std::string &prefix)
{
    schema.addSelector(prefix + ".mm.algorithm", kMmAlgCount, kMmNaive);
    schema.addTunable({prefix + ".mm.lws", 1, 1024, 64, false});
}

MatmulChoiceIds
matmulChoiceIds(const tuner::ConfigSchema &schema, const std::string &prefix)
{
    return {schema.selectorIndex(prefix + ".mm.algorithm"),
            schema.tunableIndex(prefix + ".mm.lws")};
}

LevelChain
matmulLevels(const tuner::Config &config, const MatmulChoiceIds &ids,
             int64_t n)
{
    const tuner::SelectorView algorithm = config.selectorAt(ids.algorithm);
    LevelChain levels;
    for (int64_t s = n;; s /= 2) {
        int alg = s <= kLeafSize ? kMmNaive : algorithm.select(s);
        levels.push(s, alg);
        if (alg != kMmRecursive8 && alg != kMmStrassen)
            return levels;
    }
}

double
matmulSeconds(const tuner::Config &config, const MatmulChoiceIds &ids,
              const LevelChain &levels, const sim::MachineProfile &machine,
              double localityPenalty)
{
    const int lws = static_cast<int>(config.tunableValueAt(ids.lws));
    const int workers = std::min(machine.workerThreads, machine.cpu.cores);
    const double rate = machine.cpu.gflopsPerCore * 1e9;
    const double memRate =
        machine.cpu.memBandwidthGBs * 1e9 / localityPenalty;

    // Work and span of each level over those of its recursive child,
    // from the deepest level up.
    WorkSpan ws;
    for (size_t i = levels.size(); i-- > 0;) {
        const Level &level = levels[i];
        const double dn = static_cast<double>(level.n);
        switch (level.alg) {
          case kMmLapack: {
            // The machine's library build decides both vector
            // efficiency and whether the call itself is threaded.
            double libRate =
                machine.blasSpeedup * rate *
                std::min(machine.blasThreads, machine.cpu.cores);
            double flops = 2.0 * dn * dn * dn;
            double bytes = 3.0 * 8.0 * dn * dn;
            double t = std::max(flops / libRate, bytes / memRate);
            // Occupies blasThreads workers; treat as span for
            // scheduling.
            ws = {t * machine.blasThreads, t};
            break;
          }
          case kMmNaive:
          case kMmBlocked: {
            double flops = 2.0 * dn * dn * dn;
            if (level.alg == kMmBlocked)
                flops /= 1.5; // register blocking / better ILP
            double t = std::max(flops / rate,
                                3.0 * 8.0 * dn * dn / memRate);
            // Data-parallel loop nest: scales across the worker pool.
            ws = {t, t / workers};
            break;
          }
          case kMmRecursive8: {
            double combine = 2.0 * dn * dn / rate;
            double shuffle = kDecompBytesPerN2 * dn * dn / memRate;
            ws = {8 * ws.work + combine + shuffle,
                  ws.span + combine / workers + shuffle};
            break;
          }
          case kMmStrassen: {
            double adds = 9.0 * dn * dn / rate; // 18 (n/2)^2 add matrices
            double shuffle = 1.5 * kDecompBytesPerN2 * dn * dn / memRate;
            ws = {7 * ws.work + adds + shuffle,
                  ws.span + adds / workers + shuffle};
            break;
          }
          case kMmOpenCl: {
            double t = openclMatmulSeconds(lws, level.n, machine,
                                           localityPenalty);
            ws = {t, t};
            break;
          }
          default:
            PB_PANIC("bad matmul algorithm " << level.alg);
        }
    }
    return std::max(ws.work / workers, ws.span);
}

void
runMatmul(const tuner::Config &config, const std::string &prefix,
          const MatrixD &a, const MatrixD &b, MatrixD &c)
{
    PB_ASSERT(a.width() == b.height() && c.width() == b.width() &&
                  c.height() == a.height(),
              "matmul shape mismatch");
    dispatchMM(config, prefix, a, b, c);
}

std::string
describeMatmul(const LevelChain &levels)
{
    return describeLevels(levels, kMmAlgNames);
}

namespace {

/** The Strassen transform: C = A * B through the poly-algorithm. */
std::shared_ptr<lang::Transform>
makeStrassenTransform(const ChoiceFilePtr &choices)
{
    auto t = std::make_shared<lang::Transform>("Strassen");
    t->slot("A", lang::SlotRole::Input)
        .slot("B", lang::SlotRole::Input)
        .slot("C", lang::SlotRole::Output);
    auto rule = lang::RuleDef::makeRegion(
        "MatMulPoly", "C", {"A", "B"},
        [choices](lang::RuleDef::RegionRunArgs &args) {
            runMatmul(choices->get(), "Strassen", args.inputs[0],
                      args.inputs[1], args.output);
        },
        [](const Region &region, const lang::ParamEnv &) {
            // ~2 n^3 flops; the choice-aware model lives in evaluate().
            double n = static_cast<double>(region.w);
            sim::CostReport cost;
            cost.flops = 2.0 * n * n * n;
            return cost;
        });
    t->choice("poly", {rule});
    return t;
}

} // namespace

StrassenBenchmark::StrassenBenchmark()
    : choices_(std::make_shared<ChoiceFile>()),
      transform_(makeStrassenTransform(choices_))
{
    tuner::ConfigSchema::Builder schema;
    addMatmulChoices(schema, "Strassen");
    schema_ = schema.build();
    mm_ = matmulChoiceIds(*schema_, "Strassen");
}

lang::Binding
StrassenBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    lang::Binding binding;
    MatrixD a(n, n), b(n, n);
    for (int64_t i = 0; i < a.size(); ++i) {
        a[i] = rng.uniformReal(-1.0, 1.0);
        b[i] = rng.uniformReal(-1.0, 1.0);
    }
    binding.matrices.emplace("A", a);
    binding.matrices.emplace("B", b);
    binding.matrices.emplace("C", MatrixD(n, n));
    return binding;
}

compiler::TransformConfig
StrassenBenchmark::planFor(const tuner::Config &config, int64_t n) const
{
    (void)n;
    choices_->arm(config);
    compiler::TransformConfig plan;
    plan.choiceIndex = 0;
    plan.stages = {compiler::StageConfig{}}; // region rule: CPU native
    return plan;
}

double
StrassenBenchmark::checkOutput(const lang::Binding &binding) const
{
    const MatrixD &a = binding.matrix("A");
    const MatrixD &b = binding.matrix("B");
    MatrixD ref(a.width(), a.height());
    blas::gemm(a, b, ref);
    return maxAbsDiff(binding.matrix("C"), ref);
}

tuner::Config
StrassenBenchmark::seedConfig() const
{
    return tuner::Config(schema_);
}

double
StrassenBenchmark::evaluate(const tuner::Config &config, int64_t n,
                            const sim::MachineProfile &machine,
                            const EvalContext *) const
{
    return matmulSeconds(config, mm_, matmulLevels(config, mm_, n), machine);
}

std::vector<std::string>
StrassenBenchmark::kernelSources(const tuner::Config &config,
                                 int64_t n) const
{
    if (matmulLevels(config, mm_, n).back().alg == kMmOpenCl)
        return {kMatmulKernel};
    return {};
}

std::string
StrassenBenchmark::describeConfig(const tuner::Config &config,
                                  int64_t n) const
{
    return describeMatmul(matmulLevels(config, mm_, n));
}

double
StrassenBenchmark::handCodedMatmulSeconds(int64_t n,
                                          const sim::MachineProfile &m)
{
    if (!m.hasOpenCL)
        return std::numeric_limits<double>::infinity();
    // 16x16 local-memory tiles accumulating partial outputs in the
    // scratchpad: global traffic drops to 2n^3/16, the rest rides the
    // local-memory path.
    double dn = static_cast<double>(n);
    sim::CostReport cost;
    cost.flops = 2.0 * dn * dn * dn;
    cost.globalBytesRead = 2.0 * dn * dn * dn * 8.0 / 16.0;
    cost.globalBytesWritten = dn * dn * 8.0;
    cost.localBytes = 2.0 * dn * dn * dn * 8.0 / 4.0;
    cost.barriers = dn * dn / 256.0 * (dn / 16.0);
    double kernel = sim::CostModel::kernelSeconds(m.ocl, cost, 256);
    return m.transfer.seconds(3.0 * 8.0 * dn * dn) + kernel;
}

} // namespace apps
} // namespace petabricks
