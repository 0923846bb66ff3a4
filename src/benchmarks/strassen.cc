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

struct WorkSpan
{
    double work = 0.0;
    double span = 0.0;
};

// The matmul model is written once, parameterized over how the config
// is consulted: the reference path passes lambdas that look selectors
// and tunables up by name per recursive level (the pre-context
// behavior the throughput bench measures against), the fast path
// passes O(1) reads of pre-resolved positions. Both produce
// bit-identical numbers.

/** @param lwsOf nullary: the "<prefix>.mm.lws" tunable value. */
template <typename LwsOf>
double
opencilMatmulSecondsT(const LwsOf &lwsOf, int64_t n,
                      const sim::MachineProfile &machine,
                      double localityPenalty)
{
    if (!machine.hasOpenCL)
        return std::numeric_limits<double>::infinity();
    const lang::RuleDef &rule = *sharedMatmulRule();
    int lws = lwsOf();
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

/** @param algOf size -> "<prefix>.mm.algorithm" selection. */
template <typename AlgOf, typename LwsOf>
WorkSpan
modelMMT(const AlgOf &algOf, const LwsOf &lwsOf, int64_t n,
         const sim::MachineProfile &machine, double localityPenalty)
{
    double dn = static_cast<double>(n);
    int workers = std::min(machine.workerThreads, machine.cpu.cores);
    double rate = machine.cpu.gflopsPerCore * 1e9;
    double memRate = machine.cpu.memBandwidthGBs * 1e9 / localityPenalty;

    int alg = n <= kLeafSize ? kMmNaive : algOf(n);
    switch (alg) {
      case kMmLapack: {
        // The machine's library build decides both vector efficiency
        // and whether the call itself is threaded.
        double libRate = machine.blasSpeedup * rate *
                         std::min(machine.blasThreads, machine.cpu.cores);
        double flops = 2.0 * dn * dn * dn;
        double bytes = 3.0 * 8.0 * dn * dn;
        double t = std::max(flops / libRate, bytes / memRate);
        // Occupies blasThreads workers; treat as span for scheduling.
        return {t * machine.blasThreads, t};
      }
      case kMmNaive:
      case kMmBlocked: {
        double flops = 2.0 * dn * dn * dn;
        if (alg == kMmBlocked)
            flops /= 1.5; // register blocking / better ILP
        double t = std::max(flops / rate,
                            3.0 * 8.0 * dn * dn / memRate);
        // Data-parallel loop nest: scales across the worker pool.
        return {t, t / workers};
      }
      case kMmRecursive8: {
        WorkSpan child =
            modelMMT(algOf, lwsOf, n / 2, machine, localityPenalty);
        double combine = 2.0 * dn * dn / rate;
        double shuffle = kDecompBytesPerN2 * dn * dn / memRate;
        return {8 * child.work + combine + shuffle,
                child.span + combine / workers + shuffle};
      }
      case kMmStrassen: {
        WorkSpan child =
            modelMMT(algOf, lwsOf, n / 2, machine, localityPenalty);
        double adds = 9.0 * dn * dn / rate; // 18 (n/2)^2 add matrices
        double shuffle = 1.5 * kDecompBytesPerN2 * dn * dn / memRate;
        return {7 * child.work + adds + shuffle,
                child.span + adds / workers + shuffle};
      }
      case kMmOpenCl: {
        double t = opencilMatmulSecondsT(lwsOf, n, machine,
                                         localityPenalty);
        return {t, t};
      }
      default:
        PB_PANIC("bad matmul algorithm " << alg);
    }
}

/** Reference lookup policy: by-name lookups per recursive level. */
WorkSpan
modelMM(const tuner::Config &config, const std::string &prefix,
        int64_t n, const sim::MachineProfile &machine,
        double localityPenalty)
{
    return modelMMT(
        [&](int64_t size) {
            return config.selector(prefix + ".mm.algorithm")
                .select(size);
        },
        [&] {
            return static_cast<int>(
                config.tunableValue(prefix + ".mm.lws"));
        },
        n, machine, localityPenalty);
}

// ---- Real-mode execution ----------------------------------------------

MatrixD
quadrant(const MatrixD &m, int qx, int qy)
{
    int64_t h = m.width() / 2;
    MatrixD out(h, h);
    for (int64_t y = 0; y < h; ++y)
        for (int64_t x = 0; x < h; ++x)
            out.at(x, y) = m.at(qx * h + x, qy * h + y);
    return out;
}

void
placeQuadrant(MatrixD &m, const MatrixD &q, int qx, int qy)
{
    int64_t h = m.width() / 2;
    for (int64_t y = 0; y < h; ++y)
        for (int64_t x = 0; x < h; ++x)
            m.at(qx * h + x, qy * h + y) = q.at(x, y);
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
    int alg =
        (n <= kLeafSize || n % 2 != 0)
            ? kMmNaive
            : config.selector(prefix + ".mm.algorithm").select(n);
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
                MatrixD p1(n / 2, n / 2), p2(n / 2, n / 2);
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
        int64_t h = n / 2;
        MatrixD m1(h, h), m2(h, h), m3(h, h), m4(h, h), m5(h, h),
            m6(h, h), m7(h, h);
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

const char *
mmAlgName(int alg)
{
    switch (alg) {
      case kMmLapack: return "LAPACK";
      case kMmRecursive8: return "8-way recursive";
      case kMmStrassen: return "Strassen";
      case kMmBlocked: return "blocked";
      case kMmNaive: return "naive";
      case kMmOpenCl: return "data-parallel OpenCL";
    }
    return "?";
}

} // namespace

void
addMatmulChoices(tuner::ConfigSchema::Builder &schema,
                 const std::string &prefix)
{
    schema.addSelector(prefix + ".mm.algorithm", kMmAlgCount, kMmNaive);
    schema.addTunable({prefix + ".mm.lws", 1, 1024, 64, false});
}

double
modelMatmulSeconds(const tuner::Config &config, const std::string &prefix,
                   int64_t n, const sim::MachineProfile &machine,
                   double localityPenalty)
{
    WorkSpan ws = modelMM(config, prefix, n, machine, localityPenalty);
    int workers = std::min(machine.workerThreads, machine.cpu.cores);
    return std::max(ws.work / workers, ws.span);
}

MatmulChoiceIds
matmulChoiceIds(const tuner::ConfigSchema &schema, const std::string &prefix)
{
    return {schema.selectorIndex(prefix + ".mm.algorithm"),
            schema.tunableIndex(prefix + ".mm.lws")};
}

MatmulLevelModel::MatmulLevelModel(int64_t n,
                                   const sim::MachineProfile &machine,
                                   double localityPenalty)
    : machine_(machine), localityPenalty_(localityPenalty)
{
    workers_ = std::min(machine.workerThreads, machine.cpu.cores);
    double rate = machine.cpu.gflopsPerCore * 1e9;
    double memRate = machine.cpu.memBandwidthGBs * 1e9 / localityPenalty;
    double libRate = machine.blasSpeedup * rate *
                     std::min(machine.blasThreads, machine.cpu.cores);

    // Every constant below is the exact expression modelMMT evaluates
    // at that level, so composing them reproduces it bit-for-bit.
    for (int64_t s = n;; s /= 2) {
        Level level;
        level.size = s;
        double dn = static_cast<double>(s);
        {
            double flops = 2.0 * dn * dn * dn;
            double bytes = 3.0 * 8.0 * dn * dn;
            double t = std::max(flops / libRate, bytes / memRate);
            level.lapackWork = t * machine.blasThreads;
            level.lapackSpan = t;
        }
        {
            double flops = 2.0 * dn * dn * dn;
            double t = std::max(flops / rate,
                                3.0 * 8.0 * dn * dn / memRate);
            level.naiveWork = t;
            level.naiveSpan = t / workers_;
        }
        {
            double flops = 2.0 * dn * dn * dn / 1.5;
            double t = std::max(flops / rate,
                                3.0 * 8.0 * dn * dn / memRate);
            level.blockedWork = t;
            level.blockedSpan = t / workers_;
        }
        level.r8Combine = 2.0 * dn * dn / rate;
        level.r8CombineOverWorkers = level.r8Combine / workers_;
        level.r8Shuffle = kDecompBytesPerN2 * dn * dn / memRate;
        level.stAdds = 9.0 * dn * dn / rate;
        level.stAddsOverWorkers = level.stAdds / workers_;
        level.stShuffle = 1.5 * kDecompBytesPerN2 * dn * dn / memRate;
        levels_.push_back(level);
        if (s <= kLeafSize)
            break;
    }
}

double
MatmulLevelModel::seconds(tuner::SelectorView algorithm, int lws) const
{
    // The recursion of modelMMT over precomputed level constants.
    struct Eval
    {
        const MatmulLevelModel &model;
        tuner::SelectorView algorithm;
        int lws;

        WorkSpan
        at(size_t i) const
        {
            const Level &level = model.levels_[i];
            int alg = level.size <= kLeafSize
                          ? kMmNaive
                          : algorithm.select(level.size);
            switch (alg) {
              case kMmLapack:
                return {level.lapackWork, level.lapackSpan};
              case kMmNaive:
                return {level.naiveWork, level.naiveSpan};
              case kMmBlocked:
                return {level.blockedWork, level.blockedSpan};
              case kMmRecursive8: {
                WorkSpan child = at(i + 1);
                return {8 * child.work + level.r8Combine +
                            level.r8Shuffle,
                        child.span + level.r8CombineOverWorkers +
                            level.r8Shuffle};
              }
              case kMmStrassen: {
                WorkSpan child = at(i + 1);
                return {7 * child.work + level.stAdds +
                            level.stShuffle,
                        child.span + level.stAddsOverWorkers +
                            level.stShuffle};
              }
              case kMmOpenCl: {
                double t = opencilMatmulSecondsT(
                    [this] { return lws; }, level.size, model.machine_,
                    model.localityPenalty_);
                return {t, t};
              }
              default:
                PB_PANIC("bad matmul algorithm " << alg);
            }
        }
    };

    WorkSpan ws = Eval{*this, algorithm, lws}.at(0);
    return std::max(ws.work / workers_, ws.span);
}

bool
matmulUsesOpenCl(tuner::SelectorView algorithm, int64_t n)
{
    for (int64_t s = n; s > kLeafSize; s /= 2)
        if (algorithm.select(s) == kMmOpenCl)
            return true;
    return false;
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
describeMatmul(const tuner::Config &config, const std::string &prefix,
               int64_t n)
{
    const tuner::SelectorView s =
        config.selector(prefix + ".mm.algorithm");
    std::string out;
    int last = -1;
    for (int64_t size = n; size > kLeafSize; size /= 2) {
        int alg = s.select(size);
        if (alg != last) {
            if (!out.empty())
                out += ", then ";
            out += mmAlgName(alg);
            if (size != n)
                out += " below " + std::to_string(size + 1);
            last = alg;
        }
        if (alg == kMmLapack || alg == kMmOpenCl || alg == kMmNaive ||
            alg == kMmBlocked)
            break; // non-recursive: smaller sizes never consulted
    }
    return out.empty() ? "naive" : out;
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
                            const sim::MachineProfile &machine) const
{
    return modelMatmulSeconds(config, "Strassen", n, machine);
}

namespace {

/** Level constants of the matmul model (Benchmark docs). */
struct StrassenEvalContext : apps::EvalContext
{
    MatmulLevelModel model;

    StrassenEvalContext(int64_t n, const sim::MachineProfile &machine)
        : model(n, machine)
    {}
};

} // namespace

apps::EvalContextPtr
StrassenBenchmark::makeEvalContext(
    int64_t n, const sim::MachineProfile &machine) const
{
    return std::make_shared<StrassenEvalContext>(n, machine);
}

double
StrassenBenchmark::evaluate(const tuner::Config &config, int64_t n,
                            const sim::MachineProfile &machine,
                            const EvalContext *ctx) const
{
    if (ctx == nullptr)
        return evaluate(config, n, machine);
    const auto &strassen =
        static_cast<const StrassenEvalContext &>(*ctx);
    return strassen.model.seconds(
        config.selectorAt(mm_.algorithm),
        static_cast<int>(config.tunableValueAt(mm_.lws)));
}

std::vector<std::string>
StrassenBenchmark::kernelSources(const tuner::Config &config,
                                 int64_t n) const
{
    if (matmulUsesOpenCl(config.selectorAt(mm_.algorithm), n))
        return {kMatmulKernel};
    return {};
}

std::string
StrassenBenchmark::describeConfig(const tuner::Config &config,
                                  int64_t n) const
{
    return describeMatmul(config, "Strassen", n);
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
