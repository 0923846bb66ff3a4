#include "benchmarks/sort.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "ocl/device.h"
#include "sim/cost_model.h"

namespace petabricks {
namespace apps {

namespace {

/** Scalar-op constants per element (calibrated, not measured). */
constexpr double kInsertionOps = 0.7;  // * n^2
constexpr double kSelectionOps = 1.0;  // * n^2
constexpr double kPartitionOps = 3.0;  // * n per quicksort level
constexpr double kMerge2Ops = 4.0;     // * n per 2-way merge
constexpr double kMerge4Ops = 6.0;     // * n per 4-way merge
constexpr double kParMergeExtra = 1.0; // * n extra work when parallel
constexpr double kRadixOps = 50.0;     // * n, scatter-traffic dominated
constexpr double kTaskOverheadOps = 600.0; // per spawned task
constexpr double kCallOverheadOps = 100.0;   // per recursive call

/** Work/span pair in seconds. */
struct WorkSpan
{
    double work = 0.0;
    double span = 0.0;
};

struct ModelCtx
{
    const tuner::Config &config;
    const sim::MachineProfile &machine;
    double rate;  // scalar ops/sec of one core
    int workers;
    int64_t taskCutoff;
    int64_t pmCutoff;

    /** Pre-resolved "Sort.algorithm" selector (the fast path); when
     * null, modelSort() looks it up by name per recursion level — the
     * reference path's pre-context behavior. */
    const tuner::SelectorView *algorithm = nullptr;
};

double
bitonicGpuSeconds(int64_t n, const sim::MachineProfile &machine)
{
    if (!machine.hasOpenCL)
        return std::numeric_limits<double>::infinity();
    // n padded to 2^k, a double: an int64 power overflows past n = 2^62.
    const int k = n > 1 ? std::bit_width(static_cast<uint64_t>(n - 1)) : 0;
    const double pow2 = std::ldexp(1.0, k);
    double seconds = machine.transfer.seconds(8.0 * pow2) * 2;
    int stages = k * (k + 1) / 2;
    sim::CostReport perStage;
    perStage.flops = 4.0 * pow2;
    perStage.globalBytesRead = 16.0 * pow2;
    perStage.globalBytesWritten = 8.0 * pow2;
    perStage.workItems = pow2;
    for (int s = 0; s < stages; ++s)
        seconds += sim::CostModel::kernelSeconds(machine.ocl, perStage,
                                                 256);
    return seconds;
}

WorkSpan
modelSort(const ModelCtx &ctx, int64_t n)
{
    if (n <= 1)
        return {0.0, 0.0};
    int alg = ctx.algorithm
                  ? ctx.algorithm->select(n)
                  : ctx.config.selector("Sort.algorithm").select(n);
    double dn = static_cast<double>(n);
    bool spawn = n >= ctx.taskCutoff;
    auto seconds = [&](double ops) { return ops / ctx.rate; };

    switch (alg) {
      case kSortInsertion: {
        double t = seconds(kInsertionOps * dn * dn);
        return {t, t};
      }
      case kSortSelection: {
        double t = seconds(kSelectionOps * dn * dn);
        return {t, t};
      }
      case kSortQuick: {
        WorkSpan child = modelSort(ctx, n / 2);
        double part =
            seconds(kPartitionOps * dn + kCallOverheadOps);
        double overhead =
            spawn ? seconds(kTaskOverheadOps) : 0.0;
        double work = part + 2 * child.work + overhead;
        double span = spawn ? part + child.span + overhead
                            : part + 2 * child.work;
        return {work, span};
      }
      case kSortRadix: {
        double t = seconds(kRadixOps * dn);
        return {t, t};
      }
      case kSortMerge2:
      case kSortMerge4: {
        int ways = alg == kSortMerge2 ? 2 : 4;
        double mergeOps =
            (ways == 2 ? kMerge2Ops : kMerge4Ops) * dn;
        WorkSpan child = modelSort(ctx, n / ways);
        bool parallelMerge = n >= ctx.pmCutoff;
        double mergeWork =
            seconds(mergeOps + kCallOverheadOps +
                    (parallelMerge ? kParMergeExtra * dn : 0.0));
        double mergeSpan =
            parallelMerge
                ? mergeWork / ctx.workers + seconds(kTaskOverheadOps)
                : mergeWork;
        double overhead = spawn ? seconds(kTaskOverheadOps * ways) : 0.0;
        double work = ways * child.work + mergeWork + overhead;
        double span = spawn ? child.span + mergeSpan + overhead
                            : ways * child.work + mergeWork;
        return {work, span};
      }
      case kSortBitonicGpu: {
        double t = bitonicGpuSeconds(n, ctx.machine);
        // The GPU path is serial from the caller's perspective.
        return {t, t};
      }
      default:
        PB_PANIC("bad sort algorithm " << alg);
    }
}

// ---- Real-mode implementations ----------------------------------------

void
insertionSort(double *a, int64_t n)
{
    for (int64_t i = 1; i < n; ++i) {
        double key = a[i];
        int64_t j = i - 1;
        while (j >= 0 && a[j] > key) {
            a[j + 1] = a[j];
            --j;
        }
        a[j + 1] = key;
    }
}

void
selectionSort(double *a, int64_t n)
{
    for (int64_t i = 0; i + 1 < n; ++i) {
        int64_t best = i;
        for (int64_t j = i + 1; j < n; ++j)
            if (a[j] < a[best])
                best = j;
        std::swap(a[i], a[best]);
    }
}

/** Order-preserving map from double to uint64 for radix sort. */
uint64_t
doubleKey(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return (bits & 0x8000000000000000ull) ? ~bits
                                          : bits | 0x8000000000000000ull;
}

void
radixSort(double *a, int64_t n)
{
    std::vector<double> tmp(static_cast<size_t>(n));
    double *src = a;
    double *dst = tmp.data();
    for (int shift = 0; shift < 64; shift += 8) {
        int64_t count[257] = {0};
        for (int64_t i = 0; i < n; ++i)
            ++count[((doubleKey(src[i]) >> shift) & 0xff) + 1];
        for (int b = 0; b < 256; ++b)
            count[b + 1] += count[b];
        for (int64_t i = 0; i < n; ++i)
            dst[count[(doubleKey(src[i]) >> shift) & 0xff]++] = src[i];
        std::swap(src, dst);
    }
    // 8 passes: data ends back in `a`.
    PB_ASSERT(src == a, "radix pass parity");
}

void dispatchSort(const tuner::Config &config, double *a, int64_t n);

void
mergeSort(const tuner::Config &config, double *a, int64_t n, int ways)
{
    std::vector<int64_t> bounds;
    for (int i = 0; i <= ways; ++i)
        bounds.push_back(n * i / ways);
    for (int i = 0; i < ways; ++i)
        dispatchSort(config, a + bounds[static_cast<size_t>(i)],
                     bounds[static_cast<size_t>(i + 1)] -
                         bounds[static_cast<size_t>(i)]);
    // Merge runs pairwise (a 4-way merge is two 2-way merges + final).
    for (int width = 1; width < ways; width *= 2) {
        for (int i = 0; i + width <= ways; i += 2 * width) {
            int64_t lo = bounds[static_cast<size_t>(i)];
            int64_t mid = bounds[static_cast<size_t>(i + width)];
            int64_t hi =
                bounds[static_cast<size_t>(std::min(i + 2 * width, ways))];
            std::inplace_merge(a + lo, a + mid, a + hi);
        }
    }
}

void
bitonicSortGpu(double *a, int64_t n)
{
    int64_t pow2 = 1;
    while (pow2 < n)
        pow2 <<= 1;
    auto buf = std::make_shared<ocl::Buffer>(pow2 * 8);
    double *d = buf->as<double>();
    std::memcpy(d, a, static_cast<size_t>(n) * 8);
    for (int64_t i = n; i < pow2; ++i)
        d[i] = std::numeric_limits<double>::infinity();

    auto kernel = std::make_shared<ocl::Kernel>(
        "bitonic_step", "pbcl:bitonic:step",
        [](ocl::GroupCtx &ctx) {
            double *data = ctx.args().buffer(0).as<double>();
            int64_t j = ctx.args().intArg(0);
            int64_t k = ctx.args().intArg(1);
            ctx.forEachItem([&](int64_t i, int64_t, int64_t, int64_t) {
                int64_t ixj = i ^ j;
                if (ixj <= i)
                    return;
                bool ascending = (i & k) == 0;
                if ((data[i] > data[ixj]) == ascending)
                    std::swap(data[i], data[ixj]);
            });
        },
        [](const ocl::KernelArgs &, const ocl::NDRange &range) {
            sim::CostReport cost;
            cost.flops = 4.0 * static_cast<double>(range.items());
            cost.globalBytesRead = 16.0 * range.items();
            cost.globalBytesWritten = 8.0 * range.items();
            return cost;
        });

    ocl::Device device(sim::MachineProfile::desktop().ocl);
    for (int64_t k = 2; k <= pow2; k <<= 1) {
        for (int64_t j = k >> 1; j > 0; j >>= 1) {
            ocl::KernelArgs args;
            args.buffers = {buf};
            args.ints = {j, k};
            device.launch(*kernel, args, ocl::NDRange::linear(pow2, 256));
        }
    }
    std::memcpy(a, d, static_cast<size_t>(n) * 8);
}

void
dispatchSort(const tuner::Config &config, double *a, int64_t n)
{
    if (n <= 1)
        return;
    switch (config.selector("Sort.algorithm").select(n)) {
      case kSortInsertion:
        insertionSort(a, n);
        return;
      case kSortSelection:
        selectionSort(a, n);
        return;
      case kSortQuick: {
        double pivot = a[n / 2];
        double *lo = a;
        double *hi = a + n - 1;
        while (lo <= hi) {
            while (*lo < pivot)
                ++lo;
            while (*hi > pivot)
                --hi;
            if (lo <= hi)
                std::swap(*lo++, *hi--);
        }
        dispatchSort(config, a, hi - a + 1);
        dispatchSort(config, lo, a + n - lo);
        return;
      }
      case kSortRadix:
        radixSort(a, n);
        return;
      case kSortMerge2:
        mergeSort(config, a, n, 2);
        return;
      case kSortMerge4:
        mergeSort(config, a, n, 4);
        return;
      case kSortBitonicGpu:
        bitonicSortGpu(a, n);
        return;
      default:
        PB_PANIC("bad sort algorithm");
    }
}

const char *
sortAlgName(int alg)
{
    switch (alg) {
      case kSortInsertion: return "IS";
      case kSortSelection: return "SS";
      case kSortQuick: return "QS";
      case kSortRadix: return "RS";
      case kSortMerge2: return "2MS";
      case kSortMerge4: return "4MS";
      case kSortBitonicGpu: return "BitonicGPU";
    }
    return "?";
}

/** The Sort transform: one region rule running the poly-algorithm. */
std::shared_ptr<lang::Transform>
makeSortTransform(const ChoiceFilePtr &choices)
{
    auto t = std::make_shared<lang::Transform>("Sort");
    t->slot("In", lang::SlotRole::Input)
        .slot("Out", lang::SlotRole::Output);
    auto rule = lang::RuleDef::makeRegion(
        "SortPoly", "Out", {"In"},
        [choices](lang::RuleDef::RegionRunArgs &args) {
            const MatrixD &in = args.inputs[0];
            for (int64_t i = 0; i < in.size(); ++i)
                args.output[i] = in[i];
            dispatchSort(choices->get(), args.output.data(),
                         args.output.size());
        },
        [](const Region &region, const lang::ParamEnv &) {
            // ~n log n comparison-sort work; the precise choice-aware
            // model lives in SortBenchmark::evaluate.
            double n = static_cast<double>(region.w * region.h);
            sim::CostReport cost;
            cost.flops = kMerge2Ops * n * std::log2(std::max(2.0, n));
            return cost;
        });
    t->choice("poly", {rule});
    return t;
}

} // namespace

SortBenchmark::SortBenchmark()
    : choices_(std::make_shared<ChoiceFile>()),
      transform_(makeSortTransform(choices_))
{
    tuner::ConfigSchema::Builder schema;
    schema.addSelector("Sort.algorithm", kSortAlgCount, kSortInsertion);
    schema.addTunable({"Sort.taskCutoff", 16, 1 << 22, 512, true});
    schema.addTunable({"Sort.pmCutoff", 16, 1 << 22, 1 << 16, true});
    schema_ = schema.build();
    algorithmSel_ = schema_->selectorIndex("Sort.algorithm");
    taskCutoffTun_ = schema_->tunableIndex("Sort.taskCutoff");
    pmCutoffTun_ = schema_->tunableIndex("Sort.pmCutoff");
}

lang::Binding
SortBenchmark::makeBinding(int64_t n, Rng &rng) const
{
    lang::Binding binding;
    MatrixD in = MatrixD::vector(n);
    for (int64_t i = 0; i < n; ++i)
        in[i] = rng.uniformReal(-1e6, 1e6);
    binding.matrices.emplace("In", in);
    binding.matrices.emplace("Out", MatrixD::vector(n));
    return binding;
}

compiler::TransformConfig
SortBenchmark::planFor(const tuner::Config &config, int64_t n) const
{
    (void)n;
    choices_->arm(config);
    compiler::TransformConfig plan;
    plan.choiceIndex = 0;
    plan.stages = {compiler::StageConfig{}}; // region rule: CPU native
    return plan;
}

double
SortBenchmark::checkOutput(const lang::Binding &binding) const
{
    const MatrixD &in = binding.matrix("In");
    MatrixD expect = in.clone();
    std::sort(expect.data(), expect.data() + expect.size());
    return maxAbsDiff(binding.matrix("Out"), expect);
}

tuner::Config
SortBenchmark::seedConfig() const
{
    return tuner::Config(schema_);
}

double
SortBenchmark::evaluate(const tuner::Config &config, int64_t n,
                        const sim::MachineProfile &machine) const
{
    ModelCtx ctx{config, machine,
                 machine.cpu.gflopsPerCore * 1e9,
                 std::min(machine.workerThreads, machine.cpu.cores),
                 config.tunableValue("Sort.taskCutoff"),
                 config.tunableValue("Sort.pmCutoff")};
    WorkSpan ws = modelSort(ctx, n);
    return std::max(ws.work / ctx.workers, ws.span);
}

apps::EvalContextPtr
SortBenchmark::makeEvalContext(int64_t n,
                               const sim::MachineProfile &machine) const
{
    (void)n;
    (void)machine;
    return positionsOnlyContext();
}

double
SortBenchmark::evaluate(const tuner::Config &config, int64_t n,
                        const sim::MachineProfile &machine,
                        const EvalContext *ctx) const
{
    if (ctx == nullptr)
        return evaluate(config, n, machine);
    const tuner::SelectorView algorithm = config.selectorAt(algorithmSel_);
    ModelCtx mctx{config, machine,
                  machine.cpu.gflopsPerCore * 1e9,
                  std::min(machine.workerThreads, machine.cpu.cores),
                  config.tunableValueAt(taskCutoffTun_),
                  config.tunableValueAt(pmCutoffTun_),
                  &algorithm};
    WorkSpan ws = modelSort(mctx, n);
    return std::max(ws.work / mctx.workers, ws.span);
}

std::vector<std::string>
SortBenchmark::kernelSources(const tuner::Config &config, int64_t n) const
{
    // Walk the selector: does any level reachable from n use bitonic?
    const tuner::SelectorView algorithm = config.selectorAt(algorithmSel_);
    for (int64_t s = n; s >= 1; s /= 2)
        if (algorithm.select(s) == kSortBitonicGpu)
            return {bitonicKernel_};
    return {};
}

std::string
SortBenchmark::describeConfig(const tuner::Config &config,
                              int64_t n) const
{
    // Render the poly-algorithm as the paper does: from large sizes
    // down to the base case.
    const tuner::SelectorView s = config.selector("Sort.algorithm");
    std::string out;
    int64_t size = n;
    int last = -1;
    while (size >= 1) {
        int alg = s.select(size);
        if (alg != last) {
            if (!out.empty())
                out += ", then ";
            out += sortAlgName(alg);
            if (size != n)
                out += " below " + std::to_string(size + 1);
            last = alg;
        }
        if (size == 1)
            break;
        size /= 2;
    }
    return out;
}

void
SortBenchmark::sortWithConfig(const tuner::Config &config,
                              std::vector<double> &data)
{
    dispatchSort(config, data.data(),
                 static_cast<int64_t>(data.size()));
}

tuner::Config
SortBenchmark::gpuOnlyConfig()
{
    SortBenchmark proto;
    tuner::Config config = proto.seedConfig();
    config.selector("Sort.algorithm").setAlgorithm(0, kSortBitonicGpu);
    return config;
}

double
SortBenchmark::handCodedRadixSeconds(int64_t n,
                                     const sim::MachineProfile &machine)
{
    if (!machine.hasOpenCL)
        return std::numeric_limits<double>::infinity();
    // NVIDIA-SDK-style GPU radix: 8 histogram+scatter pass pairs with
    // poorly coalesced scatters, plus the transfers the SDK samples
    // usually leave out — our measurements include them (Section 6.2).
    double dn = static_cast<double>(n);
    double seconds = machine.transfer.seconds(8.0 * dn) * 2;
    sim::CostReport pass;
    pass.flops = 12.0 * dn;
    pass.globalBytesRead = 8.0 * 8.0 * dn; // uncoalesced scatter penalty
    pass.globalBytesWritten = 8.0 * dn;
    pass.invocations = 2;
    for (int p = 0; p < 8; ++p)
        seconds +=
            sim::CostModel::kernelSeconds(machine.ocl, pass, 256);
    return seconds;
}

} // namespace apps
} // namespace petabricks
