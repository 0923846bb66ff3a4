#include "benchmarks/sort.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "benchmarks/level_chain.h"
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

/**
 * The walk of the Sort model: the levels it prices for n elements.
 * Quick sort and 2-way merge recurse at n/2, 4-way merge at n/4; the
 * other algorithms do not recurse, and n <= 1 costs nothing.
 */
LevelChain
sortLevels(tuner::SelectorView algorithm, int64_t n)
{
    LevelChain levels;
    for (int64_t s = n; s > 1;) {
        int alg = algorithm.select(s);
        levels.push(s, alg);
        if (alg == kSortQuick || alg == kSortMerge2)
            s /= 2;
        else if (alg == kSortMerge4)
            s /= 4;
        else
            break;
    }
    return levels;
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

/** Figure 6 names, by SortAlg. */
constexpr const char *kSortAlgNames[] = {"IS",  "SS",  "QS",        "RS",
                                         "2MS", "4MS", "BitonicGPU"};
static_assert(std::size(kSortAlgNames) == kSortAlgCount);

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

tuner::ConfigSchemaPtr
sortSchema()
{
    tuner::ConfigSchema::Builder schema;
    schema.addSelector("Sort.algorithm", kSortAlgCount, kSortInsertion);
    schema.addTunable({"Sort.taskCutoff", 16, 1 << 22, 512, true});
    schema.addTunable({"Sort.pmCutoff", 16, 1 << 22, 1 << 16, true});
    return schema.build();
}

} // namespace

SortBenchmark::SortBenchmark()
    : FunctionStyleBenchmark(makeSortTransform, sortSchema()),
      algorithmSel_(schema().selectorIndex("Sort.algorithm")),
      taskCutoffTun_(schema().tunableIndex("Sort.taskCutoff")),
      pmCutoffTun_(schema().tunableIndex("Sort.pmCutoff"))
{}

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

double
SortBenchmark::checkOutput(const lang::Binding &binding) const
{
    const MatrixD &in = binding.matrix("In");
    MatrixD expect = in.clone();
    std::sort(expect.data(), expect.data() + expect.size());
    return maxAbsDiff(binding.matrix("Out"), expect);
}

double
SortBenchmark::evaluate(const tuner::Config &config, int64_t n,
                        const sim::MachineProfile &machine,
                        const EvalContext *) const
{
    const double rate = machine.cpu.gflopsPerCore * 1e9; // ops/s, one core
    const int workers = std::min(machine.workerThreads, machine.cpu.cores);
    const int64_t taskCutoff = config.tunableValueAt(taskCutoffTun_);
    const int64_t pmCutoff = config.tunableValueAt(pmCutoffTun_);
    auto seconds = [&](double ops) { return ops / rate; };

    // Work and span of each level over those of its recursive child,
    // from the deepest level up; below it there is nothing to sort.
    const LevelChain levels = sortLevels(config.selectorAt(algorithmSel_), n);
    WorkSpan ws;
    for (size_t i = levels.size(); i-- > 0;) {
        const int64_t s = levels[i].n;
        const double dn = static_cast<double>(s);
        const bool spawn = s >= taskCutoff;
        switch (levels[i].alg) {
          case kSortInsertion:
            ws.work = ws.span = seconds(kInsertionOps * dn * dn);
            break;
          case kSortSelection:
            ws.work = ws.span = seconds(kSelectionOps * dn * dn);
            break;
          case kSortQuick: {
            double part = seconds(kPartitionOps * dn + kCallOverheadOps);
            double overhead = spawn ? seconds(kTaskOverheadOps) : 0.0;
            ws = {part + 2 * ws.work + overhead,
                  spawn ? part + ws.span + overhead : part + 2 * ws.work};
            break;
          }
          case kSortRadix:
            ws.work = ws.span = seconds(kRadixOps * dn);
            break;
          case kSortMerge2:
          case kSortMerge4: {
            int ways = levels[i].alg == kSortMerge2 ? 2 : 4;
            double mergeOps = (ways == 2 ? kMerge2Ops : kMerge4Ops) * dn;
            bool parallelMerge = s >= pmCutoff;
            double mergeWork =
                seconds(mergeOps + kCallOverheadOps +
                        (parallelMerge ? kParMergeExtra * dn : 0.0));
            double mergeSpan =
                parallelMerge ? mergeWork / workers + seconds(kTaskOverheadOps)
                              : mergeWork;
            double overhead = spawn ? seconds(kTaskOverheadOps * ways) : 0.0;
            ws = {ways * ws.work + mergeWork + overhead,
                  spawn ? ws.span + mergeSpan + overhead
                        : ways * ws.work + mergeWork};
            break;
          }
          case kSortBitonicGpu:
            // The GPU path is serial from the caller's perspective.
            ws.work = ws.span = bitonicGpuSeconds(s, machine);
            break;
          default:
            PB_PANIC("bad sort algorithm " << levels[i].alg);
        }
    }
    return std::max(ws.work / workers, ws.span);
}

std::vector<std::string>
SortBenchmark::kernelSources(const tuner::Config &config, int64_t n) const
{
    // Bitonic does not recurse, so only the deepest level can run it.
    const LevelChain levels = sortLevels(config.selectorAt(algorithmSel_), n);
    if (levels.size() && levels.back().alg == kSortBitonicGpu)
        return {bitonicKernel_};
    return {};
}

std::string
SortBenchmark::describeConfig(const tuner::Config &config,
                              int64_t n) const
{
    return describeLevels(sortLevels(config.selectorAt(algorithmSel_), n),
                          kSortAlgNames);
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
