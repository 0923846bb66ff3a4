#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <linux/magic.h>
#include <stdexcept>
#include <sys/statfs.h>
#include <unistd.h>
#include <unordered_map>

namespace perfledger {

namespace fs = std::filesystem;

namespace {

constexpr double kMinMicros = 0.05;
constexpr double kGrowth = 1.01;
constexpr double kMaxMicros = 1e6;

const double kLogGrowth = std::log(kGrowth);
const size_t kBucketCount =
    static_cast<size_t>(std::log(kMaxMicros / kMinMicros) / kLogGrowth) + 2;

} // namespace

uint64_t
mix(uint64_t seed, uint64_t tag)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

int64_t
tunerSeed(uint64_t seed, uint64_t tag)
{
    return static_cast<int64_t>(mix(seed, tag) & 0x7fffffffull);
}

Histogram::Histogram() : buckets_(kBucketCount, 0) {}

void
Histogram::record(double micros)
{
    double clamped = std::clamp(micros, kMinMicros, kMaxMicros);
    size_t bucket =
        static_cast<size_t>(std::log(clamped / kMinMicros) / kLogGrowth);
    ++buckets_[std::min(bucket, buckets_.size() - 1)];
    ++count_;
    sum_ += micros;
}

void
Histogram::merge(const Histogram &other)
{
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    // Rank of the wanted sample, then linear interpolation inside the
    // bucket that holds it (on the log scale the buckets are cut on).
    double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
    int64_t before = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (rank < static_cast<double>(before + buckets_[i])) {
            double within = (rank - static_cast<double>(before) + 0.5) /
                            static_cast<double>(buckets_[i]);
            return kMinMicros *
                   std::exp((static_cast<double>(i) + within) * kLogGrowth);
        }
        before += buckets_[i];
    }
    return kMaxMicros;
}

constexpr double kSliceSeconds = 0.1;

SliceStats::SliceStats(Clock::time_point start, double seconds)
    : start_(start),
      slices_(std::max<size_t>(
          1, static_cast<size_t>(std::llround(seconds / kSliceSeconds))))
{}

void
SliceStats::record(Clock::time_point end, double micros)
{
    double offset = std::chrono::duration<double>(end - start_).count();
    if (offset < 0.0)
        return;
    size_t slice = static_cast<size_t>(offset / kSliceSeconds);
    if (slice < slices_.size())
        slices_[slice].record(micros);
}

void
SliceStats::merge(const SliceStats &other)
{
    for (size_t i = 0; i < slices_.size() && i < other.slices_.size(); ++i)
        slices_[i].merge(other.slices_[i]);
    if (kernel_.empty())
        kernel_ = other.kernel_;
}

void
SliceStats::calibrate(int reps)
{
    kernel_.push_back(referenceKernelMicros(reps));
    nextKernel_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(kSliceSeconds));
}

double
SliceStats::rate() const
{
    std::vector<double> rates;
    for (const Histogram &slice : slices_)
        rates.push_back(static_cast<double>(slice.count()) / kSliceSeconds);
    return quantile(rates, 0.9);
}

double
SliceStats::latency(double q) const
{
    std::vector<double> values;
    for (const Histogram &slice : slices_)
        if (slice.count() > 0)
            values.push_back(slice.quantile(q));
    return quantile(values, 0.1);
}

double
SliceStats::kernelMicros(double q) const
{
    return quantile(kernel_, q);
}

void
SetupReps::add(double seconds)
{
    seconds_.push_back(seconds);
    next_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(everySeconds_));
}

double
SetupReps::seconds() const
{
    return quantile(seconds_, 0.1);
}

namespace {

/** One run of the reference kernel; the result only defeats the
 * optimizer. */
double
referenceKernel()
{
    // Floating point maths, as the cost model does.
    double sum = 0.0;
    for (int i = 1; i <= 1200; ++i) {
        double x = i * 1e-3;
        sum += std::exp(-x) * std::log1p(x) / std::sqrt(x + 1.0) +
               std::pow(x, 0.75);
    }
    // A small hash table and a sort, as the caches and the tuner do.
    std::unordered_map<uint64_t, double> table;
    uint64_t key = 1;
    for (uint64_t i = 0; i < 800; ++i) {
        key = mix(key, i);
        table[key & 255] += sum;
    }
    std::vector<double> values;
    for (const auto &[k, v] : table)
        values.push_back(v * static_cast<double>(k % 97));
    std::sort(values.begin(), values.end());
    // Number formatting, as the kvfiles and HTTP bodies do.
    std::string text;
    char buffer[32];
    for (int i = 0; i < 120; ++i) {
        std::snprintf(buffer, sizeof(buffer), "%.17g\n", values[i % values.size()]);
        text += buffer;
    }
    return sum + values.front() + static_cast<double>(text.size());
}

} // namespace

double
referenceKernelMicros(int reps)
{
    static volatile double sink = 0.0;
    std::vector<double> micros;
    for (int i = 0; i < reps; ++i) {
        Clock::time_point start = Clock::now();
        sink = sink + referenceKernel();
        micros.push_back(microsBetween(start, Clock::now()));
    }
    return median(micros);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    size_t below = static_cast<size_t>(rank);
    size_t above = std::min(below + 1, values.size() - 1);
    return values[below] +
           (rank - static_cast<double>(below)) * (values[above] - values[below]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
peakRssMb()
{
    // VmHWM, the peak of this address space. getrusage's ru_maxrss
    // survives exec, so under run.py it reports the Python parent's
    // ~14 MiB whenever the workload itself stays below that.
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), status))
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1)
            kib = -1;
    std::fclose(status);
    if (kib < 0)
        throw std::runtime_error("no VmHWM in /proc/self/status");
    return static_cast<double>(kib) / 1024.0;
}

void
addEndToEnd(Outcome &out, const SliceStats &slices, const SetupReps &setups)
{
    // A window too short to time the kernel even once stays unscaled.
    const double kernel = slices.kernelMicros(0.1);
    const double slowdown = kernel > 0.0 ? kernel / kNominalKernelMicros : 1.0;
    out.add("setup_s", setups.seconds() / slowdown, "s");
    out.add("ops_per_s", slices.rate() * slowdown, "1/s");
    out.add("op_p50_us", slices.latency(0.5) / slowdown, "us");
    out.add("op_p90_us", slices.latency(0.9) / slowdown, "us");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    std::fprintf(stderr,
                 "perfledger: unscaled setup_s %.6g ops_per_s %.6g "
                 "op_p50_us %.6g op_p90_us %.6g; kernel p10 %.6g p25 %.6g "
                 "p50 %.6g us\n",
                 setups.seconds(), slices.rate(), slices.latency(0.5),
                 slices.latency(0.9), slices.kernelMicros(0.1),
                 slices.kernelMicros(0.25), slices.kernelMicros(0.5));
}

std::string
toJson(const Outcome &outcome)
{
    bool correct = outcome.failed == 0 && outcome.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &metric = outcome.metrics[i];
        char value[64];
        // All digits, and never a non-finite token (invalid JSON).
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        json += (i ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metric.unit + "\"}";
    }
    json += "}}";
    return json;
}

std::string
traceOutPath(const std::string &workload)
{
    fs::create_directories(".perfledger");
    return ".perfledger/trace-" + workload + ".tsv";
}

namespace {

bool
isWritableTmpfs(const char *dir)
{
    struct statfs info{};
    return statfs(dir, &info) == 0 && info.f_type == TMPFS_MAGIC &&
           access(dir, W_OK) == 0;
}

} // namespace

StateDir::StateDir()
{
    std::string base = "/dev/shm";
    if (!isWritableTmpfs(base.c_str())) {
        std::fprintf(stderr, "perfledger: /dev/shm is not a writable tmpfs; "
                             "state (and its fsyncs) go to .perfledger/\n");
        base = ".perfledger";
        fs::create_directories(base);
    }
    std::string pattern =
        base + "/perfledger-" + std::to_string(getpid()) + "-XXXXXX";
    if (!mkdtemp(pattern.data()))
        throw std::runtime_error("cannot create a state directory under " +
                                 base);
    path_ = pattern;
}

StateDir::~StateDir()
{
    std::error_code ec;
    fs::remove_all(path_, ec);
}

std::string
StateDir::sub(const std::string &name) const
{
    std::string path = path_ + "/" + name;
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

} // namespace perfledger
