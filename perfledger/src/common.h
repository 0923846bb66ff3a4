/**
 * @file
 * Shared plumbing of the perfledger benchmark: command-line options,
 * seed derivation, a fixed-memory latency histogram, the reference
 * kernel that end-to-end times are scaled by, the metric report and a
 * private state directory on tmpfs.
 */

#ifndef PERFLEDGER_COMMON_H
#define PERFLEDGER_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfledger {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double
microsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::micro>(end - start).count();
}

/** Parsed command line of one workload process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; ///< the timed window, set by the runner
    bool trace = false;
};

/** Where a traced run writes its spans: a fixed file of the workload
 * under `.perfledger/` in the working directory. */
std::string traceOutPath(const std::string &workload);

/** splitmix64 of (@p seed, @p tag): every derived input starts here. */
uint64_t mix(uint64_t seed, uint64_t tag);

/** A tuner seed derived from the run seed (31 bits, as the service's
 * kvfile specs carry seeds as signed integers). */
int64_t tunerSeed(uint64_t seed, uint64_t tag);

/**
 * Log-bucketed latency histogram with fixed memory (1% relative bucket
 * width from 50 ns to 1 s, 7 KiB), so recording a sample never
 * allocates and the process footprint does not grow with throughput.
 * Values are microseconds.
 */
class Histogram
{
  public:
    Histogram();

    void record(double micros);
    void merge(const Histogram &other);

    int64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Interpolated quantile, @p q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

  private:
    std::vector<int32_t> buckets_;
    int64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * The host's speed, measured with a reference kernel.
 *
 * The benchmark shares its cores with other virtual machines. Their load
 * slows whole runs, not just moments: on a 4-vCPU virtual machine the
 * same dispatch run read 35 K/s and, minutes later, 58 K/s, and a fixed
 * loop slowed alike. No statistic taken inside a run removes that. So
 * the workloads time a fixed kernel of the benchmark's own (floating
 * point maths, a small hash table, a sort and number formatting; none of
 * the program's code) between their slices of work, on a paused clock,
 * and every end-to-end time is scaled by the kernel's nominal time over
 * the lower decile of its times in the run (the quietest tenth, as for
 * the slices). A host that slows the kernel and the program alike
 * cancels out; a change to the program does not touch the kernel, so it
 * shows in full.
 */
constexpr double kNominalKernelMicros = 100.0;

/** Median microseconds of @p reps runs of the reference kernel. */
double referenceKernelMicros(int reps);

/**
 * The timed window cut into 100 ms slices, each with its own latency
 * histogram, for end-to-end numbers that the host's noise cannot move.
 *
 * Besides the slow phases the reference kernel takes out, the host
 * stalls the benchmark in bursts of a tenth of a second to seconds. So
 * each end-to-end figure is taken over the quietest tenth of the
 * slices: the upper decile of slice throughputs and the lower decile of
 * each slice's latency quantile. A change to the program moves every
 * slice, so it moves these figures too.
 */
class SliceStats
{
  public:
    SliceStats(Clock::time_point start, double seconds);

    /** An operation that ended at @p end after @p micros. */
    void record(Clock::time_point end, double micros);
    void merge(const SliceStats &other);

    /** Leave @p untimed out of the window: later slices start later. */
    void pause(Clock::duration untimed) { start_ += untimed; }

    /** Whether the reference kernel is due: a slice's time after it
     * last ran. */
    bool kernelDue() const { return Clock::now() >= nextKernel_; }

    /** Run the reference kernel @p reps times now, on a paused clock
     * between two slices of work, and record the median time. */
    void calibrate(int reps);

    /** Upper decile over slices of operations per second. */
    double rate() const;

    /** Lower decile over slices of each slice's @p q latency quantile
     * (microseconds). */
    double latency(double q) const;

    /** The @p q quantile of the reference kernel's recorded times
     * (microseconds). */
    double kernelMicros(double q) const;

  private:
    Clock::time_point start_;
    std::vector<Histogram> slices_;
    std::vector<double> kernel_; ///< microseconds per calibrate()
    Clock::time_point nextKernel_{};
};

/**
 * Set-up repetitions spread across the timed window (the workload runs
 * one whenever one is due, on a paused clock). A set-up of milliseconds
 * done back to back lands wholly inside one burst of host noise; spread
 * out, its quietest tenth repeats from run to run like the slices do.
 */
class SetupReps
{
  public:
    explicit SetupReps(double everySeconds) : everySeconds_(everySeconds) {}

    /** Whether the next repetition is due. */
    bool due() const { return Clock::now() >= next_; }

    /** Record one repetition's seconds; the next is due a period later. */
    void add(double seconds);

    /** Lower decile of the repetitions, in seconds. */
    double seconds() const;

  private:
    double everySeconds_;
    Clock::time_point next_{};
    std::vector<double> seconds_;
};

double median(std::vector<double> values);

/** The @p q quantile of @p values, interpolated; 0 when empty. */
double quantile(std::vector<double> values, double q);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run produced: its operation counts, its correctness
 * verdict and its metrics (end-to-end, or per-layer when traced). */
struct Outcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** The end-to-end metrics of an untraced run, scaled by the reference
 * kernel; the unscaled figures and the kernel's quantiles go to
 * stderr. */
void addEndToEnd(Outcome &out, const SliceStats &slices,
                 const SetupReps &setups);

/** The result line: a single JSON object. */
std::string toJson(const Outcome &outcome);

/**
 * Fresh private directory, removed again on destruction. Every
 * persistence directory of a run (spool, cache segments, portfolio)
 * lives below it, so the checkpoint fsync the service issues on every
 * step lands on tmpfs: on a disk it doubles the step latency and
 * varies from run to run. It is /dev/shm/perfledger-<pid>-XXXXXX (the
 * runner removes what a killed process leaves there). Without a
 * writable tmpfs at /dev/shm it falls back to `.perfledger/` in the
 * working directory and says so on stderr.
 */
class StateDir
{
  public:
    StateDir();
    ~StateDir();

    StateDir(const StateDir &) = delete;
    StateDir &operator=(const StateDir &) = delete;

    /** A fresh, empty subdirectory @p name. */
    std::string sub(const std::string &name) const;

  private:
    std::string path_;
};

} // namespace perfledger

#endif // PERFLEDGER_COMMON_H
