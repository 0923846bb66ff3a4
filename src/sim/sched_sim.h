/**
 * @file
 * Discrete-event simulator for heterogeneous task schedules.
 *
 * The runtime (src/runtime) executes task DAGs for real; this simulator
 * *replays* the same DAG shape against a MachineProfile to produce a
 * deterministic makespan on the paper's machines. Resources mirror the
 * runtime's structure: a pool of CPU workers (work-stealing is modeled as
 * greedy list scheduling, which matches its steady-state behavior), a
 * single in-order GPU queue served by the GPU management thread, and a
 * transfer engine that overlaps copies with kernel execution (the paper's
 * non-blocking copy design). On machines whose OpenCL device shares the
 * host CPU (Server), OpenCL tasks occupy the CPU pool instead.
 *
 * The simulator sits on the autotuner's innermost hot path (one run per
 * priced configuration), so the task store is struct-of-arrays with a
 * flat dependency edge list, and all run() scratch is reused: a
 * simulator instance reset() between runs performs no steady-state
 * allocation. A stage's CPU chunks enter as one *group* node (one
 * record, one dependency list and one release) instead of one task
 * each. Scheduling order is deterministic — the running-task heap is
 * keyed by (finish, sequence), a total order — so results are
 * independent of internal representation.
 */

#ifndef PETABRICKS_SIM_SCHED_SIM_H
#define PETABRICKS_SIM_SCHED_SIM_H

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/machine.h"

namespace petabricks {
namespace sim {

/** Execution resource a simulated task occupies. */
enum class SimResource
{
    /** One slot of the CPU worker pool. */
    CpuWorker,
    /** The whole CPU pool at once (parallel-for style native tasks). */
    CpuPool,
    /** The in-order OpenCL command queue. */
    GpuQueue,
    /** The host<->device DMA engine. */
    Transfer,
    /** Zero-duration scheduling marker (prepare tasks, joins). */
    None,
};

/** Handle to a task added to the simulator. */
using SimTaskId = int32_t;

/**
 * Greedy list-scheduling discrete-event simulator.
 *
 * Tasks are released when all dependencies complete and dispatched in
 * release order to the first free slot of their resource.
 */
class ScheduleSimulator
{
  public:
    /**
     * @param cpuWorkers number of CPU worker slots.
     * @param oclSharesCpu if true, GpuQueue tasks also consume the whole
     *        CPU pool while running (CPU OpenCL runtime on Server).
     */
    explicit ScheduleSimulator(int cpuWorkers, bool oclSharesCpu = false);

    /** Convenience: size the pool from a machine profile. */
    explicit ScheduleSimulator(const MachineProfile &machine);

    /**
     * Make the instance ready for a fresh run with the same resource
     * configuration: drops all tasks but keeps every buffer's capacity,
     * so a reused simulator allocates nothing in steady state (the
     * model-mode fast path keeps one per thread).
     */
    void reset();

    /** reset() and re-configure the resources from @p machine. */
    void
    reset(const MachineProfile &machine)
    {
        cpuWorkers_ = machine.workerThreads;
        oclSharesCpu_ = machine.oclSharesCpu;
        reset();
    }

    /**
     * Add a task.
     *
     * @param resource where the task runs.
     * @param seconds execution time on that resource.
     * @param deps tasks that must complete first.
     * @return id usable as a dependency of later tasks.
     */
    SimTaskId addTask(SimResource resource, double seconds,
                      const std::vector<SimTaskId> &deps = {});

    /**
     * Add @p count CpuWorker tasks sharing @p deps as one group node;
     * member i runs for @p seconds[i]. Members are released, dispatched
     * (FIFO, in index order) and accounted exactly like @p count
     * addTask(CpuWorker, ...) calls, and the group completes in the
     * event its last member does, so depending on the group schedules
     * exactly like depending on every member. A group that finds the
     * simulator otherwise idle is list-scheduled off the event heap.
     *
     * @return id usable as a dependency of later tasks.
     */
    SimTaskId addGroup(const double *seconds, int count,
                       const std::vector<SimTaskId> &deps);

    /**
     * Run to completion.
     * @return makespan in seconds (0 for an empty DAG).
     */
    double run();

    /** Completion time of @p task; only valid after run(). */
    double finishTime(SimTaskId task) const;

    /** Busy time accumulated on the CPU pool, for utilization checks. */
    double cpuBusySeconds() const { return cpuBusy_; }

    /** Busy time accumulated on the GPU queue. */
    double gpuBusySeconds() const { return gpuBusy_; }

    size_t taskCount() const { return resource_.size(); }

  private:
    int cpuWorkers_;
    bool oclSharesCpu_;

    // Task store, struct-of-arrays (indexed by SimTaskId). Task id's
    // members_[id] durations (1 unless it is a group) start at
    // seconds_[firstSecond_[id]].
    std::vector<SimResource> resource_;
    std::vector<int32_t> firstSecond_;
    std::vector<int32_t> members_;
    std::vector<double> seconds_;
    std::vector<int> remainingDeps_;
    std::vector<double> finish_;

    /** (parent, child) dependency edges in insertion order. */
    std::vector<std::pair<SimTaskId, SimTaskId>> edges_;

    /**
     * Running-task heap entry: (finish, (sequence << 32) | id). The
     * packed word orders exactly like the (sequence, id) pair — the
     * sequence is unique and occupies the high bits — so the heap's
     * total order matches the original tuple formulation.
     */
    struct Running
    {
        double finish;
        uint64_t seqId;

        bool
        operator>(const Running &other) const
        {
            return finish != other.finish ? finish > other.finish
                                          : seqId > other.seqId;
        }
    };

    // run() scratch, reused across reset() cycles.
    std::vector<int32_t> depStart_;   // CSR offsets into depList_
    std::vector<SimTaskId> depList_;  // dependents, per-parent in order
    std::vector<SimTaskId> cpuReady_; // FIFO queues: vector + head index
    std::vector<SimTaskId> gpuReady_;
    std::vector<SimTaskId> xferReady_;
    std::vector<Running> heap_;
    std::vector<Running> groupHeap_; // an isolated group's workers

    double cpuBusy_ = 0.0;
    double gpuBusy_ = 0.0;
    bool ran_ = false;
};

} // namespace sim
} // namespace petabricks

#endif // PETABRICKS_SIM_SCHED_SIM_H
