#include "sim/sched_sim.h"

#include <algorithm>

#include "support/error.h"

namespace petabricks {
namespace sim {

ScheduleSimulator::ScheduleSimulator(int cpuWorkers, bool oclSharesCpu)
    : cpuWorkers_(cpuWorkers), oclSharesCpu_(oclSharesCpu)
{
    PB_ASSERT(cpuWorkers > 0, "need at least one CPU worker");
}

ScheduleSimulator::ScheduleSimulator(const MachineProfile &machine)
    : ScheduleSimulator(machine.workerThreads, machine.oclSharesCpu)
{
}

void
ScheduleSimulator::reset()
{
    PB_ASSERT(cpuWorkers_ > 0, "need at least one CPU worker");
    resource_.clear();
    seconds_.clear();
    remainingDeps_.clear();
    finish_.clear();
    firstSecond_.clear();
    members_.clear();
    edges_.clear();
    cpuBusy_ = 0.0;
    gpuBusy_ = 0.0;
    ran_ = false;
}

SimTaskId
ScheduleSimulator::addTask(SimResource resource, double seconds,
                           const std::vector<SimTaskId> &deps)
{
    PB_ASSERT(!ran_, "cannot add tasks after run()");
    PB_ASSERT(seconds >= 0.0, "negative task duration");
    SimTaskId id = static_cast<SimTaskId>(resource_.size());
    resource_.push_back(resource);
    firstSecond_.push_back(static_cast<int32_t>(seconds_.size()));
    members_.push_back(1);
    seconds_.push_back(seconds);
    finish_.push_back(-1.0);
    int remaining = 0;
    for (SimTaskId dep : deps) {
        PB_ASSERT(dep >= 0 && dep < id, "dependency " << dep
                                                      << " out of range");
        edges_.emplace_back(dep, id);
        ++remaining;
    }
    remainingDeps_.push_back(remaining);
    return id;
}

SimTaskId
ScheduleSimulator::addGroup(const double *seconds, int count,
                            const std::vector<SimTaskId> &deps)
{
    PB_ASSERT(count > 0, "a task group needs at least one member");
    SimTaskId id = addTask(SimResource::CpuWorker, seconds[0], deps);
    members_.back() = count;
    for (int i = 1; i < count; ++i) {
        PB_ASSERT(seconds[i] >= 0.0, "negative task duration");
        seconds_.push_back(seconds[i]);
    }
    return id;
}

double
ScheduleSimulator::run()
{
    PB_ASSERT(!ran_, "simulator is single-shot; reset() to reuse");
    ran_ = true;

    size_t taskCount = resource_.size();

    // Dependents in CSR form, per-parent in edge insertion order — the
    // iteration order the completion loop below relies on.
    depStart_.assign(taskCount + 1, 0);
    for (const auto &[parent, child] : edges_) {
        (void)child;
        ++depStart_[static_cast<size_t>(parent) + 1];
    }
    for (size_t i = 1; i <= taskCount; ++i)
        depStart_[i] += depStart_[i - 1];
    depList_.resize(edges_.size());
    {
        // Reuse the prefix array as fill cursors, restoring afterwards.
        std::vector<int32_t> &cursor = depStart_;
        for (const auto &[parent, child] : edges_)
            depList_[static_cast<size_t>(
                cursor[static_cast<size_t>(parent)]++)] = child;
        for (size_t i = taskCount; i > 0; --i)
            cursor[i] = cursor[i - 1];
        cursor[0] = 0;
    }

    // FIFO ready queues per physical resource (vector + head cursor; the
    // vectors only grow within a run and are reused across runs). On
    // machines whose OpenCL device is the host CPU, GPU-queue tasks are
    // routed to the CPU queue as full-pool tasks (the vectorized kernel
    // occupies every core).
    cpuReady_.clear();
    gpuReady_.clear();
    xferReady_.clear();
    size_t cpuHead = 0, gpuHead = 0, xferHead = 0;

    int cpuInUse = 0;
    bool gpuBusy = false;
    bool xferBusy = false;

    // (finishTime, sequence, task) min-heap of running tasks. The key is
    // a total order (sequence is unique), so pop order — and therefore
    // every result — is independent of heap layout.
    heap_.clear();
    auto heapGreater = [](const Running &a, const Running &b) {
        return a > b;
    };
    uint64_t seq = 0;
    auto push = [&](double finish, SimTaskId id) {
        heap_.push_back(
            {finish, (seq++ << 32) | static_cast<uint32_t>(id)});
        std::push_heap(heap_.begin(), heap_.end(), heapGreater);
    };
    double now = 0.0;
    double makespan = 0.0;
    size_t completed = 0;

    // True when @p id must hold the entire CPU pool while running.
    auto needsFullPool = [&](SimTaskId id) {
        SimResource r = resource_[static_cast<size_t>(id)];
        return r == SimResource::CpuPool ||
               (oclSharesCpu_ && r == SimResource::GpuQueue);
    };

    // Once released, a task's remainingDeps_ slot counts its members
    // still queued or running; a group takes one queue entry.
    auto release = [&](SimTaskId id) {
        remainingDeps_[static_cast<size_t>(id)] =
            members_[static_cast<size_t>(id)];
        switch (resource_[static_cast<size_t>(id)]) {
          case SimResource::CpuWorker:
          case SimResource::CpuPool:
            cpuReady_.push_back(id);
            break;
          case SimResource::GpuQueue:
            if (oclSharesCpu_)
                cpuReady_.push_back(id);
            else
                gpuReady_.push_back(id);
            break;
          case SimResource::Transfer:
            xferReady_.push_back(id);
            break;
          case SimResource::None:
            // Completes instantly; handled by the caller via the heap
            // with zero duration so ordering stays uniform.
            push(now, id);
            break;
        }
    };

    // Start member @p member of @p id (0 for a plain task).
    auto start = [&](SimTaskId id, int32_t member) {
        double dur = seconds_[static_cast<size_t>(
            firstSecond_[static_cast<size_t>(id)] + member)];
        push(now + dur, id);
        if (resource_[static_cast<size_t>(id)] == SimResource::GpuQueue)
            gpuBusy_ += dur;
        if (needsFullPool(id))
            cpuBusy_ += dur * cpuWorkers_;
        else if (resource_[static_cast<size_t>(id)] ==
                 SimResource::CpuWorker)
            cpuBusy_ += dur;
    };

    // Members of the CPU queue's head group already started; only the
    // head can be partly dispatched, since the queue is strict FIFO.
    int32_t headStarted = 0;

    // When a group reaches idle workers with nothing else running or
    // queued, no other event can interleave with its members until the
    // last one finishes. Schedule them on a local heap — keyed like the
    // main one, a member's index standing in for its start sequence —
    // and let only the last completion enter the main heap.
    auto startIsolatedGroup = [&](SimTaskId id) {
        const double *dur = &seconds_[static_cast<size_t>(
            firstSecond_[static_cast<size_t>(id)])];
        double last = now;
        groupHeap_.clear();
        for (int32_t i = 0; i < members_[static_cast<size_t>(id)]; ++i) {
            double startAt = now;
            if (i >= cpuWorkers_) {
                startAt = groupHeap_.front().finish;
                std::pop_heap(groupHeap_.begin(), groupHeap_.end(),
                              heapGreater);
                groupHeap_.pop_back();
            }
            cpuBusy_ += dur[i];
            last = std::max(last, startAt + dur[i]);
            groupHeap_.push_back(
                {startAt + dur[i], static_cast<uint64_t>(i)});
            std::push_heap(groupHeap_.begin(), groupHeap_.end(),
                           heapGreater);
        }
        // From here the group is its last member, still running.
        remainingDeps_[static_cast<size_t>(id)] = 1;
        cpuInUse = 1;
        push(last, id);
    };

    auto dispatch = [&]() {
        // CPU queue: strict FIFO so full-pool tasks cannot be starved by
        // a stream of single-worker tasks behind them.
        while (cpuHead < cpuReady_.size()) {
            SimTaskId head = cpuReady_[cpuHead];
            if (needsFullPool(head)) {
                bool gpuSide = resource_[static_cast<size_t>(head)] ==
                               SimResource::GpuQueue;
                if (cpuInUse != 0 || (gpuSide && gpuBusy))
                    break;
                cpuInUse = cpuWorkers_;
                if (gpuSide)
                    gpuBusy = true;
            } else {
                if (cpuInUse >= cpuWorkers_)
                    break;
                if (members_[static_cast<size_t>(head)] > 1 &&
                    heap_.empty() && cpuHead + 1 == cpuReady_.size() &&
                    gpuHead == gpuReady_.size() &&
                    xferHead == xferReady_.size()) {
                    ++cpuHead;
                    startIsolatedGroup(head);
                    continue;
                }
                ++cpuInUse;
            }
            start(head, headStarted);
            if (++headStarted == members_[static_cast<size_t>(head)]) {
                headStarted = 0;
                ++cpuHead;
            }
        }
        if (!gpuBusy && gpuHead < gpuReady_.size()) {
            SimTaskId head = gpuReady_[gpuHead++];
            gpuBusy = true;
            start(head, 0);
        }
        if (!xferBusy && xferHead < xferReady_.size()) {
            SimTaskId head = xferReady_[xferHead++];
            xferBusy = true;
            start(head, 0);
        }
    };

    // Release all tasks with no dependencies, in id order.
    for (SimTaskId id = 0; id < static_cast<SimTaskId>(taskCount); ++id)
        if (remainingDeps_[static_cast<size_t>(id)] == 0)
            release(id);
    dispatch();

    while (!heap_.empty()) {
        double finish = heap_.front().finish;
        SimTaskId id =
            static_cast<SimTaskId>(heap_.front().seqId & 0xffffffffu);
        std::pop_heap(heap_.begin(), heap_.end(), heapGreater);
        heap_.pop_back();
        now = finish;
        makespan = std::max(makespan, now);

        switch (resource_[static_cast<size_t>(id)]) {
          case SimResource::CpuWorker:
            --cpuInUse;
            // A group completes with its last member.
            if (--remainingDeps_[static_cast<size_t>(id)] > 0) {
                dispatch();
                continue;
            }
            break;
          case SimResource::CpuPool:
            cpuInUse = 0;
            break;
          case SimResource::GpuQueue:
            gpuBusy = false;
            if (oclSharesCpu_)
                cpuInUse = 0;
            break;
          case SimResource::Transfer:
            xferBusy = false;
            break;
          case SimResource::None:
            break;
        }
        finish_[static_cast<size_t>(id)] = now;
        ++completed;

        int32_t depBegin = depStart_[static_cast<size_t>(id)];
        int32_t depEnd = depStart_[static_cast<size_t>(id) + 1];
        for (int32_t e = depBegin; e < depEnd; ++e) {
            SimTaskId dep = depList_[static_cast<size_t>(e)];
            if (--remainingDeps_[static_cast<size_t>(dep)] == 0)
                release(dep);
        }
        dispatch();
    }

    if (completed != taskCount)
        PB_PANIC("schedule deadlocked: " << completed << "/"
                 << taskCount << " tasks completed (cycle in DAG?)");
    return makespan;
}

double
ScheduleSimulator::finishTime(SimTaskId task) const
{
    PB_ASSERT(ran_, "run() must be called first");
    PB_ASSERT(task >= 0 &&
                  task < static_cast<SimTaskId>(resource_.size()),
              "task id out of range");
    return finish_[static_cast<size_t>(task)];
}

} // namespace sim
} // namespace petabricks
