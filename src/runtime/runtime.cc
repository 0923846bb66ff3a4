#include "runtime/runtime.h"

#include <chrono>

#include "support/error.h"
#include "support/logging.h"

namespace petabricks {
namespace runtime {

namespace {

/** Identifies the current thread's role for the Figure 5 push policy. */
thread_local int tlsWorkerIndex = -1;
thread_local bool tlsOnGpuManager = false;

} // namespace

Runtime::Runtime(int workers, ocl::Device *gpuDevice, uint64_t seed)
    : gpuRng_(seed ^ 0xabcdef)
{
    PB_ASSERT(workers >= 1, "need at least one worker");
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        auto worker = std::make_unique<Worker>();
        worker->rng = Rng(seed + static_cast<uint64_t>(i) * 7919);
        workers_.push_back(std::move(worker));
    }
    for (int i = 0; i < workers; ++i)
        workers_[static_cast<size_t>(i)]->thread =
            std::thread([this, i] { workerLoop(i); });

    if (gpuDevice) {
        gpuQueue_ = std::make_unique<ocl::CommandQueue>(*gpuDevice);
        gpuMemory_ = std::make_unique<GpuMemoryTable>(*gpuQueue_);
        gpuThread_ = std::thread([this] { gpuLoop(); });
    }
}

Runtime::~Runtime()
{
    drain(); // discard any pending failure: nobody is left to observe it
    shutdown_.store(true, std::memory_order_release);
    idleCv_.notify_all();
    gpuCv_.notify_all();
    for (auto &worker : workers_)
        worker->thread.join();
    if (gpuThread_.joinable())
        gpuThread_.join();
}

ocl::CommandQueue &
Runtime::gpuCommandQueue()
{
    PB_ASSERT(gpuQueue_, "runtime has no GPU device");
    return *gpuQueue_;
}

GpuMemoryTable &
Runtime::gpuMemory()
{
    PB_ASSERT(gpuMemory_, "runtime has no GPU device");
    return *gpuMemory_;
}

void
Runtime::noteTaskCreated()
{
    liveTasks_.fetch_add(1, std::memory_order_acq_rel);
}

void
Runtime::noteTaskRetired()
{
    if (liveTasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(doneMutex_);
        doneCv_.notify_all();
    }
}

void
Runtime::spawn(const TaskPtr &task)
{
    PB_ASSERT(task != nullptr, "null task");
    PB_ASSERT(task->taskClass() == TaskClass::Cpu || gpuQueue_ != nullptr,
              "GPU task '" << task->name()
                           << "' submitted to CPU-only runtime");
    noteTaskCreated();
    if (task->finishCreation())
        dispatch(task, tlsOnGpuManager, tlsWorkerIndex);
    // else: the task waits in its dependencies' dependent lists.
}

void
Runtime::drain()
{
    std::unique_lock<std::mutex> lock(doneMutex_);
    doneCv_.wait(lock, [this] {
        return liveTasks_.load(std::memory_order_acquire) == 0;
    });
}

void
Runtime::wait()
{
    drain();
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(errorMutex_);
        std::swap(error, firstError_);
    }
    if (error)
        std::rethrow_exception(error);
}

void
Runtime::dispatch(TaskPtr task, bool fromGpuManager, int workerIndex)
{
    PB_ASSERT(task->state() == TaskState::Runnable,
              "dispatching non-runnable task '" << task->name() << "'");
    if (task->taskClass() == TaskClass::Gpu) {
        // Figure 5(a): GPU tasks always go to the bottom of the GPU
        // management thread's queue.
        PB_ASSERT(gpuQueue_ != nullptr,
                  "GPU task '" << task->name()
                               << "' submitted to CPU-only runtime");
        {
            std::lock_guard<std::mutex> lock(gpuMutex_);
            gpuFifo_.pushBottom(std::move(task));
        }
        gpuCv_.notify_one();
        return;
    }

    if (!fromGpuManager && workerIndex >= 0) {
        // Figure 5(c): a CPU worker pushes newly runnable CPU tasks to
        // the top of its own deque.
        workers_[static_cast<size_t>(workerIndex)]->deque.pushTop(
            std::move(task));
        idleCv_.notify_one();
        return;
    }

    // Figure 5(b): the GPU manager (or an external thread) pushes the
    // CPU task to the bottom of a random worker's deque.
    Rng &rng = fromGpuManager ? gpuRng_ : gpuRng_;
    size_t victim;
    {
        std::lock_guard<std::mutex> lock(gpuMutex_);
        victim = static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(workers_.size()) - 1));
    }
    if (fromGpuManager)
        stats_.gpuPushesToWorkers.fetch_add(1, std::memory_order_relaxed);
    workers_[victim]->deque.pushBottom(std::move(task));
    idleCv_.notify_all();
}

void
Runtime::dispatchAll(std::vector<TaskPtr> &&tasks, bool fromGpuManager,
                     int workerIndex)
{
    for (TaskPtr &task : tasks)
        dispatch(std::move(task), fromGpuManager, workerIndex);
}

void
Runtime::executeTask(const TaskPtr &task, bool onGpuManager,
                     int workerIndex)
{
    TaskContext ctx;
    std::vector<TaskPtr> newlyRunnable;
    TaskPtr continuation;
    try {
        continuation = task->run(ctx, newlyRunnable);
    } catch (...) {
        // The task failed; Task::run released its dependents before
        // rethrowing. Record the first failure for wait() and finish
        // the bookkeeping as a completed task.
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }

    // Children first: the continuation usually depends on them.
    for (const TaskPtr &child : ctx.spawned())
        spawn(child);

    if (ctx.requeueRequested()) {
        PB_ASSERT(onGpuManager, "requeue outside the GPU manager");
        stats_.gpuRequeues.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(gpuMutex_);
            gpuFifo_.pushBottom(task);
        }
        gpuCv_.notify_one();
        return; // still live; do not retire
    }

    // Count the task before retiring it: once the live count reaches
    // zero, wait() may return and read the stats.
    if (onGpuManager)
        stats_.gpuTasksExecuted.fetch_add(1, std::memory_order_relaxed);
    else
        stats_.tasksExecuted.fetch_add(1, std::memory_order_relaxed);

    if (continuation) {
        // The continuation replaces this task; it inherited the
        // dependents, and the live count carries over 1:1.
        if (continuation->finishCreation())
            dispatch(continuation, onGpuManager, workerIndex);
    } else {
        noteTaskRetired();
    }
    dispatchAll(std::move(newlyRunnable), onGpuManager, workerIndex);
}

void
Runtime::workerLoop(int index)
{
    tlsWorkerIndex = index;
    tlsOnGpuManager = false;
    Worker &self = *workers_[static_cast<size_t>(index)];

    while (!shutdown_.load(std::memory_order_acquire)) {
        TaskPtr task = self.deque.popTop();
        if (!task && workers_.size() > 1) {
            // Steal from the bottom of a random victim's deque.
            stats_.stealAttempts.fetch_add(1, std::memory_order_relaxed);
            size_t victim = static_cast<size_t>(self.rng.uniformInt(
                0, static_cast<int64_t>(workers_.size()) - 2));
            if (victim >= static_cast<size_t>(index))
                ++victim; // skip self
            task = workers_[victim]->deque.stealBottom();
            if (task)
                stats_.steals.fetch_add(1, std::memory_order_relaxed);
        }
        if (!task) {
            std::unique_lock<std::mutex> lock(idleMutex_);
            idleCv_.wait_for(lock, std::chrono::microseconds(200));
            continue;
        }
        executeTask(task, /*onGpuManager=*/false, index);
    }
}

void
Runtime::gpuLoop()
{
    tlsWorkerIndex = -1;
    tlsOnGpuManager = true;

    while (!shutdown_.load(std::memory_order_acquire)) {
        TaskPtr task;
        {
            std::unique_lock<std::mutex> lock(gpuMutex_);
            gpuCv_.wait_for(lock, std::chrono::microseconds(200), [this] {
                return shutdown_.load(std::memory_order_acquire) ||
                       !gpuFifo_.empty();
            });
            // FIFO service: oldest task first (Section 4.2: the GPU
            // management thread runs one task at a time in push order).
            task = gpuFifo_.popTop();
        }
        if (!task)
            continue;
        executeTask(task, /*onGpuManager=*/true, -1);
    }
}

} // namespace runtime
} // namespace petabricks
