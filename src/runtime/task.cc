#include "runtime/task.h"

#include "support/error.h"

namespace petabricks {
namespace runtime {

const char *
taskStateName(TaskState state)
{
    switch (state) {
      case TaskState::New: return "new";
      case TaskState::NonRunnable: return "non-runnable";
      case TaskState::Runnable: return "runnable";
      case TaskState::Complete: return "complete";
      case TaskState::Continued: return "continued";
    }
    return "?";
}

Task::Task(std::string name, TaskClass taskClass, Body body)
    : name_(std::move(name)), class_(taskClass), body_(std::move(body))
{
}

TaskPtr
Task::cpu(std::string name, std::function<void()> fn)
{
    return std::make_shared<Task>(
        std::move(name), TaskClass::Cpu,
        [fn = std::move(fn)](TaskContext &) -> TaskPtr {
            if (fn)
                fn();
            return nullptr;
        });
}

TaskPtr
Task::join(std::string name)
{
    return std::make_shared<Task>(std::move(name), TaskClass::Cpu, nullptr);
}

void
Task::dependsOn(const TaskPtr &dep)
{
    PB_ASSERT(dep != nullptr, "null dependency");
    PB_ASSERT(state() == TaskState::New,
              "dependencies may only be added in the new state (task '"
                  << name_ << "' is " << taskStateName(state()) << ")");
    PB_ASSERT(dep.get() != this, "task cannot depend on itself");
    if (dep->addDependent(shared_from_this()))
        deps_.fetch_add(1, std::memory_order_acq_rel);
    // else: dep already complete -> no-op (paper: "Any subsequent
    // attempt to depend on this task results in a no-op").
}

bool
Task::addDependent(const TaskPtr &dependent)
{
    TaskPtr target = shared_from_this();
    for (;;) {
        std::unique_lock<std::mutex> lock(target->mutex_);
        TaskState s = target->state();
        if (s == TaskState::Complete)
            return false;
        if (s == TaskState::Continued) {
            // Follow the continuation chain (possibly recursively).
            TaskPtr next = target->continuation_;
            lock.unlock();
            PB_ASSERT(next != nullptr, "continued task lost continuation");
            target = std::move(next);
            continue;
        }
        target->dependents_.push_back(dependent);
        return true;
    }
}

bool
Task::finishCreation()
{
    PB_ASSERT(state() == TaskState::New,
              "finishCreation on " << taskStateName(state()) << " task '"
                                   << name_ << "'");
    // Release the creation hold. If it was the last outstanding
    // dependency the task is runnable now; otherwise a completing
    // dependency will make it runnable later. NonRunnable is stored
    // before the release: from then on, a completing dependency may
    // store Runnable at any moment, and nothing may overwrite it.
    state_.store(TaskState::NonRunnable, std::memory_order_release);
    if (deps_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state_.store(TaskState::Runnable, std::memory_order_release);
        return true;
    }
    return false;
}

void
Task::complete(std::vector<TaskPtr> &newlyRunnable)
{
    std::vector<TaskPtr> dependents;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        state_.store(TaskState::Complete, std::memory_order_release);
        dependents.swap(dependents_);
    }
    for (TaskPtr &dep : dependents) {
        if (dep->deps_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            dep->state_.store(TaskState::Runnable,
                              std::memory_order_release);
            newlyRunnable.push_back(std::move(dep));
        }
    }
}

TaskPtr
Task::run(TaskContext &ctx, std::vector<TaskPtr> &newlyRunnable)
{
    PB_ASSERT(state() == TaskState::Runnable,
              "running " << taskStateName(state()) << " task '" << name_
                         << "'");
    TaskPtr continuation;
    try {
        continuation = body_ ? body_(ctx) : nullptr;
    } catch (...) {
        // Fail the task but keep the graph draining: dependents are
        // released (their results are discarded — the runtime reports
        // the first failure from wait()).
        complete(newlyRunnable);
        throw;
    }

    if (ctx.requeueRequested()) {
        PB_ASSERT(continuation == nullptr,
                  "task '" << name_ << "' both continued and requeued");
        // Stay Runnable; the GPU manager will re-enqueue us.
        return nullptr;
    }

    if (continuation) {
        PB_ASSERT(continuation->state() == TaskState::New,
                  "continuation of '" << name_ << "' must be new");
        std::vector<TaskPtr> dependents;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            state_.store(TaskState::Continued, std::memory_order_release);
            continuation_ = continuation;
            dependents.swap(dependents_);
        }
        // Dependents now wait on the continuation instead; their counts
        // are unchanged (still waiting on exactly one task).
        {
            std::lock_guard<std::mutex> lock(continuation->mutex_);
            for (TaskPtr &dep : dependents)
                continuation->dependents_.push_back(std::move(dep));
        }
        return continuation;
    }

    complete(newlyRunnable);
    return nullptr;
}

} // namespace runtime
} // namespace petabricks
