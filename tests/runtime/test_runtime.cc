#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>

#include "runtime/runtime.h"
#include "sim/machine.h"

namespace petabricks {
namespace runtime {
namespace {

TEST(Runtime, RunsASingleTask)
{
    Runtime rt(2);
    std::atomic<int> hits{0};
    rt.run(Task::cpu("t", [&] { hits++; }));
    EXPECT_EQ(hits.load(), 1);
}

TEST(Runtime, RunsManyIndependentTasks)
{
    Runtime rt(4);
    std::atomic<int> hits{0};
    for (int i = 0; i < 500; ++i)
        rt.spawn(Task::cpu("t", [&] { hits++; }));
    rt.wait();
    EXPECT_EQ(hits.load(), 500);
}

TEST(Runtime, RespectsDependencies)
{
    Runtime rt(4);
    std::atomic<int> stage{0};
    TaskPtr a = Task::cpu("a", [&] {
        EXPECT_EQ(stage.exchange(1), 0);
    });
    TaskPtr b = Task::cpu("b", [&] {
        EXPECT_EQ(stage.exchange(2), 1);
    });
    b->dependsOn(a);
    rt.spawn(a);
    rt.spawn(b);
    rt.wait();
    EXPECT_EQ(stage.load(), 2);
}

TEST(Runtime, DiamondDag)
{
    Runtime rt(4);
    std::atomic<int> order{0};
    int posLeft = -1, posRight = -1, posSink = -1;
    TaskPtr src = Task::cpu("src", [&] { order++; });
    TaskPtr left = Task::cpu("left", [&] { posLeft = order++; });
    TaskPtr right = Task::cpu("right", [&] { posRight = order++; });
    TaskPtr sink = Task::cpu("sink", [&] { posSink = order++; });
    left->dependsOn(src);
    right->dependsOn(src);
    sink->dependsOn(left);
    sink->dependsOn(right);
    rt.spawn(src);
    rt.spawn(left);
    rt.spawn(right);
    rt.spawn(sink);
    rt.wait();
    EXPECT_GT(posSink, posLeft);
    EXPECT_GT(posSink, posRight);
}

TEST(Runtime, NestedSpawnFromTaskBody)
{
    Runtime rt(4);
    std::atomic<int> hits{0};
    TaskPtr root = std::make_shared<Task>(
        "root", TaskClass::Cpu, [&](TaskContext &ctx) -> TaskPtr {
            for (int i = 0; i < 50; ++i)
                ctx.spawn(Task::cpu("child", [&] { hits++; }));
            return nullptr;
        });
    rt.run(root);
    rt.wait();
    EXPECT_EQ(hits.load(), 50);
}

TEST(Runtime, ContinuationStyleFanOut)
{
    // root spawns children and returns a continuation that depends on
    // them — the deferred-scheduling pattern from Section 4.1.
    Runtime rt(4);
    std::atomic<int> childHits{0};
    std::atomic<bool> contRan{false};
    TaskPtr root = std::make_shared<Task>(
        "root", TaskClass::Cpu, [&](TaskContext &ctx) -> TaskPtr {
            std::vector<TaskPtr> kids;
            for (int i = 0; i < 20; ++i) {
                kids.push_back(Task::cpu("kid", [&] { childHits++; }));
            }
            TaskPtr cont = Task::cpu("cont", [&] {
                EXPECT_EQ(childHits.load(), 20);
                contRan = true;
            });
            for (auto &k : kids) {
                cont->dependsOn(k);
                ctx.spawn(k);
            }
            return cont;
        });
    rt.run(root);
    EXPECT_TRUE(contRan.load());
}

TEST(Runtime, DependentOnContinuedTaskWaitsForContinuation)
{
    Runtime rt(2);
    std::atomic<int> stage{0};
    TaskPtr root = std::make_shared<Task>(
        "root", TaskClass::Cpu, [&](TaskContext &ctx) -> TaskPtr {
            TaskPtr kid = Task::cpu("kid", [&] {
                EXPECT_EQ(stage.exchange(1), 0);
            });
            TaskPtr cont = Task::cpu("cont", [&] {
                EXPECT_EQ(stage.exchange(2), 1);
            });
            cont->dependsOn(kid);
            ctx.spawn(kid);
            return cont;
        });
    TaskPtr after = Task::cpu("after", [&] {
        EXPECT_EQ(stage.exchange(3), 2);
    });
    after->dependsOn(root);
    rt.spawn(root);
    rt.spawn(after);
    rt.wait();
    EXPECT_EQ(stage.load(), 3);
}

TEST(Runtime, WorkIsDistributedAcrossThreads)
{
    Runtime rt(4);
    std::mutex mu;
    std::set<std::thread::id> threads;
    for (int i = 0; i < 400; ++i) {
        rt.spawn(Task::cpu("t", [&] {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            std::lock_guard<std::mutex> lock(mu);
            threads.insert(std::this_thread::get_id());
        }));
    }
    rt.wait();
    EXPECT_GE(threads.size(), 2u);
}

TEST(Runtime, StealsHappenUnderImbalance)
{
    Runtime rt(4);
    // One long chain of spawns from a single root biases work onto one
    // deque; other workers must steal.
    std::atomic<int> hits{0};
    TaskPtr root = std::make_shared<Task>(
        "root", TaskClass::Cpu, [&](TaskContext &ctx) -> TaskPtr {
            for (int i = 0; i < 2000; ++i) {
                ctx.spawn(Task::cpu("w", [&] {
                    volatile double acc = 0;
                    for (int k = 0; k < 2000; ++k)
                        acc = acc + k;
                    hits++;
                }));
            }
            return nullptr;
        });
    rt.run(root);
    EXPECT_EQ(hits.load(), 2000);
    EXPECT_GT(rt.stats().steals.load(), 0);
}

TEST(Runtime, WaitIsReusable)
{
    Runtime rt(2);
    std::atomic<int> hits{0};
    rt.run(Task::cpu("a", [&] { hits++; }));
    rt.run(Task::cpu("b", [&] { hits++; }));
    EXPECT_EQ(hits.load(), 2);
}

TEST(Runtime, GpuTaskRunsOnManagerThread)
{
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    Runtime rt(2, &device);
    std::thread::id gpuThread;
    std::thread::id cpuThread;
    TaskPtr g = std::make_shared<Task>(
        "g", TaskClass::Gpu, [&](TaskContext &) -> TaskPtr {
            gpuThread = std::this_thread::get_id();
            return nullptr;
        });
    TaskPtr c = Task::cpu("c", [&] {
        cpuThread = std::this_thread::get_id();
    });
    rt.spawn(g);
    rt.spawn(c);
    rt.wait();
    EXPECT_NE(gpuThread, std::thread::id());
    EXPECT_NE(gpuThread, cpuThread);
    EXPECT_EQ(rt.stats().gpuTasksExecuted.load(), 1);
}

TEST(Runtime, GpuTasksServedFifo)
{
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    Runtime rt(1, &device);
    std::vector<int> order;
    std::vector<TaskPtr> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back(std::make_shared<Task>(
            "g" + std::to_string(i), TaskClass::Gpu,
            [&order, i](TaskContext &) -> TaskPtr {
                order.push_back(i);
                return nullptr;
            }));
    }
    // Chain them so they become runnable in order 0..7.
    for (int i = 1; i < 8; ++i)
        tasks[static_cast<size_t>(i)]->dependsOn(
            tasks[static_cast<size_t>(i - 1)]);
    for (auto &t : tasks)
        rt.spawn(t);
    rt.wait();
    std::vector<int> expect(8);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(Runtime, GpuCausedCpuTaskIsPushedToWorker)
{
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    Runtime rt(2, &device);
    std::atomic<bool> cpuRan{false};
    TaskPtr g = std::make_shared<Task>(
        "g", TaskClass::Gpu, [](TaskContext &) -> TaskPtr {
            return nullptr;
        });
    TaskPtr c = Task::cpu("c", [&] { cpuRan = true; });
    c->dependsOn(g);
    // Spawn c first: it then waits on g, so only g's completion on the
    // GPU manager can make it runnable (spawned after a finished g, c
    // would be dispatched by this thread instead).
    rt.spawn(c);
    rt.spawn(g);
    rt.wait();
    EXPECT_TRUE(cpuRan.load());
    // Figure 5(b): the GPU manager pushed c to a worker's deque.
    EXPECT_EQ(rt.stats().gpuPushesToWorkers.load(), 1);
}

TEST(Runtime, RequeuedGpuTaskPollsUntilReady)
{
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    Runtime rt(1, &device);
    std::atomic<int> polls{0};
    TaskPtr poller = std::make_shared<Task>(
        "poll", TaskClass::Gpu, [&](TaskContext &ctx) -> TaskPtr {
            if (polls.fetch_add(1) < 3) {
                ctx.requeue();
                return nullptr;
            }
            return nullptr;
        });
    rt.run(poller);
    EXPECT_EQ(polls.load(), 4);
    EXPECT_EQ(rt.stats().gpuRequeues.load(), 3);
}

TEST(Runtime, MixedCpuGpuDependencyChain)
{
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    Runtime rt(2, &device);
    std::vector<std::string> log;
    std::mutex mu;
    auto record = [&](const std::string &s) {
        std::lock_guard<std::mutex> lock(mu);
        log.push_back(s);
    };
    TaskPtr c1 = Task::cpu("c1", [&] { record("c1"); });
    TaskPtr g1 = std::make_shared<Task>(
        "g1", TaskClass::Gpu, [&](TaskContext &) -> TaskPtr {
            record("g1");
            return nullptr;
        });
    TaskPtr c2 = Task::cpu("c2", [&] { record("c2"); });
    g1->dependsOn(c1);
    c2->dependsOn(g1);
    rt.spawn(c1);
    rt.spawn(g1);
    rt.spawn(c2);
    rt.wait();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], "c1");
    EXPECT_EQ(log[1], "g1");
    EXPECT_EQ(log[2], "c2");
}

TEST(Runtime, TaskFailureSurfacesFromWait)
{
    Runtime rt(2);
    TaskPtr bad = Task::cpu("bad", [] {
        PB_FATAL("infeasible placement discovered at run time");
    });
    rt.spawn(bad);
    EXPECT_THROW(rt.wait(), FatalError);
    // The failure is reported once; the runtime remains usable.
    std::atomic<bool> ran{false};
    rt.run(Task::cpu("after", [&] { ran.store(true); }));
    EXPECT_TRUE(ran.load());
}

TEST(Runtime, FailedTaskReleasesDependents)
{
    Runtime rt(2);
    std::atomic<int> downstream{0};
    TaskPtr bad = Task::cpu("bad", [] { PB_FATAL("boom"); });
    TaskPtr dep = Task::cpu("dep", [&] { downstream.fetch_add(1); });
    dep->dependsOn(bad);
    rt.spawn(bad);
    rt.spawn(dep);
    // The graph drains instead of deadlocking; the first error wins.
    EXPECT_THROW(rt.wait(), FatalError);
    EXPECT_EQ(downstream.load(), 1);
}

TEST(Runtime, GpuTaskOnCpuOnlyRuntimePanics)
{
    Runtime rt(1);
    TaskPtr g = std::make_shared<Task>(
        "g", TaskClass::Gpu, [](TaskContext &) -> TaskPtr {
            return nullptr;
        });
    EXPECT_THROW(rt.spawn(g), PanicError);
    // Retire the zombie so the destructor's wait() can finish.
    g = nullptr;
}

} // namespace
} // namespace runtime
} // namespace petabricks
