#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sched_sim.h"
#include "support/error.h"
#include "support/rng.h"

namespace petabricks {
namespace sim {
namespace {

TEST(SchedSim, EmptyDagHasZeroMakespan)
{
    ScheduleSimulator sim(4);
    EXPECT_DOUBLE_EQ(sim.run(), 0.0);
}

TEST(SchedSim, SingleTask)
{
    ScheduleSimulator sim(1);
    auto t = sim.addTask(SimResource::CpuWorker, 2.5);
    EXPECT_DOUBLE_EQ(sim.run(), 2.5);
    EXPECT_DOUBLE_EQ(sim.finishTime(t), 2.5);
}

TEST(SchedSim, ChainSerializes)
{
    ScheduleSimulator sim(4);
    auto a = sim.addTask(SimResource::CpuWorker, 1.0);
    auto b = sim.addTask(SimResource::CpuWorker, 1.0, {a});
    auto c = sim.addTask(SimResource::CpuWorker, 1.0, {b});
    EXPECT_DOUBLE_EQ(sim.run(), 3.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(c), 3.0);
}

TEST(SchedSim, IndependentTasksRunInParallel)
{
    ScheduleSimulator sim(4);
    for (int i = 0; i < 4; ++i)
        sim.addTask(SimResource::CpuWorker, 1.0);
    EXPECT_DOUBLE_EQ(sim.run(), 1.0);
}

TEST(SchedSim, PoolSaturationQueues)
{
    ScheduleSimulator sim(2);
    for (int i = 0; i < 4; ++i)
        sim.addTask(SimResource::CpuWorker, 1.0);
    EXPECT_DOUBLE_EQ(sim.run(), 2.0);
}

TEST(SchedSim, GpuQueueIsInOrder)
{
    ScheduleSimulator sim(4);
    auto k1 = sim.addTask(SimResource::GpuQueue, 1.0);
    auto k2 = sim.addTask(SimResource::GpuQueue, 1.0);
    sim.run();
    EXPECT_DOUBLE_EQ(sim.finishTime(k1), 1.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(k2), 2.0);
}

TEST(SchedSim, TransferOverlapsKernel)
{
    // Non-blocking copies: a transfer for the next kernel overlaps the
    // current kernel execution (Section 4.2 design goal).
    ScheduleSimulator sim(4);
    sim.addTask(SimResource::GpuQueue, 1.0);
    sim.addTask(SimResource::Transfer, 1.0);
    EXPECT_DOUBLE_EQ(sim.run(), 1.0);
}

TEST(SchedSim, CpuAndGpuOverlapOnDiscreteGpu)
{
    ScheduleSimulator sim(2, /*oclSharesCpu=*/false);
    sim.addTask(SimResource::CpuWorker, 1.0);
    sim.addTask(SimResource::GpuQueue, 1.0);
    EXPECT_DOUBLE_EQ(sim.run(), 1.0);
}

TEST(SchedSim, SharedCpuOpenCLContendsWithCpuWork)
{
    // Server: the OpenCL "device" is the CPU itself, so a kernel and a
    // native task cannot truly overlap.
    ScheduleSimulator sim(2, /*oclSharesCpu=*/true);
    sim.addTask(SimResource::CpuWorker, 1.0);
    sim.addTask(SimResource::GpuQueue, 1.0);
    EXPECT_DOUBLE_EQ(sim.run(), 2.0);
}

TEST(SchedSim, CpuPoolTaskNeedsWholePool)
{
    ScheduleSimulator sim(2);
    auto w = sim.addTask(SimResource::CpuWorker, 1.0);
    auto p = sim.addTask(SimResource::CpuPool, 1.0);
    auto w2 = sim.addTask(SimResource::CpuWorker, 1.0);
    EXPECT_DOUBLE_EQ(sim.run(), 3.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(w), 1.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(p), 2.0);
    // Strict FIFO: the single-worker task behind the pool task waits.
    EXPECT_DOUBLE_EQ(sim.finishTime(w2), 3.0);
}

TEST(SchedSim, NoneTasksAreFreeJoins)
{
    ScheduleSimulator sim(2);
    auto a = sim.addTask(SimResource::CpuWorker, 1.0);
    auto b = sim.addTask(SimResource::CpuWorker, 2.0);
    auto join = sim.addTask(SimResource::None, 0.0, {a, b});
    auto after = sim.addTask(SimResource::CpuWorker, 1.0, {join});
    EXPECT_DOUBLE_EQ(sim.run(), 3.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(join), 2.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(after), 3.0);
}

TEST(SchedSim, DiamondDependency)
{
    ScheduleSimulator sim(4);
    auto src = sim.addTask(SimResource::CpuWorker, 1.0);
    auto left = sim.addTask(SimResource::CpuWorker, 2.0, {src});
    auto right = sim.addTask(SimResource::CpuWorker, 3.0, {src});
    auto sink = sim.addTask(SimResource::CpuWorker, 1.0, {left, right});
    EXPECT_DOUBLE_EQ(sim.run(), 5.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(sink), 5.0);
}

TEST(SchedSim, BusyAccounting)
{
    ScheduleSimulator sim(2);
    sim.addTask(SimResource::CpuWorker, 1.0);
    sim.addTask(SimResource::GpuQueue, 3.0);
    sim.run();
    EXPECT_DOUBLE_EQ(sim.cpuBusySeconds(), 1.0);
    EXPECT_DOUBLE_EQ(sim.gpuBusySeconds(), 3.0);
}

TEST(SchedSim, MixedPipelineMakespan)
{
    // copy-in -> kernel -> copy-out, with CPU work alongside.
    ScheduleSimulator sim(2);
    auto in = sim.addTask(SimResource::Transfer, 0.5);
    auto kernel = sim.addTask(SimResource::GpuQueue, 2.0, {in});
    auto out = sim.addTask(SimResource::Transfer, 0.5, {kernel});
    sim.addTask(SimResource::CpuWorker, 2.5);
    EXPECT_DOUBLE_EQ(sim.run(), 3.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(out), 3.0);
}

TEST(SchedSim, RejectsForwardDependencies)
{
    ScheduleSimulator sim(1);
    EXPECT_THROW(sim.addTask(SimResource::CpuWorker, 1.0, {5}),
                 PanicError);
}

TEST(SchedSim, SingleShot)
{
    ScheduleSimulator sim(1);
    sim.addTask(SimResource::CpuWorker, 1.0);
    sim.run();
    EXPECT_THROW(sim.run(), PanicError);
    EXPECT_THROW(sim.addTask(SimResource::CpuWorker, 1.0), PanicError);
}

/** Makespan, busy times and the finish times of @p later, as raw
 * double bits, after running @p sim. */
std::vector<uint64_t>
runBits(ScheduleSimulator &sim, const std::vector<SimTaskId> &later)
{
    std::vector<uint64_t> bits{std::bit_cast<uint64_t>(sim.run()),
                               std::bit_cast<uint64_t>(sim.cpuBusySeconds()),
                               std::bit_cast<uint64_t>(sim.gpuBusySeconds())};
    for (SimTaskId id : later)
        bits.push_back(std::bit_cast<uint64_t>(sim.finishTime(id)));
    return bits;
}

/** @p members as one group or as separate CpuWorker tasks. */
std::vector<SimTaskId>
addMembers(ScheduleSimulator &sim, const std::vector<double> &members,
           bool grouped, const std::vector<SimTaskId> &deps)
{
    if (grouped)
        return {sim.addGroup(members.data(),
                             static_cast<int>(members.size()), deps)};
    std::vector<SimTaskId> tasks;
    for (double seconds : members)
        tasks.push_back(sim.addTask(SimResource::CpuWorker, seconds, deps));
    return tasks;
}

/**
 * @p members either as one group or as separate CpuWorker tasks, with
 * a None join over them, queued between CpuPool and GpuQueue tasks
 * released by the same predecessor, and followed by tasks of every
 * resource that depend on the join (or on the members directly).
 */
std::vector<uint64_t>
runAroundGroup(int workers, bool oclSharesCpu,
               const std::vector<double> &members, bool grouped)
{
    ScheduleSimulator sim(workers, oclSharesCpu);
    SimTaskId first = sim.addTask(SimResource::CpuWorker, 0.25);
    sim.addTask(SimResource::CpuPool, 0.5, {first});
    sim.addTask(SimResource::GpuQueue, 0.75, {first});
    std::vector<SimTaskId> parts = addMembers(sim, members, grouped, {first});
    sim.addTask(SimResource::GpuQueue, 0.5, {first});
    sim.addTask(SimResource::CpuPool, 0.25, {first});
    SimTaskId join = sim.addTask(SimResource::None, 0.0, parts);
    std::vector<SimTaskId> later = {
        join,
        sim.addTask(SimResource::CpuWorker, 0.5, {join}),
        sim.addTask(SimResource::GpuQueue, 0.25, {join}),
        sim.addTask(SimResource::CpuPool, 0.125, {join}),
        sim.addTask(SimResource::CpuWorker, 0.375, parts),
        sim.addTask(SimResource::Transfer, 0.3, {join}),
    };
    return runBits(sim, later);
}

/**
 * @p members three times in a chain of joins, each time alone in the
 * simulator (the case a group schedules apart from the event heap),
 * then tasks of every resource after the last join.
 */
std::vector<uint64_t>
runGroupChain(int workers, bool oclSharesCpu,
              const std::vector<double> &members, bool grouped)
{
    ScheduleSimulator sim(workers, oclSharesCpu);
    std::vector<SimTaskId> deps;
    std::vector<SimTaskId> later;
    for (int round = 0; round < 3; ++round) {
        SimTaskId join = sim.addTask(
            SimResource::None, 0.0, addMembers(sim, members, grouped, deps));
        later.push_back(join);
        deps = {join};
    }
    later.push_back(sim.addTask(SimResource::CpuWorker, 0.5, deps));
    later.push_back(sim.addTask(SimResource::GpuQueue, 0.25, deps));
    later.push_back(sim.addTask(SimResource::CpuPool, 0.125, deps));
    return runBits(sim, later);
}

TEST(SchedSim, GroupSchedulesLikeSeparateWorkerTasks)
{
    Rng rng(0x6209);
    for (int members : {1, 2, 3, 7, 16, 40}) {
        // Irregular durations with repeats, so finish ties and the
        // order of the busy-time sums both matter.
        std::vector<double> seconds;
        for (int i = 0; i < members; ++i)
            seconds.push_back(i % 3 == 2 ? seconds[i - 1]
                                         : rng.uniformReal(0.05, 1.3));
        for (int workers : {1, 2, 4, 16}) {
            for (bool oclSharesCpu : {false, true}) {
                EXPECT_EQ(
                    runAroundGroup(workers, oclSharesCpu, seconds, true),
                    runAroundGroup(workers, oclSharesCpu, seconds, false))
                    << members << " members, " << workers
                    << " workers, oclSharesCpu " << oclSharesCpu;
                EXPECT_EQ(
                    runGroupChain(workers, oclSharesCpu, seconds, true),
                    runGroupChain(workers, oclSharesCpu, seconds, false))
                    << members << " members in a chain, " << workers
                    << " workers, oclSharesCpu " << oclSharesCpu;
            }
        }
    }
}

TEST(SchedSim, GroupCompletesWithItsLastMember)
{
    ScheduleSimulator sim(2);
    const double members[] = {1.0, 3.0, 2.0};
    SimTaskId group = sim.addGroup(members, 3, {});
    SimTaskId after = sim.addTask(SimResource::CpuWorker, 1.0, {group});
    EXPECT_DOUBLE_EQ(sim.run(), 4.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(group), 3.0);
    EXPECT_DOUBLE_EQ(sim.finishTime(after), 4.0);
    EXPECT_DOUBLE_EQ(sim.cpuBusySeconds(), 7.0);
    EXPECT_EQ(sim.taskCount(), 2u);

    ScheduleSimulator empty(1);
    EXPECT_THROW(empty.addGroup(members, 0, {}), PanicError);
}

TEST(SchedSim, MachineConstructor)
{
    ScheduleSimulator desktop(MachineProfile::desktop());
    desktop.addTask(SimResource::CpuWorker, 1.0);
    EXPECT_DOUBLE_EQ(desktop.run(), 1.0);

    ScheduleSimulator server(MachineProfile::server());
    server.addTask(SimResource::CpuWorker, 1.0);
    server.addTask(SimResource::GpuQueue, 1.0);
    EXPECT_DOUBLE_EQ(server.run(), 2.0); // shares CPU
}

} // namespace
} // namespace sim
} // namespace petabricks
