#include "compiler/simulator.h"

#include <deque>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "compiler/rule_cost.h"
#include "ocl/device.h"
#include "support/error.h"
#include "support/region_set.h"

namespace petabricks {
namespace compiler {

namespace {

using sim::SimResource;
using sim::SimTaskId;

/**
 * The pre-fast-path discrete-event scheduler, kept verbatim as part of
 * the reference simulator's executable spec: per-task record objects
 * with dependent lists and labels, std:: containers allocated per run.
 * The production sim::ScheduleSimulator computes the identical schedule
 * (its running-task heap key is the same total order) with
 * struct-of-arrays storage and reusable buffers; the golden-equality
 * suite pins the two implementations together.
 */
class ReferenceScheduler
{
  public:
    explicit ReferenceScheduler(const sim::MachineProfile &machine)
        : cpuWorkers_(machine.workerThreads),
          oclSharesCpu_(machine.oclSharesCpu)
    {
        PB_ASSERT(cpuWorkers_ > 0, "need at least one CPU worker");
    }

    SimTaskId
    addTask(SimResource resource, double seconds,
            const std::vector<SimTaskId> &deps = {},
            std::string label = "")
    {
        PB_ASSERT(!ran_, "cannot add tasks after run()");
        PB_ASSERT(seconds >= 0.0, "negative task duration");
        SimTaskId id = static_cast<SimTaskId>(tasks_.size());
        TaskRecord rec;
        rec.resource = resource;
        rec.seconds = seconds;
        rec.remainingDeps = 0;
        rec.label = std::move(label);
        for (SimTaskId dep : deps) {
            PB_ASSERT(dep >= 0 && dep < id,
                      "dependency " << dep << " out of range");
            tasks_[static_cast<size_t>(dep)].dependents.push_back(id);
            ++rec.remainingDeps;
        }
        tasks_.push_back(std::move(rec));
        return id;
    }

    double
    run()
    {
        PB_ASSERT(!ran_, "simulator is single-shot");
        ran_ = true;

        std::deque<SimTaskId> cpuReady;
        std::deque<SimTaskId> gpuReady;
        std::deque<SimTaskId> xferReady;

        int cpuInUse = 0;
        bool gpuBusy = false;
        bool xferBusy = false;

        using Running = std::tuple<double, int64_t, SimTaskId>;
        std::priority_queue<Running, std::vector<Running>,
                            std::greater<>>
            heap;
        int64_t seq = 0;
        double now = 0.0;
        double makespan = 0.0;
        size_t completed = 0;

        auto needsFullPool = [&](SimTaskId id) {
            SimResource r = tasks_[static_cast<size_t>(id)].resource;
            return r == SimResource::CpuPool ||
                   (oclSharesCpu_ && r == SimResource::GpuQueue);
        };

        auto release = [&](SimTaskId id) {
            switch (tasks_[static_cast<size_t>(id)].resource) {
              case SimResource::CpuWorker:
              case SimResource::CpuPool:
                cpuReady.push_back(id);
                break;
              case SimResource::GpuQueue:
                if (oclSharesCpu_)
                    cpuReady.push_back(id);
                else
                    gpuReady.push_back(id);
                break;
              case SimResource::Transfer:
                xferReady.push_back(id);
                break;
              case SimResource::None:
                heap.emplace(now, seq++, id);
                break;
            }
        };

        auto start = [&](SimTaskId id) {
            TaskRecord &rec = tasks_[static_cast<size_t>(id)];
            double dur = rec.seconds;
            heap.emplace(now + dur, seq++, id);
            if (rec.resource == SimResource::GpuQueue)
                gpuBusy_ += dur;
            if (needsFullPool(id))
                cpuBusy_ += dur * cpuWorkers_;
            else if (rec.resource == SimResource::CpuWorker)
                cpuBusy_ += dur;
        };

        auto dispatch = [&]() {
            while (!cpuReady.empty()) {
                SimTaskId head = cpuReady.front();
                if (needsFullPool(head)) {
                    bool gpuSide =
                        tasks_[static_cast<size_t>(head)].resource ==
                        SimResource::GpuQueue;
                    if (cpuInUse != 0 || (gpuSide && gpuBusy))
                        break;
                    cpuInUse = cpuWorkers_;
                    if (gpuSide)
                        gpuBusy = true;
                } else {
                    if (cpuInUse >= cpuWorkers_)
                        break;
                    ++cpuInUse;
                }
                cpuReady.pop_front();
                start(head);
            }
            if (!gpuBusy && !gpuReady.empty()) {
                SimTaskId head = gpuReady.front();
                gpuReady.pop_front();
                gpuBusy = true;
                start(head);
            }
            if (!xferBusy && !xferReady.empty()) {
                SimTaskId head = xferReady.front();
                xferReady.pop_front();
                xferBusy = true;
                start(head);
            }
        };

        for (SimTaskId id = 0;
             id < static_cast<SimTaskId>(tasks_.size()); ++id)
            if (tasks_[static_cast<size_t>(id)].remainingDeps == 0)
                release(id);
        dispatch();

        while (!heap.empty()) {
            auto [finish, order, id] = heap.top();
            heap.pop();
            (void)order;
            now = finish;
            makespan = std::max(makespan, now);
            TaskRecord &rec = tasks_[static_cast<size_t>(id)];
            rec.finish = now;
            ++completed;

            switch (rec.resource) {
              case SimResource::CpuWorker:
                --cpuInUse;
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

            for (SimTaskId dep : rec.dependents) {
                if (--tasks_[static_cast<size_t>(dep)].remainingDeps ==
                    0)
                    release(dep);
            }
            dispatch();
        }

        if (completed != tasks_.size())
            PB_PANIC("schedule deadlocked: "
                     << completed << "/" << tasks_.size()
                     << " tasks completed (cycle in DAG?)");
        return makespan;
    }

    double cpuBusySeconds() const { return cpuBusy_; }
    double gpuBusySeconds() const { return gpuBusy_; }

  private:
    struct TaskRecord
    {
        SimResource resource;
        double seconds;
        std::vector<SimTaskId> dependents;
        int remainingDeps;
        double finish = -1.0;
        std::string label;
    };

    int cpuWorkers_;
    bool oclSharesCpu_;
    std::vector<TaskRecord> tasks_;
    double cpuBusy_ = 0.0;
    double gpuBusy_ = 0.0;
    bool ran_ = false;
};

/** Modeled device residency for copy-in deduplication. */
class ResidencyModel
{
  public:
    /** Bytes that actually need transferring to make @p region valid. */
    double
    bytesToCopyIn(const std::string &slot, const Region &region)
    {
        std::vector<Region> uncovered{region};
        for (const Region &valid : valid_[slot]) {
            std::vector<Region> next;
            for (const Region &hole : uncovered)
                for (const Region &part : subtractRegion(hole, valid))
                    next.push_back(part);
            uncovered.swap(next);
            if (uncovered.empty())
                break;
        }
        double bytes = 0.0;
        for (const Region &part : uncovered)
            bytes += static_cast<double>(part.area()) * kElemBytes;
        if (!uncovered.empty())
            valid_[slot].push_back(region);
        return bytes;
    }

    void
    markWritten(const std::string &slot, const Region &region)
    {
        valid_[slot].push_back(region);
        stale_[slot].push_back(region);
    }

    void
    markCopiedOut(const std::string &slot, const Region &region)
    {
        std::vector<Region> still;
        for (const Region &s : stale_[slot])
            for (const Region &part : subtractRegion(s, region))
                still.push_back(part);
        stale_[slot] = std::move(still);
    }

    /** Device-fresh bytes of @p slot never copied back. */
    double
    staleBytes(const std::string &slot) const
    {
        auto it = stale_.find(slot);
        if (it == stale_.end())
            return 0.0;
        double bytes = 0.0;
        for (const Region &s : it->second)
            bytes += static_cast<double>(s.area()) * kElemBytes;
        return bytes;
    }

    const std::vector<Region> &
    staleRegions(const std::string &slot)
    {
        return stale_[slot];
    }

  private:
    std::map<std::string, std::vector<Region>> valid_;
    std::map<std::string, std::vector<Region>> stale_;
};

/** Split @p region into up to @p parts row bands (mirrors executor),
 * into a reused buffer (the fast path's variant). */
void
rowChunksInto(const Region &region, int parts, std::vector<Region> &out)
{
    out.clear();
    if (region.empty())
        return;
    int64_t n = std::min<int64_t>(parts, region.h);
    for (int64_t i = 0; i < n; ++i) {
        int64_t y0 = region.y + region.h * i / n;
        int64_t y1 = region.y + region.h * (i + 1) / n;
        if (y1 > y0)
            out.emplace_back(region.x, y0, region.w, y1 - y0);
    }
}

/** rowChunksInto() returning a fresh vector (the reference path). */
std::vector<Region>
rowChunks(const Region &region, int parts)
{
    std::vector<Region> chunks;
    rowChunksInto(region, parts, chunks);
    return chunks;
}

// ---- Fast-path scratch -------------------------------------------------

/** Config-dependent per-stage state (the fast path's StagePlan). */
struct StageDyn
{
    StageConfig config;
    int64_t outW = 0;
    int64_t outH = 0;
    int64_t gpuRows = 0;
    CopyOutPolicy copyOut = CopyOutPolicy::None;
};

/**
 * Interned residency model, indexed by slot id instead of slot-name
 * maps, with buffers reused across calls.
 *
 * The copy-in (`valid`) side is a coalescing RegionSet: uncovered-area
 * queries are exact set algebra regardless of representation, so
 * coalescing only keeps the subtract lists small. The stale side
 * deliberately stays an append list manipulated exactly like
 * ResidencyModel's — including summing raw piece areas in staleBytes()
 * — so the fast path is bit-identical to the reference even for
 * hypothetical transforms that write a slot's region twice (where a
 * union-exact representation would diverge from the reference's
 * double-counting).
 */
struct FastResidency
{
    std::vector<RegionSet> valid;
    std::vector<std::vector<Region>> stale;
    std::vector<Region> staleScratch;

    void
    reset(size_t slotCount)
    {
        if (valid.size() < slotCount) {
            valid.resize(slotCount);
            stale.resize(slotCount);
        }
        for (size_t i = 0; i < slotCount; ++i) {
            valid[i].clear();
            stale[i].clear();
        }
    }

    double
    bytesToCopyIn(int slot, const Region &region)
    {
        RegionSet &set = valid[static_cast<size_t>(slot)];
        int64_t area = set.uncoveredArea(region);
        if (area == 0)
            return 0.0;
        set.insert(region);
        return static_cast<double>(area) * kElemBytes;
    }

    void
    markWritten(int slot, const Region &region)
    {
        valid[static_cast<size_t>(slot)].insert(region);
        stale[static_cast<size_t>(slot)].push_back(region);
    }

    void
    markCopiedOut(int slot, const Region &region)
    {
        std::vector<Region> &pieces = stale[static_cast<size_t>(slot)];
        staleScratch.clear();
        for (const Region &piece : pieces)
            for (const Region &part : subtractRegion(piece, region))
                staleScratch.push_back(part);
        pieces.swap(staleScratch);
    }

    double
    staleBytes(int slot) const
    {
        double bytes = 0.0;
        for (const Region &piece : stale[static_cast<size_t>(slot)])
            bytes += static_cast<double>(piece.area()) * kElemBytes;
        return bytes;
    }
};

/** Per-thread scratch of the fast path (contexts are shared across the
 * batch pool's threads; the mutable state must not be). */
struct FastWorkspace
{
    FastResidency residency;
    std::vector<SimTaskId> slotReady;
    std::vector<StageDyn> stages;
    std::vector<SimTaskId> deps;
    std::vector<SimTaskId> stageParts;
    std::vector<SimTaskId> copyIns;
    std::vector<SimTaskId> kdeps;
    std::vector<Region> chunks;
    SlotExtents extents;

    /** Reused simulator: zero steady-state allocation across configs. */
    sim::ScheduleSimulator sched{1};

    /**
     * Stage cost memos, valid for one EvaluationContext (keyed by its
     * process-unique id; cleared on change). Stage costs are pure
     * functions of (context, rule, a few small config-derived
     * integers), and candidate populations revisit the same few
     * placements constantly, so these hit nearly always.
     */
    uint64_t ctxId = 0;

    /** (costClass, gpuRows, cpuSplit) -> per-chunk CPU task seconds.
     * Keyed by class, so rules of one access shape share entries. */
    std::unordered_map<uint64_t, std::vector<double>> cpuChunkSecs;

    /** (costClass, gpuRows, lws, backend) -> kernel seconds. */
    std::unordered_map<uint64_t, double> gpuKernelSecs;

    void
    bindContext(const EvaluationContext &ctx)
    {
        if (ctxId != ctx.contextId()) {
            ctxId = ctx.contextId();
            cpuChunkSecs.clear();
            gpuKernelSecs.clear();
        }
    }
};

thread_local FastWorkspace tlsWorkspace;

/** Exact (collision-free) memo key for the CPU chunk table, or false
 * when a field exceeds its packed range (then compute unmemoized). */
bool
cpuChunkKey(int costClass, int64_t gpuRows, int cpuSplit, uint64_t &key)
{
    if (costClass < 0 || costClass >= (1 << 16) || cpuSplit < 0 ||
        cpuSplit >= (1 << 11) || gpuRows < 0 ||
        gpuRows >= (int64_t{1} << 37))
        return false;
    key = (static_cast<uint64_t>(costClass) << 48) |
          (static_cast<uint64_t>(cpuSplit) << 37) |
          static_cast<uint64_t>(gpuRows);
    return true;
}

/** Exact memo key for the GPU kernel-cost table, or false when a
 * field exceeds its packed range. */
bool
gpuKernelKey(int costClass, int64_t gpuRows, int lws, Backend backend,
             uint64_t &key)
{
    if (costClass < 0 || costClass >= (1 << 16) || lws < 0 ||
        lws >= (1 << 11) || gpuRows < 0 ||
        gpuRows >= (int64_t{1} << 35))
        return false;
    key = (static_cast<uint64_t>(costClass) << 48) |
          (static_cast<uint64_t>(lws) << 37) |
          (static_cast<uint64_t>(backend) << 35) |
          static_cast<uint64_t>(gpuRows);
    return true;
}

/** @p ri's extents under @p ctx, in rule_cost's form, into @p out. */
const SlotExtents &
slotExtentsOf(const EvaluationContext &ctx, const RuleEvalInfo &ri,
              SlotExtents &out)
{
    std::tie(out.outputW, out.outputH) = ctx.extent(ri.outputSlotId);
    out.inputs.clear();
    for (int slot : ri.inputSlotIds)
        out.inputs.push_back(ctx.extent(slot));
    return out;
}

/**
 * Kernel seconds of one GPU stage, including the local-memory
 * feasibility check (which must throw exactly as the reference path
 * does; infeasible stages are computed — and throw — every time, so
 * only successful results are memoized).
 */
double
gpuStageSeconds(const RuleEvalInfo &ri, const SlotExtents &extents,
                double flopsPerPoint, const StageDyn &stage,
                const Region &gpuRegion,
                const sim::MachineProfile &machine)
{
    ocl::NDRange range =
        groupShapeFor(*ri.rule, gpuRegion, stage.config.localWorkSize);
    if (stage.config.backend == Backend::OpenClLocal) {
        int64_t localBytes = localMemElemsFor(*ri.rule, range) *
                             static_cast<int64_t>(sizeof(double));
        if (localBytes > ocl::Device::kDefaultLocalMemBytes)
            PB_FATAL("local work size " << stage.config.localWorkSize
                                        << " needs " << localBytes
                                        << "B of local memory for rule '"
                                        << ri.rule->name() << "'");
    }
    sim::CostReport kcost =
        stage.config.backend == Backend::OpenClLocal
            ? pointRuleLocalCostCached(*ri.rule, gpuRegion, extents,
                                       flopsPerPoint, range)
            : pointRuleGlobalCostCached(*ri.rule, gpuRegion, extents,
                                        flopsPerPoint, range);
    return sim::CostModel::kernelSeconds(machine.ocl, kcost,
                                         stage.config.localWorkSize);
}

} // namespace

SimOutcome
simulateTransform(const lang::Transform &transform,
                  const TransformConfig &config, const SlotSizes &sizes,
                  const lang::ParamEnv &params,
                  const sim::MachineProfile &machine)
{
    std::vector<StagePlan> plans = planStages(transform, config, sizes);
    for (const StagePlan &plan : plans) {
        // An infeasible *configuration*, not a library bug: machines
        // without an OpenCL runtime exist (BigLittle), and a config
        // tuned elsewhere may well carry GPU placements. FatalError is
        // the taxonomy the engines price as +inf.
        if (plan.hasGpuPart() && !machine.hasOpenCL)
            PB_FATAL("OpenCL placement on machine without OpenCL ('"
                     << machine.name << "')");
    }

    ReferenceScheduler sched(machine);
    ResidencyModel residency;
    SimOutcome outcome;

    // Concurrent CPU chunk tasks share the memory system: price each
    // chunk against a per-worker slice of the machine's bandwidth.
    sim::DeviceSpec cpuShared = machine.cpu;
    cpuShared.memBandwidthGBs /=
        std::max(1, std::min(machine.workerThreads, machine.cpu.cores));

    // Join task id per slot, as in the real executor.
    std::map<std::string, SimTaskId> slotReady;
    auto depsOf = [&](const lang::RulePtr &rule) {
        std::vector<SimTaskId> deps;
        for (const std::string &input : rule->inputSlots()) {
            auto it = slotReady.find(input);
            if (it != slotReady.end())
                deps.push_back(it->second);
        }
        return deps;
    };

    for (const StagePlan &plan : plans) {
        const lang::RulePtr &rule = plan.rule;
        std::vector<SimTaskId> deps = depsOf(rule);
        std::vector<SimTaskId> stageParts;

        SlotExtents extents;
        extents.outputW = plan.outW;
        extents.outputH = plan.outH;
        if (rule->isPointRule()) {
            for (const lang::AccessPattern &access : rule->accesses()) {
                auto it = sizes.find(access.inputSlot);
                PB_ASSERT(it != sizes.end(), "no extent for slot '"
                                                 << access.inputSlot
                                                 << "'");
                extents.inputs.push_back(it->second);
            }
        }

        // ---- CPU part ------------------------------------------------
        if (plan.hasCpuPart()) {
            if (rule->isPointRule()) {
                for (const Region &chunk :
                     rowChunks(plan.cpuRegion(), plan.config.cpuSplit)) {
                    sim::CostReport cost =
                        pointRuleCpuCost(*rule, chunk, extents, params);
                    double sec =
                        sim::CostModel::cpuSeconds(cpuShared, cost, 1);
                    stageParts.push_back(sched.addTask(
                        SimResource::CpuWorker, sec, deps,
                        rule->name() + ":cpu"));
                }
            } else {
                Region whole(0, 0, plan.outW, plan.outH);
                sim::CostReport cost = rule->regionCost(whole, params);
                bool sequential = cost.sequentialFraction >= 0.99;
                double sec = sim::CostModel::cpuSeconds(
                    machine.cpu, cost,
                    sequential ? 1 : machine.workerThreads);
                stageParts.push_back(sched.addTask(
                    sequential ? SimResource::CpuWorker
                               : SimResource::CpuPool,
                    sec, deps, rule->name() + ":native"));
            }
        }

        // ---- GPU part ------------------------------------------------
        if (plan.hasGpuPart()) {
            Region gpuRegion = plan.gpuRegion();
            ocl::NDRange range = groupShapeFor(
                *rule, gpuRegion, plan.config.localWorkSize);

            // Copy-in transfers (deduplicated against residency).
            std::vector<SimTaskId> copyIns;
            for (size_t i = 0; i < rule->accesses().size(); ++i) {
                const lang::AccessPattern &access = rule->accesses()[i];
                auto [inW, inH] = extents.inputs[i];
                Region needed =
                    inputRegionFor(access, gpuRegion, inW, inH);
                if (needed.empty())
                    continue;
                double bytes =
                    residency.bytesToCopyIn(access.inputSlot, needed);
                if (bytes <= 0.0)
                    continue;
                outcome.bytesToDevice += bytes;
                copyIns.push_back(sched.addTask(
                    SimResource::Transfer,
                    machine.transfer.seconds(bytes), deps,
                    rule->name() + ":copyin"));
            }

            // A launch whose local-memory demand exceeds the device
            // fails, exactly as clEnqueueNDRangeKernel would.
            if (plan.config.backend == Backend::OpenClLocal) {
                int64_t localBytes =
                    localMemElemsFor(*rule, range) *
                    static_cast<int64_t>(sizeof(double));
                if (localBytes > ocl::Device::kDefaultLocalMemBytes)
                    PB_FATAL("local work size "
                             << plan.config.localWorkSize << " needs "
                             << localBytes
                             << "B of local memory for rule '"
                             << rule->name() << "'");
            }

            // Kernel execution on the in-order GPU queue.
            sim::CostReport kcost =
                plan.config.backend == Backend::OpenClLocal
                    ? pointRuleLocalCost(*rule, gpuRegion, extents,
                                         params, range)
                    : pointRuleGlobalCost(*rule, gpuRegion, extents,
                                          params, range);
            double ksec = sim::CostModel::kernelSeconds(
                machine.ocl, kcost, plan.config.localWorkSize);
            std::vector<SimTaskId> kdeps = deps;
            kdeps.insert(kdeps.end(), copyIns.begin(), copyIns.end());
            SimTaskId kernel =
                sched.addTask(SimResource::GpuQueue, ksec, kdeps,
                              rule->name() + ":kernel");
            ++outcome.kernelLaunches;
            residency.markWritten(rule->outputSlot(), gpuRegion);

            if (plan.copyOut == CopyOutPolicy::MustCopyOut) {
                double bytes =
                    static_cast<double>(gpuRegion.area()) * kElemBytes;
                outcome.bytesFromDevice += bytes;
                SimTaskId copyOut = sched.addTask(
                    SimResource::Transfer,
                    machine.transfer.seconds(bytes), {kernel},
                    rule->name() + ":copyout");
                residency.markCopiedOut(rule->outputSlot(), gpuRegion);
                stageParts.push_back(copyOut);
            } else {
                // Reused or may-copy-out: downstream consumption is
                // ordered by the in-order queue.
                stageParts.push_back(kernel);
            }
        }

        slotReady[rule->outputSlot()] = sched.addTask(
            SimResource::None, 0.0, stageParts, rule->name() + ":done");
    }

    // Final lazy copy-out: the caller consumes the transform outputs,
    // triggering the inserted may-copy-out checks.
    std::vector<SimTaskId> tail;
    for (const lang::MatrixSlot &slot : transform.slots()) {
        if (slot.role != lang::SlotRole::Output)
            continue;
        double bytes = residency.staleBytes(slot.name);
        if (bytes <= 0.0)
            continue;
        outcome.bytesFromDevice += bytes;
        std::vector<SimTaskId> deps;
        auto it = slotReady.find(slot.name);
        if (it != slotReady.end())
            deps.push_back(it->second);
        tail.push_back(sched.addTask(SimResource::Transfer,
                                     machine.transfer.seconds(bytes),
                                     deps, slot.name + ":lazy-copyout"));
    }
    (void)tail;

    outcome.seconds = sched.run();
    outcome.gpuBusySeconds = sched.gpuBusySeconds();
    outcome.cpuBusySeconds = sched.cpuBusySeconds();
    return outcome;
}

SimOutcome
simulateTransform(const EvaluationContext &ctx,
                  const TransformConfig &config)
{
    const sim::MachineProfile &machine = ctx.machine();
    const TransformAnalysis &analysis = ctx.analysis();
    PB_ASSERT(config.choiceIndex < analysis.choices.size(),
              "choice " << config.choiceIndex << " out of range");
    const std::vector<RuleEvalInfo> &rules =
        analysis.choices[config.choiceIndex];
    PB_ASSERT(config.stages.size() == rules.size(),
              "config has " << config.stages.size()
                            << " stages, choice has " << rules.size()
                            << " rules");

    FastWorkspace &ws = tlsWorkspace;

    // ---- Stage planning (the planStages() work, minus everything the
    // context precomputed: execution order, extents, admissibility).
    ws.stages.clear();
    ws.stages.reserve(rules.size());
    for (const RuleEvalInfo &ri : rules) {
        StageDyn stage;
        stage.config = config.stage(ri.ruleIndex);
        stage.config.validate();
        std::tie(stage.outW, stage.outH) = ctx.extent(ri.outputSlotId);
        if (stage.config.backend != Backend::Cpu) {
            if (!ri.admissibility.convertible) {
                PB_FATAL("rule '" << ri.rule->name()
                                  << "' placed on OpenCL backend but is "
                                     "not convertible: "
                                  << ri.admissibility.reason);
            }
            if (stage.config.backend == Backend::OpenClLocal &&
                !ri.admissibility.localMemCandidate) {
                PB_FATAL("rule '" << ri.rule->name()
                                  << "' has no local-memory variant "
                                     "(bounding box is not a constant "
                                     "greater than one)");
            }
            stage.gpuRows = stage.config.gpuRows(stage.outH);
        }
        ws.stages.push_back(stage);
    }

    // Copy-out classification over the precomputed reader lists.
    for (size_t p = 0; p < ws.stages.size(); ++p) {
        StageDyn &stage = ws.stages[p];
        const RuleEvalInfo &ri = rules[p];
        if (stage.gpuRows <= 0) {
            stage.copyOut = CopyOutPolicy::None;
            continue;
        }
        bool consumedByCpu = false;
        bool consumedByGpu = false;
        for (size_t q : ri.readersAfter) {
            const StageDyn &later = ws.stages[q];
            if (later.config.backend == Backend::Cpu ||
                later.gpuRows < later.outH)
                consumedByCpu = true;
            else
                consumedByGpu = true;
        }
        if (consumedByCpu)
            stage.copyOut = CopyOutPolicy::MustCopyOut;
        else if (consumedByGpu)
            stage.copyOut = CopyOutPolicy::Reused;
        else if (ri.writesTransformOutput)
            stage.copyOut = CopyOutPolicy::MayCopyOut;
        else
            stage.copyOut = CopyOutPolicy::Reused;
    }

    for (const StageDyn &stage : ws.stages) {
        // Same taxonomy as the reference path above: infeasible
        // configuration, priced as +inf by the engines.
        if (stage.gpuRows > 0 && !machine.hasOpenCL)
            PB_FATAL("OpenCL placement on machine without OpenCL ('"
                     << machine.name << "')");
    }

    // ---- Simulation, mirroring the reference path task-for-task. A
    // stage's CPU chunks enter as one group, which schedules exactly
    // like the reference's one task per chunk, so the makespan is
    // bit-identical.
    ws.bindContext(ctx);
    sim::ScheduleSimulator &sched = ws.sched;
    sched.reset(machine);

    FastResidency &residency = ws.residency;
    residency.reset(analysis.slots.size());
    SimOutcome outcome;

    ws.slotReady.assign(analysis.slots.size(), -1);

    for (size_t p = 0; p < ws.stages.size(); ++p) {
        const StageDyn &stage = ws.stages[p];
        const RuleEvalInfo &ri = rules[p];
        const RuleSizing &sizing = ctx.sizing(ri);

        ws.deps.clear();
        for (int input : ri.inputSlotIds) {
            SimTaskId ready = ws.slotReady[static_cast<size_t>(input)];
            if (ready >= 0)
                ws.deps.push_back(ready);
        }
        ws.stageParts.clear();

        bool hasGpuPart = stage.gpuRows > 0;
        bool hasCpuPart = stage.gpuRows < stage.outH;
        Region gpuRegion(0, 0, stage.outW, stage.gpuRows);
        Region cpuRegion(0, stage.gpuRows, stage.outW,
                         stage.outH - stage.gpuRows);

        // ---- CPU part ------------------------------------------------
        if (hasCpuPart) {
            if (ri.rule->isPointRule()) {
                // Chunk task durations are a pure function of
                // (cost class, gpuRows, cpuSplit): memoized across the
                // batch's configurations and the class's rules.
                auto computeChunkSecs = [&](std::vector<double> &secs) {
                    rowChunksInto(cpuRegion, stage.config.cpuSplit,
                                  ws.chunks);
                    slotExtentsOf(ctx, ri, ws.extents);
                    secs.reserve(ws.chunks.size());
                    for (const Region &chunk : ws.chunks) {
                        sim::CostReport cost = pointRuleCpuCostCached(
                            *ri.rule, chunk, ws.extents,
                            sizing.flopsPerPoint);
                        secs.push_back(sim::CostModel::cpuSeconds(
                            ctx.cpuSharedSpec(), cost, 1));
                    }
                };
                uint64_t key = 0;
                const std::vector<double> *secs = nullptr;
                std::vector<double> local;
                if (cpuChunkKey(sizing.costClass, stage.gpuRows,
                                stage.config.cpuSplit, key)) {
                    auto it = ws.cpuChunkSecs.find(key);
                    if (it == ws.cpuChunkSecs.end()) {
                        std::vector<double> fresh;
                        computeChunkSecs(fresh);
                        it = ws.cpuChunkSecs
                                 .emplace(key, std::move(fresh))
                                 .first;
                    }
                    secs = &it->second;
                } else {
                    computeChunkSecs(local);
                    secs = &local;
                }
                ws.stageParts.push_back(sched.addGroup(
                    secs->data(), static_cast<int>(secs->size()),
                    ws.deps));
            } else {
                ws.stageParts.push_back(sched.addTask(
                    sizing.regionSequential ? SimResource::CpuWorker
                                            : SimResource::CpuPool,
                    sizing.regionSeconds, ws.deps));
            }
        }

        // ---- GPU part ------------------------------------------------
        if (hasGpuPart) {
            ws.copyIns.clear();
            const auto &accesses = ri.rule->accesses();
            for (size_t i = 0; i < accesses.size(); ++i) {
                auto [inW, inH] = ctx.extent(ri.inputSlotIds[i]);
                Region needed =
                    inputRegionFor(accesses[i], gpuRegion, inW, inH);
                if (needed.empty())
                    continue;
                double bytes = residency.bytesToCopyIn(
                    ri.inputSlotIds[i], needed);
                if (bytes <= 0.0)
                    continue;
                outcome.bytesToDevice += bytes;
                ws.copyIns.push_back(
                    sched.addTask(SimResource::Transfer,
                                  machine.transfer.seconds(bytes),
                                  ws.deps));
            }

            // Kernel seconds (and the local-memory feasibility check)
            // are a pure function of (cost class, gpuRows, lws,
            // backend): memoized like the chunk durations. Failed
            // checks are never memoized, so each rule throws its own
            // error.
            double ksec;
            {
                auto compute = [&] {
                    return gpuStageSeconds(
                        ri, slotExtentsOf(ctx, ri, ws.extents),
                        sizing.flopsPerPoint, stage, gpuRegion, machine);
                };
                uint64_t key = 0;
                if (gpuKernelKey(sizing.costClass, stage.gpuRows,
                                 stage.config.localWorkSize,
                                 stage.config.backend, key)) {
                    auto it = ws.gpuKernelSecs.find(key);
                    if (it == ws.gpuKernelSecs.end()) {
                        ksec = compute();
                        ws.gpuKernelSecs.emplace(key, ksec);
                    } else {
                        ksec = it->second;
                    }
                } else {
                    ksec = compute();
                }
            }
            ws.kdeps = ws.deps;
            ws.kdeps.insert(ws.kdeps.end(), ws.copyIns.begin(),
                            ws.copyIns.end());
            SimTaskId kernel =
                sched.addTask(SimResource::GpuQueue, ksec, ws.kdeps);
            ++outcome.kernelLaunches;
            residency.markWritten(ri.outputSlotId, gpuRegion);

            if (stage.copyOut == CopyOutPolicy::MustCopyOut) {
                double bytes =
                    static_cast<double>(gpuRegion.area()) * kElemBytes;
                outcome.bytesFromDevice += bytes;
                SimTaskId copyOut = sched.addTask(
                    SimResource::Transfer,
                    machine.transfer.seconds(bytes), {kernel});
                residency.markCopiedOut(ri.outputSlotId, gpuRegion);
                ws.stageParts.push_back(copyOut);
            } else {
                ws.stageParts.push_back(kernel);
            }
        }

        ws.slotReady[static_cast<size_t>(ri.outputSlotId)] =
            sched.addTask(SimResource::None, 0.0, ws.stageParts);
    }

    // Final lazy copy-out of transform outputs, as in the reference.
    for (int slot : analysis.outputSlotIds) {
        double bytes = residency.staleBytes(slot);
        if (bytes <= 0.0)
            continue;
        outcome.bytesFromDevice += bytes;
        ws.deps.clear();
        SimTaskId ready = ws.slotReady[static_cast<size_t>(slot)];
        if (ready >= 0)
            ws.deps.push_back(ready);
        sched.addTask(SimResource::Transfer,
                      machine.transfer.seconds(bytes), ws.deps);
    }

    outcome.seconds = sched.run();
    outcome.gpuBusySeconds = sched.gpuBusySeconds();
    outcome.cpuBusySeconds = sched.cpuBusySeconds();
    return outcome;
}

} // namespace compiler
} // namespace petabricks
