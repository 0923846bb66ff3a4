/**
 * @file
 * Model-mode transform execution: replays the same stage plans the real
 * executor interprets, but against a MachineProfile via the
 * discrete-event scheduler simulator, producing a deterministic
 * makespan on the paper's three test systems.
 *
 * The structure mirrors the real task graph one-to-one: per stage, CPU
 * chunk tasks on the worker pool, and for the GPU part a copy-in
 * transfer (deduplicated against modeled device residency), an in-order
 * kernel execution on the GPU queue, and an eager copy-out transfer
 * when the data-movement analysis demands one. May-copy-out outputs are
 * fetched by a final lazy transfer, so — like the paper's measurements
 * and unlike most hand-coded GPU baselines — results always include the
 * cost of getting data back to the host.
 */

#ifndef PETABRICKS_COMPILER_SIMULATOR_H
#define PETABRICKS_COMPILER_SIMULATOR_H

#include "compiler/data_movement.h"
#include "compiler/eval_context.h"
#include "sim/machine.h"
#include "sim/sched_sim.h"

namespace petabricks {
namespace compiler {

/** Breakdown of a simulated transform invocation. */
struct SimOutcome
{
    double seconds = 0.0;
    double gpuBusySeconds = 0.0;
    double cpuBusySeconds = 0.0;
    int64_t kernelLaunches = 0;
    double bytesToDevice = 0.0;
    double bytesFromDevice = 0.0;
};

/**
 * Simulate one invocation of @p transform under placement @p config on
 * @p machine.
 *
 * This is the *reference simulator*: it rebuilds every piece of
 * config-invariant scaffolding (stage planning, admissibility,
 * string-keyed residency) from scratch per call. It is kept verbatim as
 * the executable specification of the model and has no production
 * caller: the golden-equality tests replay a benchmark's invocation
 * through it and assert the fast path below reproduces it bit-for-bit.
 *
 * @param sizes extents of every slot.
 * @param params bound transform parameters.
 */
SimOutcome simulateTransform(const lang::Transform &transform,
                             const TransformConfig &config,
                             const SlotSizes &sizes,
                             const lang::ParamEnv &params,
                             const sim::MachineProfile &machine);

/**
 * Fast path, the one every benchmark prices through: simulate
 * @p config against a prebuilt EvaluationContext.
 *
 * All config-invariant work (execution order, admissibility, slot
 * extents, access geometry, flops-per-point) comes precomputed from
 * @p ctx; per-call scratch (interned-slot residency sets, dependency
 * buffers) lives in a thread-local workspace, so the per-config inner
 * loop performs no steady-state allocation. Returns bit-identical
 * results to the reference overload for the same
 * (transform, sizes, params, machine), including throwing the same
 * FatalErrors for infeasible placements.
 */
SimOutcome simulateTransform(const EvaluationContext &ctx,
                             const TransformConfig &config);

} // namespace compiler
} // namespace petabricks

#endif // PETABRICKS_COMPILER_SIMULATOR_H
