/**
 * @file
 * Model of OpenCL runtime kernel compilation and the IR cache.
 *
 * Section 5.4: OpenCL kernels are JIT-compiled at runtime, a fixed
 * startup cost "often on the order of a few seconds" that dominates
 * autotuning tests on small inputs. The paper's fix is to cache the
 * OpenCL runtime's intermediate representation keyed by a hash of the
 * kernel source, skipping the parse/optimize phases on later runs
 * (architecture-specific JITing still happens, so the saving is
 * partial).
 *
 * ProgramCache reproduces that accounting: it charges full compile cost
 * the first time a source is seen, nothing while the program stays
 * alive in the current process, and a reduced cost when a new process
 * run finds the IR in the on-disk cache. The autotuner charges these
 * seconds to its tuning-time model (Figure 8). Sources are keyed by
 * small dense ids the caller interns (TuningSession interns each kernel
 * source name once), so a lookup is an array index.
 */

#ifndef PETABRICKS_OCL_PROGRAM_CACHE_H
#define PETABRICKS_OCL_PROGRAM_CACHE_H

#include <cstdint>
#include <vector>

namespace petabricks {
namespace ocl {

/** Interned identity of one kernel source (dense, from 0). */
using ProgramId = uint32_t;

/** Compile statistics for Figure 8's tuning-time accounting. */
struct CompileStats
{
    int64_t fullCompiles = 0;
    int64_t irCacheHits = 0;
    int64_t inProcessHits = 0;
    double totalSeconds = 0.0;
};

/** JIT compile-cost model with in-process program and on-disk IR caches. */
class ProgramCache
{
  public:
    /**
     * @param compileSeconds cost of a cold kernel compile.
     * @param irCacheSavings fraction of compileSeconds skipped when the
     *        IR cache hits (parse/optimize skipped; JIT still runs).
     */
    ProgramCache(double compileSeconds, double irCacheSavings)
        : compileSeconds_(compileSeconds), irCacheSavings_(irCacheSavings)
    {}

    /**
     * Compile (or look up) the program for source @p program.
     * @return modeled seconds spent compiling.
     */
    double compile(ProgramId program);

    /**
     * End the current process run: live programs are dropped but their
     * IR persists, as when an autotuner test process exits.
     */
    void endRun();

    /** Drop everything, as on a fresh install. */
    void clear();

    const CompileStats &stats() const { return stats_; }

  private:
    double compileSeconds_;
    double irCacheSavings_;
    enum : uint8_t { kLive = 1, kInIrCache = 2 };
    std::vector<uint8_t> state_; ///< kLive | kInIrCache, by ProgramId
    CompileStats stats_;
};

} // namespace ocl
} // namespace petabricks

#endif // PETABRICKS_OCL_PROGRAM_CACHE_H
