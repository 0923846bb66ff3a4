/**
 * @file
 * Deterministic crash/IO-fault injection at the persistence boundary.
 *
 * Every persistence write passes through four named crash points.
 * A write-temp + fsync + rename sequence (KvFile::saveTextAtomic;
 * prefixes spool.meta, cache.seg, portfolio.champ) traverses
 * `<prefix>.pre_write`, `<prefix>.write`, `<prefix>.pre_rename` and
 * `<prefix>.post_rename`. A checkpoint rewritten in place in one of two
 * slots (SlotFile; prefix spool.ckpt) traverses `<prefix>.pre_write`,
 * `<prefix>.write`, `<prefix>.pre_sync` and `<prefix>.post_sync`. A
 * *schedule* — set programmatically, via the `PB_CRASH_SCHEDULE`
 * environment variable, or via `tunerd --crash-at` — arms specific
 * points:
 *
 *     spool.ckpt.pre_sync=kill              kill on the 1st hit
 *     cache.seg.write@3=torn:17             3rd hit: keep 17 bytes
 *     portfolio.champ.write=enospc          1st hit: fail with ENOSPC
 *     spool.meta.write=eio,spool.ckpt.write@2=kill
 *
 * Actions: `kill` aborts the process with _exit(kCrashExitCode) —
 * valid at any point; `torn` truncates the write but lets the sequence
 * continue (so the rename lands a torn file, or the slot is left torn,
 * for boot fsck to find); `enospc` / `eio` make the write fail with an
 * IoError after a partial write (temp file left behind and no rename,
 * or the slot left partly written). `torn`/`enospc`/`eio` are only
 * meaningful at `.write` points. Hit counters are per point name, so
 * `@3` fires on exactly the third traversal — identically across
 * runs, which is what makes the crash matrix reproducible.
 *
 * The layer is a no-op (one relaxed atomic load) when no schedule is
 * armed, so it is compiled into release builds unconditionally.
 */

#ifndef PETABRICKS_SUPPORT_CRASHPOINT_H
#define PETABRICKS_SUPPORT_CRASHPOINT_H

#include <cstddef>
#include <string>
#include <vector>

namespace petabricks {
namespace crashpoint {

/** Exit code used by `kill`-style crash points (distinct from signals
 *  and from normal error exits, so harnesses can assert on it). */
inline constexpr int kCrashExitCode = 70;

/** What an armed `.write` point does to the write it intercepts. */
enum class Action {
    None,   ///< Point not armed (or not yet at its scheduled hit).
    Kill,   ///< _exit(kCrashExitCode) — handled inside fire().
    Torn,   ///< Truncate the write to keepBytes, then continue.
    Enospc, ///< Partial write, then fail as if the disk filled.
    Eio,    ///< Partial write, then fail with a generic I/O error.
};

/** Fault to apply to an intercepted write (returned by fireWrite). */
struct WriteFault {
    Action action = Action::None;
    /** Bytes to let through before truncating/failing. For Torn with
     *  no explicit byte count the caller uses half the payload. */
    size_t keepBytes = 0;
    /** True if keepBytes was given explicitly in the schedule. */
    bool explicitBytes = false;
};

/**
 * Traverse a kill-style crash point. If the schedule arms @p name with
 * `kill` at the current hit count, logs to stderr and _exit()s with
 * kCrashExitCode. Otherwise returns immediately (no-op when no
 * schedule is armed).
 */
void fire(const std::string &name);

/**
 * Traverse a write-style crash point. Kill actions terminate inside
 * the call like fire(); torn/enospc/eio are returned for the caller
 * to apply to the write it is about to issue.
 */
WriteFault fireWrite(const std::string &name);

/**
 * Install a schedule (see file comment for the format). Replaces any
 * previous schedule and resets all hit counters. An empty spec clears.
 * Throws FatalError on a malformed spec or an unregistered point name.
 */
void setSchedule(const std::string &spec);

/** Remove the schedule and reset hit counters. */
void clearSchedule();

/** True if any schedule is currently armed (env var or setSchedule). */
bool armed();

/**
 * All registered crash-point names, sorted. The built-in persistence
 * prefixes (spool.meta, spool.ckpt, cache.seg, portfolio.champ) are
 * registered unconditionally at first use — the crash matrix iterates
 * this to prove every point recovers.
 */
std::vector<std::string> catalog();

} // namespace crashpoint
} // namespace petabricks

#endif // PETABRICKS_SUPPORT_CRASHPOINT_H
