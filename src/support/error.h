/**
 * @file
 * Error reporting primitives, following the gem5 fatal/panic split.
 *
 * panic() is for internal invariant violations (bugs in this library);
 * fatal() is for user errors (bad configuration, invalid arguments).
 */

#ifndef PETABRICKS_SUPPORT_ERROR_H
#define PETABRICKS_SUPPORT_ERROR_H

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace petabricks {

/** Exception thrown for user-caused errors (bad config, bad arguments). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * An evaluation failed in a way that condemns the *evaluation*, not
 * the configuration: the measured result is garbage or was never
 * produced. Distinct from plain FatalError (infeasible configuration:
 * deterministic, price as +inf and move on) so harness layers can
 * account for flaky evaluations separately. Catch-ordering matters:
 * handlers must catch the subclasses below before FatalError.
 */
class EvaluationError : public FatalError
{
  public:
    explicit EvaluationError(const std::string &msg) : FatalError(msg) {}
};

/**
 * A *retryable* evaluation failure: the device crashed, the worker
 * hung past its deadline, the daemon connection timed out — faults of
 * the environment, not of the configuration under test. Callers with a
 * retry budget should re-attempt; callers without one should treat the
 * configuration like the paper treats inadmissible configs (worst
 * cost, move on) and never record the result as a real measurement.
 */
class TransientError : public EvaluationError
{
  public:
    explicit TransientError(const std::string &msg) : EvaluationError(msg)
    {}
};

/**
 * A persistence write failed (disk full, injected EIO, rename error).
 * The in-memory state is still good; only durability is degraded.
 * Persistence call sites catch this, bump a counter, warn, and keep
 * serving from memory — an IoError must never corrupt prior on-disk
 * state, because every write goes through write-temp + rename or into
 * the slot that does not hold the newest copy (SlotFile).
 */
class IoError : public FatalError
{
  public:
    explicit IoError(const std::string &msg) : FatalError(msg) {}
};

/** Exception thrown for internal invariant violations (library bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail {

[[noreturn]] void throwFatal(const char *file, int line,
                             const std::string &msg);
[[noreturn]] void throwPanic(const char *file, int line,
                             const std::string &msg);
[[noreturn]] void throwTransient(const char *file, int line,
                                 const std::string &msg);
[[noreturn]] void throwIo(const char *file, int line,
                          const std::string &msg);

} // namespace detail

} // namespace petabricks

/** Report an unrecoverable user error (bad config / arguments). */
#define PB_FATAL(msg)                                                       \
    do {                                                                    \
        std::ostringstream pb_oss_;                                         \
        pb_oss_ << msg;                                                     \
        ::petabricks::detail::throwFatal(__FILE__, __LINE__,                \
                                         pb_oss_.str());                    \
    } while (0)

/** Report a retryable evaluation failure (see TransientError). */
#define PB_TRANSIENT(msg)                                                   \
    do {                                                                    \
        std::ostringstream pb_oss_;                                         \
        pb_oss_ << msg;                                                     \
        ::petabricks::detail::throwTransient(__FILE__, __LINE__,            \
                                             pb_oss_.str());                \
    } while (0)

/** Report a persistence write failure (see IoError). */
#define PB_IO_FAIL(msg)                                                     \
    do {                                                                    \
        std::ostringstream pb_oss_;                                         \
        pb_oss_ << msg;                                                     \
        ::petabricks::detail::throwIo(__FILE__, __LINE__, pb_oss_.str());   \
    } while (0)

/** Report an internal invariant violation (a bug in this library). */
#define PB_PANIC(msg)                                                       \
    do {                                                                    \
        std::ostringstream pb_oss_;                                         \
        pb_oss_ << msg;                                                     \
        ::petabricks::detail::throwPanic(__FILE__, __LINE__,                \
                                         pb_oss_.str());                    \
    } while (0)

/** Assert an internal invariant; always enabled (cheap checks only). */
#define PB_ASSERT(cond, msg)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            PB_PANIC("assertion failed: " #cond ": " << msg);               \
        }                                                                   \
    } while (0)

#endif // PETABRICKS_SUPPORT_ERROR_H
