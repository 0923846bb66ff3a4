/**
 * @file
 * Blocking client for the tuning service's HTTP command API.
 *
 * One Client owns one keep-alive connection and issues one request at
 * a time — the remote analogue of holding a TuningSession object. The
 * remote_tuning example, the daemon smoke test, and the end-to-end
 * tests all drive the daemon through this class, so the wire protocol
 * has exactly one client-side implementation.
 *
 * Server-reported errors (4xx/5xx) surface as FatalError carrying the
 * server's message — except 503 (backpressure / draining), which is a
 * TransientError: the daemon explicitly said "try again", so callers
 * with a retry loop can distinguish it from a real failure. Transport
 * failures (daemon died mid-request) surface as FatalError from the
 * socket layer; connect/read timeouts surface as TransientError.
 */

#ifndef PETABRICKS_SERVICE_CLIENT_H
#define PETABRICKS_SERVICE_CLIENT_H

#include <cstdint>
#include <string>

#include "support/kvfile.h"
#include "support/socket.h"
#include "tuner/session.h"

namespace petabricks {
namespace service {

/**
 * Opt-in retry behavior for 503 backpressure responses. Only a
 * *completed* 503 is ever retried: the daemon finished the exchange and
 * explicitly said "come back later", so resending is safe. A timeout is
 * never retried automatically — the request may have been executed, and
 * re-POSTing a `/step` could silently double the work.
 */
struct ClientRetryPolicy
{
    /** Retries after the first 503 (0 = give up immediately, the
     * default — existing callers see no behavior change). */
    int attempts = 0;

    /** Hard cap on any single sleep, hinted or not (millis). A daemon
     * that says "Retry-After: 3600" should not wedge a client. */
    int maxSleepMillis = 5000;

    /** Cap on the deterministic jitter added to every sleep so a herd
     * of clients told "Retry-After: 1" does not return in lockstep. */
    int jitterCapMillis = 100;
};

/** See file comment. */
class Client
{
  public:
    /**
     * Connect to a running daemon; fatal error when unreachable.
     * @param timeoutMillis bound on the connect and on every read
     *        while awaiting a response (0 = block forever). Expiry
     *        throws TransientError — the daemon may just be slow, so
     *        the caller decides whether to retry.
     */
    Client(const std::string &host, uint16_t port, int timeoutMillis = 0);

    /** Round-trip liveness probe. */
    void ping();

    /**
     * Create a session from @p options (same keys as
     * SessionSpec::fromCreateRequest; `benchmark` is required).
     * @return the new session id.
     */
    std::string create(const KvFile &options);

    /**
     * Advance @p sessionId by @p steps generations. Blocks until the
     * steps complete when @p wait (the default); otherwise returns
     * immediately after the daemon accepts the work — poll status()
     * to watch it land.
     * @return generations actually run (0 for no-wait calls).
     */
    int step(const std::string &sessionId, int steps, bool wait = true);

    /** Raw status body (status.* / cache.* keys). */
    KvFile status(const std::string &sessionId);

    /** status() decoded into the introspection struct. */
    tuner::SessionIntrospection introspect(const std::string &sessionId);

    /** step() until the search completes (polling when detached work
     * is in flight), then return the champion body. */
    KvFile runToCompletion(const std::string &sessionId,
                           int stepsPerCall = 8);

    /** Champion body: config keys + champion.* metadata. */
    KvFile champion(const std::string &sessionId);

    /** Delete the session (live state and spool files). */
    void stopSession(const std::string &sessionId);

    /** Rehydrate a spooled session (e.g. after a daemon restart). */
    void resume(const std::string &sessionId);

    /** Server + table counters. */
    KvFile stats();

    /** Registered machine profiles with their content fingerprints. */
    KvFile machines();

    /** Every stored champion (metadata only) + portfolio counters. */
    KvFile portfolio();

    /**
     * Input-adaptive dispatch: the stored champion the daemon would
     * run for (@p benchmark, @p n) on @p machine. Body carries
     * champion.* metadata, config.* values, and dispatch.* policy.
     */
    KvFile portfolioChampion(const std::string &benchmark,
                             const std::string &machine, int64_t n);

    /**
     * Tune a champion ladder into the daemon's portfolio (body keys:
     * `benchmark`, `machine` required; `sizes`/`minSize`/`maxSize`/
     * `growth`/`population`/`generations`/`seed` optional). Blocks
     * until every rung finishes.
     */
    KvFile portfolioTune(const KvFile &options);

    /** Ask the daemon to exit its serve loop. */
    void shutdownServer();

    /**
     * One raw command round-trip: @p target is the request target
     * ("/step?session=s1"), @p body the request payload. Returns the
     * response body parsed as a KvFile; throws FatalError on non-2xx.
     */
    KvFile command(const std::string &method, const std::string &target,
                   const std::string &body = std::string());

    /** Enable retry-on-503 for the session commands (see
     * ClientRetryPolicy; default policy retries nothing). */
    void setRetryPolicy(const ClientRetryPolicy &policy)
    {
        retry_ = policy;
    }

    /**
     * The Retry-After hint (seconds) carried by the most recent 503,
     * or -1 when the last 503 had none / none was ever received.
     */
    int lastRetryAfterSeconds() const { return lastRetryAfterSeconds_; }

  private:
    /** command(), retried per retry_ when the daemon answers 503. */
    KvFile commandWithRetry(const std::string &method,
                            const std::string &target,
                            const std::string &body = std::string());

    std::string host_;
    int timeoutMillis_ = 0;
    net::TcpStream stream_;
    std::string inbox_; ///< bytes read past the previous response

    ClientRetryPolicy retry_;
    int lastRetryAfterSeconds_ = -1;
    bool lastTransientWas503_ = false; ///< vs. a timeout (never retried)
    uint64_t jitterState_ = 1;         ///< xorshift64 jitter sequence
};

} // namespace service
} // namespace petabricks

#endif // PETABRICKS_SERVICE_CLIENT_H
