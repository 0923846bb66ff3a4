/**
 * @file
 * The autotuning service daemon: many tuning sessions behind a small
 * HTTP command API.
 *
 * Architecture (the pazpar2 shape, sel_thread bridge included):
 *
 *  - ONE I/O thread accepts and reads every socket. It runs a poll()
 *    loop over the listener, the live connections, and a self-pipe;
 *    all sockets are non-blocking, requests are parsed incrementally,
 *    and responses it cannot write at once wait in per-connection
 *    outboxes until the socket takes them. Only commands that
 *    can never wait (status/list/stats/ping/shutdown) execute inline
 *    on this thread — they hold the table mutex for microseconds.
 *
 *  - Session commands that can wait — `step` (long by design), plus
 *    create/champion/resume/stop (which serialize on a possibly-
 *    stepping session or wait for residency capacity) — are fanned out
 *    to a worker pool built on support/ThreadPool: the server parks
 *    one long-running parallelFor() on a pump thread and each index
 *    runs the worker loop, draining a shared command queue. A finished
 *    worker writes its response straight to the socket when nothing
 *    is queued ahead of it in the connection's outbox. Only when the
 *    socket takes part of it, or requests arrived behind the command,
 *    does the worker hand the connection back through a completion
 *    queue and the self-pipe: the I/O thread then writes the rest and
 *    pumps the pipelined requests. The worker holds the connection by
 *    shared ownership, so a client that hangs up mid-step never has
 *    its socket closed under the worker. The connection waits; the
 *    daemon never does.
 *
 *  - The idle-session sweeper runs off the poll() timeout on the I/O
 *    thread: every sweepIntervalSeconds it asks the SessionTable to
 *    evict idle residents and expire abandoned sessions.
 *
 * Threading contract per command: `step` blocks its *connection* until
 * the requested generations complete (`wait=0` returns 202 immediately
 * and the stepping continues detached); create/champion/resume/stop
 * also run on workers and block only their connection (a champion
 * requested mid-step waits for that step to finish); status/list/
 * stats/ping/shutdown answer inline and never block. Two commands on
 * the *same* session serialize on its entry; commands on different
 * sessions are fully concurrent up to the worker count.
 */

#ifndef PETABRICKS_SERVICE_SERVER_H
#define PETABRICKS_SERVICE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cache/shared_cache.h"
#include "portfolio/portfolio.h"
#include "service/http.h"
#include "service/session_table.h"
#include "support/socket.h"
#include "support/thread_pool.h"

namespace petabricks {
namespace service {

/** Construction knobs for TuningServer. */
struct ServerOptions
{
    std::string host = "127.0.0.1";
    uint16_t port = 0; ///< 0 = ephemeral; read back with port()

    /** Worker threads stepping sessions (>= 1). */
    int workers = 4;

    /** Session hosting knobs (spool dir, cap, GC). */
    SessionTableOptions table;

    /**
     * Shared L2 evaluation cache for every hosted session.
     * `cache.maxBytes = 0` disables the shared tier entirely; a
     * non-empty `cache.dir` persists it across daemon restarts (the
     * segment directory, warm-started at boot). The server owns the
     * cache and injects it into the table; `table.sharedCache` is
     * overwritten by the constructor.
     */
    cache::SharedCacheOptions cache;

    /**
     * Champion portfolio directory: tuned champions (`POST
     * /portfolio/tune`) persist here and are served back (`GET
     * /portfolio/champion`) across daemon restarts. Empty keeps the
     * portfolio in memory only (still fully functional within one
     * daemon lifetime).
     */
    std::string portfolioDir;

    /** Seconds between idle-GC sweeps. */
    int64_t sweepIntervalSeconds = 5;

    /**
     * Bound on queued worker commands. A burst beyond this answers
     * `503 Service Unavailable` with a `Retry-After` hint instead of
     * buffering without limit — overload sheds load at the edge, it
     * never grows an unbounded queue of doomed work.
     */
    size_t maxQueueDepth = 128;

    /**
     * Per-request deadline (seconds; 0 disables): a queued command
     * older than this when a worker finally picks it up is answered
     * `503` without being dispatched — the client has usually timed
     * out and retried by then, so running it would double the work.
     */
    int64_t requestDeadlineSeconds = 0;

    /**
     * How many times a supervisor (`tunerd --supervise`) has restarted
     * this daemon over the same state dirs. Purely informational —
     * surfaced as `server.restartCount` in `/stats` so operators (and
     * the smoke test) can see recovery happening.
     */
    int64_t restartCount = 0;
};

/** Per-command request/latency counters (`stats` endpoint). */
struct CommandStats
{
    int64_t count = 0;
    int64_t errors = 0; ///< non-2xx responses
    double totalMicros = 0;
    double maxMicros = 0;
};

/** See file comment. */
class TuningServer
{
  public:
    explicit TuningServer(ServerOptions options);

    /** stop()s if still running. */
    ~TuningServer();

    /** Bind the listener and launch the I/O and worker threads. */
    void start();

    /** Drain and join everything; idempotent. */
    void stop();

    /**
     * Graceful shutdown (the SIGTERM path): stop accepting new worker
     * commands (they get 503 + Retry-After), wait for every queued and
     * in-flight command to finish, checkpoint every resident session
     * to the spool, then stop(). Blocks until done; idempotent with
     * respect to concurrent drain() calls.
     */
    void drain();

    /** True once drain() began (new worker commands are rejected). */
    bool draining() const { return draining_.load(); }

    /** The bound port (valid after start()). */
    uint16_t port() const { return port_; }

    SessionTable &table() { return table_; }

    /** The shared L2 cache, or nullptr when disabled. */
    cache::SharedEvaluationCache *sharedCache() { return sharedCache_.get(); }

    /** The champion portfolio (always present; memory-only when no
     * portfolioDir was configured). */
    portfolio::ChampionPortfolio &portfolio() { return *portfolio_; }

    /** True once a client POSTed /shutdown (tunerd polls this). */
    bool shutdownRequested() const { return shutdownRequested_.load(); }

    /** Full server + table counters in KvFile form. */
    KvFile statsKv() const;

  private:
    /**
     * One client connection. The I/O thread reads the socket and owns
     * the parser; the worker running its command holds a reference and
     * writes the reply: to the socket when the outbox is empty, else
     * behind what the outbox holds. The I/O thread writes only from
     * the outbox, so replies leave in request order.
     */
    struct Connection
    {
        Connection(uint64_t id, net::TcpStream stream)
            : id(id), stream(std::move(stream))
        {}

        const uint64_t id;
        net::TcpStream stream;
        HttpParser parser;       ///< I/O thread only
        bool peerClosed = false; ///< I/O thread only

        std::mutex mutex; ///< guards the fields below
        std::string outbox; ///< reply bytes the socket has not taken
        bool closeAfterWrite = false;
        bool awaitingWorker = false; ///< a worker owns the next reply
        /** Input came while a worker held the connection: it must go
         * back to the I/O thread once the reply is out. */
        bool handBack = false;
    };
    using ConnectionPtr = std::shared_ptr<Connection>;

    struct WorkItem
    {
        ConnectionPtr connection; ///< null: detached (fire-and-forget step)
        HttpRequest request;
        std::chrono::steady_clock::time_point enqueued; ///< deadline base
    };

    void ioLoop();
    void workerLoop();

    /** Parse-and-route everything buffered on @p connection. */
    void pumpRequests(const ConnectionPtr &connection);

    /**
     * pumpRequests(), then write what the outbox holds (I/O thread).
     * @return false once @p connection should close. Fatal error on a
     * hard socket error.
     */
    bool serviceConnection(const ConnectionPtr &connection);

    /** Deliver a worker's @p wire reply on @p connection (worker
     * thread): see the file comment. */
    void reply(Connection &connection, std::string wire);

    /** Execute one command and build its response (any thread). */
    HttpResponse dispatch(const HttpRequest &request);

    /** dispatch() + per-command stats accounting. */
    HttpResponse timedDispatch(const HttpRequest &request);

    /** Count a request for @p path under its command's `/stats`
     * entry; every path dispatch() does not serve shares one
     * `command.unknown` entry. */
    void recordCommand(const std::string &path, int status,
                       double micros);

    ServerOptions options_;
    /** Declared before table_: sessions hold raw pointers into the
     * cache, so it must outlive every entry the table destroys. */
    std::unique_ptr<cache::SharedEvaluationCache> sharedCache_;
    /** Loaded at construction (quarantining bad files); worker
     * threads tune into and dispatch from it. */
    std::unique_ptr<portfolio::ChampionPortfolio> portfolio_;
    SessionTable table_;
    uint16_t port_ = 0;

    std::unique_ptr<net::TcpListener> listener_;
    net::SelfPipe wakeup_;
    std::thread ioThread_;

    // The sel_thread bridge: ThreadPool workers drain workQueue_ and
    // hand connections back through doneQueue_; pumpThread_ hosts the
    // pool's parallelFor.
    std::unique_ptr<ThreadPool> pool_;
    std::thread pumpThread_;
    mutable std::mutex workMutex_;
    std::condition_variable workCv_;
    std::deque<WorkItem> workQueue_;
    int busyWorkers_ = 0;            ///< guarded by workMutex_
    std::condition_variable drainCv_; ///< queue empty + workers idle
    std::mutex doneMutex_;
    std::deque<uint64_t> doneQueue_; ///< ids of handed-back connections

    std::map<uint64_t, ConnectionPtr> connections_; ///< I/O thread only
    uint64_t nextConnId_ = 0;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> shutdownRequested_{false};
    std::atomic<bool> draining_{false};
    std::atomic<int64_t> backpressureRejections_{0};
    std::atomic<int64_t> deadlineRejections_{0};

    mutable std::mutex statsMutex_;
    std::map<std::string, CommandStats> commandStats_;
    int64_t connectionsAccepted_ = 0;
    int64_t requestsServed_ = 0;
    std::chrono::steady_clock::time_point startTime_{};
};

} // namespace service
} // namespace petabricks

#endif // PETABRICKS_SERVICE_SERVER_H
