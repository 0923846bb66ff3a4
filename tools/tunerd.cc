/**
 * tunerd — the autotuning service daemon.
 *
 * Hosts many concurrent tuning sessions behind the HTTP command API
 * (see src/service/server.h for the endpoint set and threading
 * contract). Sessions are checkpointed to the spool directory, so a
 * killed daemon restarted on the same spool resumes every search via
 * the `resume` command.
 *
 *   tunerd --port 8617 --spool /var/tmp/tunerd --cap 64 --workers 8
 *
 * `--port 0` binds an ephemeral port; `--port-file PATH` writes the
 * bound port there (after the listener is live), which is how the
 * smoke scripts and tests rendezvous with a daemon they spawned.
 *
 * `--supervise` wraps the daemon in a fork/exec supervisor: the child
 * runs the server, the parent waits, and a crashed child (non-zero
 * exit or signal) is restarted over the same spool/cache/portfolio
 * dirs with bounded exponential backoff. A crash loop (--max-crashes
 * within --crash-window seconds) makes the supervisor give up with a
 * non-zero exit. SIGTERM/SIGINT are forwarded to the child for a
 * graceful drain. `--crash-at` (or PB_CRASH_SCHEDULE) arms the
 * deterministic crash/IO-fault schedule in the *first* child only —
 * restarts run clean, which is what makes supervised crash injection
 * terminate.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/server.h"
#include "support/crashpoint.h"
#include "support/logging.h"

using namespace petabricks;

namespace {

volatile std::sig_atomic_t signalled = 0;

void
onSignal(int)
{
    signalled = 1;
}

void
usage()
{
    std::cout <<
        "usage: tunerd [options]\n"
        "  --host ADDR        bind address        (default 127.0.0.1)\n"
        "  --port N           TCP port, 0=ephemeral (default 8617)\n"
        "  --port-file PATH   write the bound port to PATH\n"
        "  --spool DIR        checkpoint spool dir (default /tmp/tunerd-spool)\n"
        "  --cap N            max resident sessions (default 64)\n"
        "  --workers N        stepping worker threads (default 4)\n"
        "  --idle-evict SEC   evict sessions idle this long (default 300)\n"
        "  --expire SEC       delete sessions untouched this long (default 0=never)\n"
        "  --sweep SEC        GC sweep interval (default 5)\n"
        "  --queue-depth N    worker queue bound; excess gets 503 (default 128)\n"
        "  --request-deadline SEC  503 commands queued too long (default 0=off)\n"
        "  --cache-dir DIR    persist the shared evaluation cache here and\n"
        "                     warm-start from it at boot (default: memory only)\n"
        "  --cache-bytes N    shared-cache memory bound; 0 disables the\n"
        "                     shared tier entirely (default 64MiB)\n"
        "  --portfolio-dir DIR  persist tuned champions here and serve\n"
        "                     them back across restarts (default: memory only)\n"
        "  --no-step-checkpoints  checkpoint per step command, not per generation\n"
        "  --crash-at SPEC    arm the crash/IO-fault schedule, e.g.\n"
        "                     'spool.ckpt.pre_sync=kill' or\n"
        "                     'cache.seg.write@2=enospc' (testing)\n"
        "  --supervise        run under a restarting supervisor\n"
        "  --max-crashes N    crash-loop breaker: give up after N crashes\n"
        "                     within the window (default 5)\n"
        "  --crash-window SEC crash-loop breaker window (default 30)\n"
        "  --restart-count N  (internal) restart ordinal set by the supervisor\n"
        "  --verbose          info-level logging\n"
        "\n"
        "SIGTERM/SIGINT drain gracefully: stop accepting commands,\n"
        "finish in-flight work, checkpoint every session, exit 0.\n";
}

/**
 * The supervisor loop: fork/exec this binary without the supervisor
 * flags, restart it on crashes with exponential backoff, break the
 * loop when crashes cluster, forward TERM/INT for a graceful drain.
 */
int
superviseMain(int argc, char **argv, const std::string &portFile,
              int maxCrashes, int crashWindowSeconds)
{
    // Child argv: this binary minus the supervisor-only flags, plus a
    // --restart-count the server surfaces in /stats. --crash-at (and
    // the env schedule) is kept for the FIRST child only: the point of
    // supervised injection is proving recovery, and recovery means the
    // restarted child must come up clean.
    auto buildChildArgs = [&](int restartCount) {
        std::vector<std::string> args;
        args.push_back(argv[0]);
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--supervise")
                continue;
            if (arg == "--max-crashes" || arg == "--crash-window" ||
                arg == "--restart-count") {
                ++i;
                continue;
            }
            if (arg == "--crash-at") {
                ++i;
                if (restartCount == 0)
                    args.insert(args.end(), {"--crash-at", argv[i]});
                continue;
            }
            args.push_back(arg);
        }
        args.push_back("--restart-count");
        args.push_back(std::to_string(restartCount));
        return args;
    };

    // Explicit sigaction *without* SA_RESTART: waitpid below must be
    // interruptible so a TERM to the supervisor forwards promptly.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    std::deque<std::chrono::steady_clock::time_point> crashes;
    int restartCount = 0;
    int backoffMillis = 200;

    for (;;) {
        // Stale port files must not satisfy the liveness poll below.
        if (!portFile.empty())
            std::remove(portFile.c_str());

        std::vector<std::string> args = buildChildArgs(restartCount);
        pid_t pid = fork();
        if (pid < 0) {
            std::cerr << "tunerd: fork failed: " << std::strerror(errno)
                      << "\n";
            return 1;
        }
        if (pid == 0) {
            if (restartCount > 0) {
                // Belt and braces with the --crash-at stripping above:
                // an inherited env schedule would re-crash every
                // restart and defeat the supervisor.
                unsetenv("PB_CRASH_SCHEDULE");
            }
            std::vector<char *> cargs;
            for (std::string &a : args)
                cargs.push_back(a.data());
            cargs.push_back(nullptr);
            execv(cargs[0], cargs.data());
            std::cerr << "tunerd: exec failed: " << std::strerror(errno)
                      << "\n";
            _exit(127);
        }

        std::cout << "tunerd-supervisor: child " << pid << " started"
                  << " (restart " << restartCount << ")" << std::endl;

        // Probe /healthz before declaring the child live (advisory:
        // backoff reset + log only — a child that crashes before its
        // port file appears is still caught by waitpid below).
        bool declaredLive = false;
        auto liveProbe = [&] {
            if (declaredLive || portFile.empty())
                return;
            FILE *f = std::fopen(portFile.c_str(), "r");
            if (!f)
                return;
            unsigned port = 0;
            bool got = std::fscanf(f, "%u", &port) == 1;
            std::fclose(f);
            if (!got || port == 0)
                return;
            try {
                service::Client probe("127.0.0.1",
                                      static_cast<uint16_t>(port), 2000);
                probe.command("GET", "/healthz");
                declaredLive = true;
                backoffMillis = 200;
                std::cout << "tunerd-supervisor: child " << pid
                          << " is live (healthz ok, port " << port << ")"
                          << std::endl;
            } catch (const std::exception &) {
                // Not up yet (or mid-crash); keep waiting.
            }
        };

        int status = 0;
        for (;;) {
            if (signalled) {
                // Forward for a graceful drain, then keep waiting for
                // the child to finish it.
                kill(pid, SIGTERM);
                signalled = 0;
            }
            pid_t done = waitpid(pid, &status, WNOHANG);
            if (done == pid)
                break;
            liveProbe();
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }

        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            std::cout << "tunerd-supervisor: child exited cleanly"
                      << std::endl;
            return 0;
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 127)
            return 127; // exec itself failed; retrying cannot help

        const auto now = std::chrono::steady_clock::now();
        crashes.push_back(now);
        while (!crashes.empty() &&
               now - crashes.front() >
                   std::chrono::seconds(crashWindowSeconds))
            crashes.pop_front();
        if (static_cast<int>(crashes.size()) >= maxCrashes) {
            std::cerr << "tunerd-supervisor: " << crashes.size()
                      << " crashes within " << crashWindowSeconds
                      << "s, giving up\n";
            return 1;
        }

        if (WIFSIGNALED(status))
            std::cout << "tunerd-supervisor: child killed by signal "
                      << WTERMSIG(status) << ", restarting" << std::endl;
        else
            std::cout << "tunerd-supervisor: child exited with status "
                      << WEXITSTATUS(status) << ", restarting"
                      << std::endl;

        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoffMillis));
        backoffMillis = std::min(backoffMillis * 2, 10000);
        ++restartCount;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServerOptions options;
    options.port = 8617;
    options.table.spoolDir = "/tmp/tunerd-spool";
    std::string portFile;
    std::string crashSchedule;
    bool supervise = false;
    int maxCrashes = 5;
    int crashWindowSeconds = 30;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "tunerd: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--host")
            options.host = value();
        else if (arg == "--port")
            options.port = static_cast<uint16_t>(std::atoi(value()));
        else if (arg == "--port-file")
            portFile = value();
        else if (arg == "--spool")
            options.table.spoolDir = value();
        else if (arg == "--cap")
            options.table.residentCap =
                static_cast<size_t>(std::atoll(value()));
        else if (arg == "--workers")
            options.workers = std::atoi(value());
        else if (arg == "--idle-evict")
            options.table.idleEvictSeconds = std::atoll(value());
        else if (arg == "--expire")
            options.table.expireSeconds = std::atoll(value());
        else if (arg == "--sweep")
            options.sweepIntervalSeconds = std::atoll(value());
        else if (arg == "--queue-depth")
            options.maxQueueDepth = static_cast<size_t>(std::atoll(value()));
        else if (arg == "--request-deadline")
            options.requestDeadlineSeconds = std::atoll(value());
        else if (arg == "--cache-dir")
            options.cache.dir = value();
        else if (arg == "--cache-bytes")
            options.cache.maxBytes =
                static_cast<size_t>(std::atoll(value()));
        else if (arg == "--portfolio-dir")
            options.portfolioDir = value();
        else if (arg == "--no-step-checkpoints")
            options.table.checkpointEachStep = false;
        else if (arg == "--crash-at")
            crashSchedule = value();
        else if (arg == "--supervise")
            supervise = true;
        else if (arg == "--max-crashes")
            maxCrashes = std::atoi(value());
        else if (arg == "--crash-window")
            crashWindowSeconds = std::atoi(value());
        else if (arg == "--restart-count")
            options.restartCount = std::atoll(value());
        else if (arg == "--verbose")
            setLogLevel(LogLevel::Info);
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "tunerd: unknown option " << arg << "\n";
            usage();
            return 2;
        }
    }

    if (supervise)
        return superviseMain(argc, argv, portFile, maxCrashes,
                             crashWindowSeconds);

    if (!crashSchedule.empty())
        crashpoint::setSchedule(crashSchedule);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    service::TuningServer server(options);
    server.start();
    std::cout << "tunerd listening on " << options.host << ":"
              << server.port() << " (spool " << options.table.spoolDir
              << ", cap " << options.table.residentCap << ", workers "
              << options.workers << ")" << std::endl;
    if (!portFile.empty()) {
        // Written after the listener is live: whoever polls this file
        // can connect the moment it appears.
        FILE *f = std::fopen(portFile.c_str(), "w");
        if (!f) {
            std::cerr << "tunerd: cannot write " << portFile << "\n";
            return 1;
        }
        std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
        std::fclose(f);
    }

    while (!signalled && !server.shutdownRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    if (signalled) {
        // Graceful drain: finish what's in flight, flush every session
        // to the spool, then exit 0 — a supervisor's TERM never costs
        // a search more than zero generations of progress.
        std::cout << "tunerd: signal received, draining" << std::endl;
        server.drain();
        std::cout << "tunerd: drained, all sessions checkpointed"
                  << std::endl;
        return 0;
    }

    std::cout << "tunerd: shutting down" << std::endl;
    server.stop();
    return 0;
}
