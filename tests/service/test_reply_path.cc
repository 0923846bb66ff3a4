/**
 * @file
 * The reply path of a served command, over real sockets: replies leave
 * in request order whichever thread writes them, a client that hangs
 * up mid-step or reads late never stalls or loses a reply, and the
 * bytes on the wire and on disk (the `/step` and `/status` bodies, the
 * spool checkpoint after every step) match golden digests.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <thread>
#include <utility>

#include "service/client.h"
#include "service/server.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/slot_file.h"
#include "support/socket.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::service;

namespace {

namespace fs = std::filesystem;

std::string
spoolDir(const char *name)
{
    return freshPath(std::string("reply_path_") + name);
}

ServerOptions
serverOptions(const std::string &spool)
{
    ServerOptions options;
    options.port = 0; // ephemeral
    options.workers = 2;
    options.table.spoolDir = spool;
    return options;
}

KvFile
sortCreate(int generationsPerSize)
{
    KvFile kv;
    kv.set("benchmark", "Sort");
    kv.setInt("seed", 5);
    kv.setInt("populationSize", 4);
    kv.setInt("generationsPerSize", generationsPerSize);
    kv.setInt("minInputSize", 64);
    kv.setInt("maxInputSize", 256);
    return kv;
}

std::string
wire(const std::string &method, const std::string &target)
{
    return method + " " + target +
           " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n";
}

struct Reply
{
    int status = 0;
    std::string body;
};

/** A keep-alive connection that writes request bytes exactly as given
 * (several requests in one write, if asked) and reads replies one by
 * one, each within a deadline. */
class RawConnection
{
  public:
    /** @p receiveBuffer > 0 sets SO_RCVBUF before connecting. */
    explicit RawConnection(uint16_t port, int receiveBuffer = 0)
        : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0))
    {
        if (!fd_.valid())
            PB_FATAL("socket() failed");
        if (receiveBuffer > 0)
            ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVBUF, &receiveBuffer,
                         sizeof(receiveBuffer));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_.get(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            PB_FATAL("connect() failed");
    }

    /** Write @p bytes; fatal error if the daemon takes none of them
     * for @p timeoutMillis. Safe to call from one thread while another
     * reads replies with next(). */
    void
    send(const std::string &bytes, int timeoutMillis = 10000)
    {
        size_t sent = 0;
        while (sent < bytes.size()) {
            pollfd writable{fd_.get(), POLLOUT, 0};
            if (::poll(&writable, 1, timeoutMillis) <= 0)
                PB_FATAL("send stalled: the daemon took none of the last "
                         << bytes.size() - sent << " of " << bytes.size()
                         << " request bytes for " << timeoutMillis << " ms");
            ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                               bytes.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n < 0 && (errno == EAGAIN || errno == EINTR))
                continue;
            if (n <= 0)
                PB_FATAL("send() failed");
            sent += static_cast<size_t>(n);
        }
    }

    /** The next reply; fatal error unless it arrives within
     * @p timeoutMillis. */
    Reply
    next(int timeoutMillis = 10000)
    {
        size_t headerEnd;
        while ((headerEnd = inbox_.find("\r\n\r\n")) == std::string::npos)
            readMore(timeoutMillis);
        Reply reply;
        reply.status = std::stoi(inbox_.substr(9, 3)); // "HTTP/1.1 200"
        const size_t pos = inbox_.find("Content-Length:");
        if (pos == std::string::npos || pos > headerEnd)
            PB_FATAL("reply lacks Content-Length");
        const size_t bodySize = std::stoul(inbox_.substr(pos + 15));
        while (inbox_.size() < headerEnd + 4 + bodySize)
            readMore(timeoutMillis);
        reply.body = inbox_.substr(headerEnd + 4, bodySize);
        inbox_.erase(0, headerEnd + 4 + bodySize);
        return reply;
    }

  private:
    void
    readMore(int timeoutMillis)
    {
        if (!net::waitReadable(fd_.get(), timeoutMillis))
            PB_FATAL("no reply within " << timeoutMillis << " ms");
        char buffer[4096];
        ssize_t n = ::read(fd_.get(), buffer, sizeof(buffer));
        if (n <= 0)
            PB_FATAL("connection closed awaiting a reply");
        inbox_.append(buffer, static_cast<size_t>(n));
    }

    net::Fd fd_;
    std::string inbox_;
};

int64_t
intValue(const std::string &body, const std::string &key)
{
    return KvFile::fromString(body).getInt(key);
}

std::string
hex(uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

} // namespace

TEST(ReplyPath, StatusPipelinedBehindStepGetsBothRepliesStepFirst)
{
    TuningServer server(serverOptions(spoolDir("pipelined")));
    server.start();
    Client client("127.0.0.1", server.port());
    const std::string id = client.create(sortCreate(40));

    // Both requests in one write: the /status is already in the parser
    // when the /step is queued.
    RawConnection raw(server.port());
    raw.send(wire("POST", "/step?session=" + id + "&steps=3") +
             wire("GET", "/status?session=" + id));
    Reply step = raw.next(3000);
    Reply status = raw.next(3000);
    EXPECT_EQ(step.status, 200);
    EXPECT_EQ(intValue(step.body, "step.advanced"), 3);
    EXPECT_EQ(status.status, 200);
    EXPECT_EQ(intValue(status.body, "status.completedSteps"), 3);

    // The /status arrives while the worker steps.
    raw.send(wire("POST", "/step?session=" + id + "&steps=20"));
    raw.send(wire("GET", "/status?session=" + id));
    step = raw.next(3000);
    status = raw.next(3000);
    EXPECT_EQ(intValue(step.body, "step.advanced"), 20);
    EXPECT_EQ(intValue(status.body, "status.completedSteps"), 23);

    // Then the connection serves requests one at a time as before.
    raw.send(wire("GET", "/ping"));
    EXPECT_EQ(raw.next(3000).body, "pong = 1\n");
    server.stop();
}

TEST(ReplyPath, ClientHangingUpMidStepLeavesTheDaemonServing)
{
    TuningServer server(serverOptions(spoolDir("hangup")));
    server.start();
    Client client("127.0.0.1", server.port());
    const std::string id = client.create(sortCreate(40));
    {
        RawConnection raw(server.port());
        raw.send(wire("POST", "/step?session=" + id + "&steps=60"));
    } // closed before the reply is written

    // The worker finishes the step, writes to the closed socket, and
    // the daemon keeps answering on other connections.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (client.introspect(id).completedSteps < 60 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(client.introspect(id).completedSteps, 60);
    client.ping();
    EXPECT_EQ(client.step(id, 2), 2);
    RawConnection again(server.port());
    again.send(wire("GET", "/ping"));
    EXPECT_EQ(again.next(3000).body, "pong = 1\n");
    server.stop();
}

TEST(ReplyPath, ClientReadingLateThroughATinyWindowGetsEveryReply)
{
    // The socket takes only part of the replies while the client is not
    // reading, so workers' writes come up short and the I/O thread has
    // to finish them; every reply must still arrive whole and in order.
    // About 6 MB of replies: Linux grows a send buffer up to 4 MB by
    // default (tcp_wmem), and only a burst past it makes writes short.
    TuningServer server(serverOptions(spoolDir("partial")));
    server.start();
    Client client("127.0.0.1", server.port());
    const std::string id = client.create(sortCreate(200));
    const int totalSteps = client.introspect(id).totalSteps;

    RawConnection raw(server.port(), /*receiveBuffer=*/1);
    constexpr int kRequests = 6000;
    std::string burst;
    for (int i = 0; i < kRequests; ++i)
        burst += wire("POST", "/step?session=" + id + "&steps=1");
    // The burst goes out from a thread of its own: a daemon that stops
    // reading requests while its replies back up must not leave this
    // thread stuck in send() and never reading them.
    std::string sendError;
    std::jthread sender([&] {
        try {
            raw.send(burst);
        } catch (const std::exception &e) {
            sendError = e.what();
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    int64_t completed = 0;
    for (int i = 0; i < kRequests; ++i) {
        Reply reply = raw.next(10000);
        ASSERT_EQ(reply.status, 200) << "reply " << i << ": " << reply.body;
        const int64_t advanced = intValue(reply.body, "step.advanced");
        completed += advanced;
        ASSERT_EQ(intValue(reply.body, "status.completedSteps"), completed)
            << "reply " << i;
        ASSERT_EQ(advanced, i < totalSteps ? 1 : 0) << "reply " << i;
    }
    sender.join();
    EXPECT_EQ(sendError, "");
    EXPECT_EQ(client.introspect(id).completedSteps,
              std::min(kRequests, totalSteps));
    server.stop();
}

// ---- Golden bytes --------------------------------------------------------

namespace {

/** FNV-1a digests of everything one session wrote, step by step. */
struct Digests
{
    uint64_t checkpoints = 0; ///< the newest checkpoint slot after every step
    uint64_t steps = 0;       ///< every `/step` body
    uint64_t statuses = 0;    ///< every `/status` body after a step
};

struct Golden
{
    const char *benchmark;
    const char *machine;
    int64_t seed;
    Digests digests;
};

/**
 * Recorded at the commit before checkpoints and reply bodies were
 * rendered in one pass (KvWriter). Each session runs its benchmark's
 * whole size ladder at population 12, 20 generations a size; machine
 * and seed are picked so the population fills to 12, and member 10
 * sorts before member 2. Sort's and Strassen's were re-recorded when
 * kernel lists began to follow the recursion the model prices: only
 * their compileSeconds, tuningSeconds and checkpoint seals changed.
 * Black-Scholes', Poisson2D SOR's, SeparableConv.'s, SVD's and
 * Mandelbrot's were re-recorded, with the same three changes, when
 * kernel lists dropped OpenCL stages at GPU ratio 0 and SVD ranks that
 * miss the accuracy target, and SVD listed its matmul kernel once.
 */
const Golden kGolden[] = {
    {"Black-Scholes", "Desktop", 11,
     {0x3f0906b66f114f8d, 0x061df01f74d2909d, 0xc82df21a34e0a621}},
    {"Poisson2D SOR", "Desktop", 12,
     {0x2121d52cbc8be709, 0xcd96e07547a91ae7, 0x00e266944feccf0b}},
    {"SeparableConv.", "Laptop", 13,
     {0x461ab712af725beb, 0xeb7384584bb0e820, 0x36d4191aabb8233c}},
    {"Sort", "Desktop", 14,
     {0x43a376d97024e25c, 0xc729db2ec1a0a87f, 0xe771de643f61a989}},
    {"Strassen", "Server", 15,
     {0x4527f46b2b622142, 0x420f888fff6a950b, 0x102241a865add33b}},
    {"SVD", "Laptop", 16,
     {0x88a95df7584cd5e6, 0x1aa65791e7baf42a, 0xaad38d58bc5087e2}},
    {"Tridiagonal Solver", "Desktop", 12,
     {0x39d274af7f68a030, 0x5bf46f5512a501b8, 0xc43f10c989bdedd6}},
    {"Mandelbrot", "Laptop", 11,
     {0x837e012baf00163d, 0x18815303506ad1eb, 0x1dda6f24fde71961}},
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The text of the checkpoint slot at @p ckpt whose record is furthest
 * along (size index, then generation). */
std::string
newestSlot(const std::string &ckpt)
{
    std::string newest;
    std::pair<int64_t, int64_t> newestCursor{-1, -1};
    for (int slot = 0; slot < 2; ++slot) {
        const std::string path = SlotFile::slotPath(ckpt, slot);
        if (!fs::exists(path))
            continue;
        std::string text = readFile(path);
        const KvFile kv = KvFile::fromString(text);
        const std::pair cursor{kv.getInt("session.sizeIndex"),
                               kv.getInt("session.generation")};
        if (cursor > newestCursor) {
            newest = std::move(text);
            newestCursor = cursor;
        }
    }
    return newest;
}

} // namespace

TEST(ReplyPath, CheckpointsAndBodiesMatchGoldenDigests)
{
    const std::string spool = spoolDir("golden");
    ServerOptions options = serverOptions(spool);
    options.table.checkpointEachStep = true;
    TuningServer server(options);
    server.start();
    Client client("127.0.0.1", server.port());
    RawConnection raw(server.port());

    std::string mismatches;
    for (const Golden &golden : kGolden) {
        KvFile create;
        create.set("benchmark", golden.benchmark);
        create.set("machine", golden.machine);
        create.setInt("seed", golden.seed);
        create.setInt("populationSize", 12);
        create.setInt("generationsPerSize", 20);
        const std::string id = client.create(create);
        const std::string ckpt = spool + "/" + id + ".ckpt";

        Fnv1a checkpoints, steps, statuses;
        int64_t population = 0;
        for (bool done = false; !done;) {
            raw.send(wire("POST", "/step?session=" + id + "&steps=1"));
            Reply step = raw.next(10000);
            ASSERT_EQ(step.status, 200) << step.body;
            steps.mix(step.body);

            // Every written checkpoint parses, renders back to the same
            // text and carries an intact seal.
            const std::string text = newestSlot(ckpt);
            const KvFile parsed = KvFile::fromString(text);
            ASSERT_EQ(parsed.toString(), text) << ckpt;
            EXPECT_NO_THROW(parsed.verifySeal("session", 2, ckpt));
            population =
                std::max(population, parsed.getInt("session.population"));
            checkpoints.mix(text);

            raw.send(wire("GET", "/status?session=" + id));
            Reply status = raw.next(10000);
            ASSERT_EQ(status.status, 200) << status.body;
            statuses.mix(status.body);
            done = intValue(status.body, "status.done") != 0;
        }
        EXPECT_GE(population, 11) << golden.benchmark;
        const Digests got{checkpoints.value(), steps.value(),
                          statuses.value()};
        if (got.checkpoints != golden.digests.checkpoints ||
            got.steps != golden.digests.steps ||
            got.statuses != golden.digests.statuses)
            mismatches += "    {\"" + std::string(golden.benchmark) +
                          "\", \"" + golden.machine + "\", " +
                          std::to_string(golden.seed) + ", {0x" +
                          hex(got.checkpoints) + ", 0x" + hex(got.steps) +
                          ", 0x" + hex(got.statuses) + "}},\n";
    }
    EXPECT_EQ(mismatches, "") << "digests now read:\n" << mismatches;
    server.stop();
}
