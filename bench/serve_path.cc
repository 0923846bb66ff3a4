/**
 * Serve-path micro-benchmark: what one served `/step` spends outside
 * the search, on fixed recipes and one pinned CPU.
 *
 * Recipes: Sort, Strassen, SVD and Tridiagonal Solver (the serve
 * workload's benchmarks) x seeds 1..5, machines rotating through
 * Desktop, Server and Laptop, default search options. Five figures, each
 * the median over rounds of a mean per operation:
 *
 *  - render_us: the checkpoint text HostedSession::save renders after
 *               every step of every recipe (checkpointText()).
 *  - write_us:  the slot write that follows it (SlotFile::write: pwrite,
 *               ftruncate when shorter, fdatasync), into the directory
 *               given, tmpfs by default. render_us + write_us is a save.
 *  - status_us: the daemon's own time for `GET /status` (its
 *               `command.status` timing in `/stats`): the session lookup
 *               plus the introspection body `/step` also renders.
 *  - parse_ns:  HttpParser over the bytes a client sends for `/step`.
 *  - reply_ns:  the client's parse of a recorded `/step` body.
 *
 * Usage: serve_path [dir] [rounds]. dir defaults to /dev/shm when it
 * exists, else the system temp directory; rounds defaults to 5. Run it
 * on an idle host: every thread shares the one CPU it pins to.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "service/client.h"
#include "service/hosted_session.h"
#include "service/http.h"
#include "service/server.h"
#include "support/logging.h"
#include "support/slot_file.h"

using namespace petabricks;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

const char *const kBenchmarks[] = {"Sort", "Strassen", "SVD",
                                   "Tridiagonal Solver"};
const char *const kMachines[] = {"Desktop", "Server", "Laptop"};
constexpr int kSeeds = 5;

/** Pin the process (and the threads it starts later) to the last CPU
 * it may run on. */
void
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof(one), &one);
            return;
        }
}

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values.empty() ? 0.0 : values[values.size() / 2];
}

/** The `/create` bodies of the recipes. */
std::vector<KvFile>
recipes()
{
    std::vector<KvFile> creates;
    int machine = 0;
    for (const char *benchmark : kBenchmarks)
        for (int seed = 1; seed <= kSeeds; ++seed) {
            KvFile create;
            create.set("benchmark", benchmark);
            create.set("machine", kMachines[machine++ % 3]);
            create.setInt("seed", seed);
            creates.push_back(create);
        }
    return creates;
}

/** Mean microseconds per checkpoint render and per slot write. */
struct SaveTimes
{
    double renderMicros = 0.0;
    double writeMicros = 0.0;
};

/** The two halves of HostedSession::save after every step, timed
 * apart; each recipe writes fresh slots, as a new session does. */
SaveTimes
timeSaves(const std::vector<KvFile> &creates, const std::string &dir)
{
    SaveTimes total;
    int64_t saves = 0;
    const std::string path = dir + "/serve_path.ckpt";
    for (const KvFile &create : creates) {
        service::HostedSession session(
            service::SessionSpec::fromCreateRequest(create));
        SlotFile slots(path, "spool.ckpt");
        while (!session.done()) {
            session.stepMany(1);
            Clock::time_point start = Clock::now();
            const std::string text = session.checkpointText();
            Clock::time_point rendered = Clock::now();
            slots.write(text);
            total.renderMicros +=
                std::chrono::duration<double, std::micro>(rendered - start)
                    .count();
            total.writeMicros += microsSince(rendered);
            ++saves;
        }
    }
    for (int slot = 0; slot < 2; ++slot)
        fs::remove(SlotFile::slotPath(path, slot));
    total.renderMicros /= static_cast<double>(saves);
    total.writeMicros /= static_cast<double>(saves);
    return total;
}

/** The `/step` request bytes and reply bodies of every recipe's steps,
 * and the daemon's mean `/status` time over @p statuses requests. */
struct Served
{
    std::vector<std::string> requests;
    std::vector<std::string> replies;
    double statusMicros = 0.0;
};

Served
serve(const std::vector<KvFile> &creates, const std::string &dir,
      int statuses)
{
    service::ServerOptions options;
    options.workers = 1;
    options.table.spoolDir = dir + "/serve_path_spool";
    fs::remove_all(options.table.spoolDir);
    Served served;
    {
        service::TuningServer server(options);
        server.start();
        service::Client client("127.0.0.1", server.port());
        std::vector<std::string> ids;
        for (const KvFile &create : creates) {
            const std::string id = client.create(create);
            ids.push_back(id);
            for (int step = 0; step < 4; ++step) {
                const std::string target = "/step?session=" + id + "&steps=1";
                served.requests.push_back(
                    "POST " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: "
                    "0\r\nConnection: keep-alive\r\n\r\n");
                served.replies.push_back(
                    client.command("POST", target).toString());
            }
        }
        const KvFile before = client.stats();
        for (int i = 0; i < statuses; ++i)
            client.status(ids[static_cast<size_t>(i) % ids.size()]);
        const KvFile after = client.stats();
        auto total = [](const KvFile &kv) {
            return kv.has("command.status.count")
                       ? kv.getDouble("command.status.meanMicros") *
                             static_cast<double>(
                                 kv.getInt("command.status.count"))
                       : 0.0;
        };
        served.statusMicros = (total(after) - total(before)) / statuses;
        server.stop();
    }
    fs::remove_all(options.table.spoolDir);
    return served;
}

template <typename Work>
double
nanosPerItem(size_t items, int passes, Work work)
{
    Clock::time_point start = Clock::now();
    for (int pass = 0; pass < passes; ++pass)
        for (size_t i = 0; i < items; ++i)
            work(i);
    return microsSince(start) * 1000.0 /
           (static_cast<double>(items) * passes);
}

} // namespace

int
main(int argc, char **argv)
{
    pinToOneCpu();
    setLogLevel(LogLevel::Warn);
    std::string dir = argc > 1 ? argv[1]
                      : fs::is_directory("/dev/shm")
                          ? "/dev/shm"
                          : fs::temp_directory_path().string();
    const int rounds = argc > 2 ? std::max(1, std::atoi(argv[2])) : 5;
    const std::vector<KvFile> creates = recipes();

    std::vector<double> render, write, status, parse, reply;
    for (int round = 0; round < rounds; ++round) {
        const SaveTimes saves = timeSaves(creates, dir);
        render.push_back(saves.renderMicros);
        write.push_back(saves.writeMicros);
        Served served = serve(creates, dir, 20000);
        status.push_back(served.statusMicros);
        size_t parsed = 0;
        parse.push_back(nanosPerItem(
            served.requests.size(), 200, [&](size_t i) {
                service::HttpParser parser;
                parser.feed(served.requests[i].data(),
                            served.requests[i].size());
                parsed += parser.next().has_value();
            }));
        size_t keys = 0;
        reply.push_back(
            nanosPerItem(served.replies.size(), 200, [&](size_t i) {
                keys += KvFile::fromString(served.replies[i]).size();
            }));
        if (parsed == 0 || keys == 0)
            return 1;
    }
    std::printf("serve_path: %zu recipes, %d rounds (medians)\n",
                creates.size(), rounds);
    std::printf("render_us %.2f write_us %.2f status_us %.2f parse_ns %.0f "
                "reply_ns %.0f\n",
                median(render), median(write), median(status), median(parse),
                median(reply));
    return 0;
}
