/**
 * @file
 * perfledger: one workload of the repository benchmark, in this
 * process.
 *
 * Usage: perfledger --workload serve|search|dispatch --seed N
 *                   --seconds S --trace 0|1
 *
 * Prints one JSON line {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics untraced, the per-layer metrics traced (whose
 * spans also go to .perfledger/trace-<workload>.tsv). Exits 1 when any
 * operation failed or any output check disagreed. perfledger/run.py
 * builds this program and runs it, one workload per process.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sched.h>
#include <string>

#include "support/logging.h"
#include "workloads.h"

using namespace perfledger;

namespace {

int
usage(const char *message)
{
    std::cerr << "perfledger: " << message
              << "\nusage: perfledger --workload serve|search|dispatch "
                 "--seed N --seconds S --trace 0|1\n";
    return 2;
}

/**
 * Pin this thread, and so every thread it starts, to the highest CPU it
 * may run on. In a virtual machine a wake-up on another, idle vCPU costs
 * whatever the host charges to schedule that vCPU: with its 5 threads
 * spread over 4 vCPUs, serve's throughput swung by a quarter between
 * runs; on one CPU it repeats within 3%.
 */
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

} // namespace

int
main(int argc, char **argv)
{
    pinToOneCpu();
    Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            options.trace = std::strcmp(value, "0") != 0;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");
    petabricks::setLogLevel(petabricks::LogLevel::Warn);

    Outcome outcome;
    try {
        if (options.workload == "serve")
            outcome = runServe(options);
        else if (options.workload == "search")
            outcome = runSearch(options);
        else if (options.workload == "dispatch")
            outcome = runDispatch(options);
        else
            return usage("unknown workload");
    } catch (const std::exception &error) {
        std::cerr << "perfledger: " << options.workload
                  << " failed: " << error.what() << "\n";
        return 1;
    }
    std::cout << toJson(outcome) << std::endl;
    return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}
