#!/usr/bin/env python3
"""Build and run the perfledger benchmark.

Usage, from the root of a checkout:

    python3 perfledger/run.py --workload serve|search|dispatch --seed N \
        --seconds S --trace 0|1

Configures and builds perfledger/ (which compiles the library sources
under src/) into .bench_build/perfledger, then runs the workload in a
fresh process of its own. The untraced run (--trace 0) prints the
workload's end-to-end metrics. The traced run (--trace 1) runs all three
workloads traced, one fresh process each, for at most TRACE_SECONDS
each, and prints every per-layer metric prefixed with its workload
(`search.session.step_us`; `dispatch.exact_p50_us` keeps its own
prefix), so every traced run reports the same set. The metric names and
units printed are exactly those declared in BENCHMARK.json; a declared
metric the program did not report is an error.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every operation succeeded and every output check passed.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfledger")
WORKLOADS = ("serve", "search", "dispatch")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170
# Per-layer figures need fewer samples than the end-to-end ones, and the
# three traced workloads together must end well within RUN_TIMEOUT.
TRACE_SECONDS = 10


def fail(message):
    print("perfledger: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(argv, timeout):
    """Run a build step; on failure show its output and stop."""
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(argv))
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail("failed: " + " ".join(argv))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "server.h")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator +
                  ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT)
    return os.path.join(BUILD_DIR, "perfledger")


def remove_state(pid):
    """Remove the state directories a process may have left behind."""
    for base in ("/dev/shm", os.path.join(ROOT, ".perfledger")):
        for path in glob.glob(os.path.join(base, "perfledger-%d-*" % pid)):
            shutil.rmtree(path, ignore_errors=True)


def run_workload(binary, workload, seed, seconds, trace):
    """One workload in a fresh process; its parsed result line."""
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        remove_state(proc.pid)
    lines = out.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("%s printed no JSON result: %s" % (workload, lines[-1][:200]))


def declared(kind):
    """Metric names and units a run must print, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def select(metrics, wanted):
    """Exactly the declared metrics; a missing one is an error."""
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        fail("metrics not reported: " + ", ".join(missing))
    for name, metric in metrics.items():
        if name in wanted and metric["unit"] != wanted[name]:
            fail("%s reported in %s, declared in %s"
                 % (name, metric["unit"], wanted[name]))
    extra = sorted(set(metrics) - set(wanted))
    if extra:
        print("perfledger: not declared, not printed: " + ", ".join(extra),
              file=sys.stderr)
    return {name: metrics[name] for name in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    # A SIGTERM unwinds through run_workload's cleanup like Ctrl-C.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    wanted = declared("per_layer" if args.trace else "end_to_end")
    binary = build()
    if args.trace:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            part = run_workload(binary, workload, args.seed,
                                min(args.seconds, TRACE_SECONDS), True)
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            for name, metric in part["metrics"].items():
                if not name.startswith(workload + "."):
                    name = workload + "." + name
                result["metrics"][name] = metric
    else:
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              False)
    result["metrics"] = select(result["metrics"], wanted)
    print(json.dumps(result))
    ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
