#!/usr/bin/env bash
# Stress test binaries for timing-dependent failures: run COPIES
# concurrent copies of each named GoogleTest binary, ROUNDS times over,
# and print every failing run with the file:line of each assertion that
# failed in it. Exits non-zero when any run failed.
#
# Usage: scripts/stress_tests.sh BINARY...
# Example: scripts/stress_tests.sh build/runtime_test_runtime \
#              build/engine_test_engine_pool
set -uo pipefail

COPIES=8
ROUNDS=40
if [ $# -lt 1 ]; then
    echo "usage: $0 BINARY..." >&2
    exit 2
fi
for binary in "$@"; do
    [ -x "$binary" ] || { echo "stress: not an executable: $binary" >&2; exit 2; }
done

LOGS="$(mktemp -d "${TMPDIR:-/tmp}/stress.XXXXXX")"
trap 'rm -rf "$LOGS"' EXIT

runs=0
failures=0
for binary in "$@"; do
    name="$(basename "$binary")"
    for round in $(seq 1 "$ROUNDS"); do
        pids=()
        for copy in $(seq 1 "$COPIES"); do
            "$binary" >"$LOGS/$copy.log" 2>&1 &
            pids+=("$!")
        done
        for copy in $(seq 1 "$COPIES"); do
            runs=$((runs + 1))
            wait "${pids[$((copy - 1))]}" && continue
            failures=$((failures + 1))
            # GoogleTest reports each failed assertion as "file:line: Failure".
            where="$(sed -n 's/^\(.*:[0-9][0-9]*\): Failure$/\1/p' \
                "$LOGS/$copy.log" | sort -u | tr '\n' ' ')"
            echo "stress: FAIL $name round $round copy $copy:" \
                 "${where:-no assertion line (crash or abort); log tail:}"
            [ -n "$where" ] || tail -n 5 "$LOGS/$copy.log" | sed 's/^/    /'
        done
    done
done

echo "stress: $failures of $runs runs failed ($COPIES copies x $ROUNDS rounds of $# binaries)"
[ "$failures" -eq 0 ]
