#!/usr/bin/env bash
# Daemon robustness smoke, seven legs:
#   1. Crash durability: SIGKILL tunerd mid-search, restart on the same
#      spool, resume, and assert the finished champion is byte-identical
#      to the same search run uninterrupted in-process.
#   2. Graceful drain: SIGTERM tunerd with detached work in flight; it
#      must finish the in-flight stepping, checkpoint every session,
#      and exit 0 — and a restart must resume to the identical champion.
#   3. Corrupt-spool boot: drain a stepped session and change one digit
#      of a member's score in both of its checkpoint slots, and plant
#      torn .meta/.ckpt files in the spool; the daemon must quarantine
#      all three (the edited session by its seals), report the count in
#      /stats, and keep serving new sessions. `pbfsck list` must name
#      the quarantined files and exit 1; after `pbfsck purge` it exits 0.
#   4. Shared-cache persistence: run a search with --cache-dir, SIGTERM
#      drain, plant a torn cache segment, restart on the same cache
#      dir; the rerun must be served shared-cache hits (cross-session,
#      since the publisher was the previous process), the torn segment
#      must be quarantined, and the champion must stay byte-identical.
#      pbfsck lists and purges the quarantined segment as in leg 3.
#   5. Portfolio persistence: tune a champion ladder over HTTP with
#      --portfolio-dir, SIGTERM drain, restart on the same directory;
#      the restarted daemon must serve a byte-identical champion from
#      the champ-*.kv files it loaded at boot.
#   6. IO-fault degradation: --crash-at injects ENOSPC into the first
#      portfolio champion write; the tune must still succeed, the
#      champion must be served from memory, and /stats must count the
#      failure in io.writeFailures.
#   7. Supervisor: tunerd --supervise with a scheduled kill mid-
#      checkpoint; the supervisor must restart the crashed child on the
#      same spool, the resumed champion must be byte-identical, /stats
#      must report server.restartCount = 1, and SIGTERM to the
#      supervisor must drain the child and exit 0.
#
# Every leg stops its daemons with SIGTERM and waits for them; the
# script fails if any daemon it started outlives its leg, and its exit
# trap kills whatever is left.
#
# Usage: scripts/daemon_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
TUNERD="$BUILD_DIR/tunerd"
CLIENT="$BUILD_DIR/remote_tuning"
PBFSCK="$BUILD_DIR/pbfsck"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/tunerd-smoke.XXXXXX")"
SPOOL="$WORK/spool"
PORT_FILE="$WORK/port"
DAEMON_PID=""
DAEMON_EXTRA_ARGS=()
# Every daemon this script starts, supervised children included, names
# $PORT_FILE on its command line.
DAEMON_PATTERN="--port-file $PORT_FILE"

# Small enough to finish in seconds, large enough that the kill lands
# mid-search (12 total generations across input sizes 64..1024).
SEARCH_ARGS=(--benchmark Sort --seed 7 --population 4 --generations 4
             --max-input 1024)

cleanup() {
    pkill -9 -f -- "$DAEMON_PATTERN" || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "daemon_smoke: FAIL: $*" >&2; exit 1; }

# SIGTERM the current daemon and wait for its drain; returns its exit
# status.
stop_daemon() {
    local rc=0
    kill -TERM "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" || rc=$?
    return "$rc"
}

# Fail if any daemon this script started is still running after leg $1.
assert_no_daemons() {
    local left
    left="$(pgrep -f -- "$DAEMON_PATTERN" | paste -sd ' ' -)" || true
    [ -z "$left" ] || fail "leg $1: tunerd still running after the leg (pid $left)"
}

start_daemon() {
    rm -f "$PORT_FILE"
    "$TUNERD" --port 0 --port-file "$PORT_FILE" --spool "$SPOOL" \
        --cap 4 --workers 2 "${DAEMON_EXTRA_ARGS[@]}" \
        >"$WORK/tunerd.log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$PORT_FILE" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on start"
        sleep 0.1
    done
    [ -s "$PORT_FILE" ] || fail "daemon never wrote its port file"
    PORT=$(cat "$PORT_FILE")
}

# `pbfsck list DIR` must exit 1 naming each quarantined file given after
# DIR; after `pbfsck purge DIR`, a second list must exit 0. $1 names the
# leg in failure messages.
check_pbfsck() {
    local leg="$1" dir="$2" rc=0
    shift 2
    "$PBFSCK" list "$dir" > "$WORK/pbfsck-list.txt" || rc=$?
    [ "$rc" -eq 1 ] || fail "$leg: pbfsck list exited $rc, want 1"
    for name in "$@"; do
        grep -qF "$dir/$name  [quarantined" "$WORK/pbfsck-list.txt" \
            || fail "$leg: pbfsck list did not name $name"
    done
    "$PBFSCK" purge "$dir" >/dev/null || fail "$leg: pbfsck purge failed"
    "$PBFSCK" list "$dir" >/dev/null \
        || fail "$leg: pbfsck list still reports wreckage after purge"
}

# ---- Reference: the identical search, no daemon involved -------------------
"$CLIENT" local "${SEARCH_ARGS[@]}" > "$WORK/expected.txt" \
    || fail "local reference run failed"

# ---- Start, create, advance a little, then SIGKILL mid-search --------------
start_daemon
echo "daemon_smoke: daemon up on port $PORT (pid $DAEMON_PID)"

SESSION=$("$CLIENT" --port "$PORT" create "${SEARCH_ARGS[@]}")
[ -n "$SESSION" ] || fail "create returned no session id"
"$CLIENT" --port "$PORT" step --session "$SESSION" --steps 3 \
    || fail "initial steps failed"
# Enqueue detached stepping so work is in flight when the kill lands.
"$CLIENT" --port "$PORT" step --session "$SESSION" --steps 999 --nowait \
    || fail "detached step failed"
sleep 0.2

kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
echo "daemon_smoke: daemon SIGKILLed mid-search"
[ -f "$SPOOL/$SESSION.ckpt" ] || fail "no checkpoint survived the kill"

# ---- Restart on the same spool, resume, finish -----------------------------
start_daemon
echo "daemon_smoke: daemon restarted on port $PORT"
"$CLIENT" --port "$PORT" resume --session "$SESSION" \
    || fail "resume after restart failed"
"$CLIENT" --port "$PORT" finish --session "$SESSION" \
    > "$WORK/resumed.txt" || fail "finishing the resumed search failed"
"$CLIENT" --port "$PORT" stop --session "$SESSION"
stop_daemon || fail "restarted daemon exited nonzero on SIGTERM"
assert_no_daemons 1

# ---- The resumed champion must equal the uninterrupted one -----------------
if ! diff -u "$WORK/expected.txt" "$WORK/resumed.txt"; then
    fail "resumed champion differs from the uninterrupted run"
fi
echo "daemon_smoke: PASS leg 1 (SIGKILL: resumed champion identical)"

# ===========================================================================
# Leg 2: SIGTERM drain — finish in-flight work, checkpoint, exit 0.
# ===========================================================================
SPOOL="$WORK/spool-drain"
start_daemon
echo "daemon_smoke: drain leg daemon up on port $PORT (pid $DAEMON_PID)"

SESSION=$("$CLIENT" --port "$PORT" create "${SEARCH_ARGS[@]}")
[ -n "$SESSION" ] || fail "drain leg: create returned no session id"
"$CLIENT" --port "$PORT" step --session "$SESSION" --steps 2 \
    || fail "drain leg: initial steps failed"
# Detached stepping is in flight when the SIGTERM arrives: the drain
# must wait for it rather than dropping it on the floor.
"$CLIENT" --port "$PORT" step --session "$SESSION" --steps 999 --nowait \
    || fail "drain leg: detached step failed"

DRAIN_RC=0
stop_daemon || DRAIN_RC=$?
[ "$DRAIN_RC" -eq 0 ] || fail "drained daemon exited $DRAIN_RC, want 0"
[ -f "$SPOOL/$SESSION.ckpt" ] || fail "drain did not checkpoint the session"
echo "daemon_smoke: SIGTERM drain exited 0 with a checkpoint on disk"

start_daemon
"$CLIENT" --port "$PORT" resume --session "$SESSION" \
    || fail "drain leg: resume after drain failed"
"$CLIENT" --port "$PORT" finish --session "$SESSION" \
    > "$WORK/drained.txt" || fail "drain leg: finish failed"
stop_daemon || true
assert_no_daemons 2

if ! diff -u "$WORK/expected.txt" "$WORK/drained.txt"; then
    fail "champion after drain+restart differs from the uninterrupted run"
fi
echo "daemon_smoke: PASS leg 2 (SIGTERM drain: champion identical)"

# ===========================================================================
# Leg 3: corrupt-spool boot — quarantine the wreckage, keep serving.
# ===========================================================================
SPOOL="$WORK/spool-fsck"
start_daemon
EDITED=$("$CLIENT" --port "$PORT" create "${SEARCH_ARGS[@]}")
[ -n "$EDITED" ] || fail "fsck leg: create returned no session id"
"$CLIENT" --port "$PORT" step --session "$EDITED" --steps 2 \
    || fail "fsck leg: steps failed"
stop_daemon || fail "fsck leg: drain exited nonzero"
# One digit of the first finite population.*.seconds value, in each
# checkpoint slot (with one good slot the session would resume): the
# files still parse, and only the checkpoint's seal can tell.
for CKPT in "$SPOOL/$EDITED.ckpt" "$SPOOL/$EDITED.ckpt.1"; do
    [ -f "$CKPT" ] || fail "fsck leg: no checkpoint slot $CKPT"
    awk '!done && /^population\.[0-9]+\.seconds = [0-9]/ {
             $3 = (substr($3, 1, 1) + 1) % 10 substr($3, 2); done = 1 }
         { print }' "$CKPT" > "$WORK/edited.ckpt"
    cmp -s "$CKPT" "$WORK/edited.ckpt" \
        && fail "fsck leg: no population seconds value to edit in $CKPT"
    mv "$WORK/edited.ckpt" "$CKPT"
done
printf 'spec.benchmark = Sort\ntrunca' > "$SPOOL/s90.meta" # torn mid-write
printf 'not a checkpoint at all' > "$SPOOL/s92.ckpt"       # orphan garbage
start_daemon
echo "daemon_smoke: fsck leg daemon up on port $PORT (pid $DAEMON_PID)"

"$CLIENT" --port "$PORT" stats > "$WORK/fsck-stats.txt" \
    || fail "fsck leg: stats failed"
QUARANTINED=$(sed -n 's/^table.spoolQuarantined = //p' "$WORK/fsck-stats.txt")
[ "${QUARANTINED:-0}" -ge 3 ] \
    || fail "expected >=3 quarantined spool entries, got '${QUARANTINED:-}'"
[ -f "$SPOOL/s90.meta.quarantine" ] || fail "torn meta was not quarantined"
[ -f "$SPOOL/s92.ckpt.quarantine" ] || fail "orphan ckpt was not quarantined"
[ -f "$SPOOL/$EDITED.ckpt.quarantine" ] \
    && [ -f "$SPOOL/$EDITED.ckpt.1.quarantine" ] \
    || fail "edited checkpoint slots were not quarantined"
check_pbfsck "fsck leg" "$SPOOL" s90.meta.quarantine s92.ckpt.quarantine \
    "$EDITED.meta.quarantine" "$EDITED.ckpt.quarantine" \
    "$EDITED.ckpt.1.quarantine"

# The daemon must still serve real work off the fsck'd spool.
"$CLIENT" --port "$PORT" run "${SEARCH_ARGS[@]}" > "$WORK/fsck-run.txt" \
    || fail "fsck leg: run on the fsck'd spool failed"
if ! diff -u "$WORK/expected.txt" "$WORK/fsck-run.txt"; then
    fail "champion on the fsck'd spool differs from the reference"
fi
echo "daemon_smoke: PASS leg 3 (corrupt and edited spool quarantined, daemon serving)"
stop_daemon || true
assert_no_daemons 3

# ===========================================================================
# Leg 4: shared-cache persistence — drain, tear a segment, restart,
# get served the previous process's evaluations.
# ===========================================================================
SPOOL="$WORK/spool-cache"
CACHE="$WORK/cache"
DAEMON_EXTRA_ARGS=(--cache-dir "$CACHE")
start_daemon
echo "daemon_smoke: cache leg daemon up on port $PORT (pid $DAEMON_PID)"

"$CLIENT" --port "$PORT" run "${SEARCH_ARGS[@]}" > "$WORK/cache-cold.txt" \
    || fail "cache leg: cold run failed"
if ! diff -u "$WORK/expected.txt" "$WORK/cache-cold.txt"; then
    fail "cache leg: champion with an empty shared cache differs"
fi

# Drain flushes the publish journal to a segment before exit.
stop_daemon || fail "cache leg: drain exited nonzero"
ls "$CACHE"/seg-*.kv >/dev/null 2>&1 \
    || fail "cache leg: drain left no cache segments in $CACHE"

# Tear one segment; the restart fsck must set it aside and still boot.
printf 'segment.version = 1\ntrunca' > "$CACHE/seg-00000099.kv"

start_daemon
echo "daemon_smoke: cache leg daemon restarted on port $PORT"
"$CLIENT" --port "$PORT" run "${SEARCH_ARGS[@]}" > "$WORK/cache-warm.txt" \
    || fail "cache leg: warm run failed"
if ! diff -u "$WORK/expected.txt" "$WORK/cache-warm.txt"; then
    fail "cache leg: champion served from the shared cache differs"
fi

"$CLIENT" --port "$PORT" stats > "$WORK/cache-stats.txt" \
    || fail "cache leg: stats failed"
stat_of() { sed -n "s/^cache.$1 = //p" "$WORK/cache-stats.txt"; }
[ "$(stat_of enabled)" = "1" ] || fail "cache leg: shared cache not enabled"
[ "$(stat_of loadedEntries)" -gt 0 ] \
    || fail "cache leg: nothing warm-started from $CACHE"
[ "$(stat_of segmentsQuarantined)" -ge 1 ] \
    || fail "cache leg: torn segment was not quarantined"
[ -f "$CACHE/seg-00000099.kv.quarantine" ] \
    || fail "cache leg: quarantined segment file missing"
check_pbfsck "cache leg" "$CACHE" seg-00000099.kv.quarantine
# Every hit on a warm-started entry is a cross-session hit (the
# publisher was the previous daemon process).
[ "$(stat_of hits)" -gt 0 ] || fail "cache leg: no shared-cache hits"
[ "$(stat_of crossSessionHits)" -gt 0 ] \
    || fail "cache leg: no cross-session hits after restart"
echo "daemon_smoke: PASS leg 4 (shared cache persisted across restart:" \
     "$(stat_of crossSessionHits) cross-session hits," \
     "$(stat_of segmentsQuarantined) segment(s) quarantined)"
stop_daemon || true
assert_no_daemons 4

# ===========================================================================
# Leg 5: portfolio persistence — tune a champion ladder over HTTP,
# drain, restart on the same portfolio dir, get the identical champion.
# ===========================================================================
SPOOL="$WORK/spool-portfolio"
PORTDIR="$WORK/portfolio"
DAEMON_EXTRA_ARGS=(--portfolio-dir "$PORTDIR")
start_daemon
echo "daemon_smoke: portfolio leg daemon up on port $PORT (pid $DAEMON_PID)"

"$CLIENT" --port "$PORT" portfolio-tune --benchmark Black-Scholes \
    --machine Desktop --sizes 1024,4096 --seed 7 --population 4 \
    --generations 2 > "$WORK/portfolio-tune.txt" \
    || fail "portfolio leg: tune failed"
"$CLIENT" --port "$PORT" portfolio-champion --benchmark Black-Scholes \
    --machine Desktop --n 4096 > "$WORK/champ1.txt" \
    || fail "portfolio leg: champion query failed"
grep -q '^dispatch.policy = exact$' "$WORK/champ1.txt" \
    || fail "portfolio leg: expected an exact-hit dispatch"

stop_daemon || fail "portfolio leg: drain exited nonzero"
ls "$PORTDIR"/champ-*.kv >/dev/null 2>&1 \
    || fail "portfolio leg: no champ-*.kv files in $PORTDIR"

start_daemon
echo "daemon_smoke: portfolio leg daemon restarted on port $PORT"
"$CLIENT" --port "$PORT" portfolio-champion --benchmark Black-Scholes \
    --machine Desktop --n 4096 > "$WORK/champ2.txt" \
    || fail "portfolio leg: champion query after restart failed"
if ! diff -u "$WORK/champ1.txt" "$WORK/champ2.txt"; then
    fail "champion served after restart differs from the tuned one"
fi
"$CLIENT" --port "$PORT" stats > "$WORK/portfolio-stats.txt" \
    || fail "portfolio leg: stats failed"
LOADED=$(sed -n 's/^portfolio.loaded = //p' "$WORK/portfolio-stats.txt")
[ "${LOADED:-0}" -ge 2 ] \
    || fail "portfolio leg: expected >=2 loaded champions, got '${LOADED:-}'"
echo "daemon_smoke: PASS leg 5 (portfolio: byte-identical champion" \
     "served from disk after restart, $LOADED loaded)"
stop_daemon || true
assert_no_daemons 5

# ===========================================================================
# Leg 6: IO-fault degradation — inject ENOSPC into the first portfolio
# champion write; the tune succeeds, the champion is served from
# memory, and the failure shows up in io.writeFailures.
# ===========================================================================
SPOOL="$WORK/spool-enospc"
PORTDIR="$WORK/portfolio-enospc"
DAEMON_EXTRA_ARGS=(--portfolio-dir "$PORTDIR"
                   --crash-at "portfolio.champ.write=enospc")
start_daemon
echo "daemon_smoke: enospc leg daemon up on port $PORT (pid $DAEMON_PID)"

"$CLIENT" --port "$PORT" portfolio-tune --benchmark Black-Scholes \
    --machine Desktop --sizes 1024,4096 --seed 7 --population 4 \
    --generations 2 > "$WORK/enospc-tune.txt" \
    || fail "enospc leg: tune failed despite degraded persistence"
"$CLIENT" --port "$PORT" portfolio-champion --benchmark Black-Scholes \
    --machine Desktop --n 1024 > "$WORK/enospc-champ.txt" \
    || fail "enospc leg: champion query failed"
grep -q '^dispatch.policy = exact$' "$WORK/enospc-champ.txt" \
    || fail "enospc leg: unpersisted champion not served from memory"

"$CLIENT" --port "$PORT" stats > "$WORK/enospc-stats.txt" \
    || fail "enospc leg: stats failed"
IOFAIL=$(sed -n 's/^io.writeFailures = //p' "$WORK/enospc-stats.txt")
[ "${IOFAIL:-0}" -eq 1 ] \
    || fail "enospc leg: expected io.writeFailures = 1, got '${IOFAIL:-}'"
# The injected failure hit exactly one champion; the other persisted.
ls "$PORTDIR"/champ-*-4096.kv >/dev/null 2>&1 \
    || fail "enospc leg: healthy champion write did not persist"
echo "daemon_smoke: PASS leg 6 (injected ENOSPC degraded to a counter," \
     "champion still served)"
stop_daemon || true
assert_no_daemons 6
DAEMON_EXTRA_ARGS=()

# ===========================================================================
# Leg 7: supervisor — a scheduled kill mid-checkpoint crashes the
# child; the supervisor restarts it on the same spool, the resumed
# champion is byte-identical, and SIGTERM drains everything cleanly.
# ===========================================================================
SPOOL="$WORK/spool-supervise"
rm -f "$PORT_FILE"
"$TUNERD" --port 0 --port-file "$PORT_FILE" --spool "$SPOOL" \
    --cap 4 --workers 2 --supervise \
    --crash-at "spool.ckpt.pre_sync@4=kill" \
    >"$WORK/supervisor.log" 2>&1 &
SUPERVISOR_PID=$!
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    kill -0 "$SUPERVISOR_PID" 2>/dev/null \
        || fail "supervise leg: supervisor died on start"
    sleep 0.1
done
[ -s "$PORT_FILE" ] || fail "supervise leg: no port file from first child"
PORT=$(cat "$PORT_FILE")
echo "daemon_smoke: supervised daemon up on port $PORT" \
     "(supervisor $SUPERVISOR_PID)"

SESSION=$("$CLIENT" --port "$PORT" create "${SEARCH_ARGS[@]}")
[ -n "$SESSION" ] || fail "supervise leg: create returned no session id"
# The 4th checkpoint write dies at the scheduled point mid-step; the
# client sees a dropped connection, which is the expected outcome.
"$CLIENT" --port "$PORT" step --session "$SESSION" --steps 999 \
    >/dev/null 2>&1 && fail "supervise leg: step survived a scheduled kill"
echo "daemon_smoke: supervised child crashed at the scheduled point"

# The supervisor must bring up a fresh child (new ephemeral port).
NEWPORT=""
for _ in $(seq 1 200); do
    if [ -s "$PORT_FILE" ]; then
        NEWPORT=$(cat "$PORT_FILE")
        [ "$NEWPORT" != "$PORT" ] && break
    fi
    kill -0 "$SUPERVISOR_PID" 2>/dev/null \
        || fail "supervise leg: supervisor gave up instead of restarting"
    sleep 0.1
done
[ -n "$NEWPORT" ] && [ "$NEWPORT" != "$PORT" ] \
    || fail "supervise leg: child was never restarted"
echo "daemon_smoke: supervisor restarted the daemon on port $NEWPORT"

"$CLIENT" --port "$NEWPORT" resume --session "$SESSION" \
    || fail "supervise leg: resume after the crash failed"
"$CLIENT" --port "$NEWPORT" finish --session "$SESSION" \
    > "$WORK/supervised.txt" || fail "supervise leg: finish failed"
if ! diff -u "$WORK/expected.txt" "$WORK/supervised.txt"; then
    fail "supervise leg: champion after supervised restart differs"
fi
"$CLIENT" --port "$NEWPORT" stats > "$WORK/supervise-stats.txt" \
    || fail "supervise leg: stats failed"
RESTARTS=$(sed -n 's/^server.restartCount = //p' "$WORK/supervise-stats.txt")
[ "${RESTARTS:-0}" -eq 1 ] \
    || fail "supervise leg: expected server.restartCount = 1," \
            "got '${RESTARTS:-}'"

# Graceful shutdown: TERM to the supervisor drains the child, both
# exit 0.
kill -TERM "$SUPERVISOR_PID"
wait "$SUPERVISOR_PID" \
    || fail "supervise leg: supervisor exited nonzero on graceful TERM"
assert_no_daemons 7
echo "daemon_smoke: PASS leg 7 (supervisor: auto-restart after crash," \
     "identical champion, clean drain)"

echo "daemon_smoke: PASS (all legs)"
