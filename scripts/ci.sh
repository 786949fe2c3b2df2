#!/usr/bin/env bash
# CI gate: formatting, lints, tier-1 build + tests, workspace tests.
#
#   scripts/ci.sh          # everything
#   scripts/ci.sh quick    # skip the release build (lints + debug tests)
#
# The build environment has no route to crates.io (see EXPERIMENTS.md,
# "Seed-test triage"), so everything runs --offline against the vendored
# third_party/ shims.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"

run() {
  echo "==> $*"
  "$@"
}

# Like `run`, but under a hard wall-clock limit. SIGKILL, not the default
# SIGTERM: a consumer wedged in a spin loop (or a test harness stuck in a
# mutex) can shrug off TERM and hang CI anyway.
tmo() {
  local limit="$1"
  shift
  echo "==> [timeout ${limit}s] $*"
  timeout --signal=KILL "$limit" "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets --offline -- -D warnings \
  -D clippy::undocumented_unsafe_blocks -D clippy::dbg_macro

# API docs must build warning-free (broken intra-doc links, missing docs
# on public items surfaced by the crates' own lint settings, etc.).
# --lib: the `teeperf` CLI bin collides with the root facade lib's doc
# output path; library APIs are what the docs gate is for.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --lib

# Tier-1 (ROADMAP.md): the root facade build + tests must stay green.
if [ "$mode" != "quick" ]; then
  run cargo build --release --offline
fi
run cargo test -q --offline

# The rest of the workspace.
run cargo test -q --workspace --offline

# Fault-injection matrix (ISSUE 5): every FaultPlan fault kind crossed with
# both consumers (live LiveLogSource and FileReplaySource replay), plus the
# registry crash acceptance test and the writer-crash salvage proptest.
# Each test binary runs under a hard 60s timeout so a salvage regression
# that hangs a consumer fails the gate instead of wedging CI (the tests
# also carry an in-process hang guard that aborts after 60s of no exit).
tmo 60 cargo test -q --offline -p teeperf-live --test fault_matrix
tmo 60 cargo test -q --offline -p teeperf-core faults::
tmo 60 cargo test -q --offline -p teeperf-core source::tests
# The file transport real processes use: publish-by-tail writer, chunked
# reader, chunk-boundary faults and the per-slot model proptest.
tmo 60 cargo test -q --offline -p teeperf-core shm_file::
# The live-overhead bench's in-process drain: a real drain thread that
# spins until it sees the stop flag, so a hang must fail the gate, not
# wedge it.
tmo 120 cargo test -q --offline -p bench live::

# Protocol lint (ISSUE 6): no raw atomics outside the SharedMem/MemModel
# seam, every Ordering choice justified with an `// ord:` comment, no
# wall-clock or OS randomness in protocol modules, no `unsafe` anywhere.
run cargo run -q --offline -p teeperf-check --bin teeperf-lint -- .

# Model-check smoke (ISSUE 6): exhaustive DFS over the 2-writer config plus
# 200 seeded PCT schedules on the clean protocol, then both known mutation
# classes must be found and their schedules must replay. Built untimed
# (compile cost is not the smoke's budget), then run under a hard KILL
# timeout: a scheduler bug that deadlocks the virtual fleet must fail the
# gate, not hang it. 240s: the regime-flip DFS configs (ISSUE 10) grew
# the clean sweep past the old 120s budget — the limit is a deadlock
# detector, not a performance gate.
run cargo build -q --release --offline -p teeperf-check --bin teeperf-check
tmo 240 cargo run -q --release --offline -p teeperf-check --bin teeperf-check -- --smoke

# Daemon smoke (ISSUE 7): start a real teeperfd over a scratch registration
# directory, run a scripted writer process through the file-backed shared
# log, then curl /healthz and /snapshot off the live HTTP listener and
# assert the merged totals are non-empty. Shutdown is the stdin-EOF
# contract: the daemon's stdin pipe is closed and it must exit 0 on its
# own. The whole stage runs under a hard KILL timeout so a wedged loop
# fails the gate instead of hanging CI.
daemon_smoke() {
  local dir out pid addr snap
  dir="$(mktemp -d)"
  out="$dir/out.log"
  run cargo build -q --offline -p teeperf-daemon
  # The daemon's stdin is a fifo we hold open on FD 3; closing FD 3 is the
  # shutdown signal (the stdin-EOF contract, DESIGN.md §12).
  mkfifo "$dir/stdin"
  target/debug/teeperfd --dir "$dir/reg" --listen 127.0.0.1:0 --pump-ms 5 \
    --scan-every 1 < "$dir/stdin" > "$out" &
  pid=$!
  exec 3> "$dir/stdin" # holds the fifo open for the daemon's lifetime
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^teeperfd listening on //p' "$out" | head -1)"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "daemon-smoke: no listen banner"; return 1; }
  run target/debug/teeperf-shm-writer --dir "$dir/reg" --iterations 7
  [ "$(curl -sf "http://$addr/healthz")" = "ok" ] \
    || { echo "daemon-smoke: /healthz failed"; return 1; }
  for _ in $(seq 1 100); do
    snap="$(curl -sf "http://$addr/snapshot" || true)"
    echo "$snap" | grep -q "^events 30$" && break
    sleep 0.1
  done
  echo "$snap" | grep -q "^events 30$" \
    || { echo "daemon-smoke: merged events never reached 30"; echo "$snap"; return 1; }
  echo "$snap" | grep -q "^total_ticks 85$" \
    || { echo "daemon-smoke: wrong merged totals"; echo "$snap"; return 1; }
  echo "$snap" | grep -q "^work 7 70 42$" \
    || { echo "daemon-smoke: method table missing"; echo "$snap"; return 1; }
  exec 3>&- # stdin EOF: the graceful-shutdown trigger
  wait "$pid" || { echo "daemon-smoke: daemon did not exit 0"; return 1; }
  grep -q "teeperfd: shut down" "$out" \
    || { echo "daemon-smoke: no closing report"; cat "$out"; return 1; }
  rm -rf "$dir"
  echo "==> daemon-smoke ok"
}
tmo 120 bash -c "$(declare -f daemon_smoke run); daemon_smoke"

# Query smoke (ISSUE 9): teeperfd with short retention windows over a
# scratch registration directory, two real writer processes, then the
# windowed query engine must answer off the live HTTP listener: /windows
# lists both pids' retained windows, /query serves a last-5 top-N and a
# two-window diff. Same stdin-EOF shutdown contract and hard KILL timeout
# as the daemon smoke.
query_smoke() {
  local dir out pid addr listing q
  dir="$(mktemp -d)"
  out="$dir/out.log"
  run cargo build -q --offline -p teeperf-daemon
  mkfifo "$dir/stdin"
  target/debug/teeperfd --dir "$dir/reg" --listen 127.0.0.1:0 --pump-ms 5 \
    --scan-every 1 --window-interval 12 --retain 16 < "$dir/stdin" > "$out" &
  pid=$!
  exec 3> "$dir/stdin" # holds the fifo open for the daemon's lifetime
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^teeperfd listening on //p' "$out" | head -1)"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "query-smoke: no listen banner"; return 1; }
  # Two writers, distinct pids: 7 iterations puts main's exit in window 7,
  # 5 iterations in window 5 (12 virtual ticks per iteration, interval 12).
  run target/debug/teeperf-shm-writer --dir "$dir/reg" --iterations 7
  run target/debug/teeperf-shm-writer --dir "$dir/reg" --iterations 5
  for _ in $(seq 1 100); do
    listing="$(curl -sf "http://$addr/windows" || true)"
    echo "$listing" | grep -qF "window 7..=7" \
      && echo "$listing" | grep -qF "window 5..=5" && break
    sleep 0.1
  done
  echo "$listing" | grep -qF "window 7..=7" \
    || { echo "query-smoke: writer 1 windows never appeared"; echo "$listing"; return 1; }
  echo "$listing" | grep -qF "window 5..=5" \
    || { echo "query-smoke: writer 2 windows never appeared"; echo "$listing"; return 1; }
  [ "$(echo "$listing" | grep -c "interval 12")" = 2 ] \
    || { echo "query-smoke: expected two pid listings"; echo "$listing"; return 1; }
  q="$(curl -sf "http://$addr/query?windows=last:5&top=10")" \
    || { echo "query-smoke: last-5 query failed"; return 1; }
  echo "$q" | grep -q "^work " \
    || { echo "query-smoke: last-5 top-N missing work"; echo "$q"; return 1; }
  q="$(curl -sf "http://$addr/query?diff=2,3")" \
    || { echo "query-smoke: diff query failed"; return 1; }
  echo "$q" | grep -qF "diff 2 vs 3" \
    || { echo "query-smoke: diff header missing"; echo "$q"; return 1; }
  exec 3>&- # stdin EOF: the graceful-shutdown trigger
  wait "$pid" || { echo "query-smoke: daemon did not exit 0"; return 1; }
  rm -rf "$dir"
  echo "==> query-smoke ok"
}
tmo 120 bash -c "$(declare -f query_smoke run); query_smoke"

# Analyzer-throughput smoke: small log, shards {1,2}; asserts the JSON
# artifact is written and the model speedup at 2 shards is >= 1.0. Results
# go to a scratch dir so the checked-in full-scale JSON stays untouched.
if [ "$mode" != "quick" ]; then
  TEEPERF_RESULTS="$(mktemp -d)" \
    run cargo run --release --offline -p bench --bin analyze_throughput -- --smoke
fi

# Contention smoke (ISSUE 8): a tiny writers x batch-slots x transition-mode
# grid through the real lock-free protocol on real OS threads. The bin exits
# non-zero if any cell dropped an entry or drained differently from the
# unbatched classic run of the same writer count — the exactness gate for
# batched reservation. Hard KILL timeout: a livelocked reservation loop
# must fail the gate, not hang it.
if [ "$mode" != "quick" ]; then
  TEEPERF_RESULTS="$(mktemp -d)" \
    tmo 120 cargo run --release --offline -p bench --bin record_contention -- --smoke
fi

# Query-latency smoke (ISSUE 9): a tiny retained-window sweep through the
# registry's /query serving path; the bin exits non-zero if any window
# count fails to answer the last-5, all-merge or diff query shapes.
if [ "$mode" != "quick" ]; then
  TEEPERF_RESULTS="$(mktemp -d)" \
    tmo 120 cargo run --release --offline -p bench --bin query_latency -- --smoke
fi

# Regime smoke (ISSUE 10): a calm -> storm -> recovery overload ramp
# through the budgeted fidelity controller. The bin exits non-zero unless
# the budgeted session degrades into Sampled during the storm, settles
# within its loss budget (where the unbudgeted full run blows it),
# accounts for every offered event, and returns to Full during recovery.
if [ "$mode" != "quick" ]; then
  TEEPERF_RESULTS="$(mktemp -d)" \
    tmo 120 cargo run --release --offline -p bench --bin regime_bench -- --smoke
fi

echo "==> ci ok"
