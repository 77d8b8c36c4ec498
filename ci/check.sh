#!/usr/bin/env bash
# CI check matrix for caddb.
#
#   1. Tier-1: warnings-as-errors build + full ctest suite
#   2. ASan + UBSan build + full ctest suite
#   3. Crash-recovery smoke: the fault-injection matrix plus the binary
#      codec's round-trip suite and seeded decoder fuzz (page payloads, WAL
#      records, checkpoint bodies) under ASan
#   4. Paged-store smoke: the page/buffer-pool unit tests plus the
#      crash-at-every-page-flush matrix under ASan+UBSan
#   5. Replication smoke: shipper/follower fault matrix + the kill -9
#      promote drill under ASan+UBSan
#   6. Observability smoke: metrics/trace/exposition tests under
#      ASan+UBSan — a live workload fills the instruments and the
#      Prometheus text must validate
#   7. Obs-v2 smoke: event-log + wire-trace tests under ASan+UBSan, then
#      a live caddb_server with --log-file and the metrics-history
#      snapshotter — the JSONL sink must fill, `log tail` and
#      `trace dump --format=json` must answer over the wire, and the
#      /vars?window= scrape must return a rate window
#   8. Disk-verifier smoke: the CAD3xx corruption-injection matrix under
#      ASan+UBSan, then `caddb_shell --check` over a database directory
#      the stage itself produces — any CAD3xx error fails the run
#   9. Net smoke: frame-decoder and shell line-parser fuzz matrices +
#      server/daemon tests under ASan+UBSan, then a live fleet — primary caddb_server with
#      auto-ship, a scripted wire session, a Prometheus scrape, and a
#      follower caddb_server auto-polling to caught-up — with clean
#      SIGTERM shutdowns
#  10. Chaos smoke: failpoint registry + network chaos + scenario tests
#      under ASan+UBSan, then a seeded caddb_soak run (primary + follower
#      + wire readers under the default fault schedule) that must exit 0
#  11. TSan build + the concurrency tests (lock manager, transactions,
#      the WAL and its group-commit committers, the concurrent
#      metrics/trace registry, the event-log ring + sink hammer, the
#      shared buffer pool, the network server and replication daemons,
#      the failpoint registry hammer, the replication fault matrix on the
#      process-global registry, the network chaos suite driving the
#      registry-only server counters, the shell against a live server,
#      follower stats across rebuilds, the chaos soaks)
#  12. Bench build: every benchmark target must compile (incl.
#      bench_disk_check, bench_net, the bench_obs log/history numbers)
#  13. clang-tidy over src/ (advisory; skipped when clang-tidy is absent)
#
# Each configuration gets its own build directory under build-ci/ so the
# sanitizer runtimes never mix. Usage: ci/check.sh [jobs]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"
GENERATOR_FLAGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)

step() { printf '\n==== %s ====\n' "$*"; }

step "tier-1: -Werror build + full suite"
cmake -B build-ci/werror -S . -DCADDB_WERROR=ON "${GENERATOR_FLAGS[@]}"
cmake --build build-ci/werror -j "$JOBS"
ctest --test-dir build-ci/werror --output-on-failure -j "$JOBS"

step "asan+ubsan: full suite"
cmake -B build-ci/asan-ubsan -S . -DCADDB_WERROR=ON -DCADDB_ASAN=ON \
      -DCADDB_UBSAN=ON "${GENERATOR_FLAGS[@]}"
cmake --build build-ci/asan-ubsan -j "$JOBS"
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure -j "$JOBS"

step "crash-recovery smoke: fault-injection matrix under asan+ubsan"
# Re-runs just the durability tests with verbose failure output; a torn-log
# replay, or a mutated page payload, log record or checkpoint body, that
# touches freed memory, reads past its buffer or trips UB fails loudly here.
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure \
        -R '^(wal_test|wal_recovery_test|codec_test|codec_fuzz_test)$'

step "paged-store smoke: page/pool units + page-flush crash matrix under asan+ubsan"
# storage_test covers the slotted page, file manager failpoints, and the
# buffer pool's WAL flush-ordering rule; store_paged_test runs a 2x-pool
# workload and crashes at every page-flush failpoint, requiring clean
# recovery each time — under the sanitizers a torn page that leaks into
# replay fails loudly.
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure \
        -R '^(storage_test|store_paged_test)$'

step "replication smoke: fault matrix + kill -9 promote drill under asan+ubsan"
# replication_test drives the drop/truncate/duplicate/reorder/corrupt/stall
# matrix and every CAD201-205 quarantine; replication_smoke_test forks a
# live primary, SIGKILLs it mid-shipment, and promotes the follower against
# a ship-time oracle.
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure \
        -R '^(replication_test|replication_smoke_test)$'

step "observability smoke: instruments + exposition under asan+ubsan"
# obs_smoke_test drives a real workload with tracing on and asserts the
# counters/histograms filled and the Prometheus text validates;
# stats_replica_test covers DatabaseStats::Collect on replica databases in
# every follower state (catching-up, caught-up, quarantined).
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure \
        -R '^(obs_test|obs_smoke_test|stats_replica_test)$'

step "obs-v2 smoke: event log + wire traces + live /vars window under asan+ubsan"
# obs_log_test covers the leveled event log (ring bounds, sink rate-limit
# accounting, the concurrent hammer, failpoint fire events) and the
# metrics-history ring; net_trace_test covers the trace-context wire
# extension (round trip, old-peer interop, torn-extension rejection), the
# client→server→manifest→follower-rebuild trace chain, and a cross-process
# round trip against the real server binary.
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure \
        -R '^(obs_log_test|net_trace_test)$'
# Live: a server with a JSONL log sink and the history snapshotter. The
# wire session tails the log and dumps traces as JSON; the raw-HTTP scrape
# asks /vars?window= for counter rates out of the history ring.
OBS_DIR="build-ci/obs-smoke"
rm -rf "$OBS_DIR"
mkdir -p "$OBS_DIR"
( exec build-ci/asan-ubsan/examples/caddb_server "$OBS_DIR/db" \
       --port 0 --port-file "$OBS_DIR/server.port" \
       --log-file "$OBS_DIR/server.log" --log-level debug \
       --history-interval-ms 50 ) &
OBS_PID=$!
for _ in $(seq 1 100); do
  [ -s "$OBS_DIR/server.port" ] && break
  sleep 0.1
done
OBS_PORT=$(cat "$OBS_DIR/server.port")
printf '%s\n' \
    'trace on' \
    'echo obs-smoke' \
    'log tail 10' \
    'trace dump --format=json' \
    'metrics --watch --window=60000 --format=json' | \
  build-ci/asan-ubsan/examples/caddb_shell --connect "127.0.0.1:$OBS_PORT" \
  > "$OBS_DIR/session.out"
grep -q '"trace_id":"' "$OBS_DIR/session.out" || {
  echo "trace dump --format=json carried no trace ids"; exit 1; }
# The snapshotter needs two ticks before a window exists; poll briefly.
# (Each attempt runs in a subshell so a refused /dev/tcp connect kills the
# attempt, not the script.)
VARS_OK=0
for _ in $(seq 1 100); do
  RESP=$( (exec 3<>"/dev/tcp/127.0.0.1/$OBS_PORT" &&
           printf 'GET /vars?window=60000 HTTP/1.0\r\n\r\n' >&3 &&
           cat <&3) 2>/dev/null || true)
  if printf '%s' "$RESP" | grep -q '"rates":\['; then
    VARS_OK=1
    break
  fi
  sleep 0.1
done
[ "$VARS_OK" = 1 ] || { echo "/vars?window= never served a rate window"; exit 1; }
kill -TERM "$OBS_PID"
wait "$OBS_PID"
# The sink is JSONL: every line a JSON object, and startup + shutdown both
# logged at info.
[ -s "$OBS_DIR/server.log" ] || { echo "log sink never wrote"; exit 1; }
grep -q '"msg":"serving on ' "$OBS_DIR/server.log" || {
  echo "startup event missing from log sink"; exit 1; }
grep -q '"msg":"shutting down"' "$OBS_DIR/server.log" || {
  echo "shutdown event missing from log sink"; exit 1; }
if grep -qv '^{' "$OBS_DIR/server.log"; then
  echo "log sink emitted a non-JSONL line"; exit 1; fi

step "disk-verifier smoke: CAD3xx corruption matrix + offline --check under asan+ubsan"
# disk_verifier_test injects every CAD3xx corruption class (bit flips, slot
# overlaps, broken overflow chains, torn WAL tails, checkpoint/manifest
# mismatches) and round-trips the guarded --fix repairs; it also re-verifies
# every crash-matrix directory with zero errors (no false positives).
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure \
        -R '^disk_verifier_test$'
# End-to-end: build a database with the shell, close it, then run the
# offline verifier binary the way an operator would. Exit 0 means clean
# (warnings allowed); 1 = CAD3xx errors; 2 = could not run.
FSCK_DIR="build-ci/fsck-smoke"
rm -rf "$FSCK_DIR"
mkdir -p "$FSCK_DIR"
printf 'checkpoint\n' | \
  build-ci/asan-ubsan/examples/caddb_shell "$FSCK_DIR/db" >/dev/null
build-ci/asan-ubsan/examples/caddb_shell --check "$FSCK_DIR/db"
build-ci/asan-ubsan/examples/caddb_shell --check "$FSCK_DIR/db" --format=json \
  >/dev/null

step "net smoke: server + wire session + scrape + auto-poll follower under asan+ubsan"
# net_protocol_test runs the frame fuzz matrix (every bit flip, random
# garbage) and shell_fuzz_test the mutated every-verb scripts through a
# writable and a read-only dispatcher under the sanitizers; then a real fleet end to end: a primary
# caddb_server with auto-ship, a scripted --connect session exercising
# writes, a Prometheus scrape, and a follower caddb_server that auto-polls
# to caught-up and serves the shipped data read-only over the wire. Both
# servers must exit 0 on SIGTERM.
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure \
        -R '^(net_protocol_test|net_server_test|net_daemon_test|shell_fuzz_test)$'
NET_DIR="build-ci/net-smoke"
rm -rf "$NET_DIR"
mkdir -p "$NET_DIR"
( exec build-ci/asan-ubsan/examples/caddb_server "$NET_DIR/primary" \
       --port 0 --port-file "$NET_DIR/primary.port" \
       --ship "$NET_DIR/replica" --ship-interval-ms 50 ) &
PRIMARY_PID=$!
( exec build-ci/asan-ubsan/examples/caddb_server --follow "$NET_DIR/replica" \
       --port 0 --port-file "$NET_DIR/follower.port" \
       --poll-interval-ms 50 ) &
FOLLOWER_PID=$!
for _ in $(seq 1 100); do
  [ -s "$NET_DIR/primary.port" ] && [ -s "$NET_DIR/follower.port" ] && break
  sleep 0.1
done
PRIMARY_PORT=$(cat "$NET_DIR/primary.port")
FOLLOWER_PORT=$(cat "$NET_DIR/follower.port")
# A writable session against the primary: schema, data, status — every
# line must succeed (the proxy exits non-zero on a command error).
printf '%s\n' \
    'schema <<<' \
    'obj-type Box = attributes: W, H: integer; end Box;' \
    '>>>' \
    'create Box' \
    'set @1 W i:7' \
    'get @1 W' \
    'server status' \
    'checkpoint' | \
  build-ci/asan-ubsan/examples/caddb_shell --connect "127.0.0.1:$PRIMARY_PORT"
# The scrape path serves validating Prometheus text with the net family.
# (grep -q exits at the first match and closes the pipe; absorb the
# scraper's resulting EPIPE exit so pipefail judges the grep, not it.)
{ build-ci/asan-ubsan/examples/caddb_shell \
    --scrape "127.0.0.1:$PRIMARY_PORT" || true; } | \
  grep -q '^caddb_net_connections ' || {
    echo "scrape missing caddb_net_connections"; exit 1; }
# The follower's daemons catch it up with no manual ship/poll; its service
# is read-only and serves the shipped value.
FOLLOWER_OK=0
for _ in $(seq 1 100); do
  if printf 'get @1 W\n' | build-ci/asan-ubsan/examples/caddb_shell \
       --connect "127.0.0.1:$FOLLOWER_PORT" 2>/dev/null | grep -q '^7$'; then
    FOLLOWER_OK=1
    break
  fi
  sleep 0.1
done
[ "$FOLLOWER_OK" = 1 ] || { echo "follower never caught up"; exit 1; }
# The proxy reports command errors on stderr and exits non-zero — both
# expected here, so absorb the exit status before pipefail sees it and
# assert on the error text instead.
{ printf 'create Box\n' | build-ci/asan-ubsan/examples/caddb_shell \
    --connect "127.0.0.1:$FOLLOWER_PORT" 2>&1 || true; } | \
  grep -q 'read-only session' || {
    echo "follower session was not read-only"; exit 1; }
kill -TERM "$FOLLOWER_PID" "$PRIMARY_PID"
wait "$FOLLOWER_PID"
wait "$PRIMARY_PID"

step "chaos smoke: failpoint registry + network chaos + seeded soak under asan+ubsan"
# fault_test covers the registry (spec grammar, trigger matrix, metrics
# parity); fault_net_test drives socket chaos, server deadlines, the
# retrying client's backoff contract, the wire-served `fault` verb, and
# the SIGTERM-under-armed-chaos regression; workload_scenario_test and
# soak_test run the scenario factories and short chaos soaks with every
# oracle on.
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-ci/asan-ubsan --output-on-failure \
        -R '^(fault_test|fault_net_test|workload_scenario_test|soak_test)$'
# A seeded soak the way an operator would run one: primary + follower +
# wire readers under the default fault schedule. Exit 0 means every
# invariant and differential oracle came back clean; the run reproduces
# from its seed alone.
SOAK_DIR="build-ci/chaos-smoke"
rm -rf "$SOAK_DIR"
mkdir -p "$SOAK_DIR"
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  build-ci/asan-ubsan/examples/caddb_soak "$SOAK_DIR/run" \
      --seed 42 --ops 400 --duration 10s

step "tsan: lock manager + transaction + wal group commit + obs registry/log + net + net chaos + replication + shell + paged store + resolution cache + soak tests"
cmake -B build-ci/tsan -S . -DCADDB_WERROR=ON -DCADDB_TSAN=ON \
      "${GENERATOR_FLAGS[@]}"
# One list drives both the build and the ctest filter, so they cannot drift.
TSAN_TESTS=(lock_manager_test txn_test wal_test wal_batch_sync_test obs_test
            obs_log_test net_trace_test buffer_pool_concurrency_test
            net_server_test net_daemon_test fault_test fault_net_test
            replication_test shell_test stats_replica_test store_paged_test
            resolution_cache_test soak_test)
cmake --build build-ci/tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
TSAN_REGEX=$(IFS='|'; echo "${TSAN_TESTS[*]}")
ctest --test-dir build-ci/tsan --output-on-failure -j "$JOBS" \
      -R "^(${TSAN_REGEX})\$"

step "bench build: all benchmark targets compile"
cmake --build build-ci/werror -j "$JOBS" --target \
      bench_inheritance bench_inherit_cache bench_complex_objects \
      bench_composition bench_hierarchy bench_constraints bench_versions \
      bench_locking bench_ddl bench_store bench_persist bench_analysis \
      bench_wal bench_obs bench_disk_check bench_net

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy (advisory)"
  cmake --build build-ci/werror --target tidy || \
    echo "clang-tidy reported findings (advisory, not failing the build)"
else
  step "clang-tidy not installed; skipping"
fi

step "all checks passed"
