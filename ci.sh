#!/usr/bin/env sh
# Repository CI: formatting, lints, then the tier-1 gate.
# Usage: ./ci.sh
set -eu

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== benchmark package: cargo test --release --manifest-path perfbench/Cargo.toml"
# perfbench is a workspace of its own, so the workspace run above never
# reaches its tests (metric names against BENCHMARK.json, the serve-mix
# schedule, the table1 grid fingerprint). It builds where run.py does.
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml

echo "== benchmark answers: table1 at all 48 walk seeds matches perfbench/expected"
# Energy, status and final-simulation counters of every table1 cell at
# every walk seed a run can reach. A faster search may change node
# counts and timings, never one of these lines.
rm -f /tmp/casa_table1_expected.txt
CARGO_TARGET_DIR=.bench_build cargo run --release -q --manifest-path perfbench/Cargo.toml --bin perfbench -- \
  --workload table1 --expected-out /tmp/casa_table1_expected.txt
cmp /tmp/casa_table1_expected.txt perfbench/expected/table1.txt \
  || { echo "table1 outputs differ from perfbench/expected/table1.txt"; exit 1; }

echo "== cargo doc --workspace --no-deps, warnings denied"
# Every crate's docs, with broken or private intra-doc links as errors:
# deleting a public item must not leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== observability smoke: sweep --smoke --trace-out"
rm -f /tmp/casa_trace.json
# Run from /tmp so the smoke report does not clobber the repo's
# checked-in full-grid BENCH_sweep.json.
ROOT="$(pwd)"
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke --trace-out /tmp/casa_trace.json)
test -s /tmp/casa_trace.json || { echo "trace file empty or missing"; exit 1; }
# Valid JSON + well-formed spans: re-parse it with the diag renderer.
cargo run --release -q -p casa-bench --bin diag -- render-trace /tmp/casa_trace.json | grep -q "simulate" \
  || { echo "trace does not cover the simulate phase"; exit 1; }

echo "== regression sentinel: two identical smoke runs must not regress"
# Two back-to-back runs of the same grid append two history records;
# the second is byte-identical on every deterministic column, so the
# sentinel must report a clean pass (exit 0) and say so in the
# machine verdict.
rm -f /tmp/casa_history.jsonl /tmp/casa_regress.json
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke --history-out /tmp/casa_history.jsonl)
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke --history-out /tmp/casa_history.jsonl)
cargo run --release -q -p casa-bench --bin sentinel -- --history /tmp/casa_history.jsonl --out /tmp/casa_regress.json \
  || { echo "sentinel flagged a regression between identical runs"; exit 1; }
grep -q '"verdict":"pass"' /tmp/casa_regress.json \
  || { echo "machine verdict is not a pass"; exit 1; }

echo "== flight recorder: deliberate panic must leave a readable dump"
# CASA_SELFTEST_PANIC makes the sweep bin panic after the grid runs;
# the installed panic hook must write the flight ring to the sink,
# and diag flight must round-trip it back into a table.
rm -f /tmp/casa_flight.json
if (cd /tmp && CASA_TRACE=1 CASA_SELFTEST_PANIC=1 cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke --history-out /tmp/casa_selftest_history.jsonl --flight-dump /tmp/casa_flight.json) 2>/dev/null; then
  echo "self-test panic did not fire"; exit 1
fi
rm -f /tmp/casa_selftest_history.jsonl
test -s /tmp/casa_flight.json || { echo "flight dump empty or missing"; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- flight /tmp/casa_flight.json | grep -q "cell" \
  || { echo "flight dump does not cover the cell phase"; exit 1; }

echo "== live telemetry: served sweep, probe, watchdog, determinism"
# A serverless smoke run records the reference deterministic report;
# then the same grid runs with the telemetry server, an armed watchdog
# and the stall self-test. diag's std-only HTTP client probes the live
# endpoints (valid Prometheus exposition mid-run, required families,
# span frames over /events), the watchdog must catch the deliberately
# stalled phase and dump the flight ring, and the served report must
# stay byte-identical to the serverless one.
rm -f /tmp/casa_det_plain.json /tmp/casa_det_served.json /tmp/casa_serve_addr \
      /tmp/casa_probe_flight.json /tmp/casa_telemetry_history.jsonl
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
  --history-out /tmp/casa_telemetry_history.jsonl --det-out /tmp/casa_det_plain.json)
(cd /tmp && CASA_WATCHDOG_MS=250 CASA_SELFTEST_STALL=1 \
  cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
  --history-out /tmp/casa_telemetry_history.jsonl --det-out /tmp/casa_det_served.json \
  --serve 127.0.0.1:0 --serve-addr-file /tmp/casa_serve_addr --serve-linger-ms 60000 \
  --flight-dump /tmp/casa_probe_flight.json) &
SWEEP_PID=$!
i=0; while [ $i -lt 300 ] && ! test -s /tmp/casa_serve_addr; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_serve_addr || { echo "served sweep never published its address"; kill $SWEEP_PID; exit 1; }
ADDR="$(head -n1 /tmp/casa_serve_addr)"
# Quick probe while the run may still be in flight: healthz + a valid
# /metrics exposition must hold mid-sweep, not just at the end.
cargo run --release -q -p casa-bench --bin diag -- probe "$ADDR" --quick \
  || { echo "mid-run probe failed"; kill $SWEEP_PID; exit 1; }
# The watchdog's flight dump doubles as the "stall was caught" signal;
# once it exists the stall counter is on the exporter too.
i=0; while [ $i -lt 100 ] && ! test -s /tmp/casa_probe_flight.json; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_probe_flight.json || { echo "watchdog stall left no flight dump"; kill $SWEEP_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- probe "$ADDR" --expect-spans \
  --expect casa_sweep_cells_done --expect casa_sweep_cells_total \
  --expect casa_energy_total_uj --expect casa_watchdog_stalls --quit \
  || { echo "full probe failed"; kill $SWEEP_PID; exit 1; }
wait $SWEEP_PID || { echo "served sweep failed"; exit 1; }
cmp /tmp/casa_det_plain.json /tmp/casa_det_served.json \
  || { echo "telemetry server changed the deterministic report"; exit 1; }

echo "== sentinel --serve: verdict gauges on the exporter"
# The two telemetry runs above share a grid fingerprint, so the
# sentinel has a baseline and must pass; with --serve its verdict is
# also scraped off /metrics as casa_sentinel_* gauges.
rm -f /tmp/casa_sentinel_addr /tmp/casa_regress_served.json
cargo run --release -q -p casa-bench --bin sentinel -- \
  --history /tmp/casa_telemetry_history.jsonl --out /tmp/casa_regress_served.json \
  --serve 127.0.0.1:0 --serve-addr-file /tmp/casa_sentinel_addr --serve-linger-ms 60000 &
SENTINEL_PID=$!
i=0; while [ $i -lt 300 ] && ! test -s /tmp/casa_sentinel_addr; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_sentinel_addr || { echo "sentinel never published its address"; kill $SENTINEL_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- probe "$(head -n1 /tmp/casa_sentinel_addr)" \
  --expect casa_sentinel_regressions --expect casa_sentinel_checks \
  --expect casa_sentinel_pass --expect casa_sentinel_baseline_runs --quit \
  || { echo "sentinel probe failed"; kill $SENTINEL_PID; exit 1; }
wait $SENTINEL_PID || { echo "served sentinel flagged a regression between identical runs"; exit 1; }
grep -q '"verdict":"pass"' /tmp/casa_regress_served.json \
  || { echo "served sentinel verdict is not a pass"; exit 1; }
rm -f /tmp/casa_telemetry_history.jsonl

echo "== allocation service: casa-server under concurrent load"
# Boot the allocation service on an ephemeral port, then drive it with
# the load generator: two concurrent clients issuing a deterministic
# mix of cold solves, exact repeats (cache hits), capacity-adjacent
# pairs (warm starts), and one starved request that must degrade to a
# feasible answer with a finite gap. The loadgen asserts repeats are
# byte-identical and that /metrics agrees with its own request count;
# ci.sh re-checks one repeated pair with cmp and probes the
# casa_server_* families independently via diag.
rm -f /tmp/casa_server_addr /tmp/casa_solve_a.json /tmp/casa_solve_b.json
cargo run --release -q -p casa-bench --bin casa-server -- \
  --listen 127.0.0.1:0 --addr-file /tmp/casa_server_addr --max-seconds 300 &
SERVER_PID=$!
i=0; while [ $i -lt 300 ] && ! test -s /tmp/casa_server_addr; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_server_addr || { echo "casa-server never published its address"; kill $SERVER_PID; exit 1; }
SERVER_ADDR="$(head -n1 /tmp/casa_server_addr)"
cargo run --release -q -p casa-bench --bin casa-loadgen -- \
  --addr "$SERVER_ADDR" --clients 2 --graphs 4 --repeat 2 \
  --dump-a /tmp/casa_solve_a.json --dump-b /tmp/casa_solve_b.json \
  || { echo "load generator failed"; kill $SERVER_PID; exit 1; }
cmp /tmp/casa_solve_a.json /tmp/casa_solve_b.json \
  || { echo "repeated solve responses differ"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- probe "$SERVER_ADDR" \
  --expect casa_server_requests_total --expect casa_server_cache_hits_total \
  --expect casa_server_cache_misses_total --quit \
  || { echo "casa-server probe failed"; kill $SERVER_PID; exit 1; }
wait $SERVER_PID || { echo "casa-server did not exit cleanly"; exit 1; }

echo "== request observability: id echo, journal, slow-capture, byte-identity"
# Boot casa-server with a 100 ms slow-request threshold and the
# slow-request self-test armed (requests whose id starts with "slow-"
# sleep 300 ms in the handler). Then: (1) POST /solve with an explicit
# X-Casa-Request-Id — diag post asserts the echo; (2) the request
# journal must contain that id with full solve attribution (cache
# outcome, gap); (3) a "slow-" request must cross the threshold and
# leave a flight dump tagged with its id; (4) a second server with the
# journal disabled must answer the same request with byte-identical
# /solve bytes — observability may never leak into answers.
rm -f /tmp/casa_req_addr /tmp/casa_req_body.json /tmp/casa_req_tail.txt \
      /tmp/casa_solve_on.json /tmp/casa_solve_off.json /tmp/casa_slow_flight.json
cat > /tmp/casa_req_body.json <<'BODY'
{"graph":{"fetches":[900,400,700],"sizes":[16,24,8],"edges":[[0,1,120],[1,0,80],[1,2,60]]},"cache":{"size":1024,"line":16,"assoc":1},"capacity":32,"allocator":"casa-bb"}
BODY
CASA_SLOW_REQ_MS=100 CASA_SELFTEST_SLOW_REQ=300 \
cargo run --release -q -p casa-bench --bin casa-server -- \
  --listen 127.0.0.1:0 --addr-file /tmp/casa_req_addr --max-seconds 300 \
  --flight-dump /tmp/casa_slow_flight.json &
SERVER_PID=$!
i=0; while [ $i -lt 300 ] && ! test -s /tmp/casa_req_addr; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_req_addr || { echo "casa-server never published its address"; kill $SERVER_PID; exit 1; }
REQ_ADDR="$(head -n1 /tmp/casa_req_addr)"
cargo run --release -q -p casa-bench --bin diag -- post "$REQ_ADDR" /tmp/casa_req_body.json \
  --req-id ci-req-42 --out /tmp/casa_solve_on.json \
  || { echo "tagged solve failed or id was not echoed"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- tail "$REQ_ADDR" > /tmp/casa_req_tail.txt \
  || { echo "journal tail failed"; kill $SERVER_PID; exit 1; }
grep "ci-req-42" /tmp/casa_req_tail.txt | grep "cache=" | grep -q "gap=" \
  || { echo "journal entry for ci-req-42 lacks solve attribution"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- post "$REQ_ADDR" /tmp/casa_req_body.json \
  --req-id slow-ci-1 --out /dev/null \
  || { echo "slow-tagged solve failed"; kill $SERVER_PID; exit 1; }
i=0; while [ $i -lt 100 ] && ! test -s /tmp/casa_slow_flight.json; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_slow_flight.json || { echo "slow request left no flight dump"; kill $SERVER_PID; exit 1; }
grep -q "slow-ci-1" /tmp/casa_slow_flight.json \
  || { echo "slow-request flight dump is not tagged with the request id"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- probe "$REQ_ADDR" \
  --expect casa_server_requests_total --quit \
  || { echo "request-observability probe failed"; kill $SERVER_PID; exit 1; }
wait $SERVER_PID || { echo "casa-server did not exit cleanly"; exit 1; }
rm -f /tmp/casa_req_addr
CASA_REQ_JOURNAL_CAP=0 cargo run --release -q -p casa-bench --bin casa-server -- \
  --listen 127.0.0.1:0 --addr-file /tmp/casa_req_addr --max-seconds 300 &
SERVER_PID=$!
i=0; while [ $i -lt 300 ] && ! test -s /tmp/casa_req_addr; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_req_addr || { echo "journal-off casa-server never published its address"; kill $SERVER_PID; exit 1; }
REQ_ADDR="$(head -n1 /tmp/casa_req_addr)"
cargo run --release -q -p casa-bench --bin diag -- post "$REQ_ADDR" /tmp/casa_req_body.json \
  --req-id ci-req-42 --out /tmp/casa_solve_off.json \
  || { echo "journal-off solve failed"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- probe "$REQ_ADDR" \
  --expect casa_server_requests_total --quit \
  || { echo "journal-off probe failed"; kill $SERVER_PID; exit 1; }
wait $SERVER_PID || { echo "journal-off casa-server did not exit cleanly"; exit 1; }
cmp /tmp/casa_solve_on.json /tmp/casa_solve_off.json \
  || { echo "journal changed the /solve response bytes"; exit 1; }

echo "== budget-stress smoke: sweep --smoke --budget-nodes 1"
# The harshest anytime setting: a single search node per cell. The
# sweep bin itself asserts every cell still answers (status present;
# finite gap >= 0 unless a fallback substituted) and that the
# node-budgeted report stays byte-identical across worker counts.
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke --budget-nodes 1)

echo "== deprecated-surface grep: no #[deprecated] items remain"
# The pre-engine shims were deleted outright in the v1 API cleanup.
# The public surface must stay free of deprecated items; removing an
# API is done by removing it, not by letting shims accumulate.
if grep -rn "#\[deprecated" crates src examples --include='*.rs'; then
  echo "deprecated item reintroduced"; exit 1
fi

echo "== record/replay: golden sessions from a smoke sweep"
# A smoke sweep with --session-dir records one .casa-session (plus a
# .report.json sibling) per scratchpad cell. Every session must replay
# byte-identically offline: diag replay re-executes the decision log,
# asserts the regenerated response equals the recording, and the
# report it writes must match the sibling byte for byte. One cell also
# goes through --divergence: a cold re-solve of a cold recording must
# match the log decision for decision.
rm -rf /tmp/casa_sessions
rm -f /tmp/casa_replay_report.json
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke --session-dir /tmp/casa_sessions)
ls /tmp/casa_sessions/*.casa-session >/dev/null 2>&1 \
  || { echo "smoke sweep recorded no sessions"; exit 1; }
for f in /tmp/casa_sessions/*.casa-session; do
  rm -f /tmp/casa_replay_report.json
  cargo run --release -q -p casa-bench --bin diag -- replay "$f" --report-out /tmp/casa_replay_report.json \
    || { echo "replay mismatch for $f"; exit 1; }
  cmp /tmp/casa_replay_report.json "${f%.casa-session}.report.json" \
    || { echo "replayed report differs from the recorded sibling for $f"; exit 1; }
done
FIRST_SESSION="$(ls /tmp/casa_sessions/*.casa-session | head -n1)"
cargo run --release -q -p casa-bench --bin diag -- replay "$FIRST_SESSION" --divergence \
  || { echo "cold recording diverged from its own re-solve"; exit 1; }

echo "== served capture: CASA_SESSION_DIR replay matches the journal"
# casa-server with CASA_SESSION_DIR set captures each cache-miss solve
# as a session tagged with the request ID. The captured session must
# (a) replay cleanly, (b) carry a report byte-identical to the /solve
# body the client actually received, and (c) replay to the same
# status/gap/nodes attribution the request journal recorded.
rm -rf /tmp/casa_srv_sessions
rm -f /tmp/casa_cap_addr /tmp/casa_cap_reply.json /tmp/casa_cap_tail.txt \
      /tmp/casa_cap_report.json /tmp/casa_cap_replay.txt
CASA_SESSION_DIR=/tmp/casa_srv_sessions \
cargo run --release -q -p casa-bench --bin casa-server -- \
  --listen 127.0.0.1:0 --addr-file /tmp/casa_cap_addr --max-seconds 300 &
SERVER_PID=$!
i=0; while [ $i -lt 300 ] && ! test -s /tmp/casa_cap_addr; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_cap_addr || { echo "capturing casa-server never published its address"; kill $SERVER_PID; exit 1; }
CAP_ADDR="$(head -n1 /tmp/casa_cap_addr)"
cargo run --release -q -p casa-bench --bin diag -- post "$CAP_ADDR" /tmp/casa_req_body.json \
  --req-id ci-replay-7 --out /tmp/casa_cap_reply.json \
  || { echo "captured solve failed"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- tail "$CAP_ADDR" > /tmp/casa_cap_tail.txt \
  || { echo "capture journal tail failed"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- probe "$CAP_ADDR" \
  --expect casa_server_sessions_captured_total --quit \
  || { echo "capture probe failed"; kill $SERVER_PID; exit 1; }
wait $SERVER_PID || { echo "capturing casa-server did not exit cleanly"; exit 1; }
test -s /tmp/casa_srv_sessions/ci-replay-7.casa-session \
  || { echo "no session captured for ci-replay-7"; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- replay /tmp/casa_srv_sessions/ci-replay-7.casa-session \
  --report-out /tmp/casa_cap_report.json > /tmp/casa_cap_replay.txt \
  || { echo "captured session does not replay"; exit 1; }
cmp /tmp/casa_cap_report.json /tmp/casa_cap_reply.json \
  || { echo "captured session report differs from the served /solve bytes"; exit 1; }
# The journal line and the replay line both render the attribution as
# "status=.. gap=.. nodes=.."; the triples must agree exactly.
JOURNAL_ATTR="$(grep "ci-replay-7" /tmp/casa_cap_tail.txt | grep -o "status=[^ ]* gap=[^ ]* nodes=[^ ]*")"
REPLAY_ATTR="$(grep -o "status=[^ ]* gap=[^ ]* nodes=[^ ]*" /tmp/casa_cap_replay.txt)"
test -n "$JOURNAL_ATTR" || { echo "journal has no solve attribution for ci-replay-7"; exit 1; }
test "$JOURNAL_ATTR" = "$REPLAY_ATTR" \
  || { echo "replay attribution ($REPLAY_ATTR) differs from the journal ($JOURNAL_ATTR)"; exit 1; }

echo "== solver introspection: tree + time-series capture, worker byte-identity"
# Capture is an output channel, never an input to the solve: the same
# smoke grid runs under 1, 2 and 4 workers with --tree-out and
# --ts-out, and the search trees, the time-series, and the
# deterministic report must all be byte-identical across worker
# counts. A capture-free run must then reproduce the same
# deterministic report (capture changes no allocation decision), and
# diag tree must render the captured document as a convergence report.
rm -f /tmp/casa_introspect_history.jsonl /tmp/casa_det_ref.json \
      /tmp/casa_trees_ref.json /tmp/casa_ts_ref.json /tmp/casa_tree_render.txt
for T in 1 2 4; do
  rm -f /tmp/casa_det_cur.json /tmp/casa_trees_cur.json /tmp/casa_ts_cur.json
  (cd /tmp && CASA_SWEEP_THREADS=$T cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
    --history-out /tmp/casa_introspect_history.jsonl \
    --det-out /tmp/casa_det_cur.json --tree-out /tmp/casa_trees_cur.json --ts-out /tmp/casa_ts_cur.json)
  if [ ! -s /tmp/casa_det_ref.json ]; then
    mv /tmp/casa_det_cur.json /tmp/casa_det_ref.json
    mv /tmp/casa_trees_cur.json /tmp/casa_trees_ref.json
    mv /tmp/casa_ts_cur.json /tmp/casa_ts_ref.json
  else
    cmp /tmp/casa_det_ref.json /tmp/casa_det_cur.json \
      || { echo "deterministic report depends on CASA_SWEEP_THREADS=$T"; exit 1; }
    cmp /tmp/casa_trees_ref.json /tmp/casa_trees_cur.json \
      || { echo "captured search trees depend on CASA_SWEEP_THREADS=$T"; exit 1; }
    cmp /tmp/casa_ts_ref.json /tmp/casa_ts_cur.json \
      || { echo "time-series depend on CASA_SWEEP_THREADS=$T"; exit 1; }
  fi
done
rm -f /tmp/casa_det_nocap.json
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
  --history-out /tmp/casa_introspect_history.jsonl --det-out /tmp/casa_det_nocap.json)
cmp /tmp/casa_det_ref.json /tmp/casa_det_nocap.json \
  || { echo "tree/time-series capture changed the deterministic report"; exit 1; }
grep -q '"casa_timeseries":1' /tmp/casa_ts_ref.json \
  || { echo "time-series document missing its schema tag"; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- tree /tmp/casa_trees_ref.json > /tmp/casa_tree_render.txt \
  || { echo "diag tree rejected the captured sweep document"; exit 1; }
grep -q "spm_CasaBb" /tmp/casa_tree_render.txt \
  || { echo "tree report lacks the B&B cell"; exit 1; }
grep -q "incumbent" /tmp/casa_tree_render.txt \
  || { echo "tree report lacks the incumbent convergence table"; exit 1; }
# The same report as machine-readable JSON for downstream consumers.
cargo run --release -q -p casa-bench --bin diag -- tree /tmp/casa_trees_ref.json --json | grep -q '"casa_tree_report_sweep":1' \
  || { echo "diag tree --json did not emit the JSON convergence report"; exit 1; }
rm -f /tmp/casa_introspect_history.jsonl

echo "== sentinel --explain: injected regression is attributed"
# Corrupt the newest history record — every cell energy plus the
# tick-0 point of the sweep.energy_uj series — then demand the
# sentinel fails (exit 1) and attributes the damage: the family
# census names cell.energy_uj, the first divergent tick is located,
# and the machine verdict embeds the same attribution.
rm -f /tmp/casa_attr_history.jsonl /tmp/casa_attr_regress.json /tmp/casa_attr_verdict.txt
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
  --history-out /tmp/casa_attr_history.jsonl)
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
  --history-out /tmp/casa_attr_history.jsonl)
BROKEN="$(tail -n1 /tmp/casa_attr_history.jsonl \
  | sed -e 's/"energy_uj":[0-9][0-9.eE+-]*/"energy_uj":999999999.0/g' \
        -e 's/"sweep.energy_uj":\[\[0,[0-9][0-9.eE+-]*/"sweep.energy_uj":[[0,999999999.0/')"
sed '$d' /tmp/casa_attr_history.jsonl > /tmp/casa_attr_history.tmp
printf '%s\n' "$BROKEN" >> /tmp/casa_attr_history.tmp
mv /tmp/casa_attr_history.tmp /tmp/casa_attr_history.jsonl
rc=0
cargo run --release -q -p casa-bench --bin sentinel -- --explain \
  --history /tmp/casa_attr_history.jsonl --out /tmp/casa_attr_regress.json \
  > /tmp/casa_attr_verdict.txt || rc=$?
[ "$rc" -eq 1 ] || { echo "sentinel did not flag the injected regression (rc=$rc)"; exit 1; }
grep -q "attribution: why this run failed" /tmp/casa_attr_verdict.txt \
  || { echo "failing sentinel printed no attribution"; exit 1; }
grep -q "cell.energy_uj" /tmp/casa_attr_verdict.txt \
  || { echo "attribution does not name the damaged family"; exit 1; }
grep -q "first time-series divergence: sweep.energy_uj at tick 0" /tmp/casa_attr_verdict.txt \
  || { echo "attribution missed the first divergent tick"; exit 1; }
grep -q '"family":"cell.energy_uj"' /tmp/casa_attr_regress.json \
  || { echo "machine verdict lacks the attribution"; exit 1; }
rm -f /tmp/casa_attr_history.jsonl

echo "== explainability: capture byte-identity across workers, renderer"
# Explain capture is an output channel, never an input to the solve:
# the same smoke grid runs with --explain-out under 1, 2 and 4
# workers. The explain documents and the deterministic report must be
# byte-identical across worker counts, and the report must match the
# capture-free reference from the introspection gate above (explain
# on/off changes no allocation decision). The history records of these
# runs must carry the per-cell top-regret census, and diag explain
# must render the captured document with all three report sections.
rm -f /tmp/casa_explain_history.jsonl /tmp/casa_explain_ref.json \
      /tmp/casa_det_exp_ref.json /tmp/casa_explain_render.txt
for T in 1 2 4; do
  rm -f /tmp/casa_explain_cur.json /tmp/casa_det_exp_cur.json
  (cd /tmp && CASA_SWEEP_THREADS=$T cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
    --history-out /tmp/casa_explain_history.jsonl \
    --det-out /tmp/casa_det_exp_cur.json --explain-out /tmp/casa_explain_cur.json)
  if [ ! -s /tmp/casa_explain_ref.json ]; then
    mv /tmp/casa_explain_cur.json /tmp/casa_explain_ref.json
    mv /tmp/casa_det_exp_cur.json /tmp/casa_det_exp_ref.json
  else
    cmp /tmp/casa_explain_ref.json /tmp/casa_explain_cur.json \
      || { echo "explain documents depend on CASA_SWEEP_THREADS=$T"; exit 1; }
    cmp /tmp/casa_det_exp_ref.json /tmp/casa_det_exp_cur.json \
      || { echo "deterministic report depends on CASA_SWEEP_THREADS=$T under explain capture"; exit 1; }
  fi
done
cmp /tmp/casa_det_ref.json /tmp/casa_det_exp_ref.json \
  || { echo "explain capture changed the deterministic report"; exit 1; }
grep -q '"casa_explain_sweep":1' /tmp/casa_explain_ref.json \
  || { echo "explain sweep document missing its schema tag"; exit 1; }
grep -q '"explain_census":' /tmp/casa_explain_history.jsonl \
  || { echo "history records of an explain run carry no census"; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- explain /tmp/casa_explain_ref.json --top 5 > /tmp/casa_explain_render.txt \
  || { echo "diag explain rejected the captured sweep document"; exit 1; }
grep -q "capacity shadow price:" /tmp/casa_explain_render.txt \
  || { echo "explain report lacks the shadow-price line"; exit 1; }
grep -q "top 5 by regret:" /tmp/casa_explain_render.txt \
  || { echo "explain report lacks the regret table"; exit 1; }
grep -q "flip distances" /tmp/casa_explain_render.txt \
  || { echo "explain report lacks the flip-distance ranking"; exit 1; }
rm -f /tmp/casa_explain_history.jsonl

echo "== served explain: opt-in sibling agrees with the reply and journal"
# A request with "explain":true against a CASA_SESSION_DIR server must
# leave a <stem>.explain.json sibling (misses only). The sibling must
# render, and its account must agree with what the server actually
# served: the scratchpad bytes in the reply equal the bytes the
# explain document says were used, and the journal shows the request
# as the cache miss the capture contract requires.
rm -rf /tmp/casa_exp_sessions
rm -f /tmp/casa_exp_addr /tmp/casa_exp_body.json /tmp/casa_exp_reply.json \
      /tmp/casa_exp_tail.txt /tmp/casa_exp_render.txt
cat > /tmp/casa_exp_body.json <<'BODY'
{"graph":{"fetches":[900,400,700],"sizes":[16,24,8],"edges":[[0,1,120],[1,0,80],[1,2,60]]},"cache":{"size":1024,"line":16,"assoc":1},"capacity":32,"allocator":"casa-bb","explain":true}
BODY
CASA_SESSION_DIR=/tmp/casa_exp_sessions \
cargo run --release -q -p casa-bench --bin casa-server -- \
  --listen 127.0.0.1:0 --addr-file /tmp/casa_exp_addr --max-seconds 300 &
SERVER_PID=$!
i=0; while [ $i -lt 300 ] && ! test -s /tmp/casa_exp_addr; do i=$((i+1)); sleep 0.1; done
test -s /tmp/casa_exp_addr || { echo "explain casa-server never published its address"; kill $SERVER_PID; exit 1; }
EXP_ADDR="$(head -n1 /tmp/casa_exp_addr)"
cargo run --release -q -p casa-bench --bin diag -- post "$EXP_ADDR" /tmp/casa_exp_body.json \
  --req-id ci-explain-9 --out /tmp/casa_exp_reply.json \
  || { echo "explain-tagged solve failed"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- tail "$EXP_ADDR" > /tmp/casa_exp_tail.txt \
  || { echo "explain journal tail failed"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- probe "$EXP_ADDR" \
  --expect casa_server_explains_captured_total --quit \
  || { echo "explain capture counter missing from /metrics"; kill $SERVER_PID; exit 1; }
wait $SERVER_PID || { echo "explain casa-server did not exit cleanly"; exit 1; }
test -s /tmp/casa_exp_sessions/ci-explain-9.explain.json \
  || { echo "no explain sibling captured for ci-explain-9"; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- explain /tmp/casa_exp_sessions/ci-explain-9.explain.json > /tmp/casa_exp_render.txt \
  || { echo "captured explain sibling does not render"; exit 1; }
grep -q "capacity shadow price:" /tmp/casa_exp_render.txt \
  || { echo "captured explain sibling lacks the shadow-price line"; exit 1; }
# Agreement with the served reply: the scratchpad usage the document
# explains is the one the response reports.
SPM_BYTES="$(grep -o '"spm_bytes":[0-9]*' /tmp/casa_exp_reply.json | cut -d: -f2)"
grep -q "\"spm_used\":${SPM_BYTES}[,}]" /tmp/casa_exp_sessions/ci-explain-9.explain.json \
  || { echo "explain sibling disagrees with the reply on scratchpad bytes"; exit 1; }
# Agreement with the journal: the capture contract says siblings are
# written on misses, and the journal must show exactly that.
grep "ci-explain-9" /tmp/casa_exp_tail.txt | grep -q "cache=miss" \
  || { echo "journal does not record ci-explain-9 as the miss its sibling implies"; exit 1; }

echo "CI OK"
