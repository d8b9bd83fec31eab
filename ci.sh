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

echo "== benchmark answers: table1 (48 walk seeds) and sim-scaled (16) match perfbench/expected; fetch_engine (simulate, compile, profiling and count-only final replays from one stream) and workload_walk microbenches run"
# Energy, status and final-simulation counters of every cell at every
# walk seed a run can reach. A faster search or simulator may change
# node counts and timings, never one of these lines. table1 runs
# direct-mapped caches at trip scale 1; sim-scaled adds the 4-way LRU
# victim path and the trip-scale-2 loop-cache cells.
for w in table1 sim-scaled; do
  rm -f "/tmp/casa_${w}_expected.txt"
  CARGO_TARGET_DIR=.bench_build cargo run --release -q --manifest-path perfbench/Cargo.toml --bin perfbench -- \
    --workload "$w" --expected-out "/tmp/casa_${w}_expected.txt"
  cmp "/tmp/casa_${w}_expected.txt" "perfbench/expected/$w.txt" \
    || { echo "$w outputs differ from perfbench/expected/$w.txt"; exit 1; }
done
# The simulator's layer microbenches, filtered to the fetch engine and
# the execution walk: the initial-layout, loop-cache and final-layout
# simulations, the line-stream compile, the same layouts replayed from
# one compiled stream (the initial layout's as an attributing profiling
# replay, the four final layouts' count-only, as the flow runs them),
# and the trip-scale-2 walks must run, not only compile.
cargo bench -q -p casa-bench --bench simulator -- fetch_engine
cargo bench -q -p casa-bench --bench simulator -- workload_walk

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

echo "== flight recorder: deliberate panic must leave a readable dump"
# CASA_SELFTEST_PANIC makes the sweep bin panic after the grid runs;
# the installed panic hook must write the flight ring to the sink,
# and diag flight must round-trip it back into a table.
rm -f /tmp/casa_flight.json
if (cd /tmp && CASA_TRACE=1 CASA_SELFTEST_PANIC=1 cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke --flight-dump /tmp/casa_flight.json) 2>/dev/null; then
  echo "self-test panic did not fire"; exit 1
fi
test -s /tmp/casa_flight.json || { echo "flight dump empty or missing"; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- flight /tmp/casa_flight.json | grep -q "cell" \
  || { echo "flight dump does not cover the cell phase"; exit 1; }

echo "== allocation service: casa-server under concurrent load"
# Boot the allocation service on an ephemeral port, then drive it with
# the load generator: two concurrent clients issuing a deterministic
# mix of cold solves, exact repeats (cache hits), capacity-adjacent
# pairs (warm starts), and one starved request that must degrade to a
# feasible answer with a finite gap. The loadgen asserts repeats are
# byte-identical and that /metrics agrees with its own request count;
# ci.sh re-checks one repeated pair with cmp, probes the casa_server_*
# families independently via diag, and demands the requests' spans
# over /events.
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
# Connection threads are reused, so after the load the server runs at
# most main + 2 solver workers + 3 threads parked in accept() (the
# listener's idle limit) + 1 still finishing. A pool that grows with
# the request count fails here. `cargo run` execs the server in place
# on Unix, so its pid is the server's unless cargo kept a child.
SERVER_TASK="$(pgrep -P "$SERVER_PID" -x casa-server || echo "$SERVER_PID")"
SERVER_THREADS="$(awk '/^Threads:/ {print $2}' "/proc/$SERVER_TASK/status")"
[ "$(cat "/proc/$SERVER_TASK/comm")" = casa-server ] && [ "${SERVER_THREADS:-99}" -le $((1 + 2 + 3 + 1)) ] \
  || { echo "casa-server runs ${SERVER_THREADS:-?} threads after the load (at most 7)"; kill $SERVER_PID; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- probe "$SERVER_ADDR" \
  --expect casa_server_requests_total --expect casa_server_cache_hits_total \
  --expect casa_server_cache_misses_total --expect-spans server.request --quit \
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

echo "== environment knobs: the CASA_* names in the Rust sources are exactly this list"
# Every CASA_* name the Rust sources under crates/, src/, tests/ and
# examples/ read, set or mention. A new knob, or a stale mention of a
# deleted one, fails here until the list below changes with it.
grep -rhoE 'CASA_[A-Z0-9_]+' crates src tests examples --include='*.rs' | LC_ALL=C sort -u > /tmp/casa_knobs.txt
cat > /tmp/casa_knobs_expected.txt <<'KNOBS'
CASA_ACCESS_LOG
CASA_FLIGHT_DUMP
CASA_REQ_JOURNAL_CAP
CASA_SELFTEST_PANIC
CASA_SELFTEST_SLOW_REQ
CASA_SESSION_DIR
CASA_SLOW_REQ_MS
CASA_SWEEP_THREADS
CASA_TRACE
KNOBS
diff /tmp/casa_knobs_expected.txt /tmp/casa_knobs.txt \
  || { echo "CASA_* names in the sources differ from the list in ci.sh (< listed, > found)"; exit 1; }

echo "== capture: worker byte-identity, golden replay, tree and explain renderers"
# Capture and instrumentation are output channels, never inputs to the
# solve: the same smoke grid runs under 1, 2 and 4 workers with
# --session-dir and --trace-out. The deterministic report and the whole
# capture directory (sessions, reports, search trees, explain
# documents) must be byte-identical across worker counts, and a
# capture-free, uninstrumented run must reproduce the same
# deterministic report. Every session must replay byte-identically
# offline: diag replay re-executes the decision log, asserts the
# regenerated response equals the recording, and the report it writes
# must match the sibling byte for byte. One cell also goes through --divergence:
# a cold re-solve of a cold recording must match the log decision for
# decision. Finally diag tree and diag explain render the directory.
# The smoke grid is a single profile group (its CASA and Steinke cells
# share one profiling run), so the full Table-1 grid also runs once on
# four workers: 24 profile groups spread over the pool, and the binary
# asserts its serial and parallel reports are byte-identical.
rm -rf /tmp/casa_capture_ref /tmp/casa_capture_cur
rm -f /tmp/casa_det_ref.json \
      /tmp/casa_replay_report.json /tmp/casa_tree_render.txt /tmp/casa_explain_render.txt
for T in 1 2 4; do
  rm -rf /tmp/casa_capture_cur
  rm -f /tmp/casa_det_cur.json /tmp/casa_trace_cur.json
  (cd /tmp && CASA_SWEEP_THREADS=$T cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
    --det-out /tmp/casa_det_cur.json --session-dir /tmp/casa_capture_cur --trace-out /tmp/casa_trace_cur.json)
  if [ ! -s /tmp/casa_det_ref.json ]; then
    mv /tmp/casa_det_cur.json /tmp/casa_det_ref.json
    mv /tmp/casa_capture_cur /tmp/casa_capture_ref
  else
    cmp /tmp/casa_det_ref.json /tmp/casa_det_cur.json \
      || { echo "deterministic report depends on CASA_SWEEP_THREADS=$T"; exit 1; }
    diff -r /tmp/casa_capture_ref /tmp/casa_capture_cur \
      || { echo "captured solves depend on CASA_SWEEP_THREADS=$T"; exit 1; }
  fi
done
rm -f /tmp/casa_det_nocap.json
(cd /tmp && cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep -- --smoke \
  --det-out /tmp/casa_det_nocap.json)
cmp /tmp/casa_det_ref.json /tmp/casa_det_nocap.json \
  || { echo "capture or instrumentation changed the deterministic report"; exit 1; }
(cd /tmp && CASA_SWEEP_THREADS=4 cargo run --manifest-path "$ROOT/Cargo.toml" --release -q -p casa-bench --bin sweep)
ls /tmp/casa_capture_ref/*.casa-session >/dev/null 2>&1 \
  || { echo "smoke sweep recorded no sessions"; exit 1; }
for f in /tmp/casa_capture_ref/*.casa-session; do
  rm -f /tmp/casa_replay_report.json
  cargo run --release -q -p casa-bench --bin diag -- replay "$f" --report-out /tmp/casa_replay_report.json \
    || { echo "replay mismatch for $f"; exit 1; }
  cmp /tmp/casa_replay_report.json "${f%.casa-session}.report.json" \
    || { echo "replayed report differs from the recorded sibling for $f"; exit 1; }
done
FIRST_SESSION="$(ls /tmp/casa_capture_ref/*.casa-session | head -n1)"
cargo run --release -q -p casa-bench --bin diag -- replay "$FIRST_SESSION" --divergence \
  || { echo "cold recording diverged from its own re-solve"; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- tree /tmp/casa_capture_ref > /tmp/casa_tree_render.txt \
  || { echo "diag tree rejected the capture directory"; exit 1; }
grep -q "spm_CasaBb" /tmp/casa_tree_render.txt \
  || { echo "tree report lacks the B&B cell"; exit 1; }
grep -q "incumbent" /tmp/casa_tree_render.txt \
  || { echo "tree report lacks the incumbent convergence table"; exit 1; }
# The same report as machine-readable JSON for downstream consumers.
cargo run --release -q -p casa-bench --bin diag -- tree /tmp/casa_capture_ref --json | grep -q '"casa_tree_report_sweep":1' \
  || { echo "diag tree --json did not emit the JSON convergence report"; exit 1; }
cat /tmp/casa_capture_ref/*.explain.json | grep -q '"casa_explain":1' \
  || { echo "explain documents missing their schema tag"; exit 1; }
cargo run --release -q -p casa-bench --bin diag -- explain /tmp/casa_capture_ref --top 5 > /tmp/casa_explain_render.txt \
  || { echo "diag explain rejected the capture directory"; exit 1; }
grep -q "capacity shadow price:" /tmp/casa_explain_render.txt \
  || { echo "explain report lacks the shadow-price line"; exit 1; }
grep -q "top 5 by regret:" /tmp/casa_explain_render.txt \
  || { echo "explain report lacks the regret table"; exit 1; }
grep -q "flip distances" /tmp/casa_explain_render.txt \
  || { echo "explain report lacks the flip-distance ranking"; exit 1; }

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
  --expect casa_server_captures_total --quit \
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
  --expect casa_server_captures_total --quit \
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
