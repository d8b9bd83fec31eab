//! Deterministic parallel Table-1 sweep.
//!
//! Runs the canonical Table-1 grid (3 benchmarks × 4 local-memory
//! sizes × {SP(CASA), SP(Steinke), LC(Ross)}) once single-threaded
//! and once with the configured worker count, verifies the two
//! reports are byte-identical modulo timing, and writes the parallel
//! run (plus the serial baseline's wall clock and the speedup) to
//! `BENCH_sweep.json`.
//!
//! Usage: `cargo run --release -p casa-bench --bin sweep [scale]
//!         [--smoke] [--trace-out <path>] [--flight-dump <path>]
//!         [--history-out <path>] [--det-out <path>]
//!         [--ts-out <path>]
//!         [--budget-nodes <n>] [--budget-ms <ms>]
//!         [--session-dir <dir>]
//!         [--serve <addr>] [--serve-addr-file <path>]
//!         [--serve-linger-ms <ms>]`
//! Worker count: `CASA_SWEEP_THREADS` (default: available cores).
//! `--smoke` swaps the full grid for [`SweepGrid::smoke`] (one adpcm
//! workload, three cells) — the CI smoke configuration.
//! `--trace-out <path>` (or `CASA_TRACE=1`) instruments every flow
//! phase and writes a Chrome `trace_event` timeline; instrumented
//! runs also arm the flight recorder's dump sink (`--flight-dump
//! <path>` / `CASA_FLIGHT_DUMP`) and panic hook.
//! `--budget-nodes <n>` / `--budget-ms <ms>` solve every cell under
//! the given anytime budget: cells then report `status` (`optimal` /
//! `feasible` / `fallback`) and the proven optimality `gap`. Node
//! budgets keep the byte-identical determinism guarantee; wall-clock
//! budgets are machine-dependent, so the byte-equality check is
//! skipped and `deterministic_json` redacts the affected columns.
//! `--serve <addr>` starts the live telemetry service (`/metrics`,
//! `/snapshot.json`, `/flight.json`, `/events`, `/healthz`) for the
//! duration of the run; `--serve-addr-file <path>` writes the bound
//! address (useful with port 0) and `--serve-linger-ms <ms>` keeps
//! the endpoints up after the sweep until a scraper hits
//! `/quitquitquit` or the window closes. `CASA_WATCHDOG_MS=<ms>` arms
//! the phase watchdog on top of the sweep's heartbeats.
//! `--det-out <path>` writes the run's `deterministic_json()` — what
//! CI diffs between served and serverless runs.
//! `--session-dir <dir>` captures every scratchpad cell's solve under
//! `dir` as `<benchmark>-<flavor>-<size>.*` siblings: the replayable
//! `.casa-session` (input to `diag replay`), its `.report.json`, the
//! `.tree.json` B&B search tree of tree-searching cells (input to
//! `diag tree`) and the `.explain.json` decision provenance (input to
//! `diag explain`). Capture changes no allocation decision, the serial
//! and parallel captures must match byte for byte, and the files are
//! written once, from the parallel run.
//! `--ts-out <path>` writes the run's merged logical-tick time-series
//! (`casa_timeseries` document: `sweep.*` per-cell series plus the
//! flow/solver series from every cell, grid order); implies
//! instrumentation. Byte-identical across worker counts.
//!
//! Outputs are split by audience: `BENCH_sweep.json` is the **latest
//! run** in full (overwritten every time — what the experiment docs
//! and plots read), while `--history-out <path>` (default
//! `BENCH_history.jsonl`) gets one compact [`HistoryRecord`] line
//! **appended** per run — the longitudinal log the `sentinel` bin
//! diffs for regressions.

use casa_bench::history::{append_record, unix_now_s, HistoryRecord};
use casa_bench::runner::{cli_budget, cli_obs, cli_scale, cli_value};
use casa_bench::sweep::{sweep_threads, SweepGrid};
use std::path::Path;

fn main() {
    let scale = cli_scale();
    let threads = sweep_threads();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cli = cli_obs();
    let budget = cli_budget();
    let mut grid = if smoke {
        SweepGrid::smoke(scale, 2004)
    } else {
        SweepGrid::table1_paper(scale, 2004)
    };
    grid.set_budget(budget.clone());
    let session_dir = cli_value("--session-dir");
    grid.set_capture(session_dir.is_some());
    println!(
        "sweep: {} cells over {} workloads (scale {scale}), {threads} worker(s)",
        grid.cell_count(),
        grid.workload_count()
    );
    if !budget.is_unlimited() {
        println!("per-cell solver budget: {budget:?}");
    }

    let serial = grid.run_with_threads(1);
    let parallel = grid.run_with_threads_obs(threads, &cli.obs);
    if budget.has_wall_clock() {
        // Where a deadline or cancellation lands in the search depends
        // on machine speed, so the reports are legitimately allowed to
        // differ; deterministic_json redacts those columns instead.
        println!("wall-clock budget: skipping the byte-equality check");
    } else {
        assert_eq!(
            serial.deterministic_json(),
            parallel.deterministic_json(),
            "sweep results must not depend on the worker count or tracing"
        );
        println!("determinism: serial and {threads}-worker reports are byte-identical");
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(
                s.capture, p.capture,
                "captured solves must not depend on the worker count"
            );
        }
    }

    // Anytime contract: a budget may truncate the search, but every
    // cell still answers — with a status, and (unless a fallback
    // allocator substituted) a finite proven gap.
    for c in &parallel.cells {
        assert!(!c.status.is_empty(), "cell without a status: {c:?}");
        if c.status != "fallback" {
            let gap = c
                .gap
                .unwrap_or_else(|| panic!("{} cell missing gap: {c:?}", c.flavor));
            assert!(gap.is_finite() && gap >= 0.0, "unproven gap {gap} in {c:?}");
        }
    }

    let speedup = serial.total_secs / parallel.total_secs.max(1e-12);
    println!(
        "serial {:.2} s, parallel {:.2} s ({speedup:.2}x with {threads} worker(s))",
        serial.total_secs, parallel.total_secs
    );

    for c in &parallel.cells {
        println!(
            "{:<8} {:<14} {:>6} B  {:>12.2} µJ  {:>9} nodes  {:<8} {:>10}  {:>8.4} s",
            c.benchmark,
            c.flavor,
            c.local_size,
            c.energy_uj,
            c.solver_nodes
                .map_or_else(|| "-".to_string(), |n| n.to_string()),
            c.status,
            c.gap.map_or_else(|| "-".to_string(), |g| format!("{g:.3}")),
            c.cell_secs
        );
    }
    if !parallel.phases.is_empty() {
        println!("\nper-phase rollup:");
        for p in &parallel.phases {
            println!(
                "  {:<12} {:>5} spans  {:>10.3} ms",
                p.name,
                p.count,
                p.total_us as f64 / 1000.0
            );
        }
    }

    // Full report plus the serial baseline for the speedup record.
    let json = format!(
        "{{\"serial_total_secs\":{},\"parallel_speedup\":{},\"report\":{}}}",
        serial.total_secs,
        speedup,
        parallel.to_json()
    );
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("wrote BENCH_sweep.json ({} bytes)", json.len());
    if let Some(dir) = &session_dir {
        let written = parallel
            .write_captures(Path::new(dir))
            .unwrap_or_else(|e| panic!("write captures under {dir}: {e}"));
        println!("captured {written} scratchpad-cell solve(s) under {dir}");
    }

    // Longitudinal record: BENCH_sweep.json holds only the latest run,
    // so the sentinel's baseline lives in an append-only JSONL log.
    let history_path =
        cli_value("--history-out").unwrap_or_else(|| "BENCH_history.jsonl".to_string());
    let record = HistoryRecord::from_report(&parallel, &grid.fingerprint(), unix_now_s());
    append_record(Path::new(&history_path), &record)
        .unwrap_or_else(|e| panic!("append {history_path}: {e}"));
    println!("appended run record to {history_path}");

    // The bytes CI compares between a served and a serverless run.
    if let Some(path) = cli_value("--det-out") {
        let det = parallel.deterministic_json();
        std::fs::write(&path, &det).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote deterministic report to {path} ({} bytes)", det.len());
    }

    // The merged logical-tick time-series, byte-identical across worker
    // counts (CI diffs it between CASA_SWEEP_THREADS values).
    if let Some(path) = cli_value("--ts-out") {
        let json = parallel.timeseries_json();
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "wrote time-series to {path} ({} bytes, {} points)",
            json.len(),
            parallel.timeseries.points()
        );
    }

    if let Some(path) = cli.finish() {
        println!("wrote Chrome trace to {}", path.display());
    }

    // CI self-test of the watchdog: beat a phase once, never again,
    // and demand the stall is flagged (event + flight dump) within
    // 2 × CASA_WATCHDOG_MS.
    if std::env::var("CASA_SELFTEST_STALL").is_ok_and(|v| !v.is_empty() && v != "0") {
        selftest_stall(&cli);
    }

    cli.linger();

    // CI self-test of the crash path: a deliberate panic *after* the
    // sweep has filled the flight ring, so the installed hook must
    // leave a non-empty dump at the configured sink. A real panic (not
    // debug_assert!) so the release binary CI runs exercises it too.
    if std::env::var("CASA_SELFTEST_PANIC").is_ok_and(|v| !v.is_empty() && v != "0") {
        panic!("CASA_SELFTEST_PANIC: deliberate crash to exercise the flight-dump path");
    }
}

/// Deliberately stall a phase and verify the watchdog catches it
/// within the promised window: a `watchdog_stall` instant event naming
/// the phase, plus a flight dump on disk.
fn selftest_stall(cli: &casa_bench::runner::CliObs) {
    use casa_obs::ArgValue;
    let ms = casa_obs::watchdog_ms_from_env()
        .expect("CASA_SELFTEST_STALL needs CASA_WATCHDOG_MS set to a non-zero value");
    assert!(
        cli.watchdog.is_some(),
        "watchdog must be armed for the stall selftest"
    );
    let phase = "selftest.stall";
    cli.obs.heartbeat(phase);
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(2 * ms);
    let caught = loop {
        let stalled = cli.obs.events().into_iter().any(|e| {
            e.name == "watchdog_stall"
                && e.args
                    .iter()
                    .any(|(k, v)| k == "phase" && *v == ArgValue::Str(phase.to_string()))
        });
        if stalled {
            break true;
        }
        if std::time::Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(std::time::Duration::from_millis(ms.div_ceil(10).max(1)));
    };
    assert!(
        caught,
        "CASA_SELFTEST_STALL: no watchdog_stall event within 2x{ms} ms"
    );
    let sink = cli.obs.flight_sink().expect("cli_obs wires a flight sink");
    let dump = std::fs::metadata(&sink).unwrap_or_else(|e| {
        panic!(
            "watchdog stall left no flight dump at {}: {e}",
            sink.display()
        )
    });
    assert!(dump.len() > 0, "empty watchdog flight dump");
    cli.obs.heartbeat_done(phase);
    println!(
        "selftest: watchdog flagged stalled phase `{phase}` within 2x{ms} ms (dump at {})",
        sink.display()
    );
}
