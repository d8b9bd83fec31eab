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
//!         [--det-out <path>]
//!         [--budget-nodes <n>] [--budget-ms <ms>]
//!         [--session-dir <dir>]`
//! Worker count: `CASA_SWEEP_THREADS` (default: available cores).
//! `--smoke` swaps the full grid for [`SweepGrid::smoke`] (one adpcm
//! workload, three cells) — the CI smoke configuration.
//! `--trace-out <path>` (or `CASA_TRACE=1`) instruments every flow
//! phase and writes a Chrome `trace_event` timeline; instrumented
//! runs also arm the flight-dump sink (`--flight-dump <path>` /
//! `CASA_FLIGHT_DUMP`) and a panic hook that writes the timeline's
//! newest events there.
//! `--budget-nodes <n>` / `--budget-ms <ms>` solve every cell under
//! the given anytime budget: cells then report `status` (`optimal` /
//! `feasible` / `fallback`) and the proven optimality `gap`. Node
//! budgets keep the byte-identical determinism guarantee; wall-clock
//! budgets are machine-dependent, so the byte-equality check is
//! skipped and `deterministic_json` redacts the affected columns.
//! `--det-out <path>` writes the run's `deterministic_json()` — what
//! CI diffs across worker counts and between capturing and
//! capture-free runs.
//! `--session-dir <dir>` captures every scratchpad cell's solve under
//! `dir` as `<benchmark>-<flavor>-<size>.*` siblings: the replayable
//! `.casa-session` (input to `diag replay`), its `.report.json`, the
//! `.tree.json` B&B search tree of tree-searching cells (input to
//! `diag tree`) and the `.explain.json` decision provenance (input to
//! `diag explain`). Capture changes no allocation decision, the serial
//! and parallel captures must match byte for byte, and the files are
//! written once, from the parallel run.

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

    // The bytes CI compares across worker counts and capture settings.
    if let Some(path) = cli_value("--det-out") {
        let det = parallel.deterministic_json();
        std::fs::write(&path, &det).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote deterministic report to {path} ({} bytes)", det.len());
    }

    if let Some(path) = cli.finish() {
        println!("wrote Chrome trace to {}", path.display());
    }

    // CI self-test of the crash path: a deliberate panic *after* the
    // sweep has filled the trace collector, so the installed hook must
    // leave a non-empty dump at the configured sink. A real panic (not
    // debug_assert!) so the release binary CI runs exercises it too.
    if std::env::var("CASA_SELFTEST_PANIC").is_ok_and(|v| !v.is_empty() && v != "0") {
        panic!("CASA_SELFTEST_PANIC: deliberate crash to exercise the flight-dump path");
    }
}
