//! Shared experiment plumbing: compile a benchmark spec, run the
//! walker once, and hand the pieces to the flows — plus the CLI
//! observability wiring (`CASA_TRACE=1`, `--trace-out <path>`) shared
//! by the experiment binaries.

use casa_core::engine::Budget;
use casa_ir::{Profile, Program};
use casa_mem::ExecutionTrace;
use casa_obs::{chrome_trace_json, Obs};
use casa_workloads::spec::BenchmarkSpec;
use casa_workloads::Walker;
use std::path::PathBuf;
use std::time::Duration;

/// A compiled benchmark with one recorded execution.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Benchmark name.
    pub name: String,
    /// The program.
    pub program: Program,
    /// The execution profile (matches `exec`).
    pub profile: Profile,
    /// The dynamic block sequence all flows replay.
    pub exec: ExecutionTrace,
}

/// Flags that consume the following argument, skipped by
/// [`cli_scale`] when scanning for the positional scale.
const VALUE_FLAGS: &[&str] = &[
    "--trace-out",
    "--tree-out",
    "--ts-out",
    "--session-dir",
    "--budget-nodes",
    "--budget-ms",
    "--flight-dump",
    "--history-out",
    "--history",
    "--k",
    "--out",
    "--wall-tol",
    "--serve",
    "--serve-addr-file",
    "--serve-linger-ms",
    "--det-out",
    "--expect",
    "--listen",
    "--addr-file",
    "--addr",
    "--workers",
    "--queue-cap",
    "--cache-cap",
    "--max-budget-nodes",
    "--max-seconds",
    "--clients",
    "--graphs",
    "--repeat",
    "--dump-a",
    "--dump-b",
];

/// The value following `--<name>` on the command line, if present.
/// Shared by the binaries for their value-taking flags; a flag listed
/// in `VALUE_FLAGS` stays invisible to [`cli_scale`].
///
/// # Panics
///
/// Panics when the flag is present without a following value
/// (experiment drivers want loud failures).
pub fn cli_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{name} needs a value")),
            );
        }
    }
    None
}

/// The optional positional `[scale]` argument shared by the
/// experiment binaries: the first CLI argument that parses as an
/// integer, else 1. Flags (`--timing`, `--smoke`, `--trace-out
/// <path>`, ...) anywhere on the command line are skipped, so
/// `sweep --trace-out t.json 4` and `sweep 4 --trace-out t.json`
/// both mean scale 4.
pub fn cli_scale() -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            let _ = args.next();
            continue;
        }
        if a.starts_with('-') {
            continue;
        }
        if let Ok(v) = a.parse() {
            return v;
        }
    }
    1
}

/// Parse the per-cell solver budget flags shared by the experiment
/// binaries: `--budget-nodes <n>` caps branch & bound nodes,
/// `--budget-ms <ms>` sets a wall-clock deadline. Both may be
/// combined; with neither present the budget is unlimited.
///
/// # Panics
///
/// Panics when a flag is present without a parseable value
/// (experiment drivers want loud failures).
pub fn cli_budget() -> Budget {
    let mut budget = Budget::unlimited();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--budget-nodes" => {
                let v = args.next().expect("--budget-nodes needs a count");
                budget = budget.with_nodes(v.parse().expect("--budget-nodes takes an integer"));
            }
            "--budget-ms" => {
                let v = args.next().expect("--budget-ms needs milliseconds");
                budget = budget.with_deadline(std::time::Duration::from_millis(
                    v.parse().expect("--budget-ms takes an integer"),
                ));
            }
            _ => {}
        }
    }
    budget
}

/// Observability wiring for an experiment binary.
///
/// Instrumentation turns on when `CASA_TRACE` is set to a non-empty
/// value other than `0`, **or** `--trace-out <path>` is on the
/// command line, **or** `--serve <addr>` requests the live telemetry
/// server, **or** `--ts-out <path>` asks for the logical-tick
/// time-series (which only the instrumented flows sample);
/// [`CliObs::finish`] then writes the Chrome `trace_event`
/// JSON (open with `chrome://tracing` or Perfetto) to the requested
/// path, defaulting to `casa_trace.json`.
///
/// When instrumentation is on, the flight recorder's dump sink is
/// also wired up — to `--flight-dump <path>` or `CASA_FLIGHT_DUMP`,
/// defaulting to `casa_flight_dump.json` — and a panic hook is
/// installed so a crash leaves the recent-event ring on disk.
///
/// With `--serve`, the bound address is printed (`serving telemetry
/// on <addr>`) and, when `--serve-addr-file <path>` is given, written
/// to that file — `--serve 127.0.0.1:0` picks a free port, so
/// scripts need a way to find it. When `CASA_WATCHDOG_MS` is set to a
/// non-zero value, a phase watchdog is started alongside the server.
#[derive(Debug)]
pub struct CliObs {
    /// The observability handle to thread through the flows.
    pub obs: Obs,
    /// Where `--trace-out` asked the Chrome trace to go.
    pub trace_out: Option<PathBuf>,
    /// The live telemetry server, when `--serve` asked for one.
    pub serve: Option<casa_obs::ServeHandle>,
    /// The phase watchdog, when `CASA_WATCHDOG_MS` armed one.
    pub watchdog: Option<casa_obs::WatchdogHandle>,
}

/// Parse `--trace-out` / `CASA_TRACE` / `--flight-dump` /
/// `CASA_FLIGHT_DUMP` / `--serve` / `CASA_WATCHDOG_MS` from the
/// environment.
///
/// # Panics
///
/// Panics when `--serve` cannot bind its address or
/// `--serve-addr-file` cannot be written (experiment drivers want
/// loud failures).
pub fn cli_obs() -> CliObs {
    let trace_out = cli_value("--trace-out").map(PathBuf::from);
    let serve_addr = cli_value("--serve");
    let ts_out = cli_value("--ts-out");
    let obs = if trace_out.is_some() || serve_addr.is_some() || ts_out.is_some() {
        Obs::enabled()
    } else {
        Obs::from_env()
    };
    let mut serve = None;
    let mut watchdog = None;
    if obs.is_enabled() {
        let sink = cli_value("--flight-dump")
            .or_else(|| {
                std::env::var("CASA_FLIGHT_DUMP")
                    .ok()
                    .filter(|s| !s.is_empty())
            })
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("casa_flight_dump.json"));
        obs.set_flight_sink(Some(sink));
        obs.install_panic_hook();
        if let Some(addr) = serve_addr {
            let handle = obs
                .serve(&addr)
                .unwrap_or_else(|e| panic!("--serve {addr}: {e}"));
            let bound = handle.local_addr();
            println!("serving telemetry on {bound}");
            if let Some(path) = cli_value("--serve-addr-file") {
                std::fs::write(&path, format!("{bound}\n"))
                    .unwrap_or_else(|e| panic!("--serve-addr-file {path}: {e}"));
            }
            serve = Some(handle);
        }
        if let Some(ms) = casa_obs::watchdog_ms_from_env() {
            watchdog = obs.start_watchdog(casa_obs::WatchdogConfig::new(Duration::from_millis(ms)));
        }
    }
    CliObs {
        obs,
        trace_out,
        serve,
        watchdog,
    }
}

impl CliObs {
    /// When instrumentation is on, write the collected span timeline
    /// as Chrome `trace_event` JSON and return the path written.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written (experiment drivers want
    /// loud failures).
    pub fn finish(&self) -> Option<PathBuf> {
        if !self.obs.is_enabled() {
            return None;
        }
        let path = self
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from("casa_trace.json"));
        let json = chrome_trace_json(&self.obs.events());
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        Some(path)
    }

    /// With `--serve` and `--serve-linger-ms <ms>`, keep the process
    /// (and its telemetry endpoints) alive after the work is done so a
    /// scraper can collect the final state — until a client requests
    /// `/quitquitquit` or the linger window closes, whichever comes
    /// first. A no-op without both flags.
    pub fn linger(&self) {
        let (Some(server), Some(ms)) = (&self.serve, cli_value("--serve-linger-ms")) else {
            return;
        };
        let ms: u64 = ms.parse().expect("--serve-linger-ms takes milliseconds");
        eprintln!(
            "lingering up to {ms} ms for a scraper on {} (GET /quitquitquit to release)",
            server.local_addr()
        );
        server.wait_quit(Duration::from_millis(ms));
    }
}

/// Compile `spec`, optionally scaling loop trip counts by `scale`,
/// and record one execution with `seed`.
///
/// # Panics
///
/// Panics if the walk fails (spec bug) — experiment drivers want a
/// loud failure, not a `Result`.
pub fn prepared(mut spec: BenchmarkSpec, scale: u64, seed: u64) -> PreparedWorkload {
    if scale > 1 {
        spec.scale_trips(scale);
    }
    let name = spec.name.clone();
    let w = spec.compile();
    let walker = Walker::new(&w.program, &w.behaviors);
    let (exec, profile) = walker
        .run(seed)
        .unwrap_or_else(|e| panic!("workload {name} failed to execute: {e}"));
    PreparedWorkload {
        name,
        program: w.program,
        profile,
        exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_workloads::mediabench;

    #[test]
    fn prepares_adpcm() {
        let p = prepared(mediabench::adpcm(), 1, 42);
        assert_eq!(p.name, "adpcm");
        p.exec.check(&p.program).expect("legal");
        assert!(p.profile.total_fetches(&p.program) > 10_000);
    }

    #[test]
    fn scale_lengthens_execution() {
        let a = prepared(mediabench::adpcm(), 1, 42);
        let b = prepared(mediabench::adpcm(), 2, 42);
        assert!(b.profile.total_fetches(&b.program) > a.profile.total_fetches(&a.program));
    }
}
