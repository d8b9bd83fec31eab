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
    "--ts-out",
    "--session-dir",
    "--budget-nodes",
    "--budget-ms",
    "--flight-dump",
    "--out",
    "--det-out",
    "--expect",
    "--expect-spans",
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
/// command line, **or** `--ts-out <path>` asks for the logical-tick
/// time-series (which only the instrumented flows sample);
/// [`CliObs::finish`] then writes the Chrome `trace_event`
/// JSON (open with `chrome://tracing` or Perfetto) to the requested
/// path, defaulting to `casa_trace.json`.
///
/// When instrumentation is on, the flight recorder's dump sink is
/// also wired up — to `--flight-dump <path>` or `CASA_FLIGHT_DUMP`,
/// defaulting to `casa_flight_dump.json` — and a panic hook is
/// installed so a crash leaves the recent-event ring on disk.
#[derive(Debug)]
pub struct CliObs {
    /// The observability handle to thread through the flows.
    pub obs: Obs,
    /// Where `--trace-out` asked the Chrome trace to go.
    pub trace_out: Option<PathBuf>,
}

/// Parse `--trace-out` / `CASA_TRACE` / `--ts-out` / `--flight-dump`
/// / `CASA_FLIGHT_DUMP` from the environment.
pub fn cli_obs() -> CliObs {
    let trace_out = cli_value("--trace-out").map(PathBuf::from);
    let obs = if trace_out.is_some() || cli_value("--ts-out").is_some() {
        Obs::enabled()
    } else {
        Obs::from_env()
    };
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
    }
    CliObs { obs, trace_out }
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
