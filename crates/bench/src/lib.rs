//! # casa-bench — experiment drivers
//!
//! Reproduces every table and figure of the paper's evaluation (§6):
//!
//! * [`experiments::fig4`] — CASA vs. Steinke on MPEG (2 kB
//!   direct-mapped I-cache), parameters as % of Steinke = 100%.
//! * [`experiments::fig5`] — CASA scratchpad vs. Ross preloaded loop
//!   cache, parameters as % of loop cache = 100%.
//! * [`experiments::table1`] — energy (µJ) for all three benchmarks ×
//!   all memory sizes × {SP(CASA), SP(Steinke), LC(Ross)} with
//!   improvement percentages and per-benchmark averages.
//!
//! Run the binaries (`cargo run --release -p casa-bench --bin table1`)
//! for the full tables; the criterion benches under `benches/` measure
//! the same pipelines for the §4 runtime claim.
//!
//! Multi-configuration sweeps go through [`sweep::SweepGrid`], which
//! executes cells on a worker pool (size from `CASA_SWEEP_THREADS`)
//! while keeping the report byte-identical for every worker count —
//! `cargo run --release -p casa-bench --bin sweep` writes the
//! canonical Table-1 sweep to `BENCH_sweep.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod sweep;

pub use experiments::{fig4, fig5, table1};
pub use runner::{prepared, PreparedWorkload};
pub use sweep::{sweep_threads, SweepGrid, SweepReport};
