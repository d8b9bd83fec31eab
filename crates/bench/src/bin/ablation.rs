//! Ablation sweep across techniques on every benchmark:
//! baseline (cache only), cache-aware code placement (no SPM),
//! Steinke, CASA-greedy, CASA-exact, and overlay.
//!
//! Usage: `cargo run --release -p casa-bench --bin ablation [scale]
//!         [--trace-out <path>]`
//!
//! `--trace-out <path>` (or `CASA_TRACE=1`) instruments the SPM flows
//! and writes a Chrome `trace_event` timeline.

use casa_bench::experiments::{paper_sizes, LINE_SIZE};
use casa_bench::runner::{cli_obs, cli_scale, prepared};
use casa_core::flow::{run_spm_flow, AllocatorKind, FlowConfig, FlowCtx};
use casa_core::overlay::{run_overlay_flow, OverlayMethod};
use casa_core::placement::run_placement_flow;
use casa_energy::TechParams;
use casa_ilp::SolverOptions;
use casa_mem::cache::CacheConfig;
use casa_workloads::mediabench;

fn main() {
    let scale = cli_scale();
    let cli = cli_obs();
    println!("Ablation — instruction-memory energy (µJ), mid-size SPM per benchmark\n");
    println!(
        "{:<8} {:>10} {:>11} {:>10} {:>10} {:>10} {:>10}",
        "bench", "baseline", "placement", "Steinke", "greedy", "CASA", "overlay4"
    );
    for spec in mediabench::all() {
        let name = spec.name.clone();
        let (cache_size, sizes) = paper_sizes(&name);
        let spm = sizes[sizes.len() / 2];
        let w = prepared(spec, scale, 2004);
        let cache = CacheConfig::direct_mapped(cache_size, LINE_SIZE);
        let run = |alloc| {
            run_spm_flow(
                &w.program,
                &w.profile,
                &w.exec,
                &FlowConfig {
                    cache,
                    spm_size: spm,
                    allocator: alloc,
                    tech: TechParams::default(),
                    trace_cap: None,
                },
                &FlowCtx::observed(&cli.obs),
            )
            .expect("flow")
            .energy_uj()
        };
        let baseline = run(AllocatorKind::None);
        let steinke = run(AllocatorKind::Steinke);
        let greedy = run(AllocatorKind::CasaGreedy);
        let casa = run(AllocatorKind::CasaBb);
        let placement = run_placement_flow(
            &w.program,
            &w.profile,
            &w.exec,
            cache,
            &TechParams::default(),
        )
        .expect("placement flow")
        .energy_uj();
        let overlay = run_overlay_flow(
            &w.program,
            &w.profile,
            &w.exec,
            cache,
            spm,
            4,
            OverlayMethod::CandidateDp,
            &TechParams::default(),
            &SolverOptions::default(),
        )
        .map(|r| r.energy_uj());
        let overlay_str = match overlay {
            Ok(e) => format!("{e:>10.2}"),
            Err(_) => format!("{:>10}", "n/a"),
        };
        println!(
            "{name:<8} {baseline:>10.2} {placement:>11.2} {steinke:>10.2} {greedy:>10.2} {casa:>10.2} {overlay_str}"
        );
    }
    println!("\nplacement = conflict-aware trace reordering, no scratchpad (own trace");
    println!("            granularity: cache-sized, vs. SPM-sized elsewhere; falls back");
    println!("            to program order when reordering does not cut misses);");
    println!("overlay4  = CASA with dynamic copying across 4 execution phases.");
    if let Some(path) = cli.finish() {
        println!("wrote Chrome trace to {}", path.display());
    }
}
