//! The paper's experiments, one function per table/figure.

use crate::runner::PreparedWorkload;
use casa_core::flow::{
    allocate_spm, profile_spm, run_loop_cache_flow, run_spm_flow, AllocatorKind, FlowConfig,
    FlowCtx, FlowReport, LoopCacheConfig,
};
use casa_energy::TechParams;
use casa_mem::cache::CacheConfig;
use casa_obs::Obs;
use serde::{Deserialize, Serialize};

/// Loop-cache comparator slots assumed throughout (paper §5: "maximum
/// of 4 loops").
pub const LOOP_CACHE_SLOTS: usize = 4;
/// Cache line size used by every experiment.
pub const LINE_SIZE: u32 = 16;

fn spm_config(cache_size: u32, spm_size: u32, allocator: AllocatorKind) -> FlowConfig {
    FlowConfig {
        cache: CacheConfig::direct_mapped(cache_size, LINE_SIZE),
        spm_size,
        allocator,
        tech: TechParams::default(),
        trace_cap: None,
    }
}

/// Run one SPM flow, panicking on failure (experiment drivers want
/// loud failures).
fn spm_flow(w: &PreparedWorkload, cache_size: u32, spm: u32, alloc: AllocatorKind) -> FlowReport {
    run_spm_flow(
        &w.program,
        &w.profile,
        &w.exec,
        &spm_config(cache_size, spm, alloc),
        &FlowCtx::default(),
    )
    .unwrap_or_else(|e| panic!("{} spm flow failed: {e}", w.name))
}

/// CASA and Steinke on one scratchpad size, allocated on one shared
/// profile (fig. 3: profile once, then allocate), panicking on failure.
fn casa_and_steinke(
    w: &PreparedWorkload,
    cache_size: u32,
    spm: u32,
    obs: &Obs,
) -> (FlowReport, FlowReport) {
    let casa = spm_config(cache_size, spm, AllocatorKind::CasaBb);
    let steinke = FlowConfig {
        allocator: AllocatorKind::Steinke,
        ..casa
    };
    let prof = profile_spm(&w.program, &w.profile, &w.exec, &casa, obs)
        .unwrap_or_else(|e| panic!("{} spm profile failed: {e}", w.name));
    let allocate = |config: &FlowConfig| {
        allocate_spm(&w.program, &prof, config, &FlowCtx::observed(obs))
            .unwrap_or_else(|e| panic!("{} spm flow failed: {e}", w.name))
    };
    (allocate(&casa), allocate(&steinke))
}

fn lc_flow(w: &PreparedWorkload, cache_size: u32, capacity: u32) -> FlowReport {
    lc_flow_obs(w, cache_size, capacity, &Obs::disabled())
}

fn lc_flow_obs(w: &PreparedWorkload, cache_size: u32, capacity: u32, obs: &Obs) -> FlowReport {
    run_loop_cache_flow(
        &w.program,
        &w.profile,
        &w.exec,
        &LoopCacheConfig::new(
            CacheConfig::direct_mapped(cache_size, LINE_SIZE),
            capacity,
            LOOP_CACHE_SLOTS,
        ),
        &FlowCtx::observed(obs),
    )
    .unwrap_or_else(|e| panic!("{} loop-cache flow failed: {e}", w.name))
}

/// One row of figure 4: CASA's parameters as a percentage of
/// Steinke's (= 100%).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Scratchpad size in bytes.
    pub spm_size: u32,
    /// Scratchpad accesses, % of Steinke.
    pub spm_accesses_pct: f64,
    /// I-cache accesses, % of Steinke.
    pub cache_accesses_pct: f64,
    /// I-cache misses, % of Steinke.
    pub cache_misses_pct: f64,
    /// Energy, % of Steinke.
    pub energy_pct: f64,
}

fn pct(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        if a == 0.0 {
            100.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * a / b
    }
}

/// Figure 4: CASA vs. Steinke on MPEG with a 2 kB direct-mapped
/// I-cache, scratchpad sizes swept.
pub fn fig4(w: &PreparedWorkload, cache_size: u32, spm_sizes: &[u32]) -> Vec<Fig4Row> {
    spm_sizes
        .iter()
        .map(|&spm| {
            let (casa, steinke) = casa_and_steinke(w, cache_size, spm, &Obs::disabled());
            let (cs, ss) = (&casa.final_sim.stats, &steinke.final_sim.stats);
            Fig4Row {
                spm_size: spm,
                spm_accesses_pct: pct(cs.spm_accesses as f64, ss.spm_accesses as f64),
                cache_accesses_pct: pct(cs.cache_accesses as f64, ss.cache_accesses as f64),
                cache_misses_pct: pct(cs.cache_misses as f64, ss.cache_misses as f64),
                energy_pct: pct(casa.breakdown.total_nj, steinke.breakdown.total_nj),
            }
        })
        .collect()
}

/// One row of figure 5: the CASA scratchpad's parameters as a
/// percentage of the preloaded loop cache's (= 100%).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// SPM / loop-cache size in bytes.
    pub size: u32,
    /// SPM accesses as % of loop-cache accesses.
    pub local_accesses_pct: f64,
    /// I-cache accesses, % of the loop-cache system's.
    pub cache_accesses_pct: f64,
    /// I-cache misses, % of the loop-cache system's.
    pub cache_misses_pct: f64,
    /// Energy, % of the loop-cache system's.
    pub energy_pct: f64,
}

/// Figure 5: scratchpad + CASA vs. loop cache + Ross at equal sizes.
pub fn fig5(w: &PreparedWorkload, cache_size: u32, sizes: &[u32]) -> Vec<Fig5Row> {
    sizes
        .iter()
        .map(|&size| {
            let casa = spm_flow(w, cache_size, size, AllocatorKind::CasaBb);
            let lc = lc_flow(w, cache_size, size);
            let (cs, ls) = (&casa.final_sim.stats, &lc.final_sim.stats);
            Fig5Row {
                size,
                local_accesses_pct: pct(cs.spm_accesses as f64, ls.loop_cache_accesses as f64),
                cache_accesses_pct: pct(cs.cache_accesses as f64, ls.cache_accesses as f64),
                cache_misses_pct: pct(cs.cache_misses as f64, ls.cache_misses as f64),
                energy_pct: pct(casa.breakdown.total_nj, lc.breakdown.total_nj),
            }
        })
        .collect()
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Scratchpad / loop-cache size in bytes.
    pub mem_size: u32,
    /// Energy (µJ) of scratchpad + CASA.
    pub sp_casa_uj: f64,
    /// Energy (µJ) of scratchpad + Steinke.
    pub sp_steinke_uj: f64,
    /// Energy (µJ) of loop cache + Ross.
    pub lc_ross_uj: f64,
    /// CASA allocator wall time (for the §4 "< 1 s" claim), seconds.
    pub casa_solver_secs: f64,
}

impl Table1Row {
    /// Improvement of CASA over Steinke, % (positive = CASA better).
    pub fn casa_vs_steinke_pct(&self) -> f64 {
        100.0 * (1.0 - self.sp_casa_uj / self.sp_steinke_uj)
    }

    /// Improvement of SP(CASA) over LC(Ross), %.
    pub fn casa_vs_lc_pct(&self) -> f64 {
        100.0 * (1.0 - self.sp_casa_uj / self.lc_ross_uj)
    }
}

/// Per-benchmark block of Table 1: all sizes plus the averages the
/// paper prints under each block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Block {
    /// Rows, one per memory size.
    pub rows: Vec<Table1Row>,
}

impl Table1Block {
    /// Average CASA-vs-Steinke improvement over the block.
    pub fn avg_vs_steinke(&self) -> f64 {
        self.rows
            .iter()
            .map(Table1Row::casa_vs_steinke_pct)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Average CASA-vs-loop-cache improvement over the block.
    pub fn avg_vs_lc(&self) -> f64 {
        self.rows.iter().map(Table1Row::casa_vs_lc_pct).sum::<f64>() / self.rows.len() as f64
    }
}

/// Table 1 for one benchmark: `cache_size` per the paper (2 kB mpeg,
/// 1 kB g721, 128 B adpcm), `sizes` are the SPM/LC sizes of the rows.
pub fn table1(w: &PreparedWorkload, cache_size: u32, sizes: &[u32]) -> Table1Block {
    table1_obs(w, cache_size, sizes, &Obs::disabled())
}

/// [`table1`] with observability: every flow of every row runs
/// instrumented against `obs`, so a `--trace-out` run of the table1
/// binary yields a span timeline covering all 3×N×3 flows. A row's
/// CASA and Steinke flows share one profile.
pub fn table1_obs(w: &PreparedWorkload, cache_size: u32, sizes: &[u32], obs: &Obs) -> Table1Block {
    let rows = sizes
        .iter()
        .map(|&size| {
            let (casa, steinke) = casa_and_steinke(w, cache_size, size, obs);
            let lc = lc_flow_obs(w, cache_size, size, obs);
            Table1Row {
                benchmark: w.name.clone(),
                mem_size: size,
                sp_casa_uj: casa.energy_uj(),
                sp_steinke_uj: steinke.energy_uj(),
                lc_ross_uj: lc.energy_uj(),
                casa_solver_secs: casa.solver_time.as_secs_f64(),
            }
        })
        .collect();
    Table1Block { rows }
}

/// The paper's memory sizes per benchmark (Table 1).
pub fn paper_sizes(benchmark: &str) -> (u32, Vec<u32>) {
    match benchmark {
        "adpcm" => (128, vec![64, 128, 256]),
        "g721" => (1024, vec![128, 256, 512, 1024]),
        "mpeg" => (2048, vec![128, 256, 512, 1024]),
        other => panic!("unknown benchmark {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::prepared;
    use casa_workloads::mediabench;

    #[test]
    fn fig4_shape_on_adpcm() {
        // Use the small benchmark for test speed; the inversion the
        // paper highlights (CASA: more cache accesses, fewer misses,
        // less energy) must show at some size.
        let w = prepared(mediabench::adpcm(), 1, 2004);
        let rows = fig4(&w, 128, &[64, 128, 256]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.energy_pct.is_finite());
            assert!(r.cache_misses_pct.is_finite());
        }
        // CASA never loses by much, and wins somewhere.
        assert!(
            rows.iter().any(|r| r.energy_pct < 100.0),
            "CASA should beat Steinke at some size: {rows:?}"
        );
    }

    #[test]
    fn table1_adpcm_block() {
        // Seed 2004 is the canonical experiment seed used by the
        // drivers; allocation quality is (mildly) execution-dependent,
        // exactly as the paper's own negative rows show.
        let w = prepared(mediabench::adpcm(), 1, 2004);
        let (cache, sizes) = paper_sizes("adpcm");
        let block = table1(&w, cache, &sizes);
        assert_eq!(block.rows.len(), 3);
        for r in &block.rows {
            assert!(r.sp_casa_uj > 0.0);
            assert!(r.sp_steinke_uj > 0.0);
            assert!(r.lc_ross_uj > 0.0);
            // §4 runtime claim at this scale.
            assert!(r.casa_solver_secs < 1.0);
        }
        // CASA's exactness is a *model* theorem: evaluated on the
        // profiled conflict graph, its allocation never loses to
        // Steinke's. In simulation individual rows can flip either
        // way (the paper's own adpcm@64 row is -4.2 %): attribution
        // chains under heavy cache pressure make the model optimistic
        // and Steinke's move semantics compacts the main-memory
        // layout, so the sign of the simulated average depends on the
        // recorded execution. Assert the theorem exactly, and bound
        // the simulation drift.
        use casa_core::energy_model::EnergyModel;
        for &size in &sizes {
            let casa = spm_flow(&w, cache, size, AllocatorKind::CasaBb);
            let steinke = spm_flow(&w, cache, size, AllocatorKind::Steinke);
            let model = EnergyModel::new(&casa.conflict_graph, &casa.energy_table);
            let e_casa = model.total_energy(&casa.allocation.on_spm);
            let e_steinke = model.total_energy(&steinke.allocation.on_spm);
            assert!(
                e_casa <= e_steinke + 1e-9,
                "CASA must be model-optimal at spm {size}: {e_casa} vs {e_steinke}"
            );
        }
        // Paper shape: at the largest size the scratchpad finally
        // covers the thrashing working set and CASA crushes the
        // cache-only baseline.
        let largest = *sizes.last().unwrap();
        let base = spm_flow(&w, cache, largest, AllocatorKind::None);
        let casa = spm_flow(&w, cache, largest, AllocatorKind::CasaBb);
        assert!(
            casa.energy_uj() * 5.0 < base.energy_uj(),
            "CASA at spm {largest} must beat the baseline by 5x: {} vs {}",
            casa.energy_uj(),
            base.energy_uj()
        );
        // Simulated CASA-vs-Steinke average stays within the
        // documented model/simulation gap.
        assert!(
            block.avg_vs_steinke() > -15.0,
            "simulation drift out of range, block: {:?}",
            block
                .rows
                .iter()
                .map(Table1Row::casa_vs_steinke_pct)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fig5_loop_cache_loses_at_large_sizes() {
        // adpcm for speed; the paper's fig. 5 mechanism — the 4-object
        // limit binds as sizes grow — is benchmark-independent.
        let w = prepared(mediabench::adpcm(), 1, 2004);
        let rows = fig5(&w, 128, &[64, 128, 256]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.energy_pct.is_finite());
        }
        // The largest size shows the clearest SPM win.
        let last = rows.last().unwrap();
        assert!(
            last.energy_pct < 100.0,
            "SPM must beat the loop cache at the largest size: {rows:?}"
        );
        // And the win grows (or at least does not collapse) with size.
        assert!(
            last.energy_pct <= rows[0].energy_pct + 10.0,
            "loop cache should fall behind as size grows: {rows:?}"
        );
    }

    #[test]
    fn paper_sizes_match_table() {
        assert_eq!(paper_sizes("adpcm"), (128, vec![64, 128, 256]));
        assert_eq!(paper_sizes("mpeg").0, 2048);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        paper_sizes("nope");
    }
}
