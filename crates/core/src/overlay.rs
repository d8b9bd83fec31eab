//! Overlay (dynamic copying) extension — the paper's §7 future work:
//! "We intend to extend the approach by considering … dynamic copying
//! (overlay) of memory objects on the scratchpad."
//!
//! The execution is split into **phases**; each phase gets its own
//! scratchpad contents, and changing the contents at a phase boundary
//! costs a DMA transfer (reading the object from main memory and
//! writing it into the scratchpad array). The allocation problem
//! stays an ILP:
//!
//! ```text
//! min  Σ_p [ Σ_i f_ip·(E_SP + (E_hit−E_SP)·l_ip) + ΔE_miss·Σ m_ijp·L_ijp ]
//!      + Σ_p Σ_i K_i·c_ip
//! s.t. Σ_i (1−l_ip)·S_i ≤ C                      ∀p    (capacity, eq. 17 per phase)
//!      c_ip ≥ l_i(p−1) − l_ip,  c_i0 ≥ 1 − l_i0        (copy-in indicators)
//!      L_ijp ≥ l_ip + l_jp − 1                          (tight AND)
//! ```
//!
//! where `K_i = ⌈S_i/4⌉ · (E_mm_word + E_SP)` is object `i`'s DMA
//! energy. The copy indicators can stay continuous: their
//! coefficients are positive, so the solver pins them to the exact
//! `max(0, l_i(p−1) − l_ip)`.

use crate::conflict::ConflictGraph;
use crate::report::EnergyBreakdown;
use casa_energy::EnergyTable;
use casa_ilp::{ConstraintOp, Model, Sense, SolveError, SolveRequest, SolverOptions, Var};
use casa_ir::Program;
use casa_mem::loop_cache::PreloadError;
use casa_mem::{ExecutionTrace, HierarchyConfig, Replayer, SimOutcome};
use casa_trace::layout::PlacementSemantics;
use casa_trace::trace::{form_traces, TraceConfig};
use casa_trace::{Layout, TraceSet};
use serde::{Deserialize, Serialize};

/// How the phase-wise allocation is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverlayMethod {
    /// The exact joint ILP over all phases. Exponential worst case;
    /// practical up to a few dozen memory objects.
    Ilp,
    /// Candidate-set dynamic program: each phase's scratchpad contents
    /// are chosen among the per-phase static optima (computed by the
    /// specialized branch & bound) plus "keep the previous contents";
    /// transitions pay the DMA delta. Scales to hundreds of objects;
    /// exact within that candidate family.
    CandidateDp,
}

/// Result of an overlay allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlayAllocation {
    /// `per_phase[p][i]` — whether object `i` is on the scratchpad
    /// during phase `p`.
    pub per_phase: Vec<Vec<bool>>,
    /// Model-predicted total energy (nJ), including DMA costs.
    pub predicted_energy: f64,
    /// Branch-and-bound nodes used.
    pub solver_nodes: u64,
}

impl OverlayAllocation {
    /// Number of copy-in events across all phase boundaries.
    pub fn copy_ins(&self) -> usize {
        let mut n = 0;
        for p in 0..self.per_phase.len() {
            for i in 0..self.per_phase[p].len() {
                let before = p > 0 && self.per_phase[p - 1][i];
                if self.per_phase[p][i] && !before {
                    n += 1;
                }
            }
        }
        n
    }
}

/// DMA energy of copying object `i` onto the scratchpad once.
fn copy_cost(size: u32, table: &EnergyTable) -> f64 {
    f64::from(size.div_ceil(4)) * (table.mm_word + table.spm_access)
}

/// Exactly solve the phase-wise overlay allocation.
///
/// `graphs[p]` is the conflict graph profiled over phase `p`; all
/// phases must describe the same object universe (equal lengths and
/// sizes).
///
/// # Errors
///
/// Propagates ILP solver failures.
///
/// # Panics
///
/// Panics if `graphs` is empty or phase graphs disagree on the number
/// of objects.
#[allow(clippy::needless_range_loop)] // phase/object grids indexed together
pub fn allocate_overlay(
    graphs: &[ConflictGraph],
    table: &EnergyTable,
    capacity: u32,
    options: &SolverOptions,
) -> Result<OverlayAllocation, SolveError> {
    assert!(!graphs.is_empty(), "need at least one phase");
    let n = graphs[0].len();
    for g in graphs {
        assert_eq!(g.len(), n, "phase graphs must share the object universe");
    }
    let phases = graphs.len();
    let premium = table.miss_premium();

    let mut ilp = Model::new(Sense::Minimize);
    let l: Vec<Vec<Var>> = (0..phases)
        .map(|p| (0..n).map(|i| ilp.binary(format!("l{i}_p{p}"))).collect())
        .collect();
    let c: Vec<Vec<Var>> = (0..phases)
        .map(|p| {
            (0..n)
                .map(|i| ilp.continuous(format!("c{i}_p{p}"), 0.0, 1.0))
                .collect()
        })
        .collect();

    let mut objective: Vec<(Var, f64)> = Vec::new();
    let mut constant = 0.0;
    for (p, g) in graphs.iter().enumerate() {
        let mut linear = vec![0.0f64; n];
        for i in 0..n {
            let f = g.fetches_of(i) as f64;
            constant += f * table.spm_access;
            linear[i] += f * (table.cache_hit - table.spm_access);
        }
        use std::collections::HashMap;
        let mut pair_weight: HashMap<(usize, usize), f64> = HashMap::new();
        for ((i, j), m) in g.edges() {
            if i == j {
                linear[i] += m as f64 * premium;
            } else {
                *pair_weight.entry((i.min(j), i.max(j))).or_insert(0.0) += m as f64 * premium;
            }
        }
        for i in 0..n {
            if linear[i] != 0.0 {
                objective.push((l[p][i], linear[i]));
            }
            objective.push((c[p][i], copy_cost(g.size_of(i), table)));
        }
        let mut pairs: Vec<_> = pair_weight.into_iter().collect();
        pairs.sort_by_key(|a| a.0);
        for ((i, j), w) in pairs {
            let big_l = ilp.continuous(format!("L{i}_{j}_p{p}"), 0.0, 1.0);
            objective.push((big_l, w));
            ilp.add_constraint(
                [(l[p][i], 1.0), (l[p][j], 1.0), (big_l, -1.0)],
                ConstraintOp::Le,
                1.0,
            );
        }
        // Capacity per phase (eq. 17 repeated).
        let total: f64 = (0..n).map(|i| f64::from(g.size_of(i))).sum();
        ilp.add_constraint(
            (0..n).map(|i| (l[p][i], f64::from(g.size_of(i)))),
            ConstraintOp::Ge,
            total - f64::from(capacity),
        );
        // Copy-in indicators.
        for i in 0..n {
            if p == 0 {
                // c >= 1 - l  ⟺  l + c >= 1.
                ilp.add_constraint([(l[0][i], 1.0), (c[0][i], 1.0)], ConstraintOp::Ge, 1.0);
            } else {
                // c >= l_prev - l  ⟺  l - l_prev + c >= 0.
                ilp.add_constraint(
                    [(l[p][i], 1.0), (l[p - 1][i], -1.0), (c[p][i], 1.0)],
                    ConstraintOp::Ge,
                    0.0,
                );
            }
        }
    }
    ilp.set_objective(objective);
    ilp.add_objective_constant(constant);

    let sol = SolveRequest::new(&ilp).options(*options).solve()?.solution;
    let per_phase: Vec<Vec<bool>> = (0..phases)
        .map(|p| (0..n).map(|i| !sol.bool_value(l[p][i])).collect())
        .collect();
    Ok(OverlayAllocation {
        per_phase,
        predicted_energy: sol.objective(),
        solver_nodes: sol.nodes(),
    })
}

/// Candidate-set dynamic program over phases (see
/// [`OverlayMethod::CandidateDp`]).
///
/// Candidates per phase: the static CASA optimum of every phase's
/// graph (so `P` candidate sets), evaluated under each phase's own
/// graph; the DP picks the contents sequence minimizing phase energy
/// plus DMA deltas.
///
/// # Panics
///
/// Panics if `graphs` is empty or phase graphs disagree on the number
/// of objects.
pub fn allocate_overlay_dp(
    graphs: &[ConflictGraph],
    table: &EnergyTable,
    capacity: u32,
) -> OverlayAllocation {
    use crate::casa_bb::allocate_bb;
    use crate::energy_model::EnergyModel;
    assert!(!graphs.is_empty(), "need at least one phase");
    let n = graphs[0].len();
    for g in graphs {
        assert_eq!(g.len(), n, "phase graphs must share the object universe");
    }
    let phases = graphs.len();

    // Candidate contents: the per-phase static optima (deduplicated).
    let mut candidates: Vec<Vec<bool>> = Vec::new();
    let mut nodes = 0u64;
    for g in graphs {
        let model = EnergyModel::new(g, table);
        let a = allocate_bb(&model, capacity);
        nodes += a.solver_nodes;
        if !candidates.contains(&a.on_spm) {
            candidates.push(a.on_spm);
        }
    }
    let c = candidates.len();

    // Phase energy of candidate k under phase p's graph.
    let phase_energy: Vec<Vec<f64>> = graphs
        .iter()
        .map(|g| {
            let model = EnergyModel::new(g, table);
            candidates
                .iter()
                .map(|set| model.total_energy(set))
                .collect()
        })
        .collect();
    // DMA cost of switching candidate a -> b (objects newly on SPM).
    let switch_cost = |from: Option<usize>, to: usize| -> f64 {
        candidates[to]
            .iter()
            .enumerate()
            .filter(|&(i, &on)| on && !from.map(|f| candidates[f][i]).unwrap_or(false))
            .map(|(i, _)| copy_cost(graphs[0].size_of(i), table))
            .sum()
    };

    // DP over (phase, candidate).
    let mut cost = vec![vec![f64::INFINITY; c]; phases];
    let mut back = vec![vec![usize::MAX; c]; phases];
    for k in 0..c {
        cost[0][k] = switch_cost(None, k) + phase_energy[0][k];
    }
    for p in 1..phases {
        for k in 0..c {
            for prev in 0..c {
                let step = cost[p - 1][prev]
                    + if prev == k {
                        0.0
                    } else {
                        switch_cost(Some(prev), k)
                    }
                    + phase_energy[p][k];
                if step < cost[p][k] {
                    cost[p][k] = step;
                    back[p][k] = prev;
                }
            }
        }
    }
    let (mut best_k, best_cost) = cost[phases - 1]
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(k, &v)| (k, v))
        .expect("at least one candidate");
    let mut chosen = vec![0usize; phases];
    for p in (0..phases).rev() {
        chosen[p] = best_k;
        if p > 0 {
            best_k = back[p][best_k];
        }
    }
    OverlayAllocation {
        per_phase: chosen.iter().map(|&k| candidates[k].clone()).collect(),
        predicted_energy: best_cost,
        solver_nodes: nodes,
    }
}

/// Everything one overlay run produces.
#[derive(Debug, Clone)]
pub struct OverlayReport {
    /// The trace partition.
    pub traces: TraceSet,
    /// The chosen phase-wise allocation.
    pub allocation: OverlayAllocation,
    /// Final simulation (all phases, DMA charged). It only counts: its
    /// `conflicts` are empty.
    pub final_sim: SimOutcome,
    /// Per-event energies used.
    pub energy_table: EnergyTable,
    /// Component energy breakdown (includes
    /// [`EnergyBreakdown::overlay_copy_energy`]).
    pub breakdown: EnergyBreakdown,
    /// Phase boundaries as indices into the execution's block
    /// sequence.
    pub boundaries: Vec<usize>,
}

impl OverlayReport {
    /// Total instruction-memory energy in µJ.
    pub fn energy_uj(&self) -> f64 {
        self.breakdown.total_uj()
    }
}

/// Errors of the overlay workflow.
#[derive(Debug)]
pub enum OverlayError {
    /// ILP failure.
    Solve(SolveError),
    /// Hierarchy construction failure.
    Preload(PreloadError),
}

impl std::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlayError::Solve(e) => write!(f, "overlay ILP failed: {e}"),
            OverlayError::Preload(e) => write!(f, "hierarchy construction failed: {e}"),
        }
    }
}

impl std::error::Error for OverlayError {}

/// Run the overlay workflow: split `exec` into `phases` equal windows,
/// profile each, solve the phase-wise ILP and re-simulate with DMA
/// transfers at the boundaries.
///
/// # Errors
///
/// See [`OverlayError`].
///
/// # Panics
///
/// Panics if `phases == 0` or `exec` is empty.
#[allow(clippy::too_many_arguments)]
pub fn run_overlay_flow(
    program: &Program,
    profile: &casa_ir::Profile,
    exec: &ExecutionTrace,
    cache: casa_mem::cache::CacheConfig,
    spm_size: u32,
    phases: usize,
    method: OverlayMethod,
    tech: &casa_energy::TechParams,
    options: &SolverOptions,
) -> Result<OverlayReport, OverlayError> {
    assert!(phases > 0, "need at least one phase");
    assert!(!exec.is_empty(), "empty execution");
    let line = cache.line_size;
    let traces = form_traces(
        program,
        profile,
        TraceConfig::new(spm_size.max(line), line),
        &casa_obs::Obs::disabled(),
    );
    let layout0 = Layout::initial(program, &traces);
    let cfg = HierarchyConfig::spm_system(cache, spm_size);
    let table = EnergyTable::build(cache.size, line, cache.associativity, spm_size, None, tech);

    // Phase boundaries: equal block-count windows.
    let len = exec.len();
    let mut boundaries: Vec<usize> = (0..=phases).map(|p| p * len / phases).collect();
    boundaries.dedup();
    let windows: Vec<std::ops::Range<usize>> = boundaries.windows(2).map(|w| w[0]..w[1]).collect();

    // Profile each phase separately (fresh cache per phase: the
    // conservative per-phase conflict view).
    let mut graphs = Vec::with_capacity(windows.len());
    for w in &windows {
        let mut session = Replayer::attributing(&traces, &cfg).map_err(OverlayError::Preload)?;
        session.replay(program, &traces, &layout0, exec, w.clone());
        let out = session.into_attributed();
        graphs.push(ConflictGraph::from_simulation(&traces, &out));
    }

    let allocation = match method {
        OverlayMethod::Ilp => {
            allocate_overlay(&graphs, &table, spm_size, options).map_err(OverlayError::Solve)?
        }
        OverlayMethod::CandidateDp => allocate_overlay_dp(&graphs, &table, spm_size),
    };

    // Final run: one persistent memory system, layouts switched at
    // boundaries, DMA charged for every copy-in.
    let mut session = Replayer::new(&traces, &cfg).map_err(OverlayError::Preload)?;
    let mut prev: Vec<bool> = vec![false; traces.len()];
    for (p, w) in windows.iter().enumerate() {
        let on_spm = &allocation.per_phase[p];
        let placement: Vec<Option<u8>> = on_spm
            .iter()
            .map(|&b| if b { Some(0) } else { None })
            .collect();
        let layout = Layout::with_placement(program, &traces, &placement, PlacementSemantics::Copy);
        for (i, t) in traces.traces().iter().enumerate() {
            if on_spm[i] && !prev[i] {
                session.charge_copy_words(u64::from(t.code_size().div_ceil(4)));
            }
        }
        prev = on_spm.clone();
        session.replay(program, &traces, &layout, exec, w.clone());
    }
    let final_sim = session.into_outcome();
    let breakdown = EnergyBreakdown::from_stats(&final_sim.stats, &table, false);

    Ok(OverlayReport {
        traces,
        allocation,
        final_sim,
        energy_table: table,
        breakdown,
        boundaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn table() -> EnergyTable {
        EnergyTable {
            cache_hit: 1.0,
            cache_miss: 101.0,
            spm_access: 0.4,
            lc_access: 0.0,
            lc_controller: 0.0,
            mm_word: 24.0,
            l2_access: 0.0,
        }
    }

    fn graph(fetches: Vec<u64>, sizes: Vec<u32>) -> ConflictGraph {
        ConflictGraph::from_parts(fetches, sizes, HashMap::new())
    }

    #[test]
    fn phased_hotness_swaps_contents() {
        // Object 0 hot in phase 0, object 1 hot in phase 1; room for
        // exactly one. The overlay should swap.
        let g0 = graph(vec![100_000, 10], vec![64, 64]);
        let g1 = graph(vec![10, 100_000], vec![64, 64]);
        let a = allocate_overlay(&[g0, g1], &table(), 64, &SolverOptions::default()).unwrap();
        assert_eq!(a.per_phase[0], vec![true, false]);
        assert_eq!(a.per_phase[1], vec![false, true]);
        assert_eq!(a.copy_ins(), 2);
    }

    #[test]
    fn dma_cost_prevents_pointless_swaps() {
        // Both objects mildly hot; swapping would cost more DMA than
        // it saves, so contents stay put.
        let g0 = graph(vec![60, 50], vec![64, 64]);
        let g1 = graph(vec![50, 60], vec![64, 64]);
        let a = allocate_overlay(&[g0, g1], &table(), 64, &SolverOptions::default()).unwrap();
        assert_eq!(
            a.per_phase[0], a.per_phase[1],
            "tiny fetch deltas cannot amortize a DMA transfer"
        );
        assert!(a.copy_ins() <= 1);
    }

    #[test]
    fn single_phase_matches_static_casa() {
        use crate::casa_bb::allocate_bb;
        use crate::energy_model::EnergyModel;
        let mut edges = HashMap::new();
        edges.insert((0, 1), 500u64);
        edges.insert((1, 0), 500u64);
        let g = ConflictGraph::from_parts(vec![1000, 1000, 3000], vec![64, 64, 64], edges);
        let t = table();
        let overlay =
            allocate_overlay(std::slice::from_ref(&g), &t, 64, &SolverOptions::default()).unwrap();
        let model = EnergyModel::new(&g, &t);
        let stat = allocate_bb(&model, 64);
        // Equally good chosen set (the instance is symmetric in
        // objects 0 and 1, so the *sets* may differ); the overlay's
        // energy is the static optimum plus the one-time DMA.
        let model_energy = model.total_energy(&overlay.per_phase[0]);
        assert!(
            (model_energy - stat.predicted_energy.unwrap()).abs() < 1e-6,
            "overlay phase-0 set must be statically optimal: {} vs {:?}",
            model_energy,
            stat.predicted_energy
        );
        let dma: f64 = (0..g.len())
            .filter(|&i| overlay.per_phase[0][i])
            .map(|i| copy_cost(g.size_of(i), &t))
            .sum();
        assert!((overlay.predicted_energy - (stat.predicted_energy.unwrap() + dma)).abs() < 1e-6);
    }

    #[test]
    fn capacity_respected_every_phase() {
        let g0 = graph(vec![500, 400, 300], vec![40, 40, 40]);
        let g1 = graph(vec![300, 400, 500], vec![40, 40, 40]);
        let a =
            allocate_overlay(&[g0.clone(), g1], &table(), 80, &SolverOptions::default()).unwrap();
        for phase in &a.per_phase {
            let used: u32 = (0..3).filter(|&i| phase[i]).map(|i| g0.size_of(i)).sum();
            assert!(used <= 80);
        }
    }

    #[test]
    fn dp_never_beats_ilp_and_swaps_when_profitable() {
        // Same phased-hotness instance as the ILP test.
        let g0 = graph(vec![100_000, 10], vec![64, 64]);
        let g1 = graph(vec![10, 100_000], vec![64, 64]);
        let t = table();
        let ilp =
            allocate_overlay(&[g0.clone(), g1.clone()], &t, 64, &SolverOptions::default()).unwrap();
        let dp = allocate_overlay_dp(&[g0, g1], &t, 64);
        assert!(
            dp.predicted_energy >= ilp.predicted_energy - 1e-6,
            "DP {} cannot beat the exact ILP {}",
            dp.predicted_energy,
            ilp.predicted_energy
        );
        // On this instance the candidates are exactly the per-phase
        // optima, so the DP matches the ILP.
        assert!((dp.predicted_energy - ilp.predicted_energy).abs() < 1e-6);
        assert_eq!(dp.per_phase[0], vec![true, false]);
        assert_eq!(dp.per_phase[1], vec![false, true]);
    }

    #[test]
    fn dp_keeps_contents_when_switching_does_not_pay() {
        let g0 = graph(vec![60, 50], vec![64, 64]);
        let g1 = graph(vec![50, 60], vec![64, 64]);
        let dp = allocate_overlay_dp(&[g0, g1], &table(), 64);
        assert_eq!(dp.per_phase[0], dp.per_phase[1]);
    }

    #[test]
    #[should_panic(expected = "share the object universe")]
    fn mismatched_phases_panic() {
        let g0 = graph(vec![1], vec![4]);
        let g1 = graph(vec![1, 2], vec![4, 4]);
        let _ = allocate_overlay(&[g0, g1], &table(), 64, &SolverOptions::default());
    }
}
