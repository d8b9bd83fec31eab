//! The CASA ILP formulation — paper §4, eqs. (7)–(17).
//!
//! Binary location variables `l(x_i)` (0 = scratchpad, 1 = cached),
//! linearization variables `L(x_i,x_j) = l(x_i)·l(x_j)` for every
//! conflict edge, the scratchpad capacity constraint (17), and the
//! objective (16)/(12). Two linearizations are provided:
//!
//! * [`Linearization::Paper`] — the paper's constraints (13)–(15) with
//!   binary `L`;
//! * [`Linearization::Tight`] — the standard AND lower bound
//!   `L ≥ l_i + l_j − 1` with *continuous* `L ∈ [0,1]`, exact under
//!   minimization because every `L` coefficient is positive.
//!
//! Both produce the same optimum (property-tested); `Tight` needs no
//! extra integer variables, so branch & bound explores fewer nodes —
//! the ablation measured by `benches/solver.rs`.
//!
//! Symmetric edge pairs `m_ij`/`m_ji` share one `L` variable with the
//! summed coefficient (mathematically identical to the paper's two
//! directed variables, half the size); self-edges `m_ii` reduce to
//! `l_i` since `l·l = l` for binaries.

use crate::allocation::Allocation;
use crate::energy_model::EnergyModel;
use crate::session::SessionRecorder;
use casa_ilp::engine::{Budget, BudgetKind, SearchRecorder, SolveRequest};
use casa_ilp::model::VarKind;
use casa_ilp::tree::TreeRecorder;
use casa_ilp::{ConstraintOp, Model, Sense, SolveError, SolverOptions, Var};
use casa_obs::Obs;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How the quadratic term is linearized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Linearization {
    /// Paper eqs. (13)–(15): binary `L`, three constraints per edge.
    Paper,
    /// `L ≥ l_i + l_j − 1`, continuous `L`: exact for positive
    /// minimization coefficients, fewer integer variables.
    Tight,
}

/// Build the CASA ILP for `model` and a scratchpad of `capacity`
/// bytes. Returns the ILP, the `l(x_i)` variables in object order, and
/// the linearization variables `L(x_i,x_j)` keyed by unordered object
/// pair — the last two translate a scratchpad set into a full
/// warm-start vector (see [`warm_start_values`]). Exposed separately
/// from [`allocate_ilp`] so tests, benches and the explain layer can
/// inspect the formulation.
#[allow(clippy::needless_range_loop)] // parallel arrays indexed together
#[allow(clippy::type_complexity)] // (model, selection vars, pair vars) is the natural shape
pub fn build_model_parts(
    model: &EnergyModel<'_>,
    capacity: u32,
    lin: Linearization,
) -> (Model, Vec<Var>, Vec<((usize, usize), Var)>) {
    let g = model.graph();
    let t = model.table();
    let n = g.len();
    let premium = t.miss_premium();
    let mut ilp = Model::new(Sense::Minimize);

    let l: Vec<Var> = (0..n).map(|i| ilp.binary(format!("l{i}"))).collect();

    // Objective, eq. (12):
    //   Σ f_i·E_SP                                  (constant)
    // + Σ f_i·(E_hit − E_SP)·l_i                    (linear)
    // + Σ (E_miss − E_hit)·m_ij·L_ij                (quadratic, linearized)
    let mut linear: Vec<f64> = vec![0.0; n];
    let mut constant = 0.0;
    for i in 0..n {
        let f = g.fetches_of(i) as f64;
        constant += f * t.spm_access;
        linear[i] += f * (t.cache_hit - t.spm_access);
    }
    // Merge directed edges into unordered pairs.
    let mut pair_weight: HashMap<(usize, usize), f64> = HashMap::new();
    for ((i, j), m) in g.edges() {
        if i == j {
            // l_i · l_i = l_i.
            linear[i] += m as f64 * premium;
        } else {
            let key = (i.min(j), i.max(j));
            *pair_weight.entry(key).or_insert(0.0) += m as f64 * premium;
        }
    }

    let mut objective: Vec<(Var, f64)> = Vec::with_capacity(n + pair_weight.len());
    for i in 0..n {
        if linear[i] != 0.0 {
            objective.push((l[i], linear[i]));
        }
    }

    let mut pairs: Vec<((usize, usize), f64)> = pair_weight.into_iter().collect();
    pairs.sort_by_key(|a| a.0);
    let mut pair_vars: Vec<((usize, usize), Var)> = Vec::with_capacity(pairs.len());
    for ((i, j), w) in pairs {
        let big_l = match lin {
            Linearization::Paper => ilp.binary(format!("L{i}_{j}")),
            Linearization::Tight => ilp.continuous(format!("L{i}_{j}"), 0.0, 1.0),
        };
        pair_vars.push(((i, j), big_l));
        objective.push((big_l, w));
        match lin {
            Linearization::Paper => {
                // (13) l_i − L ≥ 0, (14) l_j − L ≥ 0,
                // (15) l_i + l_j − 2L ≤ 1.
                ilp.add_constraint([(l[i], 1.0), (big_l, -1.0)], ConstraintOp::Ge, 0.0);
                ilp.add_constraint([(l[j], 1.0), (big_l, -1.0)], ConstraintOp::Ge, 0.0);
                ilp.add_constraint(
                    [(l[i], 1.0), (l[j], 1.0), (big_l, -2.0)],
                    ConstraintOp::Le,
                    1.0,
                );
            }
            Linearization::Tight => {
                // L ≥ l_i + l_j − 1.
                ilp.add_constraint(
                    [(l[i], 1.0), (l[j], 1.0), (big_l, -1.0)],
                    ConstraintOp::Le,
                    1.0,
                );
            }
        }
    }
    ilp.set_objective(objective);
    ilp.add_objective_constant(constant);

    // Capacity, eq. (17): Σ (1 − l_i)·S_i ≤ C  ⟺  Σ S_i·l_i ≥ ΣS − C.
    let total_size: f64 = (0..n).map(|i| f64::from(g.size_of(i))).sum();
    ilp.add_constraint(
        (0..n).map(|i| (l[i], f64::from(g.size_of(i)))),
        ConstraintOp::Ge,
        total_size - f64::from(capacity),
    );

    (ilp, l, pair_vars)
}

/// Translate a scratchpad set into a full assignment of the CASA ILP:
/// `l_i = 1` iff object `i` stays cached, `L_ij = l_i·l_j`. The result
/// is feasible whenever `on_spm` respects the capacity, so it can seed
/// [`SolveRequest::warm_start`].
pub fn warm_start_values(
    ilp: &Model,
    l: &[Var],
    pair_vars: &[((usize, usize), Var)],
    on_spm: &[bool],
) -> Vec<f64> {
    let mut values = vec![0.0; ilp.num_vars()];
    for (i, &v) in l.iter().enumerate() {
        values[v.index()] = if on_spm[i] { 0.0 } else { 1.0 };
    }
    for &((i, j), v) in pair_vars {
        let both_cached = !on_spm[i] && !on_spm[j];
        values[v.index()] = if both_cached { 1.0 } else { 0.0 };
    }
    values
}

/// Solve the CASA allocation exactly via the generic ILP solver. For
/// budgeted, warm-started or recorded solves use
/// [`allocate_ilp_traced`], which this calls with an unlimited budget
/// and nothing captured.
///
/// # Errors
///
/// Propagates solver failures ([`SolveError`]); the formulation itself
/// is always feasible (everything cached satisfies eq. 17).
pub fn allocate_ilp(
    model: &EnergyModel<'_>,
    capacity: u32,
    lin: Linearization,
    options: &SolverOptions,
) -> Result<Allocation, SolveError> {
    allocate_ilp_traced(
        model,
        capacity,
        lin,
        options,
        &Budget::unlimited(),
        None,
        &Obs::disabled(),
        &SessionRecorder::disabled(),
        &TreeRecorder::disabled(),
    )
    .map(|outcome| outcome.allocation)
}

/// Outcome of a budgeted CASA ILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpOutcome {
    /// Best allocation found within the budget.
    pub allocation: Allocation,
    /// Proven absolute optimality gap in energy units (`0.0` when the
    /// search closed).
    pub gap: f64,
    /// Which budget dimension stopped the search, if any.
    pub stopped_by: Option<BudgetKind>,
}

/// Anytime CASA ILP: solve within `budget`, optionally warm-started
/// from a scratchpad set (translated to a full assignment through
/// [`warm_start_values`]; a mis-sized one is ignored). Budget
/// exhaustion with an incumbent returns `Ok` with the proven gap; only
/// incumbent-less exhaustion or real solver trouble is an error.
///
/// Observability: model construction runs under a `solve.ilp.build`
/// span and the search under `solve.ilp`, through the engine
/// ([`SolveRequest::observe`]), so the `ilp.bb.nodes`,
/// `ilp.bb.incumbents` and `ilp.simplex.pivots` counters and the
/// `bb.incumbent` instant events land in `obs`.
///
/// `rec` receives the engine's search log translated into allocation
/// terms — branched variable indices, incumbents as scratchpad sets
/// (through the `l` variables), bound improvements, and the stop
/// disposition — including on error paths, so a failed solve still
/// leaves its partial log behind. `tree` receives the engine's
/// per-node open/branch/prune/incumbent events (see
/// [`casa_ilp::tree`]). Note the orientation difference from the
/// specialized B&B: the ILP minimizes energy, so tree bounds here are
/// energy lower bounds (smaller is better).
///
/// # Errors
///
/// Propagates [`SolveError`] from the engine — see
/// [`SolveRequest::solve`].
#[allow(clippy::too_many_arguments)]
pub fn allocate_ilp_traced(
    model: &EnergyModel<'_>,
    capacity: u32,
    lin: Linearization,
    options: &SolverOptions,
    budget: &Budget,
    warm_start: Option<&[bool]>,
    obs: &Obs,
    rec: &SessionRecorder,
    tree: &TreeRecorder,
) -> Result<IlpOutcome, SolveError> {
    let build_span = obs.span("solve.ilp.build");
    let (ilp, l, pair_vars) = build_model_parts(model, capacity, lin);
    drop(build_span);
    obs.add("ilp.model.vars", ilp.num_vars() as u64);
    obs.add("ilp.model.integer_vars", integer_var_count(&ilp) as u64);
    let solve_span = obs.span("solve.ilp");
    let srec = if rec.is_enabled() {
        SearchRecorder::enabled()
    } else {
        SearchRecorder::disabled()
    };
    let mut request = SolveRequest::new(&ilp)
        .options(*options)
        .budget(budget.clone())
        .observe(obs)
        .record(&srec)
        .trace_tree(tree);
    let warm_values;
    if let Some(ws) = warm_start {
        if ws.len() == l.len() {
            warm_values = warm_start_values(&ilp, &l, &pair_vars, ws);
            request = request.warm_start(&warm_values);
        }
    }
    let result = request.solve();
    if let Some(log) = srec.take() {
        rec.record_order(log.branched);
        for (node, min_obj, values) in log.incumbents {
            // `l[i] = 0` means object i moves to the scratchpad.
            let on_spm: Vec<bool> = l.iter().map(|&v| values[v.index()] < 0.5).collect();
            rec.record_incumbent(node, min_obj, on_spm);
        }
        for (node, bound) in log.bounds {
            rec.record_bound(node, bound);
        }
        rec.record_stop(log.stop.map(|k| k.as_str()), log.nodes);
    }
    let out = result?;
    drop(solve_span);
    let on_spm: Vec<bool> = l.iter().map(|&v| !out.solution.bool_value(v)).collect();
    // Report the model-evaluated energy rather than the raw objective
    // so Paper/Tight report identically even under LP round-off.
    let predicted = model.total_energy(&on_spm);
    Ok(IlpOutcome {
        allocation: Allocation {
            on_spm,
            predicted_energy: Some(predicted),
            solver_nodes: out.solution.nodes(),
        },
        gap: out.gap(),
        stopped_by: out.stopped_by,
    })
}

/// Count the integer variables of a formulation (ablation metric).
pub fn integer_var_count(ilp: &Model) -> usize {
    ilp.vars()
        .filter(|&v| matches!(ilp.var_kind(v), VarKind::Binary | VarKind::Integer { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::ConflictGraph;
    use casa_energy::EnergyTable;
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

    /// Two objects thrash heavily; a third is hot but conflict-free.
    /// With room for one object, CASA must pick a conflictor — even
    /// though the conflict-free object has more fetches.
    fn thrash_graph() -> ConflictGraph {
        let mut e = HashMap::new();
        e.insert((0, 1), 500);
        e.insert((1, 0), 500);
        ConflictGraph::from_parts(vec![1_000, 1_000, 3_000], vec![64, 64, 64], e)
    }

    #[test]
    fn casa_prefers_conflict_elimination_over_fetch_count() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        for lin in [Linearization::Paper, Linearization::Tight] {
            let a = allocate_ilp(&m, 64, lin, &SolverOptions::default()).unwrap();
            assert_eq!(a.spm_count(), 1, "{lin:?}");
            assert!(
                a.on_spm[0] || a.on_spm[1],
                "{lin:?} must allocate a conflictor, got {:?}",
                a.on_spm
            );
            // A fetch-count allocator (Steinke) would pick object 2.
            assert!(!a.on_spm[2], "{lin:?}");
        }
    }

    #[test]
    fn paper_and_tight_agree() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        for cap in [0u32, 64, 128, 192] {
            let p = allocate_ilp(&m, cap, Linearization::Paper, &SolverOptions::default()).unwrap();
            let q = allocate_ilp(&m, cap, Linearization::Tight, &SolverOptions::default()).unwrap();
            let ep = p.predicted_energy.unwrap();
            let eq = q.predicted_energy.unwrap();
            assert!(
                (ep - eq).abs() < 1e-6,
                "cap {cap}: paper {ep} vs tight {eq}"
            );
        }
    }

    #[test]
    fn zero_capacity_allocates_nothing() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = allocate_ilp(&m, 0, Linearization::Tight, &SolverOptions::default()).unwrap();
        assert_eq!(a.spm_count(), 0);
        let em = EnergyModel::new(&g, &t);
        assert!((a.predicted_energy.unwrap() - em.baseline_energy()).abs() < 1e-6);
    }

    #[test]
    fn huge_capacity_allocates_everything_useful() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = allocate_ilp(&m, 10_000, Linearization::Tight, &SolverOptions::default()).unwrap();
        // All three objects have positive fetch counts: all on SPM.
        assert_eq!(a.spm_count(), 3);
    }

    #[test]
    fn capacity_constraint_respected() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        for cap in [0u32, 63, 64, 127, 128, 191, 192] {
            let a = allocate_ilp(&m, cap, Linearization::Tight, &SolverOptions::default()).unwrap();
            let used: u32 = (0..g.len())
                .filter(|&i| a.on_spm[i])
                .map(|i| g.size_of(i))
                .sum();
            assert!(used <= cap, "cap {cap}: used {used}");
        }
    }

    #[test]
    fn tight_has_fewer_integer_vars() {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let (paper, ..) = build_model_parts(&m, 64, Linearization::Paper);
        let (tight, ..) = build_model_parts(&m, 64, Linearization::Tight);
        assert!(integer_var_count(&paper) > integer_var_count(&tight));
        assert_eq!(integer_var_count(&tight), 3); // just the l_i
    }

    #[test]
    fn self_edges_fold_into_linear_term() {
        let mut e = HashMap::new();
        e.insert((0, 0), 100);
        let g = ConflictGraph::from_parts(vec![10], vec![32], e);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let (ilp, ..) = build_model_parts(&m, 32, Linearization::Paper);
        // No L variable should exist: 1 binary var only.
        assert_eq!(ilp.num_vars(), 1);
        let a = allocate_ilp(&m, 32, Linearization::Paper, &SolverOptions::default()).unwrap();
        assert!(a.on_spm[0], "self-thrashing object belongs on the SPM");
    }
}
