//! The anytime allocation engine: one entry point that runs any
//! [`AllocatorKind`] under a [`Budget`] and **always** returns an
//! allocation — never an error.
//!
//! The engine implements a graceful-degradation ladder:
//!
//! 1. run the requested solver under the budget (warm-started from the
//!    greedy incumbent where the solver supports it),
//! 2. if the budget expires, return the best incumbent with its proven
//!    optimality gap ([`AllocStatus::Feasible`]),
//! 3. if the requested solver fails outright, substitute the greedy
//!    heuristic and report [`AllocStatus::Fallback`] with the reason.
//!
//! Status semantics: `Optimal` means the solver ran to completion and
//! proved its answer; `Feasible` means the budget truncated the search
//! but a bound certifies the reported gap; `Fallback` means the
//! requested solver produced nothing and a substitute answered
//! instead, so no gap is claimed.

use crate::allocation::Allocation;
use crate::casa_bb::allocate_bb_traced;
use crate::casa_bb::SavingsModel;
use crate::casa_ilp::{allocate_ilp_traced, Linearization};
use crate::energy_model::EnergyModel;
use crate::flow::AllocatorKind;
use crate::greedy::allocate_greedy;
use crate::session::SessionRecorder;
use crate::steinke::allocate_steinke;
use casa_ilp::SolverOptions;
use casa_obs::Obs;

pub use casa_ilp::engine::{Budget, BudgetKind, CancelToken};
pub use casa_ilp::tree::TreeRecorder;

/// Numerical slack below which a proven gap counts as closed.
const GAP_EPS: f64 = 1e-9;

/// How good the returned allocation is proven to be.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocStatus {
    /// The solver ran to completion: the allocation is proven optimal
    /// for its model (heuristics report `Optimal` only when a bound
    /// certifies a zero gap; Steinke and the loop cache report
    /// `Optimal` in the completion sense of their own objective).
    Optimal,
    /// The budget stopped the search; `gap` is the proven absolute
    /// optimality gap in energy units (difference between the best
    /// bound and the incumbent). `f64::INFINITY` when no bound was
    /// established.
    Feasible {
        /// Proven absolute gap in the solver's objective units.
        gap: f64,
    },
    /// The requested solver failed; a substitute (greedy) allocation
    /// is returned and no gap is claimed.
    Fallback {
        /// Human-readable reason for the substitution.
        reason: String,
    },
}

impl AllocStatus {
    /// Stable lowercase tag for reports and JSON (`"optimal"`,
    /// `"feasible"`, `"fallback"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            AllocStatus::Optimal => "optimal",
            AllocStatus::Feasible { .. } => "feasible",
            AllocStatus::Fallback { .. } => "fallback",
        }
    }

    /// The proven gap: `Some(0.0)` for `Optimal`, `Some(gap)` for
    /// `Feasible`, `None` for `Fallback` (no bound is claimed).
    pub fn gap(&self) -> Option<f64> {
        match self {
            AllocStatus::Optimal => Some(0.0),
            AllocStatus::Feasible { gap } => Some(*gap),
            AllocStatus::Fallback { .. } => None,
        }
    }

    /// Whether the allocation is proven optimal.
    pub fn is_optimal(&self) -> bool {
        matches!(self, AllocStatus::Optimal)
    }
}

/// What [`allocate_budgeted`] returns: always an allocation, plus the
/// evidence for how good it is.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocOutcome {
    /// The chosen allocation.
    pub allocation: Allocation,
    /// Proof status of the allocation.
    pub status: AllocStatus,
    /// Which budget dimension stopped the solver, if any.
    pub stopped_by: Option<BudgetKind>,
}

impl AllocOutcome {
    fn optimal(allocation: Allocation) -> Self {
        AllocOutcome {
            allocation,
            status: AllocStatus::Optimal,
            stopped_by: None,
        }
    }
}

/// Run `kind` on `model` under `budget`, degrading gracefully instead
/// of failing: [`allocate_traced`] with no warm start and nothing
/// captured.
pub fn allocate_budgeted(
    model: &EnergyModel<'_>,
    capacity: u32,
    kind: AllocatorKind,
    budget: &Budget,
    obs: &Obs,
) -> AllocOutcome {
    allocate_traced(
        model,
        capacity,
        kind,
        budget,
        None,
        obs,
        &SessionRecorder::disabled(),
        &TreeRecorder::disabled(),
    )
}

/// Run `kind` on `model` under `budget`, degrading gracefully instead
/// of failing, with an optional warm start and decision capture.
///
/// The CASA ILP variants are warm-started from the greedy incumbent,
/// so a feasible answer exists from the first node; the specialized
/// B&B seeds its own greedy incumbent internally. Heuristic and
/// baseline allocators ignore the budget (they are effectively
/// instantaneous) and report completion-sense status.
///
/// `warm` is an externally supplied warm-start allocation (one flag
/// per object). It is advisory: it is adopted only when it fits
/// `capacity` and beats the solver's own greedy incumbent, so a stale
/// or infeasible hint can never make the answer worse. Allocators
/// without warm-start support ignore it. This is the solution cache's
/// seeding hook: a cached optimum for a *capacity-adjacent* request
/// becomes the incumbent, which tightens pruning from node zero and
/// guarantees the degraded answer is at least as good as the hint.
///
/// The exact allocators (specialized B&B and the ILP variants) stream
/// their decision log — branch order, incumbents, bound updates, stop
/// disposition — into `rec` for session capture and offline replay,
/// and per-node [`casa_ilp::tree::TreeEvent`]s into `tree`. Heuristic
/// allocators record nothing in either; replay re-executes them. Pass
/// [`SessionRecorder::disabled`] and [`TreeRecorder::disabled`] to
/// capture nothing.
#[allow(clippy::too_many_arguments)]
pub fn allocate_traced(
    model: &EnergyModel<'_>,
    capacity: u32,
    kind: AllocatorKind,
    budget: &Budget,
    warm: Option<&[bool]>,
    obs: &Obs,
    rec: &SessionRecorder,
    tree: &TreeRecorder,
) -> AllocOutcome {
    // Spans nest per-thread, so when the allocation service opens a
    // `server.request` span on its worker, this span (and the B&B /
    // ILP spans beneath it) become children of that request — which is
    // what makes a trace filterable to one request ID.
    let _span = obs.span_with(
        "engine.allocate",
        vec![
            (
                "allocator".to_string(),
                casa_obs::ArgValue::Str(format!("{kind:?}")),
            ),
            (
                "capacity".to_string(),
                casa_obs::ArgValue::U64(u64::from(capacity)),
            ),
        ],
    );
    let outcome = match kind {
        AllocatorKind::CasaBb => {
            let out = allocate_bb_traced(model, capacity, budget, warm, obs, rec, tree);
            let status = if out.is_optimal() {
                AllocStatus::Optimal
            } else {
                AllocStatus::Feasible { gap: out.gap }
            };
            AllocOutcome {
                allocation: out.allocation,
                status,
                stopped_by: out.stopped_by,
            }
        }
        AllocatorKind::CasaIlpPaper => ilp_rung(
            model,
            capacity,
            Linearization::Paper,
            budget,
            warm,
            obs,
            rec,
            tree,
        ),
        AllocatorKind::CasaIlpTight => ilp_rung(
            model,
            capacity,
            Linearization::Tight,
            budget,
            warm,
            obs,
            rec,
            tree,
        ),
        AllocatorKind::CasaGreedy => {
            // The greedy answer is certified against the fractional
            // knapsack bound: a zero gap proves it optimal, otherwise
            // the gap quantifies how much the heuristic may leave on
            // the table.
            let allocation = allocate_greedy(model, capacity);
            let sm = SavingsModel::new(model, capacity);
            let achieved = sm.exact_savings(&allocation.on_spm);
            let gap = (sm.root_bound(capacity) - achieved).max(0.0);
            let status = if gap <= GAP_EPS {
                AllocStatus::Optimal
            } else {
                AllocStatus::Feasible { gap }
            };
            AllocOutcome {
                allocation,
                status,
                stopped_by: None,
            }
        }
        AllocatorKind::Steinke => {
            let graph = model.graph();
            let fetches: Vec<u64> = (0..graph.len()).map(|i| graph.fetches_of(i)).collect();
            let sizes: Vec<u32> = (0..graph.len()).map(|i| graph.size_of(i)).collect();
            AllocOutcome::optimal(allocate_steinke(&fetches, &sizes, capacity))
        }
        AllocatorKind::None => AllocOutcome::optimal(Allocation::none(model.graph().len())),
    };
    if obs.is_enabled() {
        obs.add(
            &format!("core.engine.status.{}", outcome.status.as_str()),
            1,
        );
        if let Some(gap) = outcome.status.gap() {
            if gap.is_finite() {
                obs.gauge_set("core.engine.gap", gap);
            }
        }
    }
    outcome
}

/// One CASA-ILP rung of the ladder: warm start from the better of the
/// greedy incumbent and the caller's hint, budgeted engine solve,
/// greedy fallback on failure.
#[allow(clippy::too_many_arguments)]
fn ilp_rung(
    model: &EnergyModel<'_>,
    capacity: u32,
    lin: Linearization,
    budget: &Budget,
    hint: Option<&[bool]>,
    obs: &Obs,
    rec: &SessionRecorder,
    tree: &TreeRecorder,
) -> AllocOutcome {
    let mut warm = allocate_greedy(model, capacity);
    if let Some(hint) = hint {
        let sm = SavingsModel::new(model, capacity);
        if hint.len() == warm.on_spm.len()
            && sm.fits(hint, capacity)
            && sm.exact_savings(hint) > sm.exact_savings(&warm.on_spm)
        {
            warm = crate::allocation::Allocation {
                on_spm: hint.to_vec(),
                predicted_energy: Some(model.total_energy(hint)),
                solver_nodes: 0,
            };
        }
    }
    match allocate_ilp_traced(
        model,
        capacity,
        lin,
        &SolverOptions::default(),
        budget,
        Some(&warm.on_spm),
        obs,
        rec,
        tree,
    ) {
        Ok(out) => {
            let status = if out.stopped_by.is_none() && out.gap <= GAP_EPS {
                AllocStatus::Optimal
            } else {
                AllocStatus::Feasible { gap: out.gap }
            };
            AllocOutcome {
                allocation: out.allocation,
                status,
                stopped_by: out.stopped_by,
            }
        }
        Err(e) => {
            obs.add("core.engine.fallback", 1);
            // Degradation is exactly what flight dumps exist for:
            // record the reason as an instant and dump the newest
            // events if a sink is configured, so the post-mortem shows
            // what led up to the substitution.
            obs.note_degradation("core.engine.fallback", &e.to_string());
            AllocOutcome {
                allocation: warm,
                status: AllocStatus::Fallback {
                    reason: e.to_string(),
                },
                stopped_by: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_energy::{EnergyTable, TechParams};

    use crate::conflict::ConflictGraph;
    use std::collections::HashMap;

    /// Small conflict graph with a nontrivial optimum.
    fn graph() -> ConflictGraph {
        let mut edges = HashMap::new();
        edges.insert((0, 1), 500);
        edges.insert((1, 2), 120);
        edges.insert((2, 3), 5);
        ConflictGraph::from_parts(vec![900, 800, 300, 10], vec![16, 16, 16, 16], edges)
    }

    fn table() -> EnergyTable {
        EnergyTable::build(64, 16, 1, 32, None, &TechParams::default())
    }

    #[test]
    fn every_kind_returns_an_allocation_under_one_node() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        let budget = Budget::nodes(1);
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
            AllocatorKind::CasaGreedy,
            AllocatorKind::Steinke,
            AllocatorKind::None,
        ] {
            let out = allocate_budgeted(&model, 32, kind, &budget, &Obs::disabled());
            assert_eq!(out.allocation.on_spm.len(), g.len(), "{kind:?}");
            // Never an error; gap is finite whenever one is claimed
            // (warm starts guarantee an incumbent from node 0).
            if let Some(gap) = out.status.gap() {
                assert!(gap.is_finite(), "{kind:?} gap {gap}");
                assert!(gap >= 0.0, "{kind:?} gap {gap}");
            }
        }
    }

    #[test]
    fn unlimited_budget_gives_optimal_casa() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
        ] {
            let out = allocate_budgeted(&model, 32, kind, &Budget::unlimited(), &Obs::disabled());
            assert!(out.status.is_optimal(), "{kind:?}: {:?}", out.status);
            assert_eq!(out.status.gap(), Some(0.0));
            assert_eq!(out.stopped_by, None);
        }
    }

    #[test]
    fn budgeted_casa_variants_agree_with_unbudgeted_energy_when_optimal() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        let exact = allocate_budgeted(
            &model,
            32,
            AllocatorKind::CasaBb,
            &Budget::unlimited(),
            &Obs::disabled(),
        );
        let ilp = allocate_budgeted(
            &model,
            32,
            AllocatorKind::CasaIlpPaper,
            &Budget::unlimited(),
            &Obs::disabled(),
        );
        let e_bb = model.total_energy(&exact.allocation.on_spm);
        let e_ilp = model.total_energy(&ilp.allocation.on_spm);
        assert!((e_bb - e_ilp).abs() < 1e-9, "{e_bb} vs {e_ilp}");
    }

    #[test]
    fn cancelled_budget_is_feasible_not_error() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        for kind in [AllocatorKind::CasaBb, AllocatorKind::CasaIlpPaper] {
            let out = allocate_budgeted(&model, 32, kind, &budget, &Obs::disabled());
            assert!(
                matches!(out.status, AllocStatus::Feasible { .. })
                    || matches!(out.status, AllocStatus::Fallback { .. }),
                "{kind:?}: {:?}",
                out.status
            );
            assert_eq!(out.allocation.on_spm.len(), g.len());
        }
    }

    #[test]
    fn status_tags_and_gaps_are_stable() {
        assert_eq!(AllocStatus::Optimal.as_str(), "optimal");
        assert_eq!(AllocStatus::Feasible { gap: 2.0 }.as_str(), "feasible");
        let fb = AllocStatus::Fallback { reason: "x".into() };
        assert_eq!(fb.as_str(), "fallback");
        assert_eq!(fb.gap(), None);
        assert_eq!(AllocStatus::Feasible { gap: 2.0 }.gap(), Some(2.0));
        assert!(AllocStatus::Optimal.is_optimal());
    }

    #[test]
    fn warm_start_lifts_degraded_answers_and_never_hurts() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        // The proven optimum, found with an unlimited budget.
        let opt = allocate_budgeted(
            &model,
            32,
            AllocatorKind::CasaBb,
            &Budget::unlimited(),
            &Obs::disabled(),
        );
        // One node is not enough to search — but warm-started from the
        // optimum, the incumbent already IS the optimum.
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
        ] {
            let warm = allocate_traced(
                &model,
                32,
                kind,
                &Budget::nodes(1),
                Some(&opt.allocation.on_spm),
                &Obs::disabled(),
                &SessionRecorder::disabled(),
                &TreeRecorder::disabled(),
            );
            let e_warm = model.total_energy(&warm.allocation.on_spm);
            let e_opt = model.total_energy(&opt.allocation.on_spm);
            assert!(e_warm <= e_opt + 1e-9, "{kind:?}: {e_warm} vs {e_opt}");
        }
        // An infeasible hint (everything on SPM) is ignored, not
        // adopted: the answer still fits.
        let bogus = vec![true; g.len()];
        let out = allocate_traced(
            &model,
            32,
            AllocatorKind::CasaBb,
            &Budget::unlimited(),
            Some(&bogus),
            &Obs::disabled(),
            &SessionRecorder::disabled(),
            &TreeRecorder::disabled(),
        );
        let used: u32 = (0..g.len())
            .filter(|&i| out.allocation.on_spm[i])
            .map(|i| g.size_of(i))
            .sum();
        assert!(used <= 32);
        assert!(out.status.is_optimal());
    }

    #[test]
    fn engine_status_counters_land_in_obs() {
        let g = graph();
        let t = table();
        let model = EnergyModel::new(&g, &t);
        let obs = Obs::enabled();
        let out = allocate_budgeted(&model, 32, AllocatorKind::CasaBb, &Budget::nodes(1), &obs);
        let snap = obs.snapshot();
        let key = format!("core.engine.status.{}", out.status.as_str());
        assert!(snap.contains_key(&key), "missing {key}");
    }
}
