//! Anytime solver engine: best-first branch & bound over the integral
//! variables of a [`Model`], with the simplex LP relaxation for bounds,
//! plus budgets, cancellation, warm starts, and gap-reporting outcomes.
//!
//! The pre-engine entry points (a `solve` / `solve_obs` /
//! `solve_with_stats` triplet, since removed) answered "what is the
//! optimum?" and failed outright when the node limit ran out. This
//! module answers the production question instead: *"what is the best
//! allocation you can prove within this budget?"* A [`SolveRequest`]
//! bundles the model, tunables, an optional warm start, a [`Budget`],
//! and an optional [`SearchRecorder`]; [`SolveOutcome`]
//! carries the incumbent together with an [`EngineStatus`] — either
//! proven [`EngineStatus::Optimal`] or [`EngineStatus::Feasible`] with
//! the **absolute optimality gap** proven by the LP relaxation bound at
//! the moment the budget expired.
//!
//! Determinism contract: with a pure node budget the search is exact
//! computation — outcomes are byte-identical across machines and worker
//! counts. Wall-clock deadlines and cancellation are inherently
//! nondeterministic; such stops are labelled by [`BudgetKind`] in
//! [`SolveOutcome::stopped_by`] so downstream serializers can redact
//! wall-clock-dependent fields.

use crate::model::{Model, Sense};
use crate::simplex::{solve_lp_counted, LpResult};
use crate::solution::{Solution, SolveError, Status};
use crate::tree::{TreeEvent, TreeEventKind, TreeRecorder};
use casa_obs::{ArgValue, Obs};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Integrality tolerance: a relaxation value within `int_tol` of
    /// an integer counts as integral.
    pub int_tol: f64,
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: u64,
    /// Absolute optimality gap at which a node is pruned against the
    /// incumbent.
    pub gap_tol: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            int_tol: 1e-6,
            max_nodes: 2_000_000,
            gap_tol: 1e-9,
        }
    }
}

/// Search-effort statistics from one branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BbStats {
    /// Branch-and-bound nodes popped (LP relaxations attempted).
    pub nodes: u64,
    /// Times a new incumbent replaced the previous best.
    pub incumbent_updates: u64,
    /// Simplex pivots summed over every node LP.
    pub simplex_pivots: u64,
    /// Best proven optimistic bound in the model's own orientation
    /// (equals the objective when the search closed); `None` if no
    /// finite bound was established.
    pub best_bound: Option<f64>,
}

/// Cooperative cancellation handle, cheaply cloneable and shareable
/// across threads (e.g. one token distributed to every sweep worker).
///
/// Cancellation is *cooperative*: the search polls the token between
/// nodes and stops at the next node boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.0.store(true, AtomicOrdering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(AtomicOrdering::Relaxed)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Everything the branch & bound decided during one search, in the
/// order it decided it — the raw material of a replayable session
/// (see `casa_core::session`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchLog {
    /// Variable index branched on at each branching node, in order.
    pub branched: Vec<u32>,
    /// Every incumbent adoption: `(node, min-oriented objective,
    /// full value vector)`. Node 0 is a warm-start incumbent.
    pub incumbents: Vec<(u64, f64, Vec<f64>)>,
    /// Every strict improvement of the global optimistic bound:
    /// `(node, min-oriented bound)`.
    pub bounds: Vec<(u64, f64)>,
    /// Which budget dimension stopped the search (`None` = closed).
    pub stop: Option<BudgetKind>,
    /// Total nodes popped.
    pub nodes: u64,
}

/// Recorder for the solver decision log, following the [`Obs`]
/// pattern: cheap to clone, a no-op unless explicitly enabled, and
/// shareable across the request/solve boundary.
#[derive(Debug, Clone, Default)]
pub struct SearchRecorder(Option<Arc<Mutex<SearchLog>>>);

impl SearchRecorder {
    /// A recorder that captures the decision log.
    pub fn enabled() -> Self {
        SearchRecorder(Some(Arc::new(Mutex::new(SearchLog::default()))))
    }

    /// The no-op recorder (the default).
    pub fn disabled() -> Self {
        SearchRecorder(None)
    }

    /// Whether this recorder captures anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn with<F: FnOnce(&mut SearchLog)>(&self, f: F) {
        if let Some(log) = &self.0 {
            if let Ok(mut log) = log.lock() {
                f(&mut log);
            }
        }
    }

    fn branch(&self, var: usize) {
        self.with(|l| l.branched.push(var as u32));
    }

    fn incumbent(&self, node: u64, min_obj: f64, values: &[f64]) {
        self.with(|l| l.incumbents.push((node, min_obj, values.to_vec())));
    }

    fn bound(&self, node: u64, value: f64) {
        self.with(|l| l.bounds.push((node, value)));
    }

    fn stop(&self, kind: Option<BudgetKind>, nodes: u64) {
        self.with(|l| {
            l.stop = kind;
            l.nodes = nodes;
        });
    }

    /// Take the captured log, leaving an empty one behind. `None` when
    /// the recorder is disabled.
    pub fn take(&self) -> Option<SearchLog> {
        self.0
            .as_ref()
            .and_then(|log| log.lock().ok().map(|mut l| std::mem::take(&mut *l)))
    }
}

/// Which budget dimension stopped a search early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The node limit was exhausted (deterministic stop).
    Nodes,
    /// The wall-clock deadline expired (nondeterministic stop).
    Deadline,
    /// A [`CancelToken`] was triggered (nondeterministic stop).
    Cancelled,
}

impl BudgetKind {
    /// Stable lower-case label for serialization ("nodes" /
    /// "deadline" / "cancelled").
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetKind::Nodes => "nodes",
            BudgetKind::Deadline => "deadline",
            BudgetKind::Cancelled => "cancelled",
        }
    }

    /// Whether this stop depends on wall-clock time (and therefore
    /// breaks cross-run determinism).
    pub fn is_wall_clock(self) -> bool {
        !matches!(self, BudgetKind::Nodes)
    }
}

/// Resource budget for one solve: any combination of a node limit, a
/// wall-clock deadline (monotonic time), and a cooperative
/// [`CancelToken`]. The default budget is unlimited.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Maximum branch-and-bound nodes to pop; `None` = unlimited.
    pub max_nodes: Option<u64>,
    /// Wall-clock allowance measured on [`Instant`] from the moment
    /// the solve starts; `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token polled between nodes.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A pure node budget: deterministic across machines and workers.
    pub fn nodes(max_nodes: u64) -> Self {
        Budget {
            max_nodes: Some(max_nodes),
            ..Self::default()
        }
    }

    /// A wall-clock deadline budget.
    pub fn deadline(allowance: Duration) -> Self {
        Budget {
            deadline: Some(allowance),
            ..Self::default()
        }
    }

    /// Add / replace the node limit.
    pub fn with_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Add / replace the wall-clock deadline.
    pub fn with_deadline(mut self, allowance: Duration) -> Self {
        self.deadline = Some(allowance);
        self
    }

    /// Add / replace the cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none() && self.deadline.is_none() && self.cancel.is_none()
    }

    /// Whether any wall-clock-dependent dimension (deadline or cancel
    /// token) is configured. Serializers use this — not whether a stop
    /// actually fired, which is itself timing-dependent — to decide
    /// which fields to redact for determinism.
    pub fn has_wall_clock(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }
}

/// Runtime view of a [`Budget`]: deadline resolved against a start
/// instant, node limit folded with [`SolverOptions::max_nodes`].
struct BudgetClock<'a> {
    max_nodes: u64,
    deadline_at: Option<Instant>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> BudgetClock<'a> {
    fn new(budget: &'a Budget, options: &SolverOptions) -> Self {
        BudgetClock {
            max_nodes: budget.max_nodes.unwrap_or(u64::MAX).min(options.max_nodes),
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            cancel: budget.cancel.as_ref(),
        }
    }

    /// Returns the budget dimension that is exhausted after popping
    /// `nodes` nodes, if any. Node limits are checked first so that a
    /// node-budgeted run reports the same stop kind everywhere even if
    /// a deadline happens to have passed as well.
    fn exhausted(&self, nodes: u64) -> Option<BudgetKind> {
        if nodes > self.max_nodes {
            return Some(BudgetKind::Nodes);
        }
        if let Some(token) = self.cancel {
            if token.is_cancelled() {
                return Some(BudgetKind::Cancelled);
            }
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Some(BudgetKind::Deadline);
            }
        }
        None
    }
}

/// Engine-level status of a finished solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineStatus {
    /// The search closed: the incumbent is proven optimal (within
    /// [`SolverOptions::gap_tol`]).
    Optimal,
    /// The budget expired with an incumbent in hand.
    Feasible {
        /// Absolute optimality gap `|incumbent − proven bound|` in the
        /// model's objective units: the incumbent is within `gap` of
        /// the true optimum. Infinite when the budget expired before
        /// any finite relaxation bound was established.
        gap: f64,
    },
}

/// Result of a budgeted solve: the best-known solution plus proof
/// quality and search effort.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// The incumbent solution (optimal when `status` says so).
    pub solution: Solution,
    /// Proof status: optimal, or feasible with a proven gap.
    pub status: EngineStatus,
    /// Which budget dimension stopped the search, if it did not close.
    pub stopped_by: Option<BudgetKind>,
    /// Search-effort statistics.
    pub stats: BbStats,
}

impl SolveOutcome {
    /// The proven absolute gap: `0.0` for optimal outcomes.
    pub fn gap(&self) -> f64 {
        match self.status {
            EngineStatus::Optimal => 0.0,
            EngineStatus::Feasible { gap } => gap,
        }
    }

    /// Whether optimality was proven.
    pub fn is_optimal(&self) -> bool {
        matches!(self.status, EngineStatus::Optimal)
    }
}

/// A budgeted solve request: the single entry point that replaces the
/// `solve` / `solve_obs` / `solve_with_stats` triplet.
///
/// # Example
///
/// ```
/// use casa_ilp::engine::{Budget, SolveRequest};
/// use casa_ilp::model::{ConstraintOp, Model};
///
/// let mut m = Model::maximize();
/// let x = m.binary("x");
/// let y = m.binary("y");
/// m.set_objective([(x, 1.0), (y, 2.0)]);
/// m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0);
/// let out = SolveRequest::new(&m)
///     .budget(Budget::nodes(1_000))
///     .solve()?;
/// assert!(out.is_optimal());
/// assert_eq!(out.gap(), 0.0);
/// # Ok::<(), casa_ilp::solution::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SolveRequest<'a> {
    model: &'a Model,
    options: SolverOptions,
    budget: Budget,
    warm_start: Option<&'a [f64]>,
    obs: Obs,
    recorder: SearchRecorder,
    tree: TreeRecorder,
}

impl<'a> SolveRequest<'a> {
    /// A request with default options, an unlimited budget, no warm
    /// start, and observability and decision recording disabled.
    pub fn new(model: &'a Model) -> Self {
        SolveRequest {
            model,
            options: SolverOptions::default(),
            budget: Budget::unlimited(),
            warm_start: None,
            obs: Obs::disabled(),
            recorder: SearchRecorder::disabled(),
            tree: TreeRecorder::disabled(),
        }
    }

    /// Replace the solver tunables.
    pub fn options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Seed the search with a candidate point (one value per model
    /// variable, by [`Var::index`](crate::model::Var::index) order).
    /// Integral coordinates are rounded; if the rounded point is
    /// feasible it becomes the initial incumbent, so the engine has a
    /// feasible answer from t=0. Infeasible or mis-sized warm starts
    /// are counted (`ilp.engine.warm_start.rejected`) and ignored.
    pub fn warm_start(mut self, values: &'a [f64]) -> Self {
        self.warm_start = Some(values);
        self
    }

    /// Record solver internals into `obs`: the `ilp.bb.*` counters and
    /// gauge of the old `solve_obs`, plus `ilp.engine.budget.<kind>`
    /// stop counters, the `ilp.engine.gap` gauge, warm-start counters,
    /// and per-incumbent instant events.
    pub fn observe(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Record the solver's decision log — branch order, incumbents,
    /// bound updates, stop reason — into `recorder`. No-op with a
    /// disabled recorder (the default). The log is what makes a solve
    /// replayable offline (`casa_core::session`).
    pub fn record(mut self, recorder: &SearchRecorder) -> Self {
        self.recorder = recorder.clone();
        self
    }

    /// Capture the search tree — one [`TreeEvent`] per node open,
    /// branch, prune, and incumbent adoption, with stable node ids —
    /// into `tree`. No-op with a disabled recorder (the default).
    /// Bounds and objectives in the events are reported in the model's
    /// own objective orientation.
    pub fn trace_tree(mut self, tree: &TreeRecorder) -> Self {
        self.tree = tree.clone();
        self
    }

    /// Run the search.
    ///
    /// Budget exhaustion with an incumbent in hand is **not** an
    /// error: it yields `Ok` with [`EngineStatus::Feasible`] and the
    /// proven gap. Errors are reserved for solves that produced no
    /// usable point at all.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Infeasible`] — the search closed with no
    ///   integral point.
    /// * [`SolveError::Unbounded`] — the root relaxation is unbounded.
    /// * [`SolveError::NodeLimit`] / [`SolveError::Deadline`] /
    ///   [`SolveError::Cancelled`] — the corresponding budget expired
    ///   before any feasible integral point was found.
    /// * [`SolveError::IterationLimit`] — simplex failed to converge.
    pub fn solve(self) -> Result<SolveOutcome, SolveError> {
        self.solve_with_stats().0
    }

    /// Like [`solve`](Self::solve), but also returns the stats
    /// gathered up to the point of failure when the solve errors.
    pub fn solve_with_stats(self) -> (Result<SolveOutcome, SolveError>, BbStats) {
        let mut stats = BbStats::default();
        let result = search(
            self.model,
            &self.options,
            &self.budget,
            self.warm_start,
            &self.obs,
            &self.recorder,
            &self.tree,
            &mut stats,
        );
        self.export_obs(&result, &stats);
        (result, stats)
    }

    fn export_obs(&self, result: &Result<SolveOutcome, SolveError>, stats: &BbStats) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.add("ilp.bb.nodes", stats.nodes);
        self.obs.add("ilp.bb.incumbents", stats.incumbent_updates);
        self.obs.add("ilp.simplex.pivots", stats.simplex_pivots);
        if let Some(b) = stats.best_bound {
            self.obs.gauge_set("ilp.bb.best_bound", b);
        }
        if let Ok(outcome) = result {
            self.obs.gauge_set("ilp.engine.gap", outcome.gap());
        }
        let stopped_by = match result {
            Ok(outcome) => outcome.stopped_by,
            Err(SolveError::NodeLimit { .. }) => Some(BudgetKind::Nodes),
            Err(SolveError::Deadline) => Some(BudgetKind::Deadline),
            Err(SolveError::Cancelled) => Some(BudgetKind::Cancelled),
            Err(_) => None,
        };
        if let Some(kind) = stopped_by {
            self.obs
                .add(&format!("ilp.engine.budget.{}", kind.as_str()), 1);
        }
    }
}

/// The anytime best-first branch-and-bound search: most-fractional
/// branching, parent-bound pruning, warm starts and the budget clock.
#[allow(clippy::too_many_arguments)]
fn search(
    model: &Model,
    options: &SolverOptions,
    budget: &Budget,
    warm_start: Option<&[f64]>,
    obs: &Obs,
    rec: &SearchRecorder,
    tree: &TreeRecorder,
    stats: &mut BbStats,
) -> Result<SolveOutcome, SolveError> {
    // Work in minimization orientation internally.
    let sense_sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    let root_bounds: Vec<(f64, f64)> = model.vars().map(|v| model.var_kind(v).bounds()).collect();
    let integral: Vec<usize> = model
        .vars()
        .filter(|&v| model.var_kind(v).is_integral())
        .map(|v| v.index())
        .collect();
    let mut is_integral = vec![false; model.num_vars()];
    for &i in &integral {
        is_integral[i] = true;
    }

    // (values, min-oriented objective)
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    if let Some(ws) = warm_start {
        match warm_incumbent(model, ws, &is_integral, options, sense_sign) {
            Some((values, obj)) => {
                stats.incumbent_updates += 1;
                obs.instant(
                    "bb.incumbent",
                    vec![
                        ("objective".to_string(), ArgValue::F64(sense_sign * obj)),
                        ("node".to_string(), ArgValue::U64(0)),
                        ("warm_start".to_string(), ArgValue::U64(1)),
                    ],
                );
                obs.add("ilp.engine.warm_start.accepted", 1);
                obs.ts_sample("ilp.bb.incumbent", 0, sense_sign * obj);
                rec.incumbent(0, obj, &values);
                if tree.is_enabled() {
                    tree.record(TreeEvent {
                        kind: TreeEventKind::Incumbent,
                        node: 0,
                        depth: 0,
                        bound: f64::NAN,
                        best: sense_sign * obj,
                        var: None,
                    });
                }
                incumbent = Some((values, obj));
            }
            None => obs.add("ilp.engine.warm_start.rejected", 1),
        }
    }

    let clock = BudgetClock::new(budget, options);
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    heap.push(HeapEntry {
        bound: f64::NEG_INFINITY,
        seq,
        node: Node {
            bounds: root_bounds,
            bound: f64::NEG_INFINITY,
            depth: 0,
        },
    });

    let mut nodes = 0u64;
    let mut root_unbounded = false;
    let mut stopped: Option<BudgetKind> = None;
    // Best-first pops see non-decreasing parent bounds, so the bound
    // of the most recent pop is a valid global optimistic bound.
    let mut bound_floor = f64::NEG_INFINITY;
    // Tree telemetry reports bounds/objectives in the model's own
    // orientation; `best_for_tree` is NaN (exported as null) while no
    // incumbent exists. Node id = pop counter, a search-order value
    // that is deterministic under node budgets (warm-start = node 0).
    let best_for_tree =
        |inc: &Option<(Vec<f64>, f64)>| inc.as_ref().map_or(f64::NAN, |(_, b)| sense_sign * b);

    while let Some(HeapEntry { node, .. }) = heap.pop() {
        nodes += 1;
        stats.nodes = nodes;
        if node.bound > bound_floor && node.bound.is_finite() {
            if rec.is_enabled() {
                rec.bound(nodes, node.bound);
            }
            obs.ts_sample("ilp.bb.bound", nodes, sense_sign * node.bound);
        }
        bound_floor = bound_floor.max(node.bound);
        if tree.is_enabled() {
            tree.record(TreeEvent {
                kind: TreeEventKind::Open,
                node: nodes,
                depth: node.depth,
                bound: sense_sign * node.bound,
                best: best_for_tree(&incumbent),
                var: None,
            });
        }
        if let Some(kind) = clock.exhausted(nodes) {
            stopped = Some(kind);
            break;
        }
        // Prune against incumbent using the parent bound.
        if let Some((_, best)) = &incumbent {
            if node.bound >= *best - options.gap_tol {
                if tree.is_enabled() {
                    tree.record(TreeEvent {
                        kind: TreeEventKind::PruneBound,
                        node: nodes,
                        depth: node.depth,
                        bound: sense_sign * node.bound,
                        best: sense_sign * best,
                        var: None,
                    });
                }
                continue;
            }
        }
        let (lp, pivots) = solve_lp_counted(model, &node.bounds)?;
        stats.simplex_pivots += pivots;
        let (values, objective) = match lp {
            LpResult::Infeasible => {
                if tree.is_enabled() {
                    tree.record(TreeEvent {
                        kind: TreeEventKind::PruneInfeasible,
                        node: nodes,
                        depth: node.depth,
                        bound: sense_sign * node.bound,
                        best: best_for_tree(&incumbent),
                        var: None,
                    });
                }
                continue;
            }
            LpResult::Unbounded => {
                if nodes == 1 {
                    root_unbounded = true;
                    break;
                }
                // A bounded-variable subproblem cannot be unbounded if
                // the root was bounded; treat defensively as a dead end.
                continue;
            }
            LpResult::Optimal {
                values, objective, ..
            } => (values, objective),
        };
        let min_obj = sense_sign * objective;
        if let Some((_, best)) = &incumbent {
            if min_obj >= *best - options.gap_tol {
                if tree.is_enabled() {
                    tree.record(TreeEvent {
                        kind: TreeEventKind::PruneBound,
                        node: nodes,
                        depth: node.depth,
                        bound: objective,
                        best: sense_sign * best,
                        var: None,
                    });
                }
                continue;
            }
        }
        // Find the most fractional integral variable.
        let mut branch_var: Option<(usize, f64)> = None;
        let mut best_frac = options.int_tol;
        for &i in &integral {
            let x = values[i];
            let frac = (x - x.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some((i, x));
            }
        }
        match branch_var {
            None => {
                // Integral: candidate incumbent. Rounding can move each
                // integral coordinate by up to `int_tol`, so the raw LP
                // objective may drift from the rounded point by up to
                // int_tol·Σ|c|; re-evaluate on the rounded vector.
                let rounded: Vec<f64> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| if is_integral[i] { x.round() } else { x })
                    .collect();
                let rounded_obj = sense_sign * model.eval_objective(&rounded);
                match &incumbent {
                    Some((_, best)) if rounded_obj >= *best - options.gap_tol => {}
                    _ => {
                        rec.incumbent(nodes, rounded_obj, &rounded);
                        incumbent = Some((rounded, rounded_obj));
                        stats.incumbent_updates += 1;
                        obs.instant(
                            "bb.incumbent",
                            vec![
                                (
                                    "objective".to_string(),
                                    ArgValue::F64(sense_sign * rounded_obj),
                                ),
                                ("node".to_string(), ArgValue::U64(nodes)),
                            ],
                        );
                        obs.ts_sample("ilp.bb.incumbent", nodes, sense_sign * rounded_obj);
                        if tree.is_enabled() {
                            tree.record(TreeEvent {
                                kind: TreeEventKind::Incumbent,
                                node: nodes,
                                depth: node.depth,
                                bound: objective,
                                best: sense_sign * rounded_obj,
                                var: None,
                            });
                        }
                    }
                }
            }
            Some((i, x)) => {
                rec.branch(i);
                if tree.is_enabled() {
                    tree.record(TreeEvent {
                        kind: TreeEventKind::Branch,
                        node: nodes,
                        depth: node.depth,
                        bound: objective,
                        best: best_for_tree(&incumbent),
                        var: Some(i as u32),
                    });
                }
                let (lb, ub) = node.bounds[i];
                let floor = x.floor();
                let ceil = x.ceil();
                if floor >= lb - options.int_tol {
                    let mut b = node.bounds.clone();
                    b[i] = (lb, floor);
                    seq += 1;
                    heap.push(HeapEntry {
                        bound: min_obj,
                        seq,
                        node: Node {
                            bounds: b,
                            bound: min_obj,
                            depth: node.depth + 1,
                        },
                    });
                }
                if ceil <= ub + options.int_tol {
                    let mut b = node.bounds.clone();
                    b[i] = (ceil, ub);
                    seq += 1;
                    heap.push(HeapEntry {
                        bound: min_obj,
                        seq,
                        node: Node {
                            bounds: b,
                            bound: min_obj,
                            depth: node.depth + 1,
                        },
                    });
                }
            }
        }
    }

    if root_unbounded {
        return Err(SolveError::Unbounded);
    }
    rec.stop(stopped, nodes);
    tree.set_nodes(nodes);

    if let Some(kind) = stopped {
        if bound_floor.is_finite() {
            stats.best_bound = Some(sense_sign * bound_floor);
        }
        return match incumbent {
            Some((values, obj)) => {
                // Absolute gap in minimization orientation; the same
                // number is valid in the model's own orientation since
                // |obj − bound| is sign-invariant.
                let gap = if bound_floor.is_finite() {
                    (obj - bound_floor).max(0.0)
                } else {
                    f64::INFINITY
                };
                Ok(SolveOutcome {
                    solution: Solution::new(values, sense_sign * obj, Status::Feasible, nodes),
                    status: EngineStatus::Feasible { gap },
                    stopped_by: Some(kind),
                    stats: *stats,
                })
            }
            None => Err(match kind {
                BudgetKind::Nodes => SolveError::NodeLimit {
                    limit: clock.max_nodes,
                },
                BudgetKind::Deadline => SolveError::Deadline,
                BudgetKind::Cancelled => SolveError::Cancelled,
            }),
        };
    }

    match incumbent {
        Some((values, obj)) => {
            // Search closed: the incumbent is proven optimal, so the
            // bound equals the objective.
            stats.best_bound = Some(sense_sign * obj);
            Ok(SolveOutcome {
                solution: Solution::new(values, sense_sign * obj, Status::Optimal, nodes),
                status: EngineStatus::Optimal,
                stopped_by: None,
                stats: *stats,
            })
        }
        None => Err(SolveError::Infeasible),
    }
}

/// Validate and round a warm-start vector: integral coordinates are
/// snapped to the nearest integer, the rounded point is checked for
/// feasibility, and its objective is re-evaluated. Returns the
/// min-oriented incumbent candidate, or `None` if unusable.
fn warm_incumbent(
    model: &Model,
    warm: &[f64],
    is_integral: &[bool],
    options: &SolverOptions,
    sense_sign: f64,
) -> Option<(Vec<f64>, f64)> {
    if warm.len() != model.num_vars() {
        return None;
    }
    let rounded: Vec<f64> = warm
        .iter()
        .enumerate()
        .map(|(i, &x)| if is_integral[i] { x.round() } else { x })
        .collect();
    let tol = options.int_tol.max(1e-9);
    if !model.is_feasible(&rounded, tol) {
        return None;
    }
    let obj = sense_sign * model.eval_objective(&rounded);
    Some((rounded, obj))
}

struct Node {
    bounds: Vec<(f64, f64)>,
    /// LP bound of the parent (optimistic value for this node), in
    /// minimization orientation.
    bound: f64,
    /// Branching decisions between the root and this node.
    depth: u32,
}

struct HeapEntry {
    bound: f64,
    seq: u64,
    node: Node,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model};

    fn branching_model() -> (Model, crate::model::Var, crate::model::Var) {
        // max x + y s.t. 2x + y <= 7, x + 3y <= 9, integer x,y >= 0.
        // LP optimum fractional; integer optimum = 4.
        let mut m = Model::maximize();
        let x = m.integer("x", 0, 10);
        let y = m.integer("y", 0, 10);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_constraint([(x, 2.0), (y, 1.0)], ConstraintOp::Le, 7.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], ConstraintOp::Le, 9.0);
        (m, x, y)
    }

    #[test]
    fn unbudgeted_engine_matches_closed_search() {
        let (m, _, _) = branching_model();
        let out = SolveRequest::new(&m).solve().unwrap();
        assert!(out.is_optimal());
        assert_eq!(out.gap(), 0.0);
        assert!((out.solution.objective() - 4.0).abs() < 1e-6);
        assert_eq!(out.stopped_by, None);
        assert_eq!(out.stats.nodes, out.solution.nodes());
    }

    #[test]
    fn node_budget_with_incumbent_returns_feasible_with_gap() {
        // Satellite fix: exceeding the node budget with an incumbent in
        // hand must yield Feasible{gap}, not a SolveError. The warm
        // start guarantees the incumbent exists from t=0.
        let (m, x, y) = branching_model();
        let warm = {
            let mut v = vec![0.0; 2];
            v[x.index()] = 1.0;
            v[y.index()] = 1.0;
            v
        };
        let out = SolveRequest::new(&m)
            .budget(Budget::nodes(1))
            .warm_start(&warm)
            .solve()
            .unwrap();
        match out.status {
            EngineStatus::Feasible { gap } => {
                assert!(gap >= 0.0);
                assert!(gap.is_finite(), "root LP bound must make the gap finite");
                // Incumbent obj 2, true optimum 4, LP bound <= 5.2:
                // proven gap covers the real distance to the optimum.
                assert!(gap >= 4.0 - out.solution.objective() - 1e-9);
            }
            other => panic!("expected Feasible, got {other:?}"),
        }
        assert_eq!(out.stopped_by, Some(BudgetKind::Nodes));
        assert_eq!(out.solution.status(), Status::Feasible);
        assert!((out.solution.objective() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn node_budget_without_incumbent_errors() {
        let (m, _, _) = branching_model();
        let err = SolveRequest::new(&m)
            .budget(Budget::nodes(1))
            .solve()
            .unwrap_err();
        assert_eq!(err, SolveError::NodeLimit { limit: 1 });
    }

    #[test]
    fn warm_start_seeds_incumbent_and_optimal_closure_unaffected() {
        let (m, x, y) = branching_model();
        let mut warm = vec![0.0; 2];
        warm[x.index()] = 3.0;
        warm[y.index()] = 1.0; // optimal point
        let out = SolveRequest::new(&m).warm_start(&warm).solve().unwrap();
        assert!(out.is_optimal());
        assert!((out.solution.objective() - 4.0).abs() < 1e-6);
        assert!(out.stats.incumbent_updates >= 1);
    }

    #[test]
    fn infeasible_warm_start_is_ignored() {
        let (m, x, y) = branching_model();
        let mut warm = vec![0.0; 2];
        warm[x.index()] = 10.0; // violates 2x + y <= 7
        warm[y.index()] = 10.0;
        let obs = Obs::enabled();
        let out = SolveRequest::new(&m)
            .warm_start(&warm)
            .observe(&obs)
            .solve()
            .unwrap();
        assert!(out.is_optimal());
        match obs.snapshot().get("ilp.engine.warm_start.rejected") {
            Some(casa_obs::MetricValue::Counter(1)) => {}
            other => panic!("expected rejection counter, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_stops_immediately() {
        let (m, x, y) = branching_model();
        let token = CancelToken::new();
        token.cancel();
        let mut warm = vec![0.0; 2];
        warm[x.index()] = 1.0;
        warm[y.index()] = 0.0;
        let out = SolveRequest::new(&m)
            .budget(Budget::unlimited().with_cancel(token.clone()))
            .warm_start(&warm)
            .solve()
            .unwrap();
        assert_eq!(out.stopped_by, Some(BudgetKind::Cancelled));
        assert!((out.solution.objective() - 1.0).abs() < 1e-9);
        // No incumbent and cancelled -> the dedicated error.
        let err = SolveRequest::new(&m)
            .budget(Budget::unlimited().with_cancel(token))
            .solve()
            .unwrap_err();
        assert_eq!(err, SolveError::Cancelled);
    }

    #[test]
    fn expired_deadline_reports_deadline_kind() {
        let (m, x, y) = branching_model();
        let mut warm = vec![0.0; 2];
        warm[x.index()] = 0.0;
        warm[y.index()] = 1.0;
        let out = SolveRequest::new(&m)
            .budget(Budget::deadline(Duration::ZERO))
            .warm_start(&warm)
            .solve()
            .unwrap();
        assert_eq!(out.stopped_by, Some(BudgetKind::Deadline));
        assert!(matches!(out.status, EngineStatus::Feasible { .. }));
        assert_eq!(
            SolveRequest::new(&m)
                .budget(Budget::deadline(Duration::ZERO))
                .solve()
                .unwrap_err(),
            SolveError::Deadline
        );
    }

    #[test]
    fn gap_shrinks_to_zero_as_node_budget_grows() {
        let (m, x, y) = branching_model();
        let mut warm = vec![0.0; 2];
        warm[x.index()] = 1.0;
        warm[y.index()] = 0.0;
        let mut last_gap = f64::INFINITY;
        let mut budget = 1u64;
        loop {
            let out = SolveRequest::new(&m)
                .budget(Budget::nodes(budget))
                .warm_start(&warm)
                .solve()
                .unwrap();
            let gap = out.gap();
            assert!(
                gap <= last_gap + 1e-9,
                "gap must not grow: {gap} after {last_gap}"
            );
            last_gap = gap;
            if out.is_optimal() {
                assert_eq!(gap, 0.0);
                break;
            }
            budget *= 2;
            assert!(budget < 1 << 20, "search failed to close");
        }
    }

    #[test]
    fn engine_obs_exports_budget_counters_and_gap_gauge() {
        let (m, x, y) = branching_model();
        let mut warm = vec![0.0; 2];
        warm[x.index()] = 1.0;
        warm[y.index()] = 0.0;
        let obs = Obs::enabled();
        let out = SolveRequest::new(&m)
            .budget(Budget::nodes(1))
            .warm_start(&warm)
            .observe(&obs)
            .solve()
            .unwrap();
        let snap = obs.snapshot();
        match snap.get("ilp.engine.budget.nodes") {
            Some(casa_obs::MetricValue::Counter(1)) => {}
            other => panic!("expected nodes-stop counter, got {other:?}"),
        }
        match snap.get("ilp.engine.gap") {
            Some(casa_obs::MetricValue::Gauge(g)) => {
                assert!((g - out.gap()).abs() < 1e-12)
            }
            other => panic!("expected gap gauge, got {other:?}"),
        }
        match snap.get("ilp.engine.warm_start.accepted") {
            Some(casa_obs::MetricValue::Counter(1)) => {}
            other => panic!("expected warm-start counter, got {other:?}"),
        }
    }

    #[test]
    fn tree_capture_records_a_convergent_deterministic_search() {
        let (m, _, _) = branching_model();
        let run = || {
            let tree = TreeRecorder::with_cap(1024);
            let out = SolveRequest::new(&m).trace_tree(&tree).solve().unwrap();
            (out, tree.take().unwrap())
        };
        let (out, log) = run();
        assert!(out.is_optimal());
        assert_eq!(log.nodes, out.stats.nodes);
        let opens = log
            .events
            .iter()
            .filter(|e| e.kind == TreeEventKind::Open)
            .count() as u64;
        assert_eq!(opens, log.nodes, "every popped node logs an open event");
        assert!(
            log.events
                .iter()
                .any(|e| e.kind == TreeEventKind::Branch && e.var.is_some() && e.bound.is_finite()),
            "fractional root must branch: {:?}",
            log.events
        );
        let incumbents: Vec<&TreeEvent> = log
            .events
            .iter()
            .filter(|e| e.kind == TreeEventKind::Incumbent)
            .collect();
        assert!(!incumbents.is_empty());
        assert!(
            (incumbents.last().unwrap().best - 4.0).abs() < 1e-6,
            "final incumbent carries the model-oriented optimum"
        );
        assert!(
            log.events.iter().all(|e| e.node <= log.nodes),
            "node ids are pop-counter values"
        );
        // Root opens at depth 0; every branch deepens by exactly one.
        assert_eq!(log.events[0].depth, 0);
        // Same model, same bytes: the capture inherits search determinism.
        let (_, log2) = run();
        assert_eq!(
            crate::tree::tree_log_json(&log),
            crate::tree::tree_log_json(&log2)
        );
        // With capture off, the solve outcome is unchanged.
        let plain = SolveRequest::new(&m).solve().unwrap();
        assert_eq!(plain.solution.values(), out.solution.values());
        assert_eq!(plain.stats.nodes, out.stats.nodes);
    }

    #[test]
    fn tree_instants_respect_a_tiny_flight_ring() {
        // Satellite: tree-adjacent observability must coexist with a
        // tiny flight ring — exact drop accounting, no panic, and a
        // valid deterministic dump of whatever survived.
        let (m, _, _) = branching_model();
        let obs = casa_obs::Obs::with_flight_capacity(3);
        let tree = TreeRecorder::with_cap(2);
        let out = SolveRequest::new(&m)
            .observe(&obs)
            .trace_tree(&tree)
            .solve()
            .unwrap();
        assert!(out.is_optimal());
        let log = tree.take().unwrap();
        assert_eq!(log.cap, 2);
        assert_eq!(log.events.len(), 2, "ring is full, never over");
        assert!(log.dropped > 0, "a real search overflows a 2-event ring");
        // A closed search records Open per pop plus branches/incumbents
        // /prunes; surviving + dropped = everything that was recorded.
        assert!(
            log.dropped + log.events.len() as u64 > log.nodes,
            "recorded more events than nodes: {} + 2 vs {}",
            log.dropped,
            log.nodes
        );
        let flight = obs.flight().expect("enabled obs has a flight ring");
        let events = obs.flight_events();
        assert!(events.len() <= 3, "flight ring respects its cap");
        if let Some(first) = events.first() {
            assert_eq!(
                flight.dropped(),
                first.seq,
                "drop count equals the number of evicted leading seqs"
            );
        }
        let json = obs.dump_flight();
        assert!(serde::json::parse(&json).is_ok(), "valid dump: {json}");
        let tree_json = crate::tree::tree_log_json(&log);
        assert!(serde::json::parse(&tree_json).is_ok());
    }

    #[test]
    fn cancel_token_equality_is_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(BudgetKind::Nodes.as_str(), "nodes");
        assert!(!BudgetKind::Nodes.is_wall_clock());
        assert!(BudgetKind::Deadline.is_wall_clock());
        assert!(Budget::unlimited().is_unlimited());
        assert!(Budget::deadline(Duration::from_millis(1)).has_wall_clock());
        assert!(!Budget::nodes(5).has_wall_clock());
    }

    /// The solution of a budgetless, cold solve under `options`.
    fn solve(model: &Model, options: &SolverOptions) -> Result<Solution, SolveError> {
        SolveRequest::new(model)
            .options(*options)
            .solve()
            .map(|outcome| outcome.solution)
    }

    #[test]
    fn binary_knapsack_exact() {
        // max 10a + 6b + 4c s.t. a+b+c <= 2 (binaries) -> 16.
        let mut m = Model::maximize();
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.set_objective([(a, 10.0), (b, 6.0), (c, 4.0)]);
        m.add_constraint([(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Le, 2.0);
        let s = solve(&m, &SolverOptions::default()).unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 16.0).abs() < 1e-6);
        assert!(s.bool_value(a) && s.bool_value(b) && !s.bool_value(c));
    }

    #[test]
    fn integer_variable_branching() {
        // max x + y s.t. 2x + y <= 7, x + 3y <= 9, integer x,y >= 0.
        // LP optimum fractional; integer optimum = 4 (e.g. x=3,y=1 or x=2,y=2).
        let mut m = Model::maximize();
        let x = m.integer("x", 0, 10);
        let y = m.integer("y", 0, 10);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_constraint([(x, 2.0), (y, 1.0)], ConstraintOp::Le, 7.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], ConstraintOp::Le, 9.0);
        let s = solve(&m, &SolverOptions::default()).unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-6, "obj {}", s.objective());
    }

    #[test]
    fn infeasible_integer_program() {
        // x + y = 1.5 with binaries: LP feasible, no integral point.
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.binary("y");
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 1.5);
        assert_eq!(
            solve(&m, &SolverOptions::default()).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::maximize();
        let x = m.integer("x", 0, i64::MAX >> 8);
        m.set_objective([(x, 1.0)]);
        // Huge but finite domain: not unbounded, returns the ub.
        let s = solve(&m, &SolverOptions::default()).unwrap();
        assert!(s.objective() > 1e10);

        let mut m2 = Model::maximize();
        let y = m2.continuous("y", 0.0, f64::INFINITY);
        let z = m2.binary("z");
        m2.set_objective([(y, 1.0), (z, 1.0)]);
        assert_eq!(
            solve(&m2, &SolverOptions::default()).unwrap_err(),
            SolveError::Unbounded
        );
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 3x + y, x binary, y continuous in [0, 10],
        // s.t. x + y >= 1.5. Best: x=0, y=1.5 -> 1.5.
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.continuous("y", 0.0, 10.0);
        m.set_objective([(x, 3.0), (y, 1.0)]);
        m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.5);
        let s = solve(&m, &SolverOptions::default()).unwrap();
        assert!((s.objective() - 1.5).abs() < 1e-6);
        assert!(!s.bool_value(x));
        assert!((s.value(y) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn node_limit_respected() {
        // A problem needing branching, with max_nodes = 1: an
        // incumbent in hand means Ok(Feasible); none means
        // Err(NodeLimit).
        let mut m = Model::maximize();
        let x = m.integer("x", 0, 10);
        let y = m.integer("y", 0, 10);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_constraint([(x, 2.0), (y, 1.0)], ConstraintOp::Le, 7.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], ConstraintOp::Le, 9.0);
        let opts = SolverOptions {
            max_nodes: 1,
            ..SolverOptions::default()
        };
        match solve(&m, &opts) {
            Err(SolveError::NodeLimit { limit: 1 }) => {}
            Ok(s) => assert_eq!(s.status(), Status::Feasible),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incumbent_objective_matches_rounded_point() {
        // With a loose integrality tolerance the root LP solution
        // x = 0.95 already counts as integral; the incumbent must
        // report the objective of the *rounded* point x = 1, not the
        // raw LP objective 0.95.
        let mut m = Model::minimize();
        let x = m.integer("x", 0, 10);
        m.set_objective([(x, 1.0)]);
        m.add_constraint([(x, 1.0)], ConstraintOp::Ge, 0.95);
        let opts = SolverOptions {
            int_tol: 0.1,
            ..SolverOptions::default()
        };
        let s = solve(&m, &opts).unwrap();
        assert!((s.value(x) - 1.0).abs() < 1e-12);
        assert!(
            (s.objective() - 1.0).abs() < 1e-12,
            "objective {} should equal the rounded point's objective",
            s.objective()
        );
    }

    #[test]
    fn observed_solve_records_search_effort() {
        let mut m = Model::maximize();
        let x = m.integer("x", 0, 10);
        let y = m.integer("y", 0, 10);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_constraint([(x, 2.0), (y, 1.0)], ConstraintOp::Le, 7.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], ConstraintOp::Le, 9.0);
        let obs = Obs::enabled();
        let s = SolveRequest::new(&m)
            .observe(&obs)
            .solve()
            .unwrap()
            .solution;
        let snap = obs.snapshot();
        let counter = |name: &str| match snap.get(name) {
            Some(casa_obs::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        assert_eq!(counter("ilp.bb.nodes"), s.nodes());
        assert!(counter("ilp.bb.incumbents") >= 1);
        assert!(counter("ilp.simplex.pivots") > 0);
        match snap.get("ilp.bb.best_bound") {
            Some(casa_obs::MetricValue::Gauge(b)) => {
                assert!(
                    (b - s.objective()).abs() < 1e-9,
                    "closed search: bound = obj"
                )
            }
            other => panic!("expected gauge, got {other:?}"),
        }
        // One instant event per incumbent improvement.
        let incumbents = obs
            .events()
            .iter()
            .filter(|e| e.name == "bb.incumbent")
            .count() as u64;
        assert_eq!(incumbents, counter("ilp.bb.incumbents"));
    }

    #[test]
    fn stats_match_between_plain_and_observed_solve() {
        let mut m = Model::maximize();
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.set_objective([(a, 10.0), (b, 6.0), (c, 4.0)]);
        m.add_constraint([(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Le, 2.0);
        let plain = solve(&m, &SolverOptions::default()).unwrap();
        let (observed, stats) = SolveRequest::new(&m)
            .observe(&Obs::enabled())
            .solve_with_stats();
        let observed = observed.unwrap().solution;
        assert_eq!(plain.values(), observed.values());
        assert_eq!(plain.nodes(), stats.nodes);
    }

    #[test]
    fn objective_constant_carried_through() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.set_objective([(x, -2.0)]);
        m.add_objective_constant(5.0);
        let s = solve(&m, &SolverOptions::default()).unwrap();
        // min -2x + 5 -> x=1, obj 3.
        assert!((s.objective() - 3.0).abs() < 1e-9);
        assert!(s.bool_value(x));
    }
}
