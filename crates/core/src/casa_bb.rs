//! Specialized exact branch & bound for the CASA objective.
//!
//! The ILP of [`crate::casa_ilp`] is exact but generic; on large
//! conflict graphs the tableau simplex underneath becomes the
//! bottleneck (CPLEX did this job for the authors). This module
//! solves the *same* problem — verified equal by property tests —
//! with a dedicated search that exploits its structure:
//!
//! Choosing the scratchpad set `T` maximizes the **savings**
//!
//! ```text
//! sav(T) = Σ_{i∈T} a_i + Σ_{pairs {i,j} ∩ T ≠ ∅} w_ij
//! a_i  = f_i·(E_hit − E_SP) + m_ii·(E_miss − E_hit)   ≥ 0
//! w_ij = (m_ij + m_ji)·(E_miss − E_hit)               ≥ 0
//! ```
//!
//! subject to `Σ_{i∈T} S_i ≤ C`.
//!
//! # Search
//!
//! A depth-first search over the candidates in a **static order** —
//! optimistic density `(a_i + Σ_j w_ij) / S_i`, best first — that
//! tries *take* before *skip* at every position. A node whose path
//! saves more than the incumbent by over `1e-9` becomes the incumbent;
//! a node whose bound on every completion cannot do that is pruned.
//! Two admissible bounds are tested:
//!
//! * The **fractional bound**: the path's savings plus the fractional
//!   knapsack over the optimistic savings `a_i + Σ_j w_ij` of the
//!   positions left. Every term is non-negative, so an item never
//!   saves more than that. It counts each pair in full at both
//!   endpoints, and keeps pairs a chosen partner already covers.
//! * The **pair bound**, switched on at the first clock poll (node
//!   4096) of a search that has not closed. Pairs a chosen object
//!   covers drop out, objects that no longer fit drop out, and each
//!   pair between two undecided objects is split by a multiplier
//!   `α_p ∈ [0,1]`:
//!
//!   ```text
//!   w·[x_i ∨ x_j] ≤ (1−α)·w·(x_i + x_j) + α·w      for every α ∈ [0,1]
//!   ```
//!
//!   (with neither, one or both endpoints chosen it reads `0 ≤ α·w`,
//!   `w ≤ w` or `w ≤ (2−α)·w`). What is left is a linear
//!   knapsack over values `v_i(α)` plus a constant `K(α)`, and LP
//!   duality bounds it by
//!   `λ·cap_left + K(α) + Σ_i max(0, v_i(α) − λ·S_i)` for every
//!   `λ ≥ 0`. `α` and `λ` are fixed once per solve by a bounded
//!   subgradient pass over the root relaxation (the split is the
//!   Lagrangian relaxation of the tight linearization `y ≤ x_i + x_j`,
//!   as in Caprara, Pisinger & Toth's quadratic-knapsack bounds); each
//!   node takes the smallest dual form over a short ladder of
//!   multiples of that `λ`. `v_i`, `K` and the sums are kept
//!   incrementally with an undo log, so the test costs O(1) per node.
//!
//! Pruning only drops subtrees that cannot strictly improve the
//! incumbent, and the order of the search never changes. The sequence
//! of adopted incumbents (objective and set) is therefore exactly the
//! one an exhaustive take-first DFS adopts; a stronger bound only
//! lowers the node ids at which they are adopted. The pair bound
//! carries a round-off margin so this also holds in floating point.
//!
//! The search is **anytime**: [`allocate_bb_traced`] takes a
//! [`Budget`] and an optional warm start, always returns its best
//! incumbent, and reports the proven optimality gap (in energy units)
//! from the root fractional bound when the budget stops it early.

use crate::allocation::Allocation;
use crate::energy_model::EnergyModel;
use crate::session::SessionRecorder;
use casa_ilp::engine::{Budget, BudgetKind, CancelToken};
use casa_ilp::tree::{TreeEvent, TreeEventKind, TreeRecorder};
use casa_obs::{ArgValue, Obs};
use std::time::Instant;

/// Default node allowance when the caller's [`Budget`] has none: deep
/// enough to close every instance in this repository.
const DEFAULT_NODE_BUDGET: u64 = 50_000_000;

/// How often (in nodes) the DFS polls wall-clock budgets.
const CLOCK_POLL_MASK: u64 = 0xFFF;

/// The pair bound switches on at the first clock poll: a solve that
/// closes or stops before it never pays for the multiplier pass.
const PAIR_BOUND_FROM_NODE: u64 = CLOCK_POLL_MASK + 1;

/// The capacity duals the pair bound tries at every node, as multiples
/// of the root relaxation's critical density `λ`. Any `λ ≥ 0` gives an
/// admissible bound; deeper nodes often want a different one than the
/// root, lower where the search skipped the densest objects and higher
/// where it took them, and three rungs cost three live sums.
const LAMBDA_LADDER: [f64; RUNGS] = [1.5, 1.0, 2.0 / 3.0];
const RUNGS: usize = 3;

/// Iteration cap of the subgradient pass that fixes the pair split.
const SUBGRADIENT_ITERS: usize = 100;

/// Non-improving subgradient iterations before the step halves.
const SUBGRADIENT_STALL: usize = 5;

/// Round-off margin of the pair bound, relative to the total
/// optimistic savings (which caps every term it sums): far above the
/// error of its incremental sums, far below any gap worth pruning.
const PAIR_BOUND_ROUNDOFF: f64 = 1e-9;

/// Outcome of a budgeted CASA branch & bound: the incumbent allocation
/// plus proof quality.
#[derive(Debug, Clone, PartialEq)]
pub struct BbOutcome {
    /// Best allocation found (optimal when `stopped_by` is `None`).
    pub allocation: Allocation,
    /// Proven absolute optimality gap in the energy table's units
    /// (the incumbent's predicted energy is within `gap` of the true
    /// optimum). `0.0` when the search closed.
    pub gap: f64,
    /// Which budget dimension stopped the search, if any.
    pub stopped_by: Option<BudgetKind>,
}

impl BbOutcome {
    /// Whether the search closed (the allocation is proven optimal).
    pub fn is_optimal(&self) -> bool {
        self.stopped_by.is_none()
    }
}

/// Problem data shared by the search, the greedy incumbent, and the
/// root bound: linear savings, merged pair weights, density order.
pub(crate) struct SavingsModel {
    n: usize,
    a: Vec<f64>,
    sizes: Vec<u32>,
    pairs: Vec<(usize, usize, f64)>,
    incident: Vec<Vec<usize>>,
    opt: Vec<f64>,
    /// Positive-saving candidates that occupy space, densest first.
    order: Vec<usize>,
    /// Zero-size objects with positive saving: free wins.
    free: Vec<usize>,
}

impl SavingsModel {
    pub(crate) fn new(model: &EnergyModel<'_>, capacity: u32) -> Self {
        let g = model.graph();
        let t = model.table();
        let n = g.len();
        let premium = t.miss_premium();

        // Linear savings and pair weights.
        let mut a: Vec<f64> = (0..n)
            .map(|i| g.fetches_of(i) as f64 * (t.cache_hit - t.spm_access))
            .collect();
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        {
            use std::collections::HashMap;
            let mut acc: HashMap<(usize, usize), f64> = HashMap::new();
            for ((i, j), m) in g.edges() {
                if i == j {
                    a[i] += m as f64 * premium;
                } else {
                    *acc.entry((i.min(j), i.max(j))).or_insert(0.0) += m as f64 * premium;
                }
            }
            pairs.extend(acc.into_iter().map(|((i, j), w)| (i, j, w)));
            pairs.sort_by_key(|x| (x.0, x.1));
        }
        // Optimistic saving per item: a_i + all incident pair weights.
        let mut opt = a.clone();
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (p, &(i, j, w)) in pairs.iter().enumerate() {
            opt[i] += w;
            opt[j] += w;
            incident[i].push(p);
            incident[j].push(p);
        }

        // Candidates: positive optimistic saving and fits at all.
        // Order by optimistic density, best first (drives both
        // branching and the fractional bound).
        let mut order: Vec<usize> = (0..n)
            .filter(|&i| opt[i] > 0.0 && g.size_of(i) <= capacity && g.size_of(i) > 0)
            .collect();
        let free: Vec<usize> = (0..n)
            .filter(|&i| opt[i] > 0.0 && g.size_of(i) == 0)
            .collect();
        order.sort_by(|&x, &y| {
            let dx = opt[x] / f64::from(g.size_of(x));
            let dy = opt[y] / f64::from(g.size_of(y));
            dy.partial_cmp(&dx).unwrap_or(std::cmp::Ordering::Equal)
        });

        let sizes: Vec<u32> = (0..n).map(|i| g.size_of(i)).collect();
        SavingsModel {
            n,
            a,
            sizes,
            pairs,
            incident,
            opt,
            order,
            free,
        }
    }

    /// Exact savings of a chosen set (each pair counted once).
    pub(crate) fn exact_savings(&self, chosen: &[bool]) -> f64 {
        let mut s = 0.0;
        for (i, &c) in chosen.iter().enumerate().take(self.n) {
            if c {
                s += self.a[i];
            }
        }
        for &(i, j, w) in &self.pairs {
            if chosen[i] || chosen[j] {
                s += w;
            }
        }
        s
    }

    /// Fractional knapsack bound on savings from `order[pos..]` with
    /// `cap_left` capacity. Items are in density order, so the greedy
    /// fractional fill is optimal for the relaxation.
    fn fractional_bound(&self, pos: usize, cap_left: u32) -> f64 {
        let mut ub = 0.0;
        let mut cap = f64::from(cap_left);
        for &i in &self.order[pos..] {
            let s = f64::from(self.sizes[i]);
            if s <= cap {
                ub += self.opt[i];
                cap -= s;
            } else {
                ub += self.opt[i] * cap / s;
                break;
            }
        }
        ub
    }

    /// Admissible upper bound on the savings of *any* feasible set:
    /// free items at their optimistic value plus the fractional
    /// knapsack over the sized candidates.
    pub(crate) fn root_bound(&self, capacity: u32) -> f64 {
        let free: f64 = self.free.iter().map(|&i| self.opt[i]).sum();
        free + self.fractional_bound(0, capacity)
    }

    /// Greedy incumbent: walk the density order, take what fits, plus
    /// every free item.
    fn greedy_chosen(&self, capacity: u32) -> Vec<bool> {
        let mut chosen = vec![false; self.n];
        let mut cap_left = capacity;
        for &i in &self.order {
            if self.sizes[i] <= cap_left {
                chosen[i] = true;
                cap_left -= self.sizes[i];
            }
        }
        for &i in &self.free {
            chosen[i] = true;
        }
        chosen
    }

    /// The static branch order (density-sorted candidate indices) —
    /// what a recorded session stores and replay re-derives.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Optimistic saving `a_i + Σ incident w_ij` — the density
    /// numerator of the knapsack bound.
    pub(crate) fn optimistic_saving(&self, i: usize) -> f64 {
        self.opt[i]
    }

    /// Object size in bytes.
    pub(crate) fn size(&self, i: usize) -> u32 {
        self.sizes[i]
    }

    /// Marginal saving of object `i` relative to `chosen`: `a_i` plus
    /// every incident pair weight not already covered by the *other*
    /// endpoint. For a chosen object this is what evicting it costs;
    /// for an unchosen one, what adding it would gain (capacity
    /// permitting) — the explain layer's per-object regret.
    pub(crate) fn marginal_saving(&self, i: usize, chosen: &[bool]) -> f64 {
        let mut s = self.a[i];
        for &p in &self.incident[i] {
            let (a, b, w) = self.pairs[p];
            let other = if a == i { b } else { a };
            if !chosen[other] {
                s += w;
            }
        }
        s
    }

    /// Whether `chosen` respects the capacity (free items are free).
    pub(crate) fn fits(&self, chosen: &[bool], capacity: u32) -> bool {
        let used: u64 = (0..self.n)
            .filter(|&i| chosen[i])
            .map(|i| u64::from(self.sizes[i]))
            .sum();
        used <= u64::from(capacity)
    }
}

/// Exactly solve the CASA allocation for a scratchpad of `capacity`
/// bytes: the depth-first branch & bound of the module docs, run to
/// completion.
///
/// Runs in the paper's "< 1 s" regime for every benchmark in this
/// repository (see `benches/solver.rs`); worst-case exponential like
/// any exact solver for an NP-complete problem. For bounded-effort,
/// warm-started or recorded solves use [`allocate_bb_traced`], which
/// this calls with an unlimited budget and nothing captured.
pub fn allocate_bb(model: &EnergyModel<'_>, capacity: u32) -> Allocation {
    allocate_bb_traced(
        model,
        capacity,
        &Budget::unlimited(),
        None,
        &Obs::disabled(),
        &SessionRecorder::disabled(),
        &TreeRecorder::disabled(),
    )
    .allocation
}

/// Anytime CASA branch & bound: solve within `budget`, optionally
/// seeded with a `warm_start` scratchpad set (one flag per object;
/// infeasible or mis-sized warm starts are ignored), with session and
/// search-tree capture.
///
/// The search keeps a feasible incumbent from t=0 — the better of the
/// built-in density-greedy fill and the warm start — so budget
/// exhaustion degrades the proof, never the availability, of an
/// allocation. Observability: the search runs in a `solve.bb` span
/// with `core.bb.nodes` / `core.bb.incumbents` counters, `bb.incumbent`
/// instant events, a `core.bb.gap` gauge, and a
/// `core.engine.budget.<kind>` counter when a budget dimension fires.
///
/// `rec` receives the static branch order, the initial (greedy-vs-warm)
/// incumbent as entry 0, every DFS incumbent adoption, and the stop
/// disposition, for session capture and offline replay. `tree`
/// receives every DFS node entry, branch, bound prune, and incumbent
/// adoption as a [`TreeEvent`]. Node id is the DFS visit counter and
/// depth is the position in the static branch order; bounds are
/// **savings** (maximization orientation — larger is better) and are
/// the bound the prune test applied at that node. Capture changes no
/// search decision: with a node budget both logs are deterministic.
/// Pass [`SessionRecorder::disabled`] and [`TreeRecorder::disabled`]
/// to capture nothing.
pub fn allocate_bb_traced(
    model: &EnergyModel<'_>,
    capacity: u32,
    budget: &Budget,
    warm_start: Option<&[bool]>,
    obs: &Obs,
    rec: &SessionRecorder,
    tree: &TreeRecorder,
) -> BbOutcome {
    solve(
        model,
        capacity,
        budget,
        warm_start,
        obs,
        rec,
        tree,
        PAIR_BOUND_FROM_NODE,
    )
}

/// [`allocate_bb_traced`] with the node at which the pair bound
/// switches on as a parameter (tests move it to the root).
#[allow(clippy::too_many_arguments)]
fn solve(
    model: &EnergyModel<'_>,
    capacity: u32,
    budget: &Budget,
    warm_start: Option<&[bool]>,
    obs: &Obs,
    rec: &SessionRecorder,
    tree: &TreeRecorder,
    pair_from: u64,
) -> BbOutcome {
    let sm = SavingsModel::new(model, capacity);
    let n = sm.n;

    let mut best_chosen = sm.greedy_chosen(capacity);
    let mut best_sav = sm.exact_savings(&best_chosen);
    if let Some(ws) = warm_start {
        if ws.len() == n && sm.fits(ws, capacity) {
            let sav = sm.exact_savings(ws);
            if sav > best_sav {
                best_chosen = ws.to_vec();
                best_sav = sav;
            }
        }
    }
    // The initial incumbent travels as log entry 0 because replay
    // cannot re-derive it: a server warm hint comes from the solution
    // cache, not from the request.
    rec.record_order(sm.order().iter().map(|&i| i as u32));
    rec.record_incumbent(0, best_sav, best_chosen.clone());

    // DFS over `order` positions: at each position decide take/skip.
    // State: current savings (exact), pairs already counted, capacity,
    // and (once on) the pair bound.
    struct Search<'s> {
        sm: &'s SavingsModel,
        capacity: u32,
        nodes: u64,
        incumbents: u64,
        node_budget: u64,
        deadline_at: Option<Instant>,
        cancel: Option<&'s CancelToken>,
        stopped: Option<BudgetKind>,
        best_sav: f64,
        best_chosen: Vec<bool>,
        /// Node at which the pair bound switches on.
        pair_from: u64,
        pair: Option<PairBound>,
        /// Pairs the path covers, in the order it covered them: each take
        /// pops its own back off on return.
        covered: Vec<usize>,
        obs: &'s Obs,
        rec: &'s SessionRecorder,
        tree: &'s TreeRecorder,
    }

    impl Search<'_> {
        fn dfs(
            &mut self,
            pos: usize,
            cap_left: u32,
            cur_sav: f64,
            chosen: &mut Vec<bool>,
            pair_counted: &mut Vec<bool>,
        ) {
            if self.stopped.is_some() {
                return; // budget exhausted: unwind without working
            }
            self.nodes += 1;
            if self.nodes > self.node_budget {
                self.stopped = Some(BudgetKind::Nodes);
                return;
            }
            if self.nodes & CLOCK_POLL_MASK == 0 {
                if let Some(token) = self.cancel {
                    if token.is_cancelled() {
                        self.stopped = Some(BudgetKind::Cancelled);
                        return;
                    }
                }
                if let Some(at) = self.deadline_at {
                    if Instant::now() >= at {
                        self.stopped = Some(BudgetKind::Deadline);
                        return;
                    }
                }
            }
            if self.nodes == self.pair_from {
                self.switch_on_pair_bound(pos, chosen);
            }
            // The node's bound (savings orientation): only worth computing
            // here when the tree is being captured — the prune test below
            // evaluates it lazily.
            let local_bound = if self.tree.is_enabled() {
                let b = self.node_bound(pos, cap_left, cur_sav);
                self.tree.record(TreeEvent {
                    kind: TreeEventKind::Open,
                    node: self.nodes,
                    depth: pos as u32,
                    bound: b,
                    best: self.best_sav,
                    var: None,
                });
                b
            } else {
                f64::NAN
            };
            if cur_sav > self.best_sav + 1e-9 {
                self.best_sav = cur_sav;
                self.best_chosen = chosen.clone();
                self.incumbents += 1;
                self.rec
                    .record_incumbent(self.nodes, cur_sav, chosen.clone());
                self.obs.instant(
                    "bb.incumbent",
                    vec![
                        ("savings".into(), ArgValue::F64(cur_sav)),
                        ("node".into(), ArgValue::U64(self.nodes)),
                    ],
                );
                if self.tree.is_enabled() {
                    self.tree.record(TreeEvent {
                        kind: TreeEventKind::Incumbent,
                        node: self.nodes,
                        depth: pos as u32,
                        bound: local_bound,
                        best: cur_sav,
                        var: None,
                    });
                }
            }
            if pos >= self.sm.order.len() {
                return;
            }
            if self.prunes(pos, cap_left, cur_sav) {
                if self.tree.is_enabled() {
                    self.tree.record(TreeEvent {
                        kind: TreeEventKind::PruneBound,
                        node: self.nodes,
                        depth: pos as u32,
                        bound: local_bound,
                        best: self.best_sav,
                        var: None,
                    });
                }
                return; // prune
            }
            let sm = self.sm;
            let i = sm.order[pos];
            if self.tree.is_enabled() {
                self.tree.record(TreeEvent {
                    kind: TreeEventKind::Branch,
                    node: self.nodes,
                    depth: pos as u32,
                    bound: local_bound,
                    best: self.best_sav,
                    var: Some(i as u32),
                });
            }
            // Branch 1: take i (if it fits).
            if sm.sizes[i] <= cap_left {
                let cap_after = cap_left - sm.sizes[i];
                let mark = self.covered.len();
                let mut gained = sm.a[i];
                for &p in &sm.incident[i] {
                    if !pair_counted[p] {
                        pair_counted[p] = true;
                        self.covered.push(p);
                        gained += sm.pairs[p].2;
                    }
                }
                if let Some(pb) = &mut self.pair {
                    pb.decide(sm, pos, true, cap_after);
                }
                chosen[i] = true;
                self.dfs(pos + 1, cap_after, cur_sav + gained, chosen, pair_counted);
                chosen[i] = false;
                for p in self.covered.drain(mark..) {
                    pair_counted[p] = false;
                }
                if let Some(pb) = &mut self.pair {
                    pb.undo(sm, pos);
                }
            }
            // Branch 2: skip i.
            if let Some(pb) = &mut self.pair {
                pb.decide(sm, pos, false, cap_left);
            }
            self.dfs(pos + 1, cap_left, cur_sav, chosen, pair_counted);
            if let Some(pb) = &mut self.pair {
                pb.undo(sm, pos);
            }
        }

        /// Build the pair bound for the path to `pos`. Runs once per
        /// solve from inside the recursion, so it stays out of line:
        /// inlined, its locals would widen every DFS frame.
        #[cold]
        #[inline(never)]
        fn switch_on_pair_bound(&mut self, pos: usize, chosen: &[bool]) {
            self.pair = Some(PairBound::new(
                self.sm,
                self.capacity,
                self.best_sav,
                pos,
                chosen,
            ));
        }

        /// Whether no completion of the path at `pos` can beat the
        /// incumbent by more than the adoption threshold. The O(1) pair
        /// bound goes first; the fractional bound decides otherwise.
        fn prunes(&self, pos: usize, cap_left: u32, cur_sav: f64) -> bool {
            let threshold = self.best_sav + 1e-9;
            if let Some(pb) = &self.pair {
                if pb.bound(cur_sav, cap_left) <= threshold {
                    return true;
                }
            }
            cur_sav + self.sm.fractional_bound(pos, cap_left) <= threshold
        }

        /// The bound `prunes` compares against the incumbent: the
        /// smaller of the fractional and (once on) the pair bound.
        fn node_bound(&self, pos: usize, cap_left: u32, cur_sav: f64) -> f64 {
            let fractional = cur_sav + self.sm.fractional_bound(pos, cap_left);
            match &self.pair {
                Some(pb) => fractional.min(pb.bound(cur_sav, cap_left)),
                None => fractional,
            }
        }
    }

    let span = obs.span("solve.bb");
    // A pre-cancelled token stops before the first node; check once
    // up front so the DFS poll interval can stay sparse.
    let pre_stopped = match (&budget.cancel, budget.max_nodes) {
        (Some(token), _) if token.is_cancelled() => Some(BudgetKind::Cancelled),
        (_, Some(0)) => Some(BudgetKind::Nodes),
        _ => None,
    };
    let mut search = Search {
        sm: &sm,
        capacity,
        nodes: 0,
        incumbents: 0,
        node_budget: budget.max_nodes.unwrap_or(DEFAULT_NODE_BUDGET),
        deadline_at: budget.deadline.map(|d| Instant::now() + d),
        cancel: budget.cancel.as_ref(),
        stopped: pre_stopped,
        best_sav,
        best_chosen,
        pair_from,
        pair: None,
        covered: Vec::new(),
        obs,
        rec,
        tree,
    };
    {
        let mut chosen = vec![false; n];
        for &i in &sm.free {
            chosen[i] = true;
        }
        let mut pair_counted = vec![false; sm.pairs.len()];
        let mut base = 0.0;
        for &i in &sm.free {
            base += sm.a[i];
            for &p in &sm.incident[i] {
                if !pair_counted[p] {
                    pair_counted[p] = true;
                    base += sm.pairs[p].2;
                }
            }
        }
        search.dfs(0, capacity, base, &mut chosen, &mut pair_counted);
    }
    best_sav = search.best_sav;
    let on_spm = search.best_chosen;
    let nodes = search.nodes;
    let stopped_by = search.stopped;
    rec.record_stop(stopped_by.map(BudgetKind::as_str), nodes);
    tree.set_nodes(nodes);
    obs.add("core.bb.nodes", nodes);
    obs.add("core.bb.incumbents", search.incumbents);

    // Savings and energy differ by the fixed baseline, so the proven
    // savings gap IS the energy gap: root_bound − best known savings.
    let gap = match stopped_by {
        None => 0.0,
        Some(_) => (sm.root_bound(capacity) - best_sav).max(0.0),
    };
    obs.gauge_set("core.bb.gap", gap);
    if let Some(kind) = stopped_by {
        obs.add(&format!("core.engine.budget.{}", kind.as_str()), 1);
    }
    drop(span);

    let predicted = model.total_energy(&on_spm);
    BbOutcome {
        allocation: Allocation {
            on_spm,
            predicted_energy: Some(predicted),
            solver_nodes: nodes,
        },
        gap,
        stopped_by,
    }
}

/// Where an object stands on the current DFS path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// A candidate whose position the path has not reached yet.
    Open,
    /// On the scratchpad: decided *take*, or a free (zero-size) item.
    Taken,
    /// Never on the scratchpad: decided *skip*, or not a candidate.
    Out,
}

/// The state of the pair bound before one depth's decision.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    undo_v: usize,
    undo_live: usize,
    k: f64,
    t: [f64; RUNGS],
    fit: usize,
}

/// The node-local pair bound of the module docs. The split shares and
/// the `λ` ladder are fixed once per solve; `v_i`, `K` and the live
/// sums follow the DFS path through [`PairBound::decide`] /
/// [`PairBound::undo`], so [`PairBound::bound`] is O(1).
struct PairBound {
    /// Capacity duals `λ`, one live sum each.
    lambdas: [f64; RUNGS],
    /// Per pair: endpoint share `(1 − α_p)·w_p`.
    share: Vec<f64>,
    /// Per pair: constant share `α_p·w_p`.
    rest: Vec<f64>,
    /// Per object and `λ`: `λ·S_i`.
    cost: Vec<[f64; RUNGS]>,
    /// Per object: `v_i(α)` given the path's decisions.
    v: Vec<f64>,
    fate: Vec<Fate>,
    /// Open and still fits the capacity left.
    live: Vec<bool>,
    /// `K(α)`: constant shares of the pairs whose endpoints are both
    /// open.
    k: f64,
    /// Per `λ`: `Σ_{live i} max(0, v_i − λ·S_i)`.
    t: [f64; RUNGS],
    /// Candidates, largest first: `by_size[fit..]` fit the capacity
    /// left.
    by_size: Vec<usize>,
    fit: usize,
    /// Undo log: overwritten `v_i` values, objects that left `live`.
    undo_v: Vec<(usize, f64)>,
    undo_live: Vec<usize>,
    /// Per depth: the state before that depth's decision.
    marks: Vec<Mark>,
    /// Round-off allowance added to every bound.
    slack: f64,
}

impl PairBound {
    /// Fix the multipliers on the root relaxation (Polyak steps toward
    /// `target`, the incumbent's savings), then replay the decisions
    /// of the DFS path to `pos`, which `chosen` holds.
    fn new(sm: &SavingsModel, capacity: u32, target: f64, pos: usize, chosen: &[bool]) -> Self {
        let (share, lambda) = root_multipliers(sm, capacity, target);
        let lambdas = LAMBDA_LADDER.map(|f| f * lambda);
        let rest: Vec<f64> = sm
            .pairs
            .iter()
            .zip(&share)
            .map(|(&(_, _, w), &s)| w - s)
            .collect();
        let mut fate = vec![Fate::Out; sm.n];
        for &i in &sm.free {
            fate[i] = Fate::Taken;
        }
        let mut v = vec![0.0; sm.n];
        let mut live = vec![false; sm.n];
        for &i in &sm.order {
            fate[i] = Fate::Open;
            v[i] = sm.a[i];
            live[i] = true;
        }
        let mut k = 0.0;
        for (p, &(i, j, w)) in sm.pairs.iter().enumerate() {
            match (fate[i], fate[j]) {
                (Fate::Open, Fate::Open) => {
                    v[i] += share[p];
                    v[j] += share[p];
                    k += rest[p];
                }
                (Fate::Open, Fate::Out) => v[i] += w,
                (Fate::Out, Fate::Open) => v[j] += w,
                _ => {}
            }
        }
        let cost: Vec<[f64; RUNGS]> = sm
            .sizes
            .iter()
            .map(|&s| lambdas.map(|l| l * f64::from(s)))
            .collect();
        let mut t = [0.0; RUNGS];
        for &i in &sm.order {
            for (tq, c) in t.iter_mut().zip(cost[i]) {
                *tq += (v[i] - c).max(0.0);
            }
        }
        let mut by_size = sm.order.clone();
        by_size.sort_by_key(|&i| (std::cmp::Reverse(sm.sizes[i]), i));
        let scale: f64 = sm.opt.iter().sum();
        let mut pb = PairBound {
            lambdas,
            share,
            rest,
            cost,
            v,
            fate,
            live,
            k,
            t,
            by_size,
            fit: 0,
            undo_v: Vec::new(),
            undo_live: Vec::new(),
            marks: vec![Mark::default(); sm.order.len()],
            slack: PAIR_BOUND_ROUNDOFF * scale,
        };
        let mut cap_left = capacity;
        for (q, &i) in sm.order[..pos].iter().enumerate() {
            if chosen[i] {
                cap_left -= sm.sizes[i];
            }
            pb.decide(sm, q, chosen[i], cap_left);
        }
        pb
    }

    /// Drop a live object from the live sums.
    fn retire(&mut self, i: usize) {
        if self.live[i] {
            for (t, c) in self.t.iter_mut().zip(self.cost[i]) {
                *t -= (self.v[i] - c).max(0.0);
            }
            self.live[i] = false;
            self.undo_live.push(i);
        }
    }

    /// Decide the object at depth `pos` (take or skip), leaving
    /// `cap_after` bytes: pairs it covers leave the bound, pairs it
    /// rejects move whole onto the open partner, and objects that no
    /// longer fit leave the live sums.
    fn decide(&mut self, sm: &SavingsModel, pos: usize, take: bool, cap_after: u32) {
        self.marks[pos] = Mark {
            undo_v: self.undo_v.len(),
            undo_live: self.undo_live.len(),
            k: self.k,
            t: self.t,
            fit: self.fit,
        };
        let i = sm.order[pos];
        self.fate[i] = if take { Fate::Taken } else { Fate::Out };
        self.retire(i);
        for &p in &sm.incident[i] {
            let (a, b, _) = sm.pairs[p];
            let j = if a == i { b } else { a };
            if self.fate[j] != Fate::Open {
                continue;
            }
            self.k -= self.rest[p];
            let old = self.v[j];
            let new = if take {
                old - self.share[p]
            } else {
                old + self.rest[p]
            };
            self.undo_v.push((j, old));
            self.v[j] = new;
            if self.live[j] {
                for (t, c) in self.t.iter_mut().zip(self.cost[j]) {
                    *t += (new - c).max(0.0) - (old - c).max(0.0);
                }
            }
        }
        while let Some(&j) = self.by_size.get(self.fit) {
            if sm.sizes[j] <= cap_after {
                break;
            }
            self.fit += 1;
            self.retire(j);
        }
    }

    /// Restore the state from before the decision at depth `pos`,
    /// bit for bit.
    fn undo(&mut self, sm: &SavingsModel, pos: usize) {
        let mark = self.marks[pos];
        for (j, old) in self.undo_v.drain(mark.undo_v..).rev() {
            self.v[j] = old;
        }
        for j in self.undo_live.drain(mark.undo_live..) {
            self.live[j] = true;
        }
        self.k = mark.k;
        self.t = mark.t;
        self.fit = mark.fit;
        self.fate[sm.order[pos]] = Fate::Open;
    }

    /// Upper bound on the savings of every completion of the path, for
    /// a path worth `cur_sav` with `cap_left` bytes left.
    fn bound(&self, cur_sav: f64, cap_left: u32) -> f64 {
        let cap = f64::from(cap_left);
        let dual = self
            .lambdas
            .iter()
            .zip(&self.t)
            .map(|(&l, &t)| l * cap + t)
            .fold(f64::INFINITY, f64::min);
        cur_sav + self.k + dual + self.slack
    }
}

/// Fix the pair split and the capacity dual on the root relaxation.
///
/// Minimizes `L(α) = K(α) + max{Σ v_i(α)·x_i : Σ S_i·x_i ≤ C, 0 ≤ x ≤ 1}`
/// over the pairs between two candidates with a bounded projected
/// subgradient pass (Polyak steps toward `target`, halved after
/// stalls), starting from the even split `α = ½`. Every other pair has
/// at most one endpoint that can still be chosen, so its whole weight
/// stays on that endpoint. Returns each pair's endpoint share
/// `(1 − α_p)·w_p` and the critical density `λ` of the best
/// relaxation seen, which makes the dual form equal `L(α)` at the root.
fn root_multipliers(sm: &SavingsModel, capacity: u32, target: f64) -> (Vec<f64>, f64) {
    let mut open = vec![false; sm.n];
    for &i in &sm.order {
        open[i] = true;
    }
    let mut free = vec![false; sm.n];
    for &i in &sm.free {
        free[i] = true;
    }
    // What each candidate is worth whatever α is: a_i plus the pairs
    // whose partner is never chosen (pairs with a free partner are
    // covered from the start).
    let mut base = vec![0.0; sm.n];
    for &i in &sm.order {
        base[i] = sm.a[i];
    }
    let mut split = Vec::new();
    for (p, &(i, j, w)) in sm.pairs.iter().enumerate() {
        match (open[i], open[j]) {
            (true, true) => split.push(p),
            (true, false) if !free[j] => base[i] += w,
            (false, true) if !free[i] => base[j] += w,
            _ => {}
        }
    }
    let mut share: Vec<f64> = sm.pairs.iter().map(|&(_, _, w)| w).collect();
    for &p in &split {
        share[p] = 0.5 * sm.pairs[p].2;
    }

    let mut v = base.clone();
    let mut x = vec![0.0; sm.n];
    let mut by_density = sm.order.clone();
    let mut best_value = f64::INFINITY;
    let mut best = (share.clone(), 0.0);
    let mut theta = 1.0;
    let mut stall = 0;
    for _ in 0..SUBGRADIENT_ITERS {
        let mut k = 0.0;
        for &i in &sm.order {
            v[i] = base[i];
        }
        for &p in &split {
            let (i, j, w) = sm.pairs[p];
            v[i] += share[p];
            v[j] += share[p];
            k += w - share[p];
        }
        let (fill, lambda) = fractional_fill(&mut by_density, &v, &sm.sizes, capacity, &mut x);
        let value = k + fill;
        if value < best_value {
            best_value = value;
            best = (share.clone(), lambda);
            stall = 0;
        } else {
            stall += 1;
            if stall == SUBGRADIENT_STALL {
                theta *= 0.5;
                stall = 0;
            }
        }
        let excess = value - target;
        let norm: f64 = split
            .iter()
            .map(|&p| {
                let (i, j, _) = sm.pairs[p];
                (x[i] + x[j] - 1.0).powi(2)
            })
            .sum();
        if excess <= 0.0 || norm == 0.0 {
            break; // the bound meets the incumbent, or α is stationary
        }
        let step = theta * excess / norm;
        for &p in &split {
            let (i, j, w) = sm.pairs[p];
            share[p] = (share[p] - step * (x[i] + x[j] - 1.0)).clamp(0.0, w);
        }
    }
    best
}

/// Fractional knapsack over `items`, which it re-sorts by density
/// `v_i / S_i` (best first, ties by index): fills `x` with the optimal
/// fractions and returns the relaxation's value and its critical
/// density `λ` (0 when everything fits).
fn fractional_fill(
    items: &mut [usize],
    v: &[f64],
    sizes: &[u32],
    capacity: u32,
    x: &mut [f64],
) -> (f64, f64) {
    // `x` holds the densities while sorting; the fill overwrites it.
    for &i in items.iter() {
        x[i] = v[i] / f64::from(sizes[i]);
    }
    items.sort_unstable_by(|&p, &q| x[q].total_cmp(&x[p]).then(p.cmp(&q)));
    let mut cap = f64::from(capacity);
    let mut value = 0.0;
    let mut lambda = 0.0;
    let mut full = false;
    for &i in items.iter() {
        let s = f64::from(sizes[i]);
        x[i] = if full {
            0.0
        } else if s <= cap {
            cap -= s;
            1.0
        } else {
            full = true;
            lambda = v[i] / s;
            cap / s
        };
        value += v[i] * x[i];
    }
    (value, lambda)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::casa_ilp::{allocate_ilp, Linearization};
    use crate::conflict::ConflictGraph;
    use casa_energy::EnergyTable;
    use casa_ilp::tree::TreeLog;
    use casa_ilp::SolverOptions;
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

    fn graph(fetches: Vec<u64>, sizes: Vec<u32>, e: &[(usize, usize, u64)]) -> ConflictGraph {
        let mut edges = HashMap::new();
        for &(i, j, m) in e {
            edges.insert((i, j), m);
        }
        ConflictGraph::from_parts(fetches, sizes, edges)
    }

    #[test]
    fn matches_ilp_on_thrash_instance() {
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        for cap in [0, 64, 128, 192] {
            let bb = allocate_bb(&m, cap);
            let ilp =
                allocate_ilp(&m, cap, Linearization::Tight, &SolverOptions::default()).unwrap();
            assert!(
                (bb.predicted_energy.unwrap() - ilp.predicted_energy.unwrap()).abs() < 1e-6,
                "cap {cap}: bb {:?} vs ilp {:?}",
                bb.predicted_energy,
                ilp.predicted_energy
            );
        }
    }

    #[test]
    fn matches_ilp_on_pseudorandom_instances() {
        let mut state: u64 = 7;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for case in 0..25 {
            let n = (next() % 6 + 2) as usize;
            let fetches: Vec<u64> = (0..n).map(|_| next() % 2000).collect();
            let sizes: Vec<u32> = (0..n).map(|_| (next() % 96 + 8) as u32).collect();
            let mut edges = HashMap::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j && next() % 3 == 0 {
                        edges.insert((i, j), next() % 300);
                    }
                }
            }
            let g = ConflictGraph::from_parts(fetches, sizes, edges);
            let t = table();
            let m = EnergyModel::new(&g, &t);
            let cap = (next() % 256) as u32;
            let bb = allocate_bb(&m, cap);
            let ilp =
                allocate_ilp(&m, cap, Linearization::Tight, &SolverOptions::default()).unwrap();
            let (eb, ei) = (bb.predicted_energy.unwrap(), ilp.predicted_energy.unwrap());
            assert!(
                (eb - ei).abs() < 1e-6 * ei.max(1.0),
                "case {case}: bb {eb} vs ilp {ei}"
            );
            // Capacity respected.
            let used: u32 = (0..g.len())
                .filter(|&i| bb.on_spm[i])
                .map(|i| g.size_of(i))
                .sum();
            assert!(used <= cap, "case {case}: used {used} > cap {cap}");
        }
    }

    #[test]
    fn empty_graph_allocates_nothing() {
        let g = graph(vec![], vec![], &[]);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = allocate_bb(&m, 128);
        assert!(a.on_spm.is_empty());
        assert_eq!(a.predicted_energy, Some(0.0));
    }

    #[test]
    fn oversized_objects_never_allocated() {
        let g = graph(vec![100_000], vec![999], &[]);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = allocate_bb(&m, 128);
        assert!(!a.on_spm[0]);
    }

    #[test]
    fn prefers_conflict_pair_over_bigger_fetch_count() {
        // Same instance as the ILP test: conflictor wins.
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let a = allocate_bb(&m, 64);
        assert!(a.on_spm[0] || a.on_spm[1]);
        assert!(!a.on_spm[2]);
    }

    #[test]
    fn one_node_budget_returns_incumbent_with_finite_gap() {
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let full = allocate_bb(&m, 128);
        let out = allocate_bb_traced(
            &m,
            128,
            &Budget::nodes(1),
            None,
            &Obs::disabled(),
            &SessionRecorder::disabled(),
            &TreeRecorder::disabled(),
        );
        assert_eq!(out.stopped_by, Some(BudgetKind::Nodes));
        assert!(out.gap.is_finite() && out.gap >= 0.0);
        // The incumbent (greedy fill) is feasible and within the gap
        // of the optimum.
        let e_inc = out.allocation.predicted_energy.unwrap();
        let e_opt = full.predicted_energy.unwrap();
        assert!(e_inc >= e_opt - 1e-9);
        assert!(e_inc - e_opt <= out.gap + 1e-9, "gap does not cover truth");
    }

    #[test]
    fn gap_monotone_in_node_budget_and_zero_at_closure() {
        let mut state: u64 = 41;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let n = 8usize;
        let fetches: Vec<u64> = (0..n).map(|_| next() % 2000).collect();
        let sizes: Vec<u32> = (0..n).map(|_| (next() % 96 + 8) as u32).collect();
        let mut edges = HashMap::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && next() % 3 == 0 {
                    edges.insert((i, j), next() % 300);
                }
            }
        }
        let g = ConflictGraph::from_parts(fetches, sizes, edges);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let mut last_gap = f64::INFINITY;
        let mut budget = 1u64;
        loop {
            let out = allocate_bb_traced(
                &m,
                160,
                &Budget::nodes(budget),
                None,
                &Obs::disabled(),
                &SessionRecorder::disabled(),
                &TreeRecorder::disabled(),
            );
            assert!(out.gap >= 0.0);
            assert!(out.gap <= last_gap + 1e-9, "gap grew at budget {budget}");
            last_gap = out.gap;
            if out.is_optimal() {
                assert_eq!(out.gap, 0.0);
                break;
            }
            budget *= 2;
            assert!(budget < 1 << 30, "search failed to close");
        }
    }

    #[test]
    fn warm_start_adopted_when_better_than_greedy() {
        // Any feasible warm start must never make the outcome worse,
        // and an optimal warm start is kept verbatim at 0-node budget
        // if it beats greedy.
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let full = allocate_bb(&m, 128);
        let out = allocate_bb_traced(
            &m,
            128,
            &Budget::nodes(1),
            Some(&full.on_spm),
            &Obs::disabled(),
            &SessionRecorder::disabled(),
            &TreeRecorder::disabled(),
        );
        assert_eq!(
            out.allocation.predicted_energy, full.predicted_energy,
            "optimal warm start must survive a 1-node budget"
        );
        // Oversized warm starts are ignored, not adopted.
        let bad = vec![true; 3];
        let out2 = allocate_bb_traced(
            &m,
            64,
            &Budget::nodes(1),
            Some(&bad),
            &Obs::disabled(),
            &SessionRecorder::disabled(),
            &TreeRecorder::disabled(),
        );
        let used: u32 = (0..g.len())
            .filter(|&i| out2.allocation.on_spm[i])
            .map(|i| g.size_of(i))
            .sum();
        assert!(used <= 64, "infeasible warm start leaked into outcome");
    }

    /// Solve with tree capture, switching the pair bound on at node
    /// `pair_from` (`u64::MAX`: never).
    fn traced(m: &EnergyModel<'_>, cap: u32, pair_from: u64) -> (BbOutcome, TreeLog) {
        let tree = TreeRecorder::with_cap(1 << 16);
        let out = solve(
            m,
            cap,
            &Budget::unlimited(),
            None,
            &Obs::disabled(),
            &SessionRecorder::disabled(),
            &tree,
            pair_from,
        );
        (out, tree.take().unwrap())
    }

    /// The capture invariants every traced solve keeps.
    fn assert_tree_consistent(out: &BbOutcome, log: &TreeLog) {
        assert_eq!(log.nodes, out.allocation.solver_nodes);
        let opens = log
            .events
            .iter()
            .filter(|e| e.kind == TreeEventKind::Open)
            .count() as u64;
        assert_eq!(opens, log.nodes, "one open event per DFS visit");
        // Savings orientation: a prune-by-bound fires exactly when the
        // bound the search applied cannot beat the incumbent.
        for e in log
            .events
            .iter()
            .filter(|e| e.kind == TreeEventKind::PruneBound)
        {
            assert!(
                e.bound <= e.best + 1e-9,
                "pruned with bound {} above best {}",
                e.bound,
                e.best
            );
        }
    }

    #[test]
    fn tree_capture_is_deterministic_and_changes_no_decision() {
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let run = || {
            let tree = TreeRecorder::with_cap(4096);
            let out = allocate_bb_traced(
                &m,
                128,
                &Budget::unlimited(),
                None,
                &Obs::disabled(),
                &SessionRecorder::disabled(),
                &tree,
            );
            (out, tree.take().unwrap())
        };
        let (out, log) = run();
        let plain = allocate_bb(&m, 128);
        assert_eq!(out.allocation, plain, "capture must not steer the search");
        assert_tree_consistent(&out, &log);
        assert!(log
            .events
            .iter()
            .any(|e| e.kind == TreeEventKind::Branch && e.var.is_some()));
        let (_, log2) = run();
        assert_eq!(
            casa_ilp::tree::tree_log_json(&log),
            casa_ilp::tree::tree_log_json(&log2),
            "same instance, same tree bytes"
        );

        // Two conflict pairs, room for three objects. The fractional
        // bound counts each pair at both endpoints and keeps counting
        // it once one endpoint covers it; the pair bound does neither.
        // With the pair bound on from the root, it prunes nodes the
        // fractional bound has to branch on.
        let g = graph(
            vec![800, 1700, 1100, 1100],
            vec![64, 64, 64, 64],
            &[(0, 3, 300), (3, 0, 300), (1, 2, 600), (2, 1, 600)],
        );
        let m = EnergyModel::new(&g, &t);
        let (out, log) = traced(&m, 192, 1);
        let (base, base_log) = traced(&m, 192, u64::MAX);
        assert_tree_consistent(&out, &log);
        assert_tree_consistent(&base, &base_log);
        assert_eq!(out.allocation.on_spm, base.allocation.on_spm);
        assert!(out.allocation.solver_nodes < base.allocation.solver_nodes);
        // Both searches walk the same nodes until the first prune only
        // the pair bound makes: there one prunes, the other branches.
        let at = log
            .events
            .iter()
            .zip(&base_log.events)
            .position(|(a, b)| a.kind != b.kind)
            .expect("the pair bound must prune a node the fractional bound branches on");
        let (pruned, branched) = (&log.events[at], &base_log.events[at]);
        assert_eq!(pruned.kind, TreeEventKind::PruneBound);
        assert_eq!(branched.kind, TreeEventKind::Branch);
        assert_eq!(pruned.node, branched.node);
        assert!(
            pruned.bound < branched.bound,
            "it prunes with its own bound"
        );
    }

    /// Seeded instance of `n` objects with sparse conflicts, a few
    /// self-conflicts and zero-size objects, whose last `dups` objects
    /// copy earlier ones (edges included) so that savings tie exactly.
    fn random_instance(next: &mut impl FnMut() -> u64, n: usize, dups: usize) -> ConflictGraph {
        let base = n - dups;
        let mut fetches: Vec<u64> = (0..base).map(|_| next() % 2000).collect();
        let mut sizes: Vec<u32> = (0..base)
            .map(|_| {
                if next().is_multiple_of(16) {
                    0
                } else {
                    (next() % 12 + 1) as u32 * 8
                }
            })
            .collect();
        let mut edges = HashMap::new();
        for i in 0..base {
            for j in 0..base {
                if next().is_multiple_of(if i == j { 6 } else { 3 }) {
                    edges.insert((i, j), next() % 300 + 1);
                }
            }
        }
        for d in base..n {
            let src = (next() as usize) % base;
            fetches.push(fetches[src]);
            sizes.push(sizes[src]);
            let copies: Vec<((usize, usize), u64)> = edges
                .iter()
                .filter(|(&(i, j), _)| i == src || j == src)
                .map(|(&(i, j), &w)| {
                    let f = |k: usize| if k == src { d } else { k };
                    ((f(i), f(j)), w)
                })
                .collect();
            edges.extend(copies);
        }
        ConflictGraph::from_parts(fetches, sizes, edges)
    }

    /// Best savings over every completion of `chosen` by the
    /// candidates at positions `pos..` that fits `cap_left`.
    fn best_completion(sm: &SavingsModel, pos: usize, cap_left: u32, chosen: &[bool]) -> f64 {
        let rest = &sm.order[pos..];
        let mut set = chosen.to_vec();
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..1 << rest.len() {
            let mut used = 0u32;
            for (b, &i) in rest.iter().enumerate() {
                set[i] = mask >> b & 1 == 1;
                if set[i] {
                    used += sm.sizes[i];
                }
            }
            if used <= cap_left {
                best = best.max(sm.exact_savings(&set));
            }
        }
        best
    }

    /// Every value the pair bound tracks along the path, bit for bit.
    fn pair_state(pb: &PairBound) -> (Vec<u64>, u64, Vec<u64>, Vec<bool>, Vec<Fate>, usize) {
        (
            pb.v.iter().map(|x| x.to_bits()).collect(),
            pb.k.to_bits(),
            pb.t.iter().map(|x| x.to_bits()).collect(),
            pb.live.clone(),
            pb.fate.clone(),
            pb.fit,
        )
    }

    #[test]
    fn pair_bound_is_admissible_at_random_partial_assignments() {
        let mut state: u64 = 2004;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let t = table();
        for case in 0..120 {
            let n = (next() % 11 + 2) as usize;
            let dups = if case % 3 == 0 {
                (next() as usize) % (n / 2 + 1)
            } else {
                0
            };
            let g = random_instance(&mut next, n, dups);
            let m = EnergyModel::new(&g, &t);
            let cap = (next() % 160 + 8) as u32;
            let sm = SavingsModel::new(&m, cap);
            let greedy = sm.exact_savings(&sm.greedy_chosen(cap));
            for trial in 0..6 {
                // A random path: positions before `pos` decided, each
                // take only where it fits.
                let pos = (next() as usize) % (sm.order.len() + 1);
                let mut chosen = vec![false; n];
                for &i in &sm.free {
                    chosen[i] = true;
                }
                let mut cap_left = cap;
                for &i in &sm.order[..pos] {
                    if sm.sizes[i] <= cap_left && next() % 2 == 0 {
                        chosen[i] = true;
                        cap_left -= sm.sizes[i];
                    }
                }
                // The multipliers come from a Polyak target; any target
                // must give an admissible bound.
                let target = if trial % 2 == 0 { greedy } else { 0.0 };
                let mut pb = PairBound::new(&sm, cap, target, pos, &chosen);
                let before = pair_state(&pb);
                // Walk on down a random path, checking every node.
                let mut depth = pos;
                loop {
                    let bound = pb.bound(sm.exact_savings(&chosen), cap_left);
                    let truth = best_completion(&sm, depth, cap_left, &chosen);
                    assert!(
                        bound >= truth,
                        "case {case}: bound {bound} below best completion {truth} at depth {depth}"
                    );
                    if depth == sm.order.len() || next() % 4 == 0 {
                        break;
                    }
                    let i = sm.order[depth];
                    let take = sm.sizes[i] <= cap_left && next() % 2 == 0;
                    if take {
                        chosen[i] = true;
                        cap_left -= sm.sizes[i];
                    }
                    pb.decide(&sm, depth, take, cap_left);
                    depth += 1;
                }
                for q in (pos..depth).rev() {
                    pb.undo(&sm, q);
                }
                assert_eq!(
                    pair_state(&pb),
                    before,
                    "case {case}: undo must restore the state"
                );
            }
        }
    }

    /// The incumbent log of an exhaustive take-first DFS over the same
    /// static order with no pruning at all: the greedy seed, then every
    /// strict improvement, as (objective bits, set).
    fn exhaustive_log(m: &EnergyModel<'_>, cap: u32) -> Vec<(u64, Vec<bool>)> {
        struct Exhaustive<'a> {
            sm: &'a SavingsModel,
            chosen: Vec<bool>,
            counted: Vec<bool>,
            best: f64,
            log: Vec<(u64, Vec<bool>)>,
        }
        impl Exhaustive<'_> {
            fn go(&mut self, pos: usize, cap_left: u32, cur: f64) {
                if cur > self.best + 1e-9 {
                    self.best = cur;
                    self.log.push((cur.to_bits(), self.chosen.clone()));
                }
                let sm = self.sm;
                let Some(&i) = sm.order.get(pos) else {
                    return;
                };
                if sm.sizes[i] <= cap_left {
                    let mut gained = sm.a[i];
                    let mut newly = Vec::new();
                    for &p in &sm.incident[i] {
                        if !self.counted[p] {
                            self.counted[p] = true;
                            newly.push(p);
                            gained += sm.pairs[p].2;
                        }
                    }
                    self.chosen[i] = true;
                    self.go(pos + 1, cap_left - sm.sizes[i], cur + gained);
                    self.chosen[i] = false;
                    for p in newly {
                        self.counted[p] = false;
                    }
                }
                self.go(pos + 1, cap_left, cur);
            }
        }
        let sm = SavingsModel::new(m, cap);
        let seed = sm.greedy_chosen(cap);
        let best = sm.exact_savings(&seed);
        let mut dfs = Exhaustive {
            sm: &sm,
            chosen: vec![false; sm.n],
            counted: vec![false; sm.pairs.len()],
            best,
            log: vec![(best.to_bits(), seed)],
        };
        let mut cur = 0.0;
        for &i in &sm.free {
            dfs.chosen[i] = true;
            cur += sm.a[i];
            for &p in &sm.incident[i] {
                if !dfs.counted[p] {
                    dfs.counted[p] = true;
                    cur += sm.pairs[p].2;
                }
            }
        }
        dfs.go(0, cap, cur);
        dfs.log
    }

    #[test]
    fn decision_log_matches_exhaustive_take_first_dfs() {
        let mut state: u64 = 11;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let t = table();
        for case in 0..150 {
            let n = (next() % 11 + 2) as usize;
            let dups = if case % 3 == 0 {
                (next() as usize) % (n / 2 + 1)
            } else {
                0
            };
            let g = random_instance(&mut next, n, dups);
            let m = EnergyModel::new(&g, &t);
            let cap = (next() % 160 + 8) as u32;
            let want = exhaustive_log(&m, cap);
            for pair_from in [1, 2, PAIR_BOUND_FROM_NODE, u64::MAX] {
                let rec = SessionRecorder::enabled();
                let tree = TreeRecorder::disabled();
                let out = solve(
                    &m,
                    cap,
                    &Budget::unlimited(),
                    None,
                    &Obs::disabled(),
                    &rec,
                    &tree,
                    pair_from,
                );
                assert!(out.is_optimal());
                let got: Vec<(u64, Vec<bool>)> = rec
                    .take()
                    .unwrap()
                    .incumbents
                    .into_iter()
                    .map(|inc| (inc.objective_bits, inc.on_spm))
                    .collect();
                assert_eq!(got, want, "case {case}, pair bound from node {pair_from}");
            }
        }
    }

    #[test]
    fn cancelled_token_still_yields_greedy_incumbent() {
        let g = graph(
            vec![1000, 1000, 3000],
            vec![64, 64, 64],
            &[(0, 1, 500), (1, 0, 500)],
        );
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let token = CancelToken::new();
        token.cancel();
        let out = allocate_bb_traced(
            &m,
            128,
            &Budget::unlimited().with_cancel(token),
            None,
            &Obs::disabled(),
            &SessionRecorder::disabled(),
            &TreeRecorder::disabled(),
        );
        assert_eq!(out.stopped_by, Some(BudgetKind::Cancelled));
        assert!(out.allocation.predicted_energy.is_some());
        assert!(out.gap.is_finite());
    }
}
