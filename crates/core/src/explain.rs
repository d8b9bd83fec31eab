//! Per-object decision provenance and sensitivity for an allocation.
//!
//! The tree telemetry (`casa_ilp::tree`) shows *how* the search moved;
//! this module answers *why* each memory object ended up on the
//! scratchpad or stayed cacheable, in the currency the LP relaxation
//! provides for free: duals and reduced costs (see DESIGN.md §17 for
//! the mapping onto the paper's eqs. 1–6).
//!
//! [`explain_allocation`] assembles an [`ExplainDoc`] from
//! deterministic arithmetic only — a single root-LP re-solve of the
//! CASA ILP for duals/reduced costs, the savings-model bound
//! arithmetic for densities and flip distances, and up to
//! [`MAX_PROBES`] node-budgeted B&B re-solves at perturbed capacities
//! that *verify* the cheapest predicted flips. With the same model and
//! capacity the document is byte-identical across machines and worker
//! counts.
//!
//! Explain is an **output channel**: it is excluded from solution
//! fingerprints and every `deterministic_json()` surface, and it is
//! derived only after the decision, by
//! [`crate::capture::Capture::finish`] (the sweep's capture test
//! asserts it moves no report byte). The JSON codec follows the
//! session-codec policy — sorted keys, unknown keys ignored on read,
//! schema numbers above [`EXPLAIN_SCHEMA`] rejected, truncation a
//! clean error.

use crate::allocation::Allocation;
use crate::casa_bb::{allocate_bb_traced, SavingsModel};
use crate::casa_ilp::{build_model_parts, Linearization};
use crate::energy_model::EnergyModel;
use crate::flow::AllocatorKind;
use crate::server::allocator_tag;
use crate::session::SessionRecorder;
use casa_ilp::engine::Budget;
use casa_ilp::simplex::{solve_lp, LpResult};
use casa_ilp::tree::TreeRecorder;
use casa_obs::{jnum, json_escape, Obs};
use serde::json::Value;
use std::error::Error;
use std::fmt;

/// Version number of the explain JSON schema. Readers accept documents
/// up to this version and refuse newer ones.
pub const EXPLAIN_SCHEMA: u32 = 1;

/// Node budget for each capacity-perturbed verification probe — small
/// enough to stay cheap, deterministic because it is a pure node
/// budget.
const PROBE_NODE_BUDGET: u64 = 10_000;

/// Maximum number of capacity probes per document.
pub const MAX_PROBES: usize = 2;

/// Integrality tolerance when classifying a root-LP value.
const ROOT_INT_TOL: f64 = 1e-6;

/// How one object's placement was decided.
///
/// `Root` — the root LP relaxation already placed it integrally (no
/// branching needed for this object). `Branch` — the root value was
/// fractional, so branch & bound fixed it. `Heuristic` — the allocator
/// does not solve a relaxation (greedy / Steinke / none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedBy {
    /// Placed integrally by the root LP relaxation.
    Root,
    /// Fixed by a branching decision of the search.
    Branch,
    /// Chosen by a heuristic without a relaxation proof.
    Heuristic,
}

impl FixedBy {
    /// Stable lowercase tag (`"root"` / `"branch"` / `"heuristic"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FixedBy::Root => "root",
            FixedBy::Branch => "branch",
            FixedBy::Heuristic => "heuristic",
        }
    }

    fn parse(s: &str) -> Option<FixedBy> {
        match s {
            "root" => Some(FixedBy::Root),
            "branch" => Some(FixedBy::Branch),
            "heuristic" => Some(FixedBy::Heuristic),
            _ => None,
        }
    }
}

/// Why one memory object is (or is not) on the scratchpad.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectExplain {
    /// Object index (trace id order).
    pub index: usize,
    /// Final placement: `true` = scratchpad.
    pub on_spm: bool,
    /// Object size in bytes.
    pub size: u32,
    /// Rank in the knapsack density order (0 = densest candidate);
    /// `None` for objects that are not candidates (zero saving or
    /// oversized).
    pub density_rank: Option<usize>,
    /// Fetch-term saving `f_i·(E_hit − E_SP)` in nJ (eqs. 5–6 linear
    /// part).
    pub linear_saving: f64,
    /// Conflict-premium contribution in nJ: folded self-edge premium
    /// plus all incident pair weights (the eq. 5 miss terms this
    /// object can eliminate).
    pub conflict_saving: f64,
    /// Root-LP relaxation value of the *scratchpad* indicator
    /// `1 − l_i` (1 = fully on SPM in the relaxation). NaN-free:
    /// `None` when no relaxation was solved.
    pub root_value: Option<f64>,
    /// Root reduced cost of `l_i` (minimize orientation): how far the
    /// object's energy coefficient can move before the root basis —
    /// and with it the relaxed placement — changes.
    pub reduced_cost: Option<f64>,
    /// How the placement was decided.
    pub fixed_by: FixedBy,
    /// Regret in nJ: the marginal savings this placement forgoes
    /// (off-SPM) or would forgo if evicted (on-SPM).
    pub regret: f64,
    /// Capacity flip distance in bytes: how far SPM capacity must move
    /// (grow for off-SPM objects, shrink for on-SPM ones) before this
    /// placement can flip. `None` when capacity cannot flip it.
    pub flip_capacity: Option<u32>,
}

/// One capacity-perturbed verification re-solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    /// The object whose predicted flip the probe checked.
    pub target: usize,
    /// The perturbed capacity the probe solved at.
    pub capacity: u32,
    /// Objects whose placements differ from the baseline allocation.
    pub flipped: Vec<usize>,
    /// Whether the target itself flipped, confirming the prediction.
    pub target_flipped: bool,
}

/// The full explanation of one allocation decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainDoc {
    /// Stable allocator tag (see [`allocator_tag`]).
    pub allocator: String,
    /// SPM capacity in bytes the solve ran against.
    pub capacity: u32,
    /// Scratchpad bytes the final allocation uses.
    pub spm_used: u32,
    /// Root-LP relaxation objective in nJ (an optimistic energy
    /// bound); `None` when no relaxation was solved.
    pub root_objective: Option<f64>,
    /// Shadow price of the capacity constraint in nJ per byte: the
    /// energy saved by one more byte of scratchpad, read off the root
    /// LP dual of eq. 17. `None` when no relaxation was solved.
    pub shadow_price: Option<f64>,
    /// Capacity-perturbed verification probes, cheapest flips first.
    pub probes: Vec<ProbeResult>,
    /// Per-object explanations in object order.
    pub objects: Vec<ObjectExplain>,
}

/// A malformed explain document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainError(String);

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid explain document: {}", self.0)
    }
}

impl Error for ExplainError {}

/// Assemble the explanation of `allocation` for `model` at `capacity`.
///
/// Pure output-channel computation: re-derives everything it reports
/// (root LP, densities, regrets, flip distances, probes) without
/// touching the allocation itself. Deterministic — same inputs, same
/// document, byte for byte through [`explain_json`].
pub fn explain_allocation(
    model: &EnergyModel<'_>,
    capacity: u32,
    kind: AllocatorKind,
    allocation: &Allocation,
) -> ExplainDoc {
    let g = model.graph();
    let t = model.table();
    let n = g.len();
    let sm = SavingsModel::new(model, capacity);
    debug_assert_eq!(allocation.on_spm.len(), n, "allocation length");

    let spm_used: u32 = (0..n)
        .filter(|&i| allocation.on_spm[i])
        .map(|i| g.size_of(i))
        .sum();
    let slack = capacity.saturating_sub(spm_used);

    // Root LP of the CASA ILP — the matching linearization for the ILP
    // allocators, the tight one otherwise (its relaxation is exact for
    // this objective and adds no integer variables). The capacity
    // constraint (eq. 17) is the LAST model constraint by construction,
    // so its dual is `duals.last()`.
    let exact = kind.searches_tree();
    let lin = match kind {
        AllocatorKind::CasaIlpPaper => Linearization::Paper,
        _ => Linearization::Tight,
    };
    let (ilp, l, _pairs) = build_model_parts(model, capacity, lin);
    let bounds: Vec<(f64, f64)> = ilp.vars().map(|v| ilp.var_kind(v).bounds()).collect();
    let root = match solve_lp(&ilp, &bounds) {
        Ok(LpResult::Optimal {
            values,
            objective,
            duals,
            reduced_costs,
        }) => Some((values, objective, duals, reduced_costs)),
        _ => None,
    };
    let root_objective = root.as_ref().map(|(_, obj, _, _)| *obj);
    // d(energy)/d(rhs) = dual with rhs = ΣS − C, so the energy saved
    // per extra byte of capacity is +dual (non-negative for a binding
    // Ge row under minimization).
    let shadow_price = root
        .as_ref()
        .and_then(|(_, _, duals, _)| duals.last().copied());

    // Density ranks from the savings model's knapsack order.
    let mut rank = vec![None; n];
    for (r, &i) in sm.order().iter().enumerate() {
        rank[i] = Some(r);
    }

    // On-SPM eviction thresholds from bound arithmetic: the solver
    // keeps the densest prefix that fits, so object i is safe while
    // capacity covers the on-SPM objects at least as dense as i.
    let density = |i: usize| -> f64 {
        let s = f64::from(sm.size(i));
        if s > 0.0 {
            sm.optimistic_saving(i) / s
        } else {
            f64::INFINITY
        }
    };
    let mut on_spm_sized: Vec<usize> = (0..n)
        .filter(|&i| allocation.on_spm[i] && sm.size(i) > 0)
        .collect();
    on_spm_sized.sort_by(|&x, &y| {
        density(y)
            .partial_cmp(&density(x))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.cmp(&y))
    });
    let mut evict_threshold = vec![0u64; n];
    let mut prefix = 0u64;
    for &i in &on_spm_sized {
        prefix += u64::from(sm.size(i));
        evict_threshold[i] = prefix;
    }

    let mut objects = Vec::with_capacity(n);
    for i in 0..n {
        let on_spm = allocation.on_spm[i];
        let size = sm.size(i);
        let linear_saving = g.fetches_of(i) as f64 * (t.cache_hit - t.spm_access);
        let conflict_saving = sm.optimistic_saving(i) - linear_saving;
        let regret = sm.marginal_saving(i, &allocation.on_spm);
        let (root_value, reduced_cost) = match &root {
            Some((values, _, _, rcs)) => {
                let vi = l[i].index();
                (Some(1.0 - values[vi]), Some(rcs[vi]))
            }
            None => (None, None),
        };
        let fixed_by = if !exact {
            FixedBy::Heuristic
        } else {
            match root_value {
                Some(v) if (v - v.round()).abs() <= ROOT_INT_TOL => FixedBy::Root,
                Some(_) => FixedBy::Branch,
                None => FixedBy::Heuristic,
            }
        };
        let flip_capacity = if on_spm {
            // Shrink until the densest-prefix cover no longer reaches
            // this object.
            if size > 0 && u64::from(capacity) >= evict_threshold[i] && evict_threshold[i] > 0 {
                u32::try_from(u64::from(capacity) - evict_threshold[i] + 1).ok()
            } else {
                None
            }
        } else if size > 0 && regret > 0.0 {
            // Grow until it fits next to the current set.
            Some(size.saturating_sub(slack).max(1))
        } else {
            None
        };
        objects.push(ObjectExplain {
            index: i,
            on_spm,
            size,
            density_rank: rank[i],
            linear_saving,
            conflict_saving,
            root_value,
            reduced_cost,
            fixed_by,
            regret,
            flip_capacity,
        });
    }

    // Verify the cheapest predicted flips with budgeted re-solves
    // against the exact savings objective (the B&B solver — fast,
    // deterministic under a pure node budget). Candidate order is by
    // flip distance then index, so the probe set is deterministic.
    let mut probes = Vec::new();
    if kind != AllocatorKind::None {
        let mut candidates: Vec<(u32, usize)> = objects
            .iter()
            .filter_map(|o| o.flip_capacity.map(|d| (d, o.index)))
            .collect();
        candidates.sort_unstable();
        for &(delta, i) in candidates.iter().take(MAX_PROBES) {
            let probe_cap = if allocation.on_spm[i] {
                capacity.saturating_sub(delta)
            } else {
                capacity.saturating_add(delta)
            };
            let out = allocate_bb_traced(
                model,
                probe_cap,
                &Budget::nodes(PROBE_NODE_BUDGET),
                Some(&allocation.on_spm),
                &Obs::disabled(),
                &SessionRecorder::disabled(),
                &TreeRecorder::disabled(),
            );
            let flipped: Vec<usize> = (0..n)
                .filter(|&j| out.allocation.on_spm[j] != allocation.on_spm[j])
                .collect();
            let target_flipped = flipped.contains(&i);
            probes.push(ProbeResult {
                target: i,
                capacity: probe_cap,
                flipped,
                target_flipped,
            });
        }
    }

    ExplainDoc {
        allocator: allocator_tag(kind).to_string(),
        capacity,
        spm_used,
        root_objective,
        shadow_price,
        probes,
        objects,
    }
}

// ---------------------------------------------------------------------------
// JSON codec — sorted keys, NaN-free, tolerant reader
// ---------------------------------------------------------------------------

fn jopt(v: Option<f64>) -> String {
    match v {
        Some(x) => jnum(x),
        None => "null".to_string(),
    }
}

fn jopt_u(v: Option<usize>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

/// Serialize `doc` as the deterministic sorted-key JSON document.
/// Non-finite numbers render as `null` (the NaN-free invariant), so
/// the output is always strict JSON.
pub fn explain_json(doc: &ExplainDoc) -> String {
    let objects = doc
        .objects
        .iter()
        .map(|o| {
            format!(
                "{{\"conflict_saving\":{},\"density_rank\":{},\"fixed_by\":\"{}\",\"flip_capacity\":{},\"i\":{},\"linear_saving\":{},\"on_spm\":{},\"reduced_cost\":{},\"regret\":{},\"root_value\":{},\"size\":{}}}",
                jnum(o.conflict_saving),
                jopt_u(o.density_rank),
                o.fixed_by.as_str(),
                jopt_u(o.flip_capacity.map(|d| d as usize)),
                o.index,
                jnum(o.linear_saving),
                o.on_spm,
                jopt(o.reduced_cost),
                jnum(o.regret),
                jopt(o.root_value),
                o.size,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let probes = doc
        .probes
        .iter()
        .map(|p| {
            format!(
                "{{\"capacity\":{},\"flipped\":[{}],\"target\":{},\"target_flipped\":{}}}",
                p.capacity,
                p.flipped
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                p.target,
                p.target_flipped,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"allocator\":\"{}\",\"capacity\":{},\"casa_explain\":{},\"objects\":[{objects}],\"probes\":[{probes}],\"root_objective\":{},\"shadow_price\":{},\"spm_used\":{}}}",
        json_escape(&doc.allocator),
        doc.capacity,
        EXPLAIN_SCHEMA,
        jopt(doc.root_objective),
        jopt(doc.shadow_price),
        doc.spm_used,
    )
}

fn req_u32(v: &Value, key: &str) -> Result<u32, ExplainError> {
    let n = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| ExplainError(format!("{key} must be a number")))?;
    if n < 0.0 || n.fract() != 0.0 || n > f64::from(u32::MAX) {
        return Err(ExplainError(format!("{key} must be a u32")));
    }
    Ok(n as u32)
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, ExplainError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => {
            let n = x
                .as_f64()
                .ok_or_else(|| ExplainError(format!("{key} must be a number or null")))?;
            if n.is_nan() {
                return Err(ExplainError(format!("{key} must be NaN-free")));
            }
            Ok(Some(n))
        }
    }
}

fn parse_object(v: &Value) -> Result<ObjectExplain, ExplainError> {
    let index = req_u32(v, "i")? as usize;
    let on_spm = v
        .get("on_spm")
        .and_then(Value::as_bool)
        .ok_or_else(|| ExplainError("on_spm must be a bool".to_string()))?;
    let fixed_by = v
        .get("fixed_by")
        .and_then(Value::as_str)
        .and_then(FixedBy::parse)
        .ok_or_else(|| ExplainError("fixed_by must be root/branch/heuristic".to_string()))?;
    let density_rank = match v.get("density_rank") {
        None | Some(Value::Null) => None,
        Some(_) => Some(req_u32(v, "density_rank")? as usize),
    };
    let flip_capacity = match v.get("flip_capacity") {
        None | Some(Value::Null) => None,
        Some(_) => Some(req_u32(v, "flip_capacity")?),
    };
    let finite = |key: &str| -> Result<f64, ExplainError> {
        opt_f64(v, key)?.ok_or_else(|| ExplainError(format!("{key} is required")))
    };
    Ok(ObjectExplain {
        index,
        on_spm,
        size: req_u32(v, "size")?,
        density_rank,
        linear_saving: finite("linear_saving")?,
        conflict_saving: finite("conflict_saving")?,
        root_value: opt_f64(v, "root_value")?,
        reduced_cost: opt_f64(v, "reduced_cost")?,
        fixed_by,
        regret: finite("regret")?,
        flip_capacity,
    })
}

fn parse_probe(v: &Value) -> Result<ProbeResult, ExplainError> {
    let flipped = v
        .get("flipped")
        .and_then(Value::as_array)
        .ok_or_else(|| ExplainError("flipped must be an array".to_string()))?
        .iter()
        .map(|x| {
            x.as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as usize)
                .ok_or_else(|| ExplainError("flipped entries must be indices".to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ProbeResult {
        target: req_u32(v, "target")? as usize,
        capacity: req_u32(v, "capacity")?,
        flipped,
        target_flipped: v
            .get("target_flipped")
            .and_then(Value::as_bool)
            .ok_or_else(|| ExplainError("target_flipped must be a bool".to_string()))?,
    })
}

/// Parse an explain document. Unknown keys are ignored (forward
/// compatibility); schema numbers above [`EXPLAIN_SCHEMA`] and
/// truncated input are clean errors.
///
/// # Errors
///
/// [`ExplainError`] describing the first violation.
pub fn parse_explain(text: &str) -> Result<ExplainDoc, ExplainError> {
    let v = serde::json::parse(text).map_err(|e| ExplainError(e.to_string()))?;
    let schema = req_u32(&v, "casa_explain")?;
    if schema > EXPLAIN_SCHEMA {
        return Err(ExplainError(format!(
            "unsupported explain schema {schema} (this reader understands up to {EXPLAIN_SCHEMA})"
        )));
    }
    let allocator = v
        .get("allocator")
        .and_then(Value::as_str)
        .ok_or_else(|| ExplainError("allocator must be a string".to_string()))?
        .to_string();
    let objects = v
        .get("objects")
        .and_then(Value::as_array)
        .ok_or_else(|| ExplainError("objects must be an array".to_string()))?
        .iter()
        .map(parse_object)
        .collect::<Result<Vec<_>, _>>()?;
    let probes = match v.get("probes") {
        None | Some(Value::Null) => Vec::new(),
        Some(p) => p
            .as_array()
            .ok_or_else(|| ExplainError("probes must be an array".to_string()))?
            .iter()
            .map(parse_probe)
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(ExplainDoc {
        allocator,
        capacity: req_u32(&v, "capacity")?,
        spm_used: req_u32(&v, "spm_used")?,
        root_objective: opt_f64(&v, "root_objective")?,
        shadow_price: opt_f64(&v, "shadow_price")?,
        probes,
        objects,
    })
}

/// Render a human-readable explanation: the capacity shadow-price
/// line, the top-`top_n` regret table, and the flip-distance ranking
/// (`diag explain`'s output).
pub fn render_explain(doc: &ExplainDoc, top_n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== explain: {} @ {} B (used {} B) ===\n",
        doc.allocator, doc.capacity, doc.spm_used
    ));
    match (doc.shadow_price, doc.root_objective) {
        (Some(sp), Some(obj)) => out.push_str(&format!(
            "capacity shadow price: {} nJ/byte (root LP bound {} nJ)\n",
            jnum(sp),
            jnum(obj)
        )),
        _ => out.push_str("capacity shadow price: n/a (no relaxation solved)\n"),
    }
    let mut by_regret: Vec<&ObjectExplain> = doc.objects.iter().collect();
    by_regret.sort_by(|a, b| {
        b.regret
            .partial_cmp(&a.regret)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    out.push_str(&format!("top {} by regret:\n", top_n.min(by_regret.len())));
    out.push_str("  obj  placed  fixed_by   rank  regret(nJ)  rc\n");
    for o in by_regret.iter().take(top_n) {
        out.push_str(&format!(
            "  {:>3}  {:>6}  {:<9}  {:>4}  {:>10}  {}\n",
            o.index,
            if o.on_spm { "spm" } else { "cache" },
            o.fixed_by.as_str(),
            o.density_rank.map_or("-".to_string(), |r| r.to_string()),
            jnum(o.regret),
            o.reduced_cost.map_or("-".to_string(), jnum),
        ));
    }
    let mut by_flip: Vec<&ObjectExplain> = doc
        .objects
        .iter()
        .filter(|o| o.flip_capacity.is_some())
        .collect();
    by_flip.sort_by_key(|o| (o.flip_capacity.unwrap_or(u32::MAX), o.index));
    out.push_str("flip distances (bytes of capacity to flip placement):\n");
    for o in by_flip.iter().take(top_n) {
        out.push_str(&format!(
            "  obj {:>3} ({}): {:>6} B\n",
            o.index,
            if o.on_spm { "spm" } else { "cache" },
            o.flip_capacity.unwrap_or(0),
        ));
    }
    for p in &doc.probes {
        out.push_str(&format!(
            "probe @ {} B: target {} {} (flipped: {:?})\n",
            p.capacity,
            p.target,
            if p.target_flipped { "flipped" } else { "held" },
            p.flipped,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::ConflictGraph;
    use crate::engine::allocate_budgeted;
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

    fn thrash_graph() -> ConflictGraph {
        let mut e = HashMap::new();
        e.insert((0, 1), 500);
        e.insert((1, 0), 500);
        ConflictGraph::from_parts(vec![1_000, 1_000, 3_000], vec![64, 64, 64], e)
    }

    fn explain_for(kind: AllocatorKind, capacity: u32) -> (ExplainDoc, Allocation) {
        let g = thrash_graph();
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let out = allocate_budgeted(&m, capacity, kind, &Budget::unlimited(), &Obs::disabled());
        let doc = explain_allocation(&m, capacity, kind, &out.allocation);
        (doc, out.allocation)
    }

    #[test]
    fn every_object_carries_a_provenance_record() {
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
            AllocatorKind::CasaGreedy,
        ] {
            let (doc, alloc) = explain_for(kind, 128);
            assert_eq!(doc.objects.len(), alloc.on_spm.len(), "{kind:?}");
            for o in &doc.objects {
                assert_eq!(o.on_spm, alloc.on_spm[o.index], "{kind:?}");
                assert!(o.regret.is_finite(), "{kind:?}");
                assert!(o.linear_saving.is_finite() && o.conflict_saving.is_finite());
                if let Some(rc) = o.reduced_cost {
                    assert!(rc.is_finite());
                }
            }
            // Exact allocators classify via the root LP; greedy is
            // heuristic throughout.
            let exact = kind != AllocatorKind::CasaGreedy;
            for o in &doc.objects {
                if exact {
                    assert_ne!(o.fixed_by, FixedBy::Heuristic, "{kind:?} obj {}", o.index);
                } else {
                    assert_eq!(o.fixed_by, FixedBy::Heuristic);
                }
            }
            assert!(doc.shadow_price.is_some(), "{kind:?}");
        }
    }

    #[test]
    fn explain_is_deterministic_bytes() {
        let (doc1, _) = explain_for(AllocatorKind::CasaBb, 128);
        let (doc2, _) = explain_for(AllocatorKind::CasaBb, 128);
        assert_eq!(explain_json(&doc1), explain_json(&doc2));
    }

    #[test]
    fn json_round_trip_is_identity() {
        for cap in [0u32, 64, 128, 192] {
            let (doc, _) = explain_for(AllocatorKind::CasaBb, cap);
            let text = explain_json(&doc);
            let back = parse_explain(&text).expect("parses back");
            assert_eq!(back, doc, "cap {cap}");
            // And re-serialization is byte-stable.
            assert_eq!(explain_json(&back), text);
        }
    }

    #[test]
    fn shadow_price_matches_capacity_perturbed_resolve() {
        // Pure-knapsack fixture: self-edges only, all sizes 2,
        // capacity 5 — the LP's marginal item is strictly fractional,
        // so the capacity dual equals its savings density, and the
        // central difference of a capacity±1 re-solve pins it.
        let mut e = HashMap::new();
        e.insert((0, 0), 30u64);
        e.insert((1, 1), 20);
        e.insert((2, 2), 10);
        let g = ConflictGraph::from_parts(vec![0, 0, 0], vec![2, 2, 2], e);
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let kind = AllocatorKind::CasaBb;
        let out = allocate_budgeted(&m, 5, kind, &Budget::unlimited(), &Obs::disabled());
        let doc = explain_allocation(&m, 5, kind, &out.allocation);
        let sp = doc.shadow_price.expect("root LP solved");
        let e_lo = allocate_budgeted(&m, 4, kind, &Budget::unlimited(), &Obs::disabled())
            .allocation
            .predicted_energy
            .unwrap();
        let e_hi = allocate_budgeted(&m, 6, kind, &Budget::unlimited(), &Obs::disabled())
            .allocation
            .predicted_energy
            .unwrap();
        // Energy falls as capacity grows; the dual is the (positive)
        // marginal saving per byte.
        let central = (e_lo - e_hi) / 2.0;
        assert!(
            (sp - central).abs() < 1e-6,
            "shadow price {sp} vs capacity±1 delta {central}"
        );
        assert!(sp > 0.0);
    }

    #[test]
    fn flip_distance_probes_verify_cheapest_flips() {
        let (doc, alloc) = explain_for(AllocatorKind::CasaBb, 64);
        assert!(!doc.probes.is_empty(), "capacity 64 leaves cheap flips");
        for p in &doc.probes {
            // The probe's flip list is relative to the baseline and
            // internally consistent with the target verdict.
            for &i in &p.flipped {
                assert!(i < alloc.on_spm.len());
            }
            assert_eq!(p.target_flipped, p.flipped.contains(&p.target), "{p:?}");
            // flip_capacity is a bound on when a placement CAN change,
            // so every probe must observe some placement movement —
            // either the target itself or a better object the freed /
            // added capacity admits instead.
            assert!(!p.flipped.is_empty(), "probe saw no movement: {p:?}");
        }
        // The on-SPM object's shrink probe is exact: removing its last
        // byte of room must evict it.
        let shrink = doc
            .probes
            .iter()
            .find(|p| alloc.on_spm[p.target])
            .expect("an on-SPM probe exists at cap 64");
        assert!(
            shrink.target_flipped,
            "eviction probe did not flip the target: {shrink:?}"
        );
    }

    #[test]
    fn unknown_keys_ignored_and_newer_schema_refused() {
        let (doc, _) = explain_for(AllocatorKind::CasaBb, 128);
        let text = explain_json(&doc);
        let extended = format!("{{\"from_the_future\":[1,2,3],{}", &text[1..]);
        assert_eq!(parse_explain(&extended).expect("tolerant reader"), doc);
        let newer = text.replace("\"casa_explain\":1", "\"casa_explain\":2");
        assert!(parse_explain(&newer).is_err(), "newer schema must refuse");
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let (doc, _) = explain_for(AllocatorKind::CasaBb, 128);
        let text = explain_json(&doc);
        for cut in [1usize, 5, text.len() / 2, text.len() - 1] {
            assert!(
                parse_explain(&text[..text.len() - cut]).is_err(),
                "cut {cut} must error"
            );
        }
    }

    #[test]
    fn renderer_contains_the_three_sections() {
        let (doc, _) = explain_for(AllocatorKind::CasaBb, 64);
        let text = render_explain(&doc, 3);
        assert!(text.contains("shadow price"), "{text}");
        assert!(text.contains("top 3 by regret"), "{text}");
        assert!(text.contains("flip distances"), "{text}");
    }
}
