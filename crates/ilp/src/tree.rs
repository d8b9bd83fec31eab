//! Branch-and-bound search-tree telemetry.
//!
//! The paper's authors solved the CASA ILP with CPLEX and could only
//! report what the black box printed. Our search is our own, so we can
//! record the tree itself: a [`TreeRecorder`] captures one structured
//! [`TreeEvent`] per interesting search step — node open, branch,
//! prune-by-bound, prune-infeasible, incumbent — with stable node ids,
//! depth, the node's local bound and the global best bound at that
//! moment. Both B&B implementations in the workspace (the generic
//! best-first engine in this crate and the specialized DFS in
//! `casa-core`) emit through the same recorder.
//!
//! Determinism is inherited, not added: node ids are search-order
//! counters and bounds are model arithmetic, so for node-budgeted or
//! unlimited searches the captured log is byte-identical across
//! machines and worker counts. The log is ring-capped (capture uses
//! [`DEFAULT_TREE_CAPACITY`]) with drop-oldest eviction and an exact
//! `dropped` counter, like the flight recorder: a multi-million-node
//! search must not turn a diagnostic into an OOM, and for convergence
//! analysis the *end* of the search (where the gap closes) is the
//! interesting part.
//!
//! Export: [`tree_log_json`], the deterministic JSON of a capture
//! directory's `<stem>.tree.json` siblings, rendered by `diag tree`.

use casa_obs::jnum;
use std::sync::{Arc, Mutex, PoisonError};

/// Event capacity of a capture's tree recorder.
pub const DEFAULT_TREE_CAPACITY: usize = 4096;

/// Schema version of the tree-log JSON document.
pub const TREE_LOG_SCHEMA: u32 = 1;

/// What happened at one search-tree step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeEventKind {
    /// A node was taken from the frontier and its relaxation examined.
    Open,
    /// A node spawned children on a branching variable.
    Branch,
    /// A node was discarded because its bound cannot beat the
    /// incumbent (plus the solver's gap floor).
    PruneBound,
    /// A node's relaxation was infeasible.
    PruneInfeasible,
    /// A new incumbent (best integer solution so far) was adopted.
    Incumbent,
}

impl TreeEventKind {
    /// Stable lowercase tag used in the JSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            TreeEventKind::Open => "open",
            TreeEventKind::Branch => "branch",
            TreeEventKind::PruneBound => "prune_bound",
            TreeEventKind::PruneInfeasible => "prune_infeasible",
            TreeEventKind::Incumbent => "incumbent",
        }
    }

    /// Inverse of [`TreeEventKind::as_str`]; unknown tags are `None`.
    pub fn from_tag(s: &str) -> Option<TreeEventKind> {
        Some(match s {
            "open" => TreeEventKind::Open,
            "branch" => TreeEventKind::Branch,
            "prune_bound" => TreeEventKind::PruneBound,
            "prune_infeasible" => TreeEventKind::PruneInfeasible,
            "incumbent" => TreeEventKind::Incumbent,
            _ => return None,
        })
    }
}

/// One recorded search-tree step.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeEvent {
    /// What happened.
    pub kind: TreeEventKind,
    /// Stable node id: the search-order node counter at the event
    /// (root = 0 in the best-first engine; the DFS numbers nodes in
    /// visit order).
    pub node: u64,
    /// Depth of the node (fixed variables / branching decisions above
    /// it).
    pub depth: u32,
    /// The node's local relaxation bound, in the model's objective
    /// orientation (NaN when no bound was computed yet).
    pub bound: f64,
    /// Objective of the best incumbent known when the event fired
    /// (NaN while no incumbent exists).
    pub best: f64,
    /// Branching variable index, for [`TreeEventKind::Branch`].
    pub var: Option<u32>,
}

/// A drained recorder: capacity bookkeeping plus the surviving events
/// in record order.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeLog {
    /// Ring capacity of the recorder this came from.
    pub cap: usize,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// Total search nodes reported via [`TreeRecorder::set_nodes`].
    pub nodes: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TreeEvent>,
}

#[derive(Debug, Default)]
struct TreeState {
    dropped: u64,
    nodes: u64,
    events: std::collections::VecDeque<TreeEvent>,
}

/// Capped recorder of [`TreeEvent`]s, cheap to pass around disabled
/// (same `Option<Arc<Mutex<..>>>` shape as the engine's
/// `SearchRecorder`): a disabled recorder makes every call a no-op so
/// instrumented search loops cost nothing when capture is off.
#[derive(Debug, Clone, Default)]
pub struct TreeRecorder {
    inner: Option<Arc<(usize, Mutex<TreeState>)>>,
}

impl TreeRecorder {
    /// A recorder on which every operation is a no-op.
    pub fn disabled() -> TreeRecorder {
        TreeRecorder { inner: None }
    }

    /// An enabled recorder holding at most `cap` events (clamped to
    /// ≥ 1).
    pub fn with_cap(cap: usize) -> TreeRecorder {
        TreeRecorder {
            inner: Some(Arc::new((cap.max(1), Mutex::new(TreeState::default())))),
        }
    }

    /// Whether events are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append one event, evicting the oldest when the ring is full.
    pub fn record(&self, ev: TreeEvent) {
        if let Some(inner) = &self.inner {
            let (cap, state) = (inner.0, &inner.1);
            let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
            if st.events.len() == cap {
                st.events.pop_front();
                st.dropped += 1;
            }
            st.events.push_back(ev);
        }
    }

    /// Record the search's final node count (stored alongside the
    /// events so a capped log still reports the true tree size).
    pub fn set_nodes(&self, nodes: u64) {
        if let Some(inner) = &self.inner {
            inner.1.lock().unwrap_or_else(PoisonError::into_inner).nodes = nodes;
        }
    }

    /// Drain the recorded log; `None` when disabled. The recorder is
    /// reset, so one recorder can capture several solves in sequence.
    pub fn take(&self) -> Option<TreeLog> {
        let inner = self.inner.as_ref()?;
        let mut st = inner.1.lock().unwrap_or_else(PoisonError::into_inner);
        let st = std::mem::take(&mut *st);
        Some(TreeLog {
            cap: inner.0,
            dropped: st.dropped,
            nodes: st.nodes,
            events: st.events.into_iter().collect(),
        })
    }
}

/// Serialize a tree log as a deterministic JSON document: fixed field
/// order, events oldest-first, non-finite bounds as `null`.
pub fn tree_log_json(log: &TreeLog) -> String {
    let mut s = format!(
        "{{\"casa_tree\":{TREE_LOG_SCHEMA},\"cap\":{},\"dropped\":{},\"nodes\":{},\"events\":[",
        log.cap, log.dropped, log.nodes
    );
    for (i, e) in log.events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"kind\":\"{}\",\"node\":{},\"depth\":{},\"bound\":{},\"best\":{},\"var\":{}}}",
            e.kind.as_str(),
            e.node,
            e.depth,
            jnum(e.bound),
            jnum(e.best),
            e.var.map_or_else(|| "null".to_string(), |v| v.to_string()),
        ));
    }
    s.push_str("]}");
    s
}

/// Parse a [`tree_log_json`] document back into a [`TreeLog`].
/// Events with unknown kinds are skipped (newer logs still render on
/// an older reader); a document without the `casa_tree` version field
/// is an error.
pub fn parse_tree_log(json: &str) -> Result<TreeLog, String> {
    let v = serde::json::parse(json).map_err(|e| format!("malformed tree JSON: {e:?}"))?;
    if v.get("casa_tree").and_then(|x| x.as_f64()).is_none() {
        return Err("not a tree log (missing casa_tree version field)".to_string());
    }
    let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let events = v
        .get("events")
        .and_then(|e| e.as_array())
        .ok_or("events array missing")?
        .iter()
        .filter_map(|e| {
            Some(TreeEvent {
                kind: TreeEventKind::from_tag(e.get("kind")?.as_str()?)?,
                node: e.get("node")?.as_f64()? as u64,
                depth: e.get("depth")?.as_f64()? as u32,
                bound: e.get("bound").and_then(|x| x.as_f64()).unwrap_or(f64::NAN),
                best: e.get("best").and_then(|x| x.as_f64()).unwrap_or(f64::NAN),
                var: e.get("var").and_then(|x| x.as_f64()).map(|x| x as u32),
            })
        })
        .collect();
    Ok(TreeLog {
        cap: num("cap") as usize,
        dropped: num("dropped") as u64,
        nodes: num("nodes") as u64,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TreeEventKind, node: u64, depth: u32, bound: f64, best: f64) -> TreeEvent {
        TreeEvent {
            kind,
            node,
            depth,
            bound,
            best,
            var: None,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = TreeRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(ev(TreeEventKind::Open, 0, 0, 1.0, f64::NAN));
        r.set_nodes(5);
        assert_eq!(r.take(), None);
    }

    #[test]
    fn ring_caps_with_exact_drop_accounting() {
        let r = TreeRecorder::with_cap(3);
        for i in 0..5 {
            r.record(ev(TreeEventKind::Open, i, i as u32, -(i as f64), f64::NAN));
        }
        r.set_nodes(5);
        let log = r.take().unwrap();
        assert_eq!(log.cap, 3);
        assert_eq!(log.dropped, 2);
        assert_eq!(log.nodes, 5);
        // The newest events survive (the convergence tail).
        let nodes: Vec<u64> = log.events.iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![2, 3, 4]);
        // Drained: the next take sees a fresh recorder.
        let empty = r.take().unwrap();
        assert_eq!(empty.events.len(), 0);
        assert_eq!(empty.dropped, 0);
    }

    #[test]
    fn cap_clamps_to_one() {
        let r = TreeRecorder::with_cap(0);
        r.record(ev(TreeEventKind::Open, 0, 0, 1.0, f64::NAN));
        r.record(ev(TreeEventKind::Incumbent, 1, 1, 1.0, 2.0));
        let log = r.take().unwrap();
        assert_eq!(log.cap, 1);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].kind, TreeEventKind::Incumbent);
    }

    #[test]
    fn kind_tags_round_trip() {
        for k in [
            TreeEventKind::Open,
            TreeEventKind::Branch,
            TreeEventKind::PruneBound,
            TreeEventKind::PruneInfeasible,
            TreeEventKind::Incumbent,
        ] {
            assert_eq!(TreeEventKind::from_tag(k.as_str()), Some(k));
        }
        assert_eq!(TreeEventKind::from_tag("bogus"), None);
    }

    #[test]
    fn json_round_trips_and_is_deterministic() {
        let r = TreeRecorder::with_cap(8);
        r.record(ev(TreeEventKind::Open, 0, 0, 10.5, f64::NAN));
        r.record(TreeEvent {
            kind: TreeEventKind::Branch,
            node: 0,
            depth: 0,
            bound: 10.5,
            best: f64::NAN,
            var: Some(3),
        });
        r.record(ev(TreeEventKind::Incumbent, 1, 1, 9.0, 9.0));
        r.record(ev(TreeEventKind::PruneBound, 2, 1, 8.0, 9.0));
        r.set_nodes(3);
        let log = r.take().unwrap();
        let json = tree_log_json(&log);
        assert_eq!(json, tree_log_json(&log), "same log, same bytes");
        assert!(json.contains("\"best\":null"), "NaN best is null: {json}");
        assert!(json.contains("\"var\":3"));
        let back = parse_tree_log(&json).expect("parses back");
        // NaN != NaN, so compare through re-serialization.
        assert_eq!(tree_log_json(&back), json);
        assert!(parse_tree_log("{\"cap\":1}").is_err(), "version gate");
    }
}
