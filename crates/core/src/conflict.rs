//! The conflict graph `G = (X, E)` of paper §3.3.
//!
//! Vertices are memory objects (traces); vertex weight `f_i` is the
//! object's instruction-fetch count; a directed edge `e_ij` with
//! weight `m_ij` records that `m_ij` misses of `x_i` were caused by
//! `x_j` evicting `x_i`'s cache lines.

use casa_mem::SimOutcome;
use casa_trace::TraceSet;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The profiled conflict graph.
///
/// Stored as a CSR (compressed sparse row) adjacency built once at
/// construction: row `i` of `adj` holds `(j, m_ij)` sorted by
/// `j`, so edge lookups are a binary search, per-object conflict sums
/// are precomputed, and every iteration order is deterministic (the
/// seed version filtered a `HashMap` per call, which was O(E) per
/// query and made float summations over [`Self::edges`] depend on the
/// process-random hash order).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConflictGraph {
    /// `f_i`: instruction fetches per memory object.
    fetches: Vec<u64>,
    /// `S(x_i)`: allocatable size (NOP padding stripped).
    sizes: Vec<u32>,
    /// CSR row offsets: row `i` spans `adj[row_ptr[i]..row_ptr[i + 1]]`.
    row_ptr: Vec<usize>,
    /// `(j, m_ij)` pairs, sorted by `j` within each row.
    adj: Vec<(usize, u64)>,
    /// `Σ_j m_ij` per row — eq. (3)'s per-object conflict-miss total.
    conflict_sums: Vec<u64>,
}

fn build_csr(
    n: usize,
    edges: &HashMap<(usize, usize), u64>,
) -> (Vec<usize>, Vec<(usize, u64)>, Vec<u64>) {
    let mut sorted: Vec<((usize, usize), u64)> = edges.iter().map(|(&e, &m)| (e, m)).collect();
    sorted.sort_unstable_by_key(|&(e, _)| e);
    let mut row_ptr = vec![0usize; n + 1];
    let mut adj = Vec::with_capacity(sorted.len());
    let mut sums = vec![0u64; n];
    for ((i, j), m) in sorted {
        row_ptr[i + 1] += 1;
        adj.push((j, m));
        sums[i] += m;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    (row_ptr, adj, sums)
}

impl ConflictGraph {
    fn from_edge_map(
        fetches: Vec<u64>,
        sizes: Vec<u32>,
        edges: &HashMap<(usize, usize), u64>,
    ) -> Self {
        let n = fetches.len();
        let (row_ptr, adj, conflict_sums) = build_csr(n, edges);
        ConflictGraph {
            fetches,
            sizes,
            row_ptr,
            adj,
            conflict_sums,
        }
    }

    fn row(&self, i: usize) -> &[(usize, u64)] {
        &self.adj[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Build the graph from a profiling simulation (paper fig. 3:
    /// "Trace Generation → Profiling → Conflict Graph").
    ///
    /// # Panics
    ///
    /// Panics if `sim` was produced for a different trace set (length
    /// mismatch) or by a replay that did not attribute conflicts (a
    /// count-only final simulation, whose `conflicts` are empty).
    pub fn from_simulation(traces: &TraceSet, sim: &SimOutcome) -> Self {
        assert_eq!(
            sim.trace_fetches.len(),
            traces.len(),
            "simulation does not match the trace set"
        );
        assert_eq!(
            sim.conflicts.cold_misses.len(),
            traces.len(),
            "simulation did not attribute conflicts"
        );
        ConflictGraph::from_edge_map(
            sim.trace_fetches.clone(),
            traces.traces().iter().map(|t| t.code_size()).collect(),
            &sim.conflicts.misses_between,
        )
    }

    /// [`Self::from_simulation`] with observability: wraps CSR
    /// construction in a `conflict.build` span and records the graph
    /// shape — vertex/edge counts plus histograms of row degree (how
    /// many distinct evictors each object has) and edge weight
    /// (`m_ij` magnitudes).
    ///
    /// # Panics
    ///
    /// As [`Self::from_simulation`].
    pub fn from_simulation_obs(traces: &TraceSet, sim: &SimOutcome, obs: &casa_obs::Obs) -> Self {
        let span = obs.span("conflict.build");
        let g = ConflictGraph::from_simulation(traces, sim);
        obs.add("conflict.vertices", g.len() as u64);
        obs.add("conflict.edges", g.edge_count() as u64);
        if obs.is_enabled() {
            for i in 0..g.len() {
                obs.record("conflict.row_degree", g.row(i).len() as u64);
            }
            for (_, m) in g.edges() {
                obs.record("conflict.edge_weight", m);
            }
        }
        drop(span);
        g
    }

    /// Construct directly from parts (used by tests and the static
    /// approximation).
    pub fn from_parts(
        fetches: Vec<u64>,
        sizes: Vec<u32>,
        edges: HashMap<(usize, usize), u64>,
    ) -> Self {
        assert_eq!(fetches.len(), sizes.len());
        let n = fetches.len();
        for &(i, j) in edges.keys() {
            assert!(i < n && j < n, "edge ({i},{j}) out of range");
        }
        ConflictGraph::from_edge_map(fetches, sizes, &edges)
    }

    /// Number of memory objects.
    pub fn len(&self) -> usize {
        self.fetches.len()
    }

    /// Whether the graph has no objects.
    pub fn is_empty(&self) -> bool {
        self.fetches.is_empty()
    }

    /// `f_i` — instruction fetches of object `i`.
    pub fn fetches_of(&self, i: usize) -> u64 {
        self.fetches[i]
    }

    /// `S(x_i)` — allocatable size of object `i` in bytes.
    pub fn size_of(&self, i: usize) -> u32 {
        self.sizes[i]
    }

    /// `m_ij` — conflict misses of `i` caused by `j`.
    pub fn misses_between(&self, i: usize, j: usize) -> u64 {
        let row = self.row(i);
        match row.binary_search_by_key(&j, |&(nj, _)| nj) {
            Ok(pos) => row[pos].1,
            Err(_) => 0,
        }
    }

    /// Iterate over `((i, j), m_ij)` for all edges, in ascending
    /// `(i, j)` order (deterministic — safe to fold floats over).
    pub fn edges(&self) -> impl Iterator<Item = ((usize, usize), u64)> + '_ {
        (0..self.len()).flat_map(move |i| self.row(i).iter().map(move |&(j, m)| ((i, j), m)))
    }

    /// Total conflict misses of object `i` (eq. 3). Precomputed — O(1).
    pub fn conflict_misses_of(&self, i: usize) -> u64 {
        self.conflict_sums[i]
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len()
    }

    /// The neighbour set `N_i = { j : e_ij ∈ E }` of eq. (3), in
    /// ascending order.
    pub fn neighbours(&self, i: usize) -> Vec<usize> {
        self.row(i).iter().map(|&(j, _)| j).collect()
    }

    /// Graphviz DOT rendering (paper fig. 2 style: vertices weighted
    /// by `f_i`, edges by `m_ij`).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph conflicts {\n  node [shape=circle];\n");
        for i in 0..self.len() {
            let _ = writeln!(out, "  {i} [label=\"x{i}\\nf={}\"];", self.fetches[i]);
        }
        for ((i, j), m) in self.edges() {
            let _ = writeln!(out, "  {i} -> {j} [label=\"{m}\"];");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> ConflictGraph {
        let mut edges = HashMap::new();
        edges.insert((0, 1), 10);
        edges.insert((1, 0), 8);
        edges.insert((0, 2), 3);
        ConflictGraph::from_parts(vec![100, 80, 20], vec![64, 32, 16], edges)
    }

    #[test]
    fn accessors() {
        let g = small_graph();
        assert_eq!(g.len(), 3);
        assert_eq!(g.fetches_of(0), 100);
        assert_eq!(g.size_of(1), 32);
        assert_eq!(g.misses_between(0, 1), 10);
        assert_eq!(g.misses_between(2, 0), 0);
        assert_eq!(g.conflict_misses_of(0), 13);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbours(0), vec![1, 2]);
        assert!(!g.is_empty());
    }

    #[test]
    fn dot_export_mentions_weights() {
        let g = small_graph();
        let dot = g.to_dot();
        assert!(dot.contains("f=100"));
        assert!(dot.contains("0 -> 1 [label=\"10\"]"));
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn csr_matches_naive_edge_scan() {
        // Pseudo-random graph (deterministic LCG); every CSR accessor
        // must agree with a direct scan over the generating edge map.
        let n = 23usize;
        let mut state = 0x2004_cafe_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut edges = HashMap::new();
        for _ in 0..150 {
            let i = (next() as usize) % n;
            let j = (next() as usize) % n;
            if i != j {
                edges.insert((i, j), next() % 1000 + 1);
            }
        }
        let fetches: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
        let sizes: Vec<u32> = (0..n as u32).map(|i| 16 * (i + 1)).collect();
        let g = ConflictGraph::from_parts(fetches, sizes, edges.clone());

        assert_eq!(g.edge_count(), edges.len());
        for i in 0..n {
            let naive_sum: u64 = edges
                .iter()
                .filter(|&(&(vi, _), _)| vi == i)
                .map(|(_, &m)| m)
                .sum();
            assert_eq!(g.conflict_misses_of(i), naive_sum, "sum of row {i}");
            let mut naive_nbrs: Vec<usize> = edges
                .keys()
                .filter(|&&(vi, _)| vi == i)
                .map(|&(_, j)| j)
                .collect();
            naive_nbrs.sort_unstable();
            assert_eq!(g.neighbours(i), naive_nbrs, "neighbours of {i}");
            for j in 0..n {
                assert_eq!(
                    g.misses_between(i, j),
                    edges.get(&(i, j)).copied().unwrap_or(0),
                    "m_({i},{j})"
                );
            }
        }
        // edges() is complete and strictly ordered.
        let listed: Vec<_> = g.edges().collect();
        assert_eq!(listed.len(), edges.len());
        assert!(listed.windows(2).all(|w| w[0].0 < w[1].0));
        for (e, m) in listed {
            assert_eq!(edges.get(&e), Some(&m));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_rejected() {
        let mut edges = HashMap::new();
        edges.insert((0, 5), 1);
        ConflictGraph::from_parts(vec![1], vec![1], edges);
    }
}
