//! Allocation-as-a-service: the solve-request schema, the
//! fingerprinted solution cache, and the sharded worker pool behind
//! the `casa-server` binary.
//!
//! The paper's allocator is a batch tool; this module turns it into a
//! long-lived service. Three pieces:
//!
//! * **Requests** ([`parse_request`], [`SolveJob`]) — a POSTed JSON
//!   document carrying either an inline conflict graph or a workload
//!   name, plus energy constants (explicit table or cache geometry),
//!   SPM capacity, allocator choice, and a node/deadline budget.
//! * **The solution cache** ([`SolutionCache`]) — keyed by an FNV-1a
//!   fingerprint of the canonical request bytes with
//!   **verify-on-hit**: a hit must match the full key bytes, so a
//!   fingerprint collision can never serve a wrong layout. Exact hits
//!   replay the cached response verbatim; *capacity-adjacent* hits
//!   (same graph + allocator, different SPM size) seed warm starts.
//! * **The service** ([`AllocService`]) — a fixed-size worker pool,
//!   one solution cache per worker, sharded by the cache's *base*
//!   fingerprint so capacity-adjacent requests land on the worker
//!   that holds their warm-start candidates. Admission is a bounded
//!   queue: an overflowing shard rejects with
//!   [`SubmitError::Overloaded`] (HTTP 429) instead of queueing
//!   without bound.
//!
//! # Determinism
//!
//! Responses are deterministic JSON (sorted keys, [`jnum`] number
//! formatting) and deliberately exclude anything run-dependent (node
//! counts, timings, cache disposition — the latter travels as an HTTP
//! header). Warm starts pose a subtle threat to the invariant that a
//! cache can never change an *answer*: the branch & bound keeps
//! incumbents on strict improvement, so a warm start that already
//! attains the optimal value survives verbatim even when the cold
//! search would have returned a different (equally optimal, but
//! canonically first in DFS order) layout. The worker therefore
//! re-solves cold whenever a warm-started solve completes optimally
//! with the warm layout as its answer — the **canonical re-solve**
//! rule — so cache-on and cache-off servers are byte-identical for
//! every budget that closes the search.

use crate::allocation::Allocation;
use crate::capture::Capture;
use crate::conflict::ConflictGraph;
use crate::energy_model::EnergyModel;
use crate::engine::{allocate_traced, AllocOutcome, AllocStatus, Budget};
use crate::flow::AllocatorKind;
use casa_energy::{EnergyTable, TechParams};
use casa_mem::cache::{CacheConfig, ReplacementPolicy};
use casa_obs::{fnv1a_64, jnum, json_escape, ArgValue, Obs, SolveAttribution};
use serde::json::Value;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Hard ceiling on per-request node budgets (and the effective budget
/// of requests that ask for none): one request can never monopolize a
/// worker indefinitely, and because the ceiling folds into the cache
/// key, clamped requests still hit.
pub const DEFAULT_MAX_NODES: u64 = 2_000_000;

// ---------------------------------------------------------------------------
// Request schema
// ---------------------------------------------------------------------------

/// One fully resolved solve request: everything the worker needs.
#[derive(Debug, Clone)]
pub struct SolveJob {
    /// The conflict graph to allocate.
    pub graph: ConflictGraph,
    /// Energy constants the objective is priced with.
    pub table: EnergyTable,
    /// Scratchpad capacity in bytes.
    pub capacity: u32,
    /// Which allocator answers.
    pub allocator: AllocatorKind,
    /// Requested node budget (`None` = server default; always clamped
    /// to the server's ceiling by [`SolveJob::normalize`]).
    pub budget_nodes: Option<u64>,
    /// Requested wall-clock budget in milliseconds.
    pub budget_ms: Option<u64>,
    /// Capture a decision-provenance document for this solve, written
    /// as a `<stem>.explain.json` sibling of the session capture. An
    /// output channel only: excluded from both cache keys (explain-on
    /// and explain-off requests share entries) and from the response
    /// body, and produced only on misses — a cache hit replays the
    /// cached body without re-deriving provenance.
    pub explain: bool,
}

/// The workload-name request form: the graph is named, not inlined —
/// the binary resolves it through trace formation + profiling
/// simulation (memoized) and turns it into a [`SolveJob`].
#[derive(Debug, Clone)]
pub struct WorkloadRequest {
    /// Benchmark name (`adpcm`, `g721`, `mpeg`, `epic`, ...).
    pub benchmark: String,
    /// Trip-count scale factor.
    pub scale: u64,
    /// Walker seed.
    pub seed: u64,
    /// I-cache geometry; `None` = the paper's per-benchmark default.
    pub cache: Option<CacheConfig>,
    /// Scratchpad capacity in bytes.
    pub capacity: u32,
    /// Which allocator answers.
    pub allocator: AllocatorKind,
    /// Requested node budget.
    pub budget_nodes: Option<u64>,
    /// Requested wall-clock budget in milliseconds.
    pub budget_ms: Option<u64>,
    /// Capture a decision-provenance sibling for this solve.
    pub explain: bool,
}

/// A parsed `/solve` request: graph-form (self-contained) or
/// workload-form (needs benchmark resolution).
#[derive(Debug, Clone)]
pub enum ParsedRequest {
    /// Inline conflict graph: ready to solve.
    Graph(SolveJob),
    /// Named workload: the caller resolves the graph.
    Workload(WorkloadRequest),
}

/// Stable lowercase tag for each allocator, used in request parsing
/// and response JSON.
pub fn allocator_tag(kind: AllocatorKind) -> &'static str {
    match kind {
        AllocatorKind::CasaIlpPaper => "casa-ilp-paper",
        AllocatorKind::CasaIlpTight => "casa-ilp-tight",
        AllocatorKind::CasaBb => "casa-bb",
        AllocatorKind::CasaGreedy => "casa-greedy",
        AllocatorKind::Steinke => "steinke",
        AllocatorKind::None => "none",
    }
}

/// Parse an allocator tag (see [`allocator_tag`]).
pub fn parse_allocator(tag: &str) -> Option<AllocatorKind> {
    match tag {
        "casa-ilp-paper" => Some(AllocatorKind::CasaIlpPaper),
        "casa-ilp-tight" => Some(AllocatorKind::CasaIlpTight),
        "casa-bb" => Some(AllocatorKind::CasaBb),
        "casa-greedy" => Some(AllocatorKind::CasaGreedy),
        "steinke" => Some(AllocatorKind::Steinke),
        "none" => Some(AllocatorKind::None),
        _ => None,
    }
}

/// `v` as a non-negative integer. `what` names it in the refusal and
/// is formatted only then: a graph body holds hundreds of numbers, and
/// labels such as `graph.edges[k][i]` cost more to build than the
/// numbers do to check.
fn uint_field(v: &Value, what: impl fmt::Display) -> Result<u64, String> {
    let n = v
        .as_f64()
        .ok_or_else(|| format!("{what} must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > 9.007_199_254_740_992e15 {
        return Err(format!("{what} must be a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

/// Refusal for an integer that does not fit the `u32` field `what`.
fn too_large(what: &str, n: u64) -> String {
    format!("{what} must be at most {}, got {n}", u32::MAX)
}

fn u32_field(v: &Value, what: &str) -> Result<u32, String> {
    let n = uint_field(v, what)?;
    u32::try_from(n).map_err(|_| too_large(what, n))
}

fn uint_array(v: &Value, what: impl fmt::Display) -> Result<Vec<u64>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what} must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, x)| uint_field(x, format_args!("{what}[{i}]")))
        .collect()
}

fn parse_budget(v: &Value) -> Result<(Option<u64>, Option<u64>), String> {
    let Some(b) = v.get("budget") else {
        return Ok((None, None));
    };
    let nodes = match b.get("nodes") {
        Some(n) => Some(uint_field(n, "budget.nodes")?),
        None => None,
    };
    let ms = match b.get("ms") {
        Some(n) => Some(uint_field(n, "budget.ms")?),
        None => None,
    };
    Ok((nodes, ms))
}

fn invalid_geometry(size: u32, line: u32, assoc: u32) -> String {
    format!("invalid cache geometry: size {size}, line {line}, assoc {assoc}")
}

fn parse_cache_config(v: &Value) -> Result<CacheConfig, String> {
    let size = u32_field(v.get("size").ok_or("cache.size is required")?, "cache.size")?;
    let line = match v.get("line") {
        Some(l) => u32_field(l, "cache.line")?,
        None => 16,
    };
    let assoc = match v.get("assoc") {
        Some(a) => u32_field(a, "cache.assoc")?,
        None => 1,
    };
    // The energy model prices only a whole number of sets.
    let set_bytes = line.checked_mul(assoc).unwrap_or(0);
    if size == 0 || set_bytes == 0 || !size.is_multiple_of(set_bytes) {
        return Err(invalid_geometry(size, line, assoc));
    }
    Ok(CacheConfig {
        size,
        line_size: line,
        associativity: assoc,
        policy: ReplacementPolicy::Lru,
    })
}

fn parse_table(v: &Value) -> Result<EnergyTable, String> {
    let f = |key: &str| -> Result<f64, String> {
        let n = v
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("table.{key} must be a number"))?;
        if !n.is_finite() || n < 0.0 {
            return Err(format!("table.{key} must be finite and non-negative"));
        }
        Ok(n)
    };
    Ok(EnergyTable {
        cache_hit: f("cache_hit")?,
        cache_miss: f("cache_miss")?,
        spm_access: f("spm_access")?,
        lc_access: f("lc_access")?,
        lc_controller: f("lc_controller")?,
        mm_word: f("mm_word")?,
        l2_access: f("l2_access")?,
    })
}

fn parse_graph(v: &Value) -> Result<ConflictGraph, String> {
    let fetches = uint_array(
        v.get("fetches").ok_or("graph.fetches is required")?,
        "graph.fetches",
    )?;
    let sizes = uint_array(
        v.get("sizes").ok_or("graph.sizes is required")?,
        "graph.sizes",
    )?
    .into_iter()
    .enumerate()
    .map(|(i, s)| u32::try_from(s).map_err(|_| too_large(&format!("graph.sizes[{i}]"), s)))
    .collect::<Result<Vec<u32>, String>>()?;
    if fetches.len() != sizes.len() {
        return Err(format!(
            "graph.fetches ({}) and graph.sizes ({}) must have equal length",
            fetches.len(),
            sizes.len()
        ));
    }
    let n = fetches.len();
    let mut edges = HashMap::new();
    if let Some(raw) = v.get("edges") {
        let raw = raw.as_array().ok_or("graph.edges must be an array")?;
        for (k, e) in raw.iter().enumerate() {
            let triple = uint_array(e, format_args!("graph.edges[{k}]"))?;
            let [i, j, m] = triple[..] else {
                return Err(format!("graph.edges[{k}] must be [i, j, misses]"));
            };
            let (i, j) = (i as usize, j as usize);
            if i >= n || j >= n {
                return Err(format!(
                    "graph.edges[{k}]: bad endpoints ({i}, {j}) for {n} objects"
                ));
            }
            edges.insert((i, j), m);
        }
    }
    Ok(ConflictGraph::from_parts(fetches, sizes, edges))
}

/// The only wire-schema major version this build speaks.
pub const WIRE_VERSION: u64 = 1;

/// Why a `/solve` request body was refused (HTTP 400).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The envelope declared a wire-schema version this server does
    /// not speak. Unknown *fields* are tolerated; unknown *versions*
    /// are not — a client declaring `"v": 2` is asking for semantics
    /// this build cannot promise.
    UnsupportedVersion {
        /// The version the request declared.
        got: u64,
    },
    /// The body is malformed: the first violation, human-readable.
    Invalid(String),
}

impl RequestError {
    /// The HTTP 400 response body: a structured
    /// `{"error","detail","supported"}` object for version refusals
    /// (so clients can negotiate down), a plain `{"error"}` object
    /// otherwise.
    pub fn http_body(&self) -> String {
        match self {
            RequestError::UnsupportedVersion { got } => format!(
                "{{\"detail\":\"unsupported schema version {got}\",\
                 \"error\":\"unsupported_version\",\"supported\":[{WIRE_VERSION}]}}"
            ),
            RequestError::Invalid(e) => format!("{{\"error\":\"{}\"}}", json_escape(e)),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported schema version {got} (supported: {WIRE_VERSION})"
                )
            }
            RequestError::Invalid(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<String> for RequestError {
    fn from(e: String) -> Self {
        RequestError::Invalid(e)
    }
}

impl From<&str> for RequestError {
    fn from(e: &str) -> Self {
        RequestError::Invalid(e.to_string())
    }
}

/// Parse a `/solve` request body. See `DESIGN.md` §13 for the schema
/// and the compatibility policy.
///
/// The optional `"v"` envelope field declares the wire-schema major
/// version; absent means version 1 (every pre-envelope request is a
/// valid v1 request). Unknown fields are ignored at every level.
///
/// # Errors
///
/// [`RequestError::UnsupportedVersion`] when `"v"` names a version
/// other than [`WIRE_VERSION`]; [`RequestError::Invalid`] with a
/// human-readable description of the first violation otherwise. The
/// server returns [`RequestError::http_body`] as the HTTP 400 body.
pub fn parse_request(body: &str) -> Result<ParsedRequest, RequestError> {
    let v = serde::json::parse(body).map_err(|e| RequestError::Invalid(e.to_string()))?;
    // The version gate runs before any field validation: a v2 request
    // should hear "unsupported version", not a complaint about some
    // v2-only field this build happens to trip over first.
    let version = match v.get("v") {
        Some(x) => uint_field(x, "v")?,
        None => WIRE_VERSION,
    };
    if version != WIRE_VERSION {
        return Err(RequestError::UnsupportedVersion { got: version });
    }
    let capacity = u32_field(v.get("capacity").ok_or("capacity is required")?, "capacity")?;
    let allocator = match v.get("allocator") {
        Some(a) => {
            let tag = a.as_str().ok_or("allocator must be a string")?;
            parse_allocator(tag).ok_or_else(|| format!("unknown allocator {tag:?}"))?
        }
        None => AllocatorKind::CasaBb,
    };
    let (budget_nodes, budget_ms) = parse_budget(&v)?;
    let explain = match v.get("explain") {
        Some(b) => b.as_bool().ok_or("explain must be a boolean")?,
        None => false,
    };
    if let Some(w) = v.get("workload") {
        let benchmark = w
            .get("benchmark")
            .and_then(Value::as_str)
            .ok_or("workload.benchmark is required")?
            .to_string();
        let scale = match w.get("scale") {
            Some(s) => uint_field(s, "workload.scale")?.max(1),
            None => 1,
        };
        let seed = match w.get("seed") {
            Some(s) => uint_field(s, "workload.seed")?,
            None => 42,
        };
        let cache = match v.get("cache") {
            Some(c) => {
                let cfg = parse_cache_config(c)?;
                // A workload is simulated, and the simulator maps
                // addresses with shifts: lines and sets are powers of 2.
                if !cfg.line_size.is_power_of_two() || !cfg.num_sets().is_power_of_two() {
                    return Err(RequestError::Invalid(invalid_geometry(
                        cfg.size,
                        cfg.line_size,
                        cfg.associativity,
                    )));
                }
                Some(cfg)
            }
            None => None,
        };
        return Ok(ParsedRequest::Workload(WorkloadRequest {
            benchmark,
            scale,
            seed,
            cache,
            capacity,
            allocator,
            budget_nodes,
            budget_ms,
            explain,
        }));
    }
    let g = v
        .get("graph")
        .ok_or("either graph or workload is required")?;
    let graph = parse_graph(g)?;
    let table = match (v.get("table"), v.get("cache")) {
        (Some(t), _) => parse_table(t)?,
        (None, Some(c)) => {
            let cfg = parse_cache_config(c)?;
            EnergyTable::build(
                cfg.size,
                cfg.line_size,
                cfg.associativity,
                capacity,
                None,
                &TechParams::default(),
            )
        }
        (None, None) => {
            return Err(RequestError::Invalid(
                "either table or cache is required with graph".to_string(),
            ))
        }
    };
    Ok(ParsedRequest::Graph(SolveJob {
        graph,
        table,
        capacity,
        allocator,
        budget_nodes,
        budget_ms,
        explain,
    }))
}

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

fn push_u32(k: &mut Vec<u8>, v: u32) {
    k.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(k: &mut Vec<u8>, v: u64) {
    k.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(k: &mut Vec<u8>, v: f64) {
    k.extend_from_slice(&v.to_bits().to_le_bytes());
}

impl SolveJob {
    /// Clamp the effective node budget to `max_nodes` (requests
    /// without one get exactly `max_nodes`). Must run before
    /// [`Self::exact_key`]: the *effective* budget is part of the
    /// cache key, so a clamped request and an explicit
    /// `nodes = max_nodes` request share an entry.
    pub fn normalize(&mut self, max_nodes: u64) {
        let ceiling = max_nodes.max(1);
        let requested = self.budget_nodes.unwrap_or(ceiling);
        self.budget_nodes = Some(requested.min(ceiling));
    }

    /// The solver budget this job runs under.
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(n) = self.budget_nodes {
            b = b.with_nodes(n);
        }
        if let Some(ms) = self.budget_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        b
    }

    /// Canonical bytes identifying the *solution family*: conflict
    /// graph (CSR order) + allocator. Deliberately excludes the energy
    /// table and capacity — `EnergyTable::spm_access` varies with SPM
    /// size, so keying warm starts on it would never match across
    /// capacities. Shard assignment and the warm-start index use this
    /// key; two requests for the same graph at different capacities
    /// therefore reach the same worker and see each other's optima.
    pub fn base_key(&self) -> Vec<u8> {
        let mut k = Vec::with_capacity(64 + 20 * self.graph.len());
        k.extend_from_slice(b"casa/solve/base/v1\0");
        k.extend_from_slice(allocator_tag(self.allocator).as_bytes());
        k.push(0);
        push_u64(&mut k, self.graph.len() as u64);
        for i in 0..self.graph.len() {
            push_u64(&mut k, self.graph.fetches_of(i));
            push_u32(&mut k, self.graph.size_of(i));
        }
        push_u64(&mut k, self.graph.edge_count() as u64);
        for ((i, j), m) in self.graph.edges() {
            push_u64(&mut k, i as u64);
            push_u64(&mut k, j as u64);
            push_u64(&mut k, m);
        }
        k
    }

    /// Canonical bytes identifying the *exact answer*: the base key
    /// plus energy constants (bit-exact), capacity, and the effective
    /// budget. Two requests with equal exact keys must produce
    /// byte-identical responses, which is what lets the cache replay
    /// them verbatim.
    pub fn exact_key(&self) -> Vec<u8> {
        let mut k = self.base_key();
        k.extend_from_slice(b"/exact/v1\0");
        let t = &self.table;
        for v in [
            t.cache_hit,
            t.cache_miss,
            t.spm_access,
            t.lc_access,
            t.lc_controller,
            t.mm_word,
            t.l2_access,
        ] {
            push_f64(&mut k, v);
        }
        push_u32(&mut k, self.capacity);
        match self.budget_nodes {
            Some(n) => {
                k.push(1);
                push_u64(&mut k, n);
            }
            None => k.push(0),
        }
        match self.budget_ms {
            Some(ms) => {
                k.push(1);
                push_u64(&mut k, ms);
            }
            None => k.push(0),
        }
        k
    }
}

// ---------------------------------------------------------------------------
// Solution cache
// ---------------------------------------------------------------------------

/// Counters a [`SolutionCache`] keeps about itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact hits (verified, replayed verbatim).
    pub hits: u64,
    /// Exact misses.
    pub misses: u64,
    /// Fingerprint matches whose key bytes differed — the collisions
    /// verify-on-hit exists to catch.
    pub collisions: u64,
    /// Capacity-adjacent warm-start hits.
    pub warm_hits: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted (FIFO) to respect the capacity bound.
    pub evictions: u64,
}

/// What the exact cache stores per entry: the verbatim response body
/// plus the (run-independent) solve quality facts that per-request
/// attribution reports on a replay — a hit can honestly say "optimal,
/// gap 0" without re-parsing its own JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnswer {
    /// Deterministic response JSON, replayed verbatim.
    pub body: String,
    /// `AllocStatus::as_str()` of the solve that produced the body.
    pub status: String,
    /// Proven optimality gap of that solve (`None` for fallbacks).
    pub gap: Option<f64>,
}

#[derive(Debug)]
struct CacheEntry {
    key: Vec<u8>,
    answer: CachedAnswer,
}

#[derive(Debug)]
struct WarmEntry {
    key: Vec<u8>,
    capacity: u32,
    on_spm: Vec<bool>,
}

/// Bound on warm-start candidates kept per solution family (one per
/// distinct capacity, closest-capacity wins on lookup).
const WARM_BUCKET_CAP: usize = 8;

/// The fingerprinted solution cache. FNV-1a 64 is fast and stable but
/// **not** collision-resistant, so every lookup verifies the stored
/// canonical key bytes against the request's before serving — a
/// colliding fingerprint is a miss (and a counted
/// [`CacheStats::collisions`]), never a wrong answer.
///
/// `cap == 0` disables caching entirely (every lookup misses, inserts
/// are dropped) — the configuration the byte-identity property test
/// compares against.
#[derive(Debug)]
pub struct SolutionCache {
    cap: usize,
    len: usize,
    entries: HashMap<u64, Vec<CacheEntry>>,
    fifo: VecDeque<(u64, Vec<u8>)>,
    warm: HashMap<u64, Vec<WarmEntry>>,
    warm_fifo: VecDeque<u64>,
    /// Self-observed counters.
    pub stats: CacheStats,
}

impl SolutionCache {
    /// A cache bounded to `cap` exact entries (0 disables).
    pub fn new(cap: usize) -> Self {
        SolutionCache {
            cap,
            len: 0,
            entries: HashMap::new(),
            fifo: VecDeque::new(),
            warm: HashMap::new(),
            warm_fifo: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Exact entries currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no exact entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Look up the response cached under (`fp`, `key`). Verify-on-hit:
    /// the fingerprint routes to a bucket, but only a byte-equal key
    /// serves.
    pub fn lookup(&mut self, fp: u64, key: &[u8]) -> Option<CachedAnswer> {
        if self.cap == 0 {
            self.stats.misses += 1;
            return None;
        }
        if let Some(bucket) = self.entries.get(&fp) {
            if let Some(e) = bucket.iter().find(|e| e.key == key) {
                self.stats.hits += 1;
                return Some(e.answer.clone());
            }
            if !bucket.is_empty() {
                self.stats.collisions += 1;
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Insert a response under (`fp`, `key`), evicting FIFO beyond the
    /// capacity bound.
    pub fn insert(&mut self, fp: u64, key: Vec<u8>, answer: CachedAnswer) {
        if self.cap == 0 {
            return;
        }
        let bucket = self.entries.entry(fp).or_default();
        if bucket.iter().any(|e| e.key == key) {
            return; // identical request raced in ahead of us
        }
        bucket.push(CacheEntry {
            key: key.clone(),
            answer,
        });
        self.fifo.push_back((fp, key));
        self.len += 1;
        self.stats.insertions += 1;
        while self.len > self.cap {
            let Some((old_fp, old_key)) = self.fifo.pop_front() else {
                break;
            };
            if let Some(bucket) = self.entries.get_mut(&old_fp) {
                bucket.retain(|e| e.key != old_key);
                if bucket.is_empty() {
                    self.entries.remove(&old_fp);
                }
            }
            self.len -= 1;
            self.stats.evictions += 1;
        }
    }

    /// Find a warm-start layout for `capacity` among the proven optima
    /// of the same solution family (`base_fp` / `base_key`). The
    /// closest capacity wins; ties prefer the smaller (its layout is
    /// certain to fit). Verify-on-hit applies here too.
    pub fn warm_lookup(
        &mut self,
        base_fp: u64,
        base_key: &[u8],
        capacity: u32,
    ) -> Option<Vec<bool>> {
        if self.cap == 0 {
            return None;
        }
        let bucket = self.warm.get(&base_fp)?;
        let best = bucket
            .iter()
            .filter(|e| e.key == base_key)
            .min_by_key(|e| {
                let dist = (i64::from(e.capacity) - i64::from(capacity)).abs();
                (dist, i64::from(e.capacity))
            })?;
        self.stats.warm_hits += 1;
        Some(best.on_spm.clone())
    }

    /// Record a **proven-optimal** layout for (`base_key`,
    /// `capacity`). Non-optimal layouts are never recorded: a degraded
    /// incumbent would poison warm starts with arbitrary quality.
    pub fn warm_insert(
        &mut self,
        base_fp: u64,
        base_key: Vec<u8>,
        capacity: u32,
        on_spm: Vec<bool>,
    ) {
        if self.cap == 0 {
            return;
        }
        if !self.warm.contains_key(&base_fp) {
            self.warm_fifo.push_back(base_fp);
        }
        let bucket = self.warm.entry(base_fp).or_default();
        if let Some(e) = bucket
            .iter_mut()
            .find(|e| e.key == base_key && e.capacity == capacity)
        {
            e.on_spm = on_spm;
            return;
        }
        bucket.push(WarmEntry {
            key: base_key,
            capacity,
            on_spm,
        });
        if bucket.len() > WARM_BUCKET_CAP {
            bucket.remove(0);
        }
        while self.warm_fifo.len() > self.cap {
            let Some(old) = self.warm_fifo.pop_front() else {
                break;
            };
            self.warm.remove(&old);
        }
    }
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

/// Render the deterministic response JSON for one solved job: sorted
/// keys, [`jnum`] numbers, and **nothing run-dependent** — node
/// counts, wall time, and cache disposition are deliberately absent
/// so repeated and cache-served responses are byte-identical.
pub fn response_json(job: &SolveJob, out: &AllocOutcome, model: &EnergyModel<'_>) -> String {
    let alloc: &Allocation = &out.allocation;
    let energy = model.total_energy(&alloc.on_spm);
    let spm_bytes: u64 = (0..job.graph.len())
        .filter(|&i| alloc.on_spm[i])
        .map(|i| u64::from(job.graph.size_of(i)))
        .sum();
    let on_spm = alloc
        .on_spm
        .iter()
        .enumerate()
        .filter(|(_, &on)| on)
        .map(|(i, _)| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let gap = match out.status.gap() {
        Some(g) if g.is_finite() => jnum(g),
        _ => "null".to_string(),
    };
    let reason = match &out.status {
        AllocStatus::Fallback { reason } => format!("\"{}\"", json_escape(reason)),
        _ => "null".to_string(),
    };
    let stopped_by = match out.stopped_by {
        Some(k) => format!("\"{}\"", k.as_str()),
        None => "null".to_string(),
    };
    format!(
        "{{\"allocator\":\"{}\",\"capacity\":{},\"energy_nj\":{},\"gap\":{},\"objects\":{},\"on_spm\":[{}],\"reason\":{},\"spm_bytes\":{},\"status\":\"{}\",\"stopped_by\":{},\"v\":{WIRE_VERSION}}}",
        allocator_tag(job.allocator),
        job.capacity,
        jnum(energy),
        gap,
        job.graph.len(),
        on_spm,
        reason,
        spm_bytes,
        out.status.as_str(),
        stopped_by,
    )
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Sizing knobs for [`AllocService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (each owns one [`SolutionCache`] shard).
    pub workers: usize,
    /// Bounded admission queue depth per shard; a full queue rejects
    /// with [`SubmitError::Overloaded`].
    pub queue_cap: usize,
    /// Exact-entry bound per shard cache (0 disables caching).
    pub cache_cap: usize,
    /// Ceiling on effective per-request node budgets.
    pub max_nodes: u64,
    /// When set, every solved (cache-missing) request is captured into
    /// this directory through [`crate::capture::Captured::write`],
    /// named after the request's correlation ID (or its exact
    /// fingerprint when untagged). Capture never changes the response
    /// bytes and a failed write never fails the request — it only
    /// increments `server.capture_write_failures_total`.
    pub session_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_cap: 16,
            cache_cap: 256,
            max_nodes: DEFAULT_MAX_NODES,
            session_dir: None,
        }
    }
}

/// Why [`AllocService::submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The target shard's admission queue is full — HTTP 429.
    Overloaded,
    /// The service is shutting down — HTTP 503.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue full"),
            SubmitError::Closed => write!(f, "service shut down"),
        }
    }
}

/// How the cache participated in one reply (travels as the
/// `X-Casa-Cache` response header, never in the body).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Exact hit: the body is a verbatim replay.
    Hit,
    /// Miss, but a capacity-adjacent optimum seeded the warm start.
    Warm,
    /// Cold miss.
    Miss,
}

impl CacheOutcome {
    /// Stable lowercase tag (`hit` / `warm` / `miss`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm => "warm",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct SolveReply {
    /// Deterministic response JSON.
    pub body: String,
    /// Cache disposition.
    pub cache: CacheOutcome,
    /// Per-request solve attribution for the observability layer:
    /// everything run-dependent that the body deliberately excludes
    /// (cache outcome, status, gap, nodes, budget stop, queue wait,
    /// worker shard). Travels in headers / the request journal, never
    /// in the response body.
    pub attribution: SolveAttribution,
}

struct JobKeys {
    exact_fp: u64,
    exact_key: Vec<u8>,
    base_fp: u64,
    base_key: Vec<u8>,
}

struct QueuedJob {
    job: SolveJob,
    keys: JobKeys,
    /// Correlation ID of the HTTP request that queued this job, if
    /// the caller tagged one ([`AllocService::submit_tagged`]).
    req_id: Option<String>,
    /// When the job was admitted — queue wait is measured from here
    /// to the moment a worker dequeues it.
    enqueued_at: Instant,
    reply: SyncSender<SolveReply>,
}

/// The sharded worker pool with per-shard solution caches. Requests
/// shard by **base** fingerprint, so all capacities of one graph meet
/// the same cache.
#[derive(Debug)]
pub struct AllocService {
    shards: Vec<SyncSender<QueuedJob>>,
    /// Live depth of each shard's admission queue (incremented at
    /// admission, decremented at dequeue) — exported as
    /// `server.queue_depth.<shard>` gauges.
    depths: Vec<Arc<AtomicU64>>,
    joins: Vec<thread::JoinHandle<()>>,
    obs: Obs,
    max_nodes: u64,
}

impl AllocService {
    /// Spawn the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread cannot be spawned.
    pub fn start(cfg: &ServiceConfig, obs: &Obs) -> AllocService {
        let workers = cfg.workers.max(1);
        let mut shards = Vec::with_capacity(workers);
        let mut depths = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = std::sync::mpsc::sync_channel::<QueuedJob>(cfg.queue_cap.max(1));
            let cache = SolutionCache::new(cfg.cache_cap);
            let depth = Arc::new(AtomicU64::new(0));
            let worker_depth = Arc::clone(&depth);
            let obs = obs.clone();
            let session_dir = cfg.session_dir.clone();
            let join = thread::Builder::new()
                .name(format!("casa-solve-{w}"))
                .spawn(move || {
                    worker_loop(
                        &rx,
                        cache,
                        &obs,
                        w as u64,
                        &worker_depth,
                        session_dir.as_deref(),
                    );
                })
                .expect("spawn solver worker");
            shards.push(tx);
            depths.push(depth);
            joins.push(join);
        }
        AllocService {
            shards,
            depths,
            joins,
            obs: obs.clone(),
            max_nodes: cfg.max_nodes,
        }
    }

    /// Submit one job and wait for its reply. Admission is bounded:
    /// a full shard queue returns [`SubmitError::Overloaded`]
    /// immediately (the HTTP layer maps it to 429) rather than
    /// queueing without bound.
    pub fn submit(&self, job: SolveJob) -> Result<SolveReply, SubmitError> {
        self.submit_tagged(job, None)
    }

    /// [`AllocService::submit`] with a correlation ID: the worker opens
    /// a `server.request` span carrying `req_id` (parenting the
    /// engine/B&B spans it runs, since spans nest per-thread) and
    /// stamps the ID into the flight ring, so traces and flight dumps
    /// are filterable to one request. Tagging never changes the reply
    /// body — only what telemetry records about producing it.
    pub fn submit_tagged(
        &self,
        mut job: SolveJob,
        req_id: Option<&str>,
    ) -> Result<SolveReply, SubmitError> {
        job.normalize(self.max_nodes);
        let base_key = job.base_key();
        let base_fp = fnv1a_64(&base_key);
        let exact_key = job.exact_key();
        let exact_fp = fnv1a_64(&exact_key);
        let shard = (base_fp % self.shards.len() as u64) as usize;
        self.obs.add("server.requests_total", 1);
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        let queued = QueuedJob {
            job,
            keys: JobKeys {
                exact_fp,
                exact_key,
                base_fp,
                base_key,
            },
            req_id: req_id.map(str::to_string),
            enqueued_at: Instant::now(),
            reply: reply_tx,
        };
        // Count the admission before the send so the worker's matching
        // decrement can never race the gauge below zero.
        let depth = self.depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        self.obs
            .gauge_set(&format!("server.queue_depth.{shard}"), depth as f64);
        match self.shards[shard].try_send(queued) {
            Ok(()) => reply_rx.recv().map_err(|_| SubmitError::Closed),
            Err(e) => {
                let depth = self.depths[shard].fetch_sub(1, Ordering::Relaxed) - 1;
                self.obs
                    .gauge_set(&format!("server.queue_depth.{shard}"), depth as f64);
                match e {
                    TrySendError::Full(_) => {
                        self.obs.add("server.rejected_total", 1);
                        Err(SubmitError::Overloaded)
                    }
                    TrySendError::Disconnected(_) => Err(SubmitError::Closed),
                }
            }
        }
    }

    /// Stop accepting work and join the workers (queued jobs finish
    /// first). Idempotent.
    pub fn shutdown(&mut self) {
        self.shards.clear(); // closes the channels; workers drain and exit
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

impl Drop for AllocService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    rx: &Receiver<QueuedJob>,
    mut cache: SolutionCache,
    obs: &Obs,
    worker: u64,
    depth: &AtomicU64,
    session_dir: Option<&Path>,
) {
    let mut completed = 0u64;
    while let Ok(q) = rx.recv() {
        let d = depth.fetch_sub(1, Ordering::Relaxed) - 1;
        obs.gauge_set(&format!("server.queue_depth.{worker}"), d as f64);
        let queue_wait_us = q.enqueued_at.elapsed().as_micros() as u64;
        obs.record("server.queue_wait_us", queue_wait_us);
        // The request span opens on the worker thread, so the engine
        // and B&B spans the solve produces nest under it — that
        // parent/child link is what makes a trace filterable to one
        // request ID.
        let id = q.req_id.clone().unwrap_or_default();
        let _span = obs.span_with(
            "server.request",
            vec![
                ("req_id".to_string(), ArgValue::Str(id.clone())),
                ("shard".to_string(), ArgValue::U64(worker)),
            ],
        );
        if !id.is_empty() {
            // Stamp the ID into the flight ring (no dump) so a
            // post-mortem dump can be filtered to this request too.
            obs.annotate("server.request", &id);
        }
        let reply = solve_one(
            &q.job,
            &q.keys,
            &mut cache,
            obs,
            worker,
            queue_wait_us,
            &id,
            session_dir,
        );
        // Request-completion series on a logical clock: tick = this
        // worker's completion ordinal, value = search effort. Workers
        // own their series, so interleaving across shards cannot
        // scramble any one series' order.
        completed += 1;
        obs.ts_sample(
            &format!("server.completed.{worker}"),
            completed,
            reply.attribution.nodes as f64,
        );
        let _ = q.reply.send(reply);
    }
}

#[allow(clippy::too_many_arguments)]
fn solve_one(
    job: &SolveJob,
    keys: &JobKeys,
    cache: &mut SolutionCache,
    obs: &Obs,
    worker: u64,
    queue_wait_us: u64,
    req_id: &str,
    session_dir: Option<&Path>,
) -> SolveReply {
    let collisions_before = cache.stats.collisions;
    if let Some(ans) = cache.lookup(keys.exact_fp, &keys.exact_key) {
        obs.add("server.cache_hits_total", 1);
        return SolveReply {
            attribution: SolveAttribution {
                cache: CacheOutcome::Hit.as_str().to_string(),
                status: ans.status.clone(),
                gap: ans.gap,
                nodes: 0,
                stopped_by: None,
                reason: None,
                queue_wait_us,
                worker,
            },
            body: ans.body,
            cache: CacheOutcome::Hit,
        };
    }
    obs.add("server.cache_misses_total", 1);
    let delta = cache.stats.collisions - collisions_before;
    if delta > 0 {
        obs.add("server.cache_collisions_total", delta);
    }
    let warm = cache.warm_lookup(keys.base_fp, &keys.base_key, job.capacity);
    if warm.is_some() {
        obs.add("server.cache_warm_hits_total", 1);
    }
    let model = EnergyModel::new(&job.graph, &job.table);
    let budget = job.budget();
    // Capture is on per request when a session directory is
    // configured; a fresh one per attempt, so the canonical re-solve
    // below records from scratch.
    let fresh_capture = || {
        if session_dir.is_some() {
            Capture::on()
        } else {
            Capture::default()
        }
    };
    let mut capture = fresh_capture();
    let mut out = allocate_traced(
        &model,
        job.capacity,
        job.allocator,
        &budget,
        warm.as_deref(),
        obs,
        &capture.log,
        &capture.tree,
    );
    if let Some(w) = warm.as_deref() {
        // Canonical re-solve: the B&B keeps incumbents on *strict*
        // improvement, so a warm start that already attains the
        // optimal value survives verbatim even though the cold search
        // would return the first v*-attaining layout in DFS order.
        // Re-solving cold in exactly that case keeps cache-on and
        // cache-off responses byte-identical. The re-solve's capture
        // wins too: it is the one the response describes, and it
        // replays without divergence.
        if out.status.is_optimal() && out.allocation.on_spm == w {
            obs.add("server.canonical_resolves_total", 1);
            capture = fresh_capture();
            out = allocate_traced(
                &model,
                job.capacity,
                job.allocator,
                &budget,
                None,
                obs,
                &capture.log,
                &capture.tree,
            );
        }
    }
    obs.add(
        &format!("server.responses_{}_total", out.status.as_str()),
        1,
    );
    let body = response_json(job, &out, &model);
    if let Some(dir) = session_dir {
        // Best-effort by contract: captures and failed writes are only
        // counted, and neither touches the reply.
        let fp = format!("{:016x}", keys.exact_fp);
        let mut meta = vec![("source".to_string(), "casa-server".to_string())];
        if !req_id.is_empty() {
            meta.push(("req_id".to_string(), req_id.to_string()));
        }
        meta.push(("exact_fp".to_string(), fp.clone()));
        if let Some(captured) = capture.finish(job, &out, &model, meta, obs) {
            // `/explain.json` serves the most recent document.
            if let Some(doc) = &captured.explain {
                obs.publish_doc("explain", doc.clone());
            }
            let stem = if req_id.is_empty() { &fp } else { req_id };
            match captured.write(dir, stem) {
                Ok(()) => obs.add("server.captures_total", 1),
                Err(_) => obs.add("server.capture_write_failures_total", 1),
            }
        }
    }
    let outcome = if warm.is_some() {
        CacheOutcome::Warm
    } else {
        CacheOutcome::Miss
    };
    let attribution = SolveAttribution {
        cache: outcome.as_str().to_string(),
        status: out.status.as_str().to_string(),
        gap: out.status.gap().filter(|g| g.is_finite()),
        nodes: out.allocation.solver_nodes,
        stopped_by: out.stopped_by.map(|k| k.as_str().to_string()),
        reason: match &out.status {
            AllocStatus::Fallback { reason } => Some(reason.clone()),
            _ => None,
        },
        queue_wait_us,
        worker,
    };
    cache.insert(
        keys.exact_fp,
        keys.exact_key.clone(),
        CachedAnswer {
            body: body.clone(),
            status: out.status.as_str().to_string(),
            gap: out.status.gap().filter(|g| g.is_finite()),
        },
    );
    if out.status.is_optimal() {
        cache.warm_insert(
            keys.base_fp,
            keys.base_key.clone(),
            job.capacity,
            out.allocation.on_spm.clone(),
        );
    }
    SolveReply {
        body,
        cache: outcome,
        attribution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// A random small solve job (deterministic in `seed`).
    fn random_job(seed: &mut u64, capacity: u32, allocator: AllocatorKind) -> SolveJob {
        let n = 3 + (lcg(seed) % 5) as usize;
        let fetches: Vec<u64> = (0..n).map(|_| 50 + lcg(seed) % 2000).collect();
        let sizes: Vec<u32> = (0..n).map(|_| 8 + 8 * (lcg(seed) % 4) as u32).collect();
        let mut edges = HashMap::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && lcg(seed).is_multiple_of(2) {
                    edges.insert((i, j), 1 + lcg(seed) % 400);
                }
            }
        }
        SolveJob {
            graph: ConflictGraph::from_parts(fetches, sizes, edges),
            table: EnergyTable::build(1024, 16, 1, capacity, None, &TechParams::default()),
            capacity,
            allocator,
            budget_nodes: None,
            budget_ms: None,
            explain: false,
        }
    }

    fn graph_request_json(job: &SolveJob) -> String {
        let g = &job.graph;
        let fetches: Vec<String> = (0..g.len()).map(|i| g.fetches_of(i).to_string()).collect();
        let sizes: Vec<String> = (0..g.len()).map(|i| g.size_of(i).to_string()).collect();
        let edges: Vec<String> = g
            .edges()
            .map(|((i, j), m)| format!("[{i},{j},{m}]"))
            .collect();
        let t = &job.table;
        format!(
            "{{\"graph\":{{\"fetches\":[{}],\"sizes\":[{}],\"edges\":[{}]}},\"table\":{{\"cache_hit\":{},\"cache_miss\":{},\"spm_access\":{},\"lc_access\":{},\"lc_controller\":{},\"mm_word\":{},\"l2_access\":{}}},\"capacity\":{},\"allocator\":\"{}\"}}",
            fetches.join(","),
            sizes.join(","),
            edges.join(","),
            jnum(t.cache_hit),
            jnum(t.cache_miss),
            jnum(t.spm_access),
            jnum(t.lc_access),
            jnum(t.lc_controller),
            jnum(t.mm_word),
            jnum(t.l2_access),
            job.capacity,
            allocator_tag(job.allocator),
        )
    }

    #[test]
    fn parse_round_trips_a_generated_request() {
        let mut seed = 7;
        let job = random_job(&mut seed, 64, AllocatorKind::CasaBb);
        let body = graph_request_json(&job);
        let ParsedRequest::Graph(parsed) = parse_request(&body).expect("parses") else {
            panic!("expected graph form");
        };
        assert_eq!(parsed.capacity, 64);
        assert_eq!(parsed.allocator, AllocatorKind::CasaBb);
        assert_eq!(parsed.graph.len(), job.graph.len());
        assert_eq!(parsed.exact_key(), job.exact_key());
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        // Every refusal, byte for byte as the 400 body carries it. The
        // first violation wins, and no body panics or parses.
        let g = r#""graph":{"fetches":[1,2],"sizes":[8,8]}"#;
        let c = r#""cache":{"size":1024}"#;
        let cases: Vec<(String, &str)> = vec![
            (
                "not json".into(),
                r#"{"error":"JSON parse error at byte 0: expected a JSON value"}"#,
            ),
            (
                r#"{"v":tru}"#.into(),
                r#"{"error":"JSON parse error at byte 5: expected a JSON value"}"#,
            ),
            ("{}".into(), r#"{"error":"capacity is required"}"#),
            (
                r#"{"capacity":64}"#.into(),
                r#"{"error":"either graph or workload is required"}"#,
            ),
            (
                format!(r#"{{"capacity":64,"allocator":"magic",{c},{g}}}"#),
                r#"{"error":"unknown allocator \"magic\""}"#,
            ),
            (
                r#"{"capacity":"64"}"#.into(),
                r#"{"error":"capacity must be a number"}"#,
            ),
            (
                r#"{"capacity":-1}"#.into(),
                r#"{"error":"capacity must be a non-negative integer, got -1"}"#,
            ),
            (
                r#"{"capacity":1.5}"#.into(),
                r#"{"error":"capacity must be a non-negative integer, got 1.5"}"#,
            ),
            (
                format!(r#"{{"capacity":64,{c},"graph":{{"fetches":[1,2,3],"sizes":[8,8]}}}}"#),
                r#"{"error":"graph.fetches (3) and graph.sizes (2) must have equal length"}"#,
            ),
            (
                format!(
                    r#"{{"capacity":64,{c},"graph":{{"fetches":[1,2],"sizes":[8,8],"edges":[[0,1]]}}}}"#
                ),
                r#"{"error":"graph.edges[0] must be [i, j, misses]"}"#,
            ),
            (
                format!(
                    r#"{{"capacity":64,{c},"graph":{{"fetches":[1,2],"sizes":[8,8],"edges":[[0,9,5]]}}}}"#
                ),
                r#"{"error":"graph.edges[0]: bad endpoints (0, 9) for 2 objects"}"#,
            ),
            // Per-element labels name the offending index.
            (
                format!(r#"{{"capacity":64,{c},"graph":{{"fetches":[1,"x"],"sizes":[8,8]}}}}"#),
                r#"{"error":"graph.fetches[1] must be a number"}"#,
            ),
            (
                format!(r#"{{"capacity":64,{c},"graph":{{"fetches":[1,2],"sizes":[8,1.5]}}}}"#),
                r#"{"error":"graph.sizes[1] must be a non-negative integer, got 1.5"}"#,
            ),
            (
                format!(
                    r#"{{"capacity":64,{c},"graph":{{"fetches":[1,2],"sizes":[8,8],"edges":[[0,1,5],7]}}}}"#
                ),
                r#"{"error":"graph.edges[1] must be an array"}"#,
            ),
            (
                format!(
                    r#"{{"capacity":64,{c},"graph":{{"fetches":[1,2],"sizes":[8,8],"edges":[[0,1,5],[1,0,-2]]}}}}"#
                ),
                r#"{"error":"graph.edges[1][2] must be a non-negative integer, got -2"}"#,
            ),
            (
                r#"{"v":2}"#.into(),
                r#"{"detail":"unsupported schema version 2","error":"unsupported_version","supported":[1]}"#,
            ),
            (r#"{"v":"two"}"#.into(), r#"{"error":"v must be a number"}"#),
            (
                format!(r#"{{"capacity":64,"cache":{{"size":1000,"line":16}},{g}}}"#),
                r#"{"error":"invalid cache geometry: size 1000, line 16, assoc 1"}"#,
            ),
            (
                format!(r#"{{"capacity":64,{g}}}"#),
                r#"{"error":"either table or cache is required with graph"}"#,
            ),
            // Integers past u32::MAX are refused, not truncated into
            // another request's cache key.
            (
                format!(r#"{{"capacity":4294967360,{c},{g}}}"#),
                r#"{"error":"capacity must be at most 4294967295, got 4294967360"}"#,
            ),
            (
                format!(
                    r#"{{"capacity":64,{c},"graph":{{"fetches":[1,2],"sizes":[4294967304,8]}}}}"#
                ),
                r#"{"error":"graph.sizes[0] must be at most 4294967295, got 4294967304"}"#,
            ),
            (
                format!(r#"{{"capacity":64,"cache":{{"size":4294968320}},{g}}}"#),
                r#"{"error":"cache.size must be at most 4294967295, got 4294968320"}"#,
            ),
        ];
        for (body, want) in &cases {
            match parse_request(body) {
                Ok(_) => panic!("accepted {body}"),
                Err(e) => assert_eq!(e.http_body(), *want, "for {body}"),
            }
        }
    }

    /// A body shaped like the serve-mix workload's requests: graph form
    /// with cache geometry, 8–80 objects and twice as many edges.
    fn serve_mix_body(seed: &mut u64) -> String {
        let n = 8 + lcg(seed) % 73;
        let fetches: Vec<String> = (0..n).map(|_| (lcg(seed) % 100_000).to_string()).collect();
        let sizes: Vec<String> = (0..n)
            .map(|_| (4 + 4 * (lcg(seed) % 64)).to_string())
            .collect();
        let edges: Vec<String> = (0..2 * n)
            .map(|_| format!("[{},{},{}]", lcg(seed) % n, lcg(seed) % n, lcg(seed) % 5000))
            .collect();
        format!(
            "{{\"v\":1,\"graph\":{{\"fetches\":[{}],\"sizes\":[{}],\"edges\":[{}]}},\"cache\":{{\"size\":{},\"line\":16,\"assoc\":{}}},\"capacity\":{},\"allocator\":\"casa-bb\"}}",
            fetches.join(","),
            sizes.join(","),
            edges.join(","),
            [1024, 2048][(lcg(seed) % 2) as usize],
            [1, 4][(lcg(seed) % 2) as usize],
            64 << (lcg(seed) % 4),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Mutation fuzz of the `/solve` decoder: 1–8 byte flips,
        /// deletions, truncations or inserted digits, quotes and
        /// brackets on a serve-mix body. No edit panics, and every
        /// refusal's 400 body is one JSON object with an `"error"` key.
        #[test]
        fn parse_request_survives_mutated_bodies(
            body_seed in proptest::prelude::any::<u64>(),
            edits in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<u32>(), proptest::prelude::any::<u8>()),
                1..=8,
            ),
        ) {
            let mut seed = body_seed;
            let mut bytes = serve_mix_body(&mut seed).into_bytes();
            for &(kind, at, x) in &edits {
                let len = bytes.len();
                let at = at as usize;
                match kind {
                    // Both sides are ASCII, so the body stays UTF-8.
                    0 if len > 0 => bytes[at % len] ^= 1 + x % 127,
                    1 if len > 0 => {
                        bytes.remove(at % len);
                    }
                    2 => bytes.truncate(at % (len + 1)),
                    _ => bytes.insert(at % (len + 1), b"0123456789\"[]"[usize::from(x) % 13]),
                }
            }
            let body = String::from_utf8(bytes).expect("edits keep the body ASCII");
            if let Err(e) = parse_request(&body) {
                let reply = e.http_body();
                let parsed = serde::json::parse(&reply);
                proptest::prop_assert!(
                    matches!(&parsed, Ok(v) if v.as_object().is_some() && v.get("error").is_some()),
                    "refusal {reply} for {body}"
                );
            }
        }
    }

    #[test]
    fn parse_refuses_cache_geometry_it_cannot_price_or_simulate() {
        // A size that is a multiple of the line but not of line × assoc
        // (or a line × assoc past u32) used to panic in the energy
        // table's geometry assertion instead of refusing the body; a
        // workload's non-power-of-two line or set count panicked in the
        // simulator once the workload was resolved.
        let g = r#""graph":{"fetches":[1,2],"sizes":[8,8]}"#;
        for (cache, want) in [
            (
                r#"{"size":1040,"assoc":4}"#,
                r#"{"error":"invalid cache geometry: size 1040, line 16, assoc 4"}"#,
            ),
            (
                r#"{"size":1024,"assoc":3}"#,
                r#"{"error":"invalid cache geometry: size 1024, line 16, assoc 3"}"#,
            ),
            (
                r#"{"size":4294967280,"assoc":4294967295}"#,
                r#"{"error":"invalid cache geometry: size 4294967280, line 16, assoc 4294967295"}"#,
            ),
        ] {
            let body = format!(r#"{{"capacity":64,"cache":{cache},{g}}}"#);
            assert_eq!(parse_request(&body).unwrap_err().http_body(), want);
            let body =
                format!(r#"{{"capacity":64,"cache":{cache},"workload":{{"benchmark":"adpcm"}}}}"#);
            assert_eq!(parse_request(&body).unwrap_err().http_body(), want);
        }
        for (cache, want) in [
            (
                r#"{"size":1200,"line":12}"#,
                r#"{"error":"invalid cache geometry: size 1200, line 12, assoc 1"}"#,
            ),
            (
                r#"{"size":1536}"#,
                r#"{"error":"invalid cache geometry: size 1536, line 16, assoc 1"}"#,
            ),
        ] {
            let body =
                format!(r#"{{"capacity":64,"cache":{cache},"workload":{{"benchmark":"adpcm"}}}}"#);
            assert_eq!(parse_request(&body).unwrap_err().http_body(), want);
            // The graph form only prices the geometry, which it can.
            let body = format!(r#"{{"capacity":64,"cache":{cache},{g}}}"#);
            assert!(parse_request(&body).is_ok(), "{body}");
        }
    }

    #[test]
    fn version_envelope_gates_requests() {
        // Absent `v` means v1; an explicit 1 is accepted too.
        let base =
            "\"capacity\":64,\"cache\":{\"size\":1024},\"graph\":{\"fetches\":[1],\"sizes\":[8]}";
        assert!(parse_request(&format!("{{{base}}}")).is_ok());
        assert!(parse_request(&format!("{{\"v\":1,{base}}}")).is_ok());
        // Unknown fields stay tolerated under the envelope.
        assert!(parse_request(&format!("{{\"v\":1,\"future_knob\":true,{base}}}")).is_ok());
        // A foreign major version is refused before field validation —
        // even when the rest of the body would not parse as v1.
        let err = parse_request("{\"v\":2}").unwrap_err();
        assert_eq!(err, RequestError::UnsupportedVersion { got: 2 });
        let body = err.http_body();
        let v = serde::json::parse(&body).expect("structured 400 body");
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("unsupported_version")
        );
        assert_eq!(
            v.get("detail").and_then(Value::as_str),
            Some("unsupported schema version 2")
        );
        let supported = v.get("supported").and_then(Value::as_array).expect("list");
        assert_eq!(supported.len(), 1);
        assert_eq!(supported[0].as_f64(), Some(1.0));
        // A non-integer version is malformed, not "unsupported".
        assert!(matches!(
            parse_request("{\"v\":\"two\"}").unwrap_err(),
            RequestError::Invalid(_)
        ));
        // Responses carry the envelope back.
        let ParsedRequest::Graph(mut job) = parse_request(&format!("{{{base}}}")).expect("parses")
        else {
            panic!("graph form");
        };
        job.normalize(DEFAULT_MAX_NODES);
        let model = EnergyModel::new(&job.graph, &job.table);
        let out = crate::engine::allocate_budgeted(
            &model,
            job.capacity,
            job.allocator,
            &job.budget(),
            &Obs::disabled(),
        );
        let body = response_json(&job, &out, &model);
        assert!(body.ends_with(",\"v\":1}"), "{body}");
    }

    #[test]
    fn parse_workload_form() {
        let body = "{\"capacity\":256,\"workload\":{\"benchmark\":\"adpcm\",\"scale\":2,\"seed\":7},\"budget\":{\"nodes\":1000}}";
        let ParsedRequest::Workload(w) = parse_request(body).expect("parses") else {
            panic!("expected workload form");
        };
        assert_eq!(w.benchmark, "adpcm");
        assert_eq!((w.scale, w.seed, w.capacity), (2, 7, 256));
        assert_eq!(w.budget_nodes, Some(1000));
        assert_eq!(w.allocator, AllocatorKind::CasaBb);
    }

    #[test]
    fn keys_separate_what_must_be_separate() {
        let mut seed = 11;
        let a = random_job(&mut seed, 64, AllocatorKind::CasaBb);
        let mut b = a.clone();
        // Same everything → same keys.
        assert_eq!(a.exact_key(), b.exact_key());
        assert_eq!(a.base_key(), b.base_key());
        // Capacity changes the exact key (the table too, in real
        // requests) but NOT the base key — that is what makes
        // capacity-adjacent warm starts findable.
        b.capacity = 96;
        assert_eq!(a.base_key(), b.base_key());
        assert_ne!(a.exact_key(), b.exact_key());
        // Allocator changes both.
        let mut c = a.clone();
        c.allocator = AllocatorKind::CasaGreedy;
        assert_ne!(a.base_key(), c.base_key());
        // Budget changes the exact key.
        let mut d = a.clone();
        d.budget_nodes = Some(5);
        assert_ne!(a.exact_key(), d.exact_key());
        // Clamping folds into the key: an explicit budget at the
        // ceiling equals no budget at all.
        let mut e = a.clone();
        let mut f = a.clone();
        e.budget_nodes = Some(DEFAULT_MAX_NODES * 10);
        e.normalize(DEFAULT_MAX_NODES);
        f.normalize(DEFAULT_MAX_NODES);
        assert_eq!(e.exact_key(), f.exact_key());
    }

    /// The satellite's collision-safety test. Constructing two graphs
    /// with a *real* FNV-1a 64 collision needs ~2³² birthday work, so
    /// the forced collision is injected at the cache layer — which is
    /// exactly the layer whose verify-on-hit must reject it: two
    /// different canonical keys filed under one fingerprint.
    /// A [`CachedAnswer`] wrapping just a body, for cache-layer tests.
    fn ans(body: &str) -> CachedAnswer {
        CachedAnswer {
            body: body.to_string(),
            status: "optimal".to_string(),
            gap: Some(0.0),
        }
    }

    #[test]
    fn forced_fingerprint_collision_never_serves_wrong_answer() {
        let mut cache = SolutionCache::new(8);
        let fp = 0x1234_5678_9abc_def0;
        let key_a = b"request-a".to_vec();
        let key_b = b"request-b".to_vec();
        cache.insert(fp, key_a.clone(), ans("{\"answer\":\"a\"}"));
        // Same fingerprint, different key: must MISS and count the
        // collision, never serve body A.
        assert_eq!(cache.lookup(fp, &key_b), None);
        assert_eq!(cache.stats.collisions, 1);
        // The genuine key still hits.
        assert_eq!(
            cache.lookup(fp, &key_a).map(|a| a.body),
            Some("{\"answer\":\"a\"}".to_string())
        );
        // Both colliding entries can coexist under one fingerprint.
        cache.insert(fp, key_b.clone(), ans("{\"answer\":\"b\"}"));
        assert_eq!(
            cache.lookup(fp, &key_b).map(|a| a.body),
            Some("{\"answer\":\"b\"}".to_string())
        );
        assert_eq!(
            cache.lookup(fp, &key_a).map(|a| a.body),
            Some("{\"answer\":\"a\"}".to_string())
        );
    }

    #[test]
    fn cache_evicts_fifo_and_respects_disable() {
        let mut cache = SolutionCache::new(2);
        cache.insert(1, b"k1".to_vec(), ans("b1"));
        cache.insert(2, b"k2".to_vec(), ans("b2"));
        cache.insert(3, b"k3".to_vec(), ans("b3"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats.evictions, 1);
        assert_eq!(cache.lookup(1, b"k1"), None, "oldest evicted");
        assert!(cache.lookup(3, b"k3").is_some());

        let mut off = SolutionCache::new(0);
        off.insert(1, b"k".to_vec(), ans("b"));
        assert_eq!(off.lookup(1, b"k"), None);
        assert!(off.is_empty());
    }

    #[test]
    fn exact_repeats_hit_and_replay_verbatim() {
        let obs = Obs::enabled();
        let svc = AllocService::start(&ServiceConfig::default(), &obs);
        let mut seed = 3;
        let job = random_job(&mut seed, 64, AllocatorKind::CasaBb);
        let first = svc.submit(job.clone()).expect("first solve");
        let second = svc.submit(job).expect("second solve");
        assert_eq!(first.cache, CacheOutcome::Miss);
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert_eq!(first.body, second.body, "replay must be byte-identical");
        let snap = obs.snapshot();
        assert!(snap.contains_key("server.cache_hits_total"));
        assert!(snap.contains_key("server.requests_total"));
    }

    /// The satellite's byte-identity property test: a seeded request
    /// mix (repeats, capacity-adjacent pairs, several allocators)
    /// must produce byte-identical responses from a cache-on and a
    /// cache-off server — while actually exercising exact hits AND
    /// warm-started solves on the cached side.
    #[test]
    fn cache_on_and_cache_off_responses_are_byte_identical() {
        let on = AllocService::start(&ServiceConfig::default(), &Obs::disabled());
        let off = AllocService::start(
            &ServiceConfig {
                cache_cap: 0,
                ..ServiceConfig::default()
            },
            &Obs::disabled(),
        );
        let mut seed = 1234;
        let mut jobs = Vec::new();
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaGreedy,
            AllocatorKind::CasaIlpTight,
        ] {
            for _ in 0..3 {
                let base = random_job(&mut seed, 64, kind);
                let mut adjacent = base.clone();
                adjacent.capacity = 96;
                adjacent.table = EnergyTable::build(1024, 16, 1, 96, None, &TechParams::default());
                let repeat = base.clone();
                jobs.push(base);
                jobs.push(adjacent); // warm-start candidate
                jobs.push(repeat); // exact hit
            }
        }
        let mut hits = 0;
        let mut warms = 0;
        for job in jobs {
            let a = on.submit(job.clone()).expect("cache-on solve");
            let b = off.submit(job).expect("cache-off solve");
            assert_eq!(a.body, b.body, "cache must never change an answer");
            match a.cache {
                CacheOutcome::Hit => hits += 1,
                CacheOutcome::Warm => warms += 1,
                CacheOutcome::Miss => {}
            }
            assert_eq!(b.cache, CacheOutcome::Miss, "cache-off never hits");
        }
        assert!(hits >= 3, "property test exercised {hits} exact hits");
        assert!(warms >= 3, "property test exercised {warms} warm starts");
    }

    /// Tagging a submission with a request ID must never change the
    /// reply body (determinism), and the attribution must record the
    /// solve facts the body deliberately omits — including honest
    /// hit attribution (zero nodes, cached status/gap) on a replay.
    #[test]
    fn tagged_submissions_attribute_without_changing_bodies() {
        let obs = Obs::enabled();
        let svc = AllocService::start(&ServiceConfig::default(), &obs);
        let mut seed = 5;
        let job = random_job(&mut seed, 64, AllocatorKind::CasaBb);
        let plain = svc.submit(job.clone()).expect("untagged solve");
        let tagged = svc
            .submit_tagged(job, Some("req-attr-1"))
            .expect("tagged solve");
        assert_eq!(plain.body, tagged.body, "tagging must not change bodies");
        assert_eq!(plain.attribution.cache, "miss");
        assert_eq!(plain.attribution.status, "optimal");
        assert_eq!(plain.attribution.gap, Some(0.0));
        assert!(plain.attribution.nodes > 0, "cold solve explores nodes");
        // The repeat is an exact hit: replayed, zero nodes, but the
        // cached solve quality still reported.
        assert_eq!(tagged.cache, CacheOutcome::Hit);
        assert_eq!(tagged.attribution.cache, "hit");
        assert_eq!(tagged.attribution.status, "optimal");
        assert_eq!(tagged.attribution.gap, Some(0.0));
        assert_eq!(tagged.attribution.nodes, 0);
        assert!((plain.attribution.worker as usize) < 2);
        // The tagged request's span carries the ID, on the worker
        // thread, so engine spans nest under it.
        let events = obs.events();
        let req_span = events
            .iter()
            .find(|e| {
                e.name == "server.request"
                    && e.args.iter().any(|(k, v)| {
                        k == "req_id" && *v == ArgValue::Str("req-attr-1".to_string())
                    })
            })
            .expect("tagged request span recorded");
        assert!(req_span.dur_us.is_some());
        // And the flight ring holds the correlation note.
        assert!(obs
            .flight_events()
            .iter()
            .any(|e| e.name == "server.request"
                && e.value == Some(ArgValue::Str("req-attr-1".to_string()))));
    }

    #[test]
    fn degraded_responses_carry_a_finite_gap() {
        let svc = AllocService::start(&ServiceConfig::default(), &Obs::disabled());
        let mut seed = 99;
        let mut job = random_job(&mut seed, 32, AllocatorKind::CasaBb);
        job.budget_nodes = Some(1);
        let reply = svc.submit(job).expect("solve");
        let v = serde::json::parse(&reply.body).expect("valid JSON");
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("feasible"),
            "{}",
            reply.body
        );
        let gap = v.get("gap").and_then(Value::as_f64).expect("finite gap");
        assert!(gap.is_finite() && gap >= 0.0);
        assert_eq!(v.get("stopped_by").and_then(Value::as_str), Some("nodes"));
    }

    #[test]
    fn captured_request_session_replays_to_the_journaled_attribution() {
        let dir = std::env::temp_dir().join(format!("casa-server-sessions-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let obs = Obs::enabled();
        let svc = AllocService::start(
            &ServiceConfig {
                session_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
            &obs,
        );
        let mut seed = 7;
        let job = random_job(&mut seed, 32, AllocatorKind::CasaBb);
        let reply = svc
            .submit_tagged(job, Some("req/42:capture"))
            .expect("solve");
        // Sanitized correlation ID names the file.
        let path = dir.join("req_42_capture.casa-session");
        let session = crate::session::Session::load(&path).expect("captured session loads");
        assert_eq!(
            session.report, reply.body,
            "session holds the exact response bytes"
        );
        assert!(session
            .meta
            .iter()
            .any(|(k, v)| k == "req_id" && v == "req/42:capture"));
        let summary = session.replay().expect("captured session replays");
        assert_eq!(summary.status, reply.attribution.status);
        assert_eq!(summary.gap, reply.attribution.gap);
        assert_eq!(summary.nodes, reply.attribution.nodes);
        // The search tree is captured as a sibling artifact, named by
        // the same stem, and reports the same search effort.
        let tree_json =
            std::fs::read_to_string(dir.join("req_42_capture.tree.json")).expect("tree sibling");
        let tree = casa_ilp::tree::parse_tree_log(&tree_json).expect("valid tree log");
        assert_eq!(tree.nodes, reply.attribution.nodes);
        assert!(!tree.events.is_empty());
        // An exact cache hit replays the body without re-solving, so it
        // must not rewrite (or fail to rewrite) the session.
        let mut seed = 7;
        let again = svc
            .submit_tagged(
                random_job(&mut seed, 32, AllocatorKind::CasaBb),
                Some("hit-1"),
            )
            .expect("solve");
        assert_eq!(again.cache, CacheOutcome::Hit);
        assert!(!dir.join("hit-1.casa-session").exists());
        assert!(!dir.join("hit-1.tree.json").exists());
        let snap = obs.snapshot();
        assert_eq!(
            snap.get("server.captures_total"),
            Some(&casa_obs::MetricValue::Counter(1))
        );
        assert!(!snap.contains_key("server.capture_write_failures_total"));
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_opt_in_writes_a_sibling_that_matches_the_response() {
        // The flag never enters the cache keys: explain-on and
        // explain-off requests share entries.
        let mut seed = 11;
        let job = random_job(&mut seed, 32, AllocatorKind::CasaBb);
        let mut tagged = job.clone();
        tagged.explain = true;
        assert_eq!(job.exact_key(), tagged.exact_key());
        assert_eq!(job.base_key(), tagged.base_key());

        let dir = std::env::temp_dir().join(format!("casa-server-explain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let obs = Obs::enabled();
        let svc = AllocService::start(
            &ServiceConfig {
                session_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
            &obs,
        );
        let reply = svc
            .submit_tagged(tagged.clone(), Some("exp-1"))
            .expect("solve");
        assert_eq!(reply.cache, CacheOutcome::Miss);
        let json = std::fs::read_to_string(dir.join("exp-1.explain.json")).expect("sibling");
        let doc = crate::explain::parse_explain(&json).expect("valid explain doc");
        // The document describes exactly the placement the response
        // reports, one provenance record per object.
        let v = serde::json::parse(&reply.body).expect("valid body");
        let on_spm: Vec<usize> = v
            .get("on_spm")
            .and_then(Value::as_array)
            .expect("on_spm")
            .iter()
            .map(|x| x.as_f64().unwrap() as usize)
            .collect();
        assert_eq!(doc.objects.len(), tagged.graph.len());
        for o in &doc.objects {
            assert_eq!(o.on_spm, on_spm.contains(&o.index), "object {}", o.index);
        }
        assert_eq!(doc.allocator, allocator_tag(tagged.allocator));
        // The latest document is also served on the telemetry handle.
        assert_eq!(obs.published_doc("explain"), Some(json));
        // A cache hit replays the body without re-deriving provenance:
        // no sibling, even with the flag set.
        let again = svc.submit_tagged(tagged, Some("exp-hit")).expect("solve");
        assert_eq!(again.cache, CacheOutcome::Hit);
        assert!(!dir.join("exp-hit.explain.json").exists());
        // Without the opt-in, a miss writes no sibling either.
        let mut seed = 13;
        let plain = svc
            .submit_tagged(
                random_job(&mut seed, 32, AllocatorKind::CasaBb),
                Some("plain-1"),
            )
            .expect("solve");
        assert_eq!(plain.cache, CacheOutcome::Miss);
        assert!(!dir.join("plain-1.explain.json").exists());
        let snap = obs.snapshot();
        assert_eq!(
            snap.get("server.captures_total"),
            Some(&casa_obs::MetricValue::Counter(2)),
            "one capture per miss, explain opt-in or not"
        );
        assert!(!snap.contains_key("server.capture_write_failures_total"));
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn untagged_capture_falls_back_to_the_exact_fingerprint() {
        let dir = std::env::temp_dir().join(format!(
            "casa-server-sessions-untagged-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = AllocService::start(
            &ServiceConfig {
                session_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
            &Obs::disabled(),
        );
        let mut seed = 11;
        let job = random_job(&mut seed, 32, AllocatorKind::CasaGreedy);
        svc.submit(job.clone()).expect("solve");
        let mut normalized = job;
        normalized.normalize(DEFAULT_MAX_NODES);
        let expect = dir.join(format!(
            "{:016x}.casa-session",
            fnv1a_64(&normalized.exact_key())
        ));
        let session = crate::session::Session::load(&expect).expect("fingerprint-named session");
        session.replay().expect("replays");
        // Greedy searches no tree: the capture is a session and its
        // report sibling, nothing more.
        let report =
            std::fs::read_to_string(expect.with_extension("report.json")).expect("report sibling");
        assert_eq!(report, session.report);
        assert!(!expect.with_extension("tree.json").exists());
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overloaded_shard_rejects_instead_of_queueing() {
        // One worker, queue depth one: with the worker pinned on a
        // deadline-budgeted solve and one job queued, further
        // concurrent submissions must bounce with Overloaded.
        let svc = Arc::new(AllocService::start(
            &ServiceConfig {
                workers: 1,
                queue_cap: 1,
                cache_cap: 0,
                max_nodes: u64::MAX,
                session_dir: None,
            },
            &Obs::disabled(),
        ));
        let clients = 6;
        let barrier = Arc::new(Barrier::new(clients));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let svc = Arc::clone(&svc);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    // Dense 26-object graph: the search cannot finish
                    // inside the deadline, so the worker stays busy.
                    let mut seed = 1000 + c as u64;
                    let n = 26;
                    let fetches: Vec<u64> = (0..n).map(|_| 100 + lcg(&mut seed) % 900).collect();
                    let sizes: Vec<u32> = vec![8; n];
                    let mut edges = HashMap::new();
                    for i in 0..n {
                        for j in 0..n {
                            if i != j {
                                edges.insert((i, j), 1 + lcg(&mut seed) % 100);
                            }
                        }
                    }
                    let job = SolveJob {
                        graph: ConflictGraph::from_parts(fetches, sizes, edges),
                        table: EnergyTable::build(1024, 16, 1, 64, None, &TechParams::default()),
                        capacity: 64,
                        allocator: AllocatorKind::CasaBb,
                        budget_nodes: None,
                        budget_ms: Some(300),
                        explain: false,
                    };
                    barrier.wait();
                    svc.submit(job)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let rejected = results
            .iter()
            .filter(|r| matches!(r, Err(SubmitError::Overloaded)))
            .count();
        let served = results.iter().filter(|r| r.is_ok()).count();
        assert!(rejected >= 1, "no request was rejected under overload");
        assert!(served >= 1, "at least the admitted request must be served");
        assert_eq!(rejected + served, clients);
    }

    #[test]
    fn responses_exclude_run_dependent_fields() {
        let svc = AllocService::start(&ServiceConfig::default(), &Obs::disabled());
        let mut seed = 21;
        let reply = svc
            .submit(random_job(&mut seed, 64, AllocatorKind::CasaBb))
            .expect("solve");
        let v = serde::json::parse(&reply.body).expect("valid JSON");
        let obj = v.as_object().expect("object");
        for banned in ["nodes", "solver_nodes", "elapsed_ms", "cache"] {
            assert!(!obj.contains_key(banned), "run-dependent field {banned:?}");
        }
        // And the keys are sorted (deterministic rendering).
        let keys: Vec<&String> = obj.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
