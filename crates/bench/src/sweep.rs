//! Deterministic parallel sweep engine.
//!
//! A [`SweepGrid`] enumerates experiment cells — each cell pairs a
//! workload (benchmark, trip scale, walk seed) with either a full
//! scratchpad [`FlowConfig`] or a loop-cache configuration — and
//! [`SweepGrid::run`] executes them on a fixed-size pool of `std`
//! scoped threads (no external runtime: the build environment cannot
//! reach a package registry, so rayon is deliberately not used).
//!
//! Determinism is the design constraint, not an accident:
//!
//! * workers pull *profile group* indices from an atomic counter, but
//!   every result lands in its cell's own slot and aggregation walks
//!   the slots in grid order, so the report is independent of which
//!   worker ran what;
//! * each group's computation depends only on its inputs (the conflict
//!   graph is CSR-backed, so even float reductions have a fixed
//!   order), which includes seeded [`ReplacementPolicy::Random`]
//!   caches — the RNG is owned per simulation, never shared;
//! * [`SweepReport::deterministic_json`] excludes wall-clock fields,
//!   so its bytes are identical for any worker count, including
//!   `CASA_SWEEP_THREADS=1`.
//!
//! Workload preparation (compile + profiling walk) is hoisted out of
//! the cells and memoized per distinct (benchmark, scale, seed), so a
//! grid sweeping 12 configurations of one benchmark walks it once.
//!
//! The execute phase's unit of work is a *profile group*: the cells
//! sharing (workload, cache line size, trace cap), in grid order —
//! everything trace formation reads. A scratchpad cell's trace cap is
//! its effective one; a loop-cache cell's is its capacity (at least one
//! line), which is what its flow forms traces with. A worker forms the
//! group's traces and compiles its line stream once
//! ([`form_and_compile`]), for the group's cache with the fewest sets,
//! which makes the stream serve every cache of the group; it profiles
//! each cache once ([`profile_on`]), under the registry of the first
//! scratchpad cell on it; and it runs each cell's [`allocate_spm`] or
//! [`loop_cache_on`] into that cell's own slot, then drops the group.
//! So the CASA, Steinke and loop-cache cells of one (program, size)
//! share one trace formation and one compiled stream across the
//! direct-mapped and set-associative caches of the grid, each cache
//! has one profiling simulation, and at most one group's traces,
//! stream and profile per worker are alive. Profiling stays out of the
//! prepare phase, whose wall time is [`SweepReport::prepare_secs`].
//!
//! The worker count comes from the `CASA_SWEEP_THREADS` environment
//! variable when set (minimum 1), else from
//! [`std::thread::available_parallelism`].
//!
//! [`ReplacementPolicy::Random`]: casa_mem::ReplacementPolicy::Random

use crate::experiments::{paper_sizes, LINE_SIZE, LOOP_CACHE_SLOTS};
use crate::runner::{prepared, PreparedWorkload};
use casa_core::engine::{AllocOutcome, Budget};
use casa_core::flow::{
    allocate_spm, form_and_compile, loop_cache_on, profile_on, AllocatorKind, FlowConfig, FlowCtx,
    LoopCacheConfig, SpmProfile,
};
use casa_core::{Capture, Captured, EnergyModel, SolveJob};
use casa_energy::TechParams;
use casa_mem::{CacheConfig, LineStream};
use casa_obs::{
    jnum, json_escape, merge_snapshot, snapshot_to_json, ArgValue, EventKind, MetricsSnapshot, Obs,
};
use casa_trace::TraceSet;
use casa_workloads::mediabench;
use casa_workloads::spec::BenchmarkSpec;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// The whole point of the pool is shipping these across threads; fail
// at compile time, not review time, if a field ever stops being Send.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<PreparedWorkload>();
    assert_send_sync::<SweepGrid>();
    assert_send_sync::<casa_core::flow::FlowReport>();
    assert_send_sync::<CellResult>();
    assert_send_sync::<Obs>();
};

/// One distinct workload: a benchmark walked once per (scale, seed).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadKey {
    /// Benchmark name (resolved via [`mediabench::all`]).
    pub benchmark: String,
    /// Loop trip-count scale factor.
    pub scale: u64,
    /// Walker seed.
    pub seed: u64,
}

/// What a cell executes against its workload.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// A scratchpad flow under this configuration: [`allocate_spm`]
    /// on its profile group's [`profile_on`] of its cache.
    Spm(FlowConfig),
    /// A loop-cache flow ([`loop_cache_on`] its profile group's traces
    /// and stream).
    LoopCache {
        /// L1 I-cache.
        cache: CacheConfig,
        /// Loop-cache capacity in bytes.
        capacity: u32,
    },
}

/// One grid cell: a workload index plus the flow to run on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Index into the grid's workload table.
    pub workload: usize,
    /// The flow configuration.
    pub kind: CellKind,
}

/// A sweep: distinct workloads plus the cells that reference them,
/// all solved under one per-cell [`Budget`] (unlimited by default).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepGrid {
    workloads: Vec<WorkloadKey>,
    cells: Vec<SweepCell>,
    budget: Budget,
    capture: bool,
}

/// Per-cell measurements. Wall-clock fields (`solver_secs`,
/// `cell_secs`) are reported by [`SweepReport::to_json`] but excluded
/// from [`SweepReport::deterministic_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Trip scale of the workload.
    pub scale: u64,
    /// Walker seed of the workload.
    pub seed: u64,
    /// `spm:<allocator>` or `loop-cache`.
    pub flavor: String,
    /// I-cache size in bytes.
    pub cache_size: u32,
    /// I-cache replacement policy (e.g. `Lru`, `Random(7)`).
    pub policy: String,
    /// SPM size or loop-cache capacity in bytes.
    pub local_size: u32,
    /// Total instruction-memory energy, µJ.
    pub energy_uj: f64,
    /// Scratchpad accesses in the final simulation.
    pub spm_accesses: u64,
    /// Loop-cache accesses in the final simulation.
    pub loop_cache_accesses: u64,
    /// I-cache accesses in the final simulation.
    pub cache_accesses: u64,
    /// I-cache misses in the final simulation.
    pub cache_misses: u64,
    /// Branch-and-bound nodes the allocator explored. `None` for
    /// flows without a tree search (Steinke's knapsack, the greedy
    /// heuristic, the cache-only baseline, and the loop cache) —
    /// previously these reported a misleading `0`.
    pub solver_nodes: Option<u64>,
    /// Allocation proof status (`"optimal"`, `"feasible"`,
    /// `"fallback"`); loop-cache cells report `"optimal"` in the
    /// completion sense of the preload heuristic.
    pub status: String,
    /// Proven absolute optimality gap in energy units: `Some(0.0)`
    /// for optimal cells, `Some(g)` for budget-truncated ones, `None`
    /// when a fallback allocator answered (no bound is claimed).
    pub gap: Option<f64>,
    /// Which budget dimension stopped the allocator (`"nodes"`,
    /// `"deadline"`, `"cancelled"`), if any.
    pub budget_kind: Option<String>,
    /// Whether the cell's budget had a wall-clock dimension (deadline
    /// or cancel token). When true, [`SweepReport::deterministic_json`]
    /// redacts `status`/`gap`/`budget_kind`/`solver_nodes` — where the
    /// clock stops the search is not reproducible byte-for-byte.
    pub wall_clock_budget: bool,
    /// Allocator wall time, seconds.
    pub solver_secs: f64,
    /// Whole-cell wall time (flow including simulation), seconds. A
    /// profile group's first scratchpad cell also carries the group's
    /// profiling (traces, profiling simulation, conflict graph).
    pub cell_secs: f64,
    /// Per-cell metric snapshot (counters/gauges/histograms from the
    /// instrumented flow). Empty when observability is off; reported
    /// by [`SweepReport::to_json`] only, never by
    /// [`SweepReport::deterministic_json`].
    pub metrics: MetricsSnapshot,
    /// The cell's captured solve — session, report, search tree (for
    /// tree-searching allocators) and explain document — when capture
    /// is on ([`SweepGrid::set_capture`]) and the cell is a scratchpad
    /// cell. Written by [`SweepReport::write_captures`]; never part of
    /// `CellResult::json` in either view.
    pub capture: Option<Captured>,
}

/// Aggregated wall time of one span name across the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseRollup {
    /// Span name (`trace`, `conflict`, `solve`, `simulate`, ...).
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: u64,
}

/// Preparation record for one distinct workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPrep {
    /// The workload.
    pub key: WorkloadKey,
    /// Compile + profiling-walk wall time, seconds.
    pub prepare_secs: f64,
}

/// Everything one sweep run produces, in grid order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Worker threads used.
    pub threads: usize,
    /// Wall time of the (parallel) preparation phase, seconds.
    pub prepare_secs: f64,
    /// Wall time of the (parallel) cell-execution phase, seconds.
    pub execute_secs: f64,
    /// Total sweep wall time, seconds.
    pub total_secs: f64,
    /// Distinct workloads prepared, in first-reference order.
    pub workloads: Vec<WorkloadPrep>,
    /// Cell results, in grid order regardless of execution order.
    pub cells: Vec<CellResult>,
    /// Merge of every cell's metric snapshot, in grid order (counters
    /// and histograms sum; gauges keep the last cell's value). Empty
    /// when observability is off.
    pub metrics: MetricsSnapshot,
    /// Per-phase span rollups across the whole sweep. Empty when
    /// observability is off.
    pub phases: Vec<PhaseRollup>,
}

/// Resolve the sweep worker count: `CASA_SWEEP_THREADS` when set and
/// parseable (clamped to ≥ 1), else the machine's available
/// parallelism.
pub fn sweep_threads() -> usize {
    std::env::var("CASA_SWEEP_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

fn spec_by_name(name: &str) -> BenchmarkSpec {
    mediabench::all()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

impl SweepGrid {
    /// An empty grid.
    pub fn new() -> Self {
        SweepGrid::default()
    }

    /// Intern a workload, returning its index; identical keys share
    /// one preparation.
    pub fn workload(&mut self, benchmark: &str, scale: u64, seed: u64) -> usize {
        let key = WorkloadKey {
            benchmark: benchmark.to_string(),
            scale,
            seed,
        };
        if let Some(i) = self.workloads.iter().position(|k| *k == key) {
            return i;
        }
        self.workloads.push(key);
        self.workloads.len() - 1
    }

    /// Add a scratchpad-flow cell.
    pub fn push_spm(&mut self, workload: usize, config: FlowConfig) {
        assert!(
            workload < self.workloads.len(),
            "workload index out of range"
        );
        self.cells.push(SweepCell {
            workload,
            kind: CellKind::Spm(config),
        });
    }

    /// Add a loop-cache-flow cell.
    pub fn push_loop_cache(&mut self, workload: usize, cache: CacheConfig, capacity: u32) {
        assert!(
            workload < self.workloads.len(),
            "workload index out of range"
        );
        self.cells.push(SweepCell {
            workload,
            kind: CellKind::LoopCache { cache, capacity },
        });
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of distinct workloads.
    pub fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    /// Set the per-cell solver budget (applied to every cell's
    /// allocator; unlimited by default).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The per-cell solver budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Capture every scratchpad cell's solve ([`CellResult::capture`]):
    /// its session, report, search tree and explain document, written
    /// by [`SweepReport::write_captures`]. Capture is an output channel,
    /// not a configuration of *what* is computed: it changes no
    /// allocation decision and does not enter [`Self::fingerprint`].
    pub fn set_capture(&mut self, on: bool) {
        self.capture = on;
    }

    /// A stable fingerprint of the grid's *configuration* — workloads,
    /// cells, budget — as a 16-hex-digit FNV-1a hash. Two runs compute
    /// the same energies and node counts exactly when their
    /// fingerprints match; perfbench pins its table1 grid to
    /// [`Self::table1_paper`] through it.
    pub fn fingerprint(&self) -> String {
        let mut canon = String::new();
        for w in &self.workloads {
            let _ = write!(canon, "w:{}:{}:{};", w.benchmark, w.scale, w.seed);
        }
        for c in &self.cells {
            match &c.kind {
                CellKind::Spm(cfg) => {
                    let _ = write!(
                        canon,
                        "spm:{}:{:?}:{:?}:{}:{:?}:{:?};",
                        c.workload, cfg.allocator, cfg.cache, cfg.spm_size, cfg.trace_cap, cfg.tech
                    );
                }
                CellKind::LoopCache { cache, capacity } => {
                    let _ = write!(canon, "lc:{}:{cache:?}:{capacity};", c.workload);
                }
            }
        }
        let _ = write!(canon, "budget:{:?}", self.budget);
        let mut h = casa_obs::Fnv1a::new();
        h.update(canon.as_bytes());
        h.hex()
    }

    /// The canonical Table-1 sweep: every paper benchmark × four
    /// local-memory sizes × {SP(CASA), SP(Steinke), LC(Ross)} at the
    /// paper's per-benchmark cache size (adpcm's paper row set is
    /// extended with a fourth size, 512 B, so every benchmark sweeps
    /// four sizes).
    pub fn table1_paper(scale: u64, seed: u64) -> SweepGrid {
        let mut g = SweepGrid::new();
        for benchmark in ["adpcm", "g721", "mpeg"] {
            let (cache_size, mut sizes) = paper_sizes(benchmark);
            if benchmark == "adpcm" {
                sizes.push(512);
            }
            let w = g.workload(benchmark, scale, seed);
            let cache = CacheConfig::direct_mapped(cache_size, LINE_SIZE);
            for &size in &sizes {
                for alloc in [AllocatorKind::CasaBb, AllocatorKind::Steinke] {
                    g.push_spm(
                        w,
                        FlowConfig {
                            cache,
                            spm_size: size,
                            allocator: alloc,
                            tech: TechParams::default(),
                            trace_cap: None,
                        },
                    );
                }
                g.push_loop_cache(w, cache, size);
            }
        }
        g
    }

    /// The smallest useful grid: adpcm at its paper cache size with
    /// one CASA cell, one Steinke cell and one loop-cache cell. Used
    /// by CI smoke runs (`sweep --smoke`).
    pub fn smoke(scale: u64, seed: u64) -> SweepGrid {
        let mut g = SweepGrid::new();
        let (cache_size, sizes) = paper_sizes("adpcm");
        let w = g.workload("adpcm", scale, seed);
        let cache = CacheConfig::direct_mapped(cache_size, LINE_SIZE);
        let size = sizes[0];
        for alloc in [AllocatorKind::CasaBb, AllocatorKind::Steinke] {
            g.push_spm(
                w,
                FlowConfig {
                    cache,
                    spm_size: size,
                    allocator: alloc,
                    tech: TechParams::default(),
                    trace_cap: None,
                },
            );
        }
        g.push_loop_cache(w, cache, size);
        g
    }

    /// Run the sweep with [`sweep_threads`] workers.
    pub fn run(&self) -> SweepReport {
        self.run_with_threads(sweep_threads())
    }

    /// Run the sweep with exactly `threads` workers (clamped to ≥ 1).
    ///
    /// The report's non-timing content is byte-identical for every
    /// `threads` value.
    ///
    /// # Panics
    ///
    /// Panics if any cell's flow fails — sweeps are experiment
    /// drivers and want loud failures, like [`prepared`].
    pub fn run_with_threads(&self, threads: usize) -> SweepReport {
        self.run_with_threads_obs(threads, &Obs::disabled())
    }

    /// [`Self::run_with_threads`] with observability. When `obs` is
    /// enabled, every cell runs with a **fresh registry sharing
    /// `obs`'s trace collector**: spans from all cells land in one
    /// timeline (grouped under per-cell `cell` spans) while each
    /// cell's counters stay isolated in its own [`CellResult::metrics`]
    /// snapshot, so the metric values are independent of which worker
    /// ran what. A profile group's profiling spans and counters land
    /// in its first scratchpad cell. [`SweepReport::deterministic_json`]
    /// is byte-identical with observability on or off, for any worker
    /// count.
    ///
    /// # Panics
    ///
    /// Same as [`Self::run_with_threads`].
    pub fn run_with_threads_obs(&self, threads: usize, obs: &Obs) -> SweepReport {
        let threads = threads.max(1);
        let t_total = Instant::now();

        // Phase 1: prepare each distinct workload once, in parallel.
        let t_prep = Instant::now();
        let prep_slots: Vec<Mutex<Option<(PreparedWorkload, f64)>>> =
            self.workloads.iter().map(|_| Mutex::new(None)).collect();
        {
            let next = AtomicUsize::new(0);
            let slots = &prep_slots;
            let workloads = &self.workloads;
            let next = &next;
            let worker = move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= workloads.len() {
                    break;
                }
                let k = &workloads[i];
                let t = Instant::now();
                let span = obs.span_with(
                    "prepare",
                    vec![("benchmark".into(), ArgValue::Str(k.benchmark.clone()))],
                );
                let w = prepared(spec_by_name(&k.benchmark), k.scale, k.seed);
                drop(span);
                *slots[i].lock().unwrap() = Some((w, t.elapsed().as_secs_f64()));
            };
            run_pool(threads.min(workloads.len()), worker);
        }
        let prepared_workloads: Vec<(PreparedWorkload, f64)> = prep_slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("workload prepared"))
            .collect();
        let prepare_secs = t_prep.elapsed().as_secs_f64();

        // Phase 2: execute profile groups on the pool; each cell's
        // result lands in its own slot so aggregation order is the
        // grid's, not the scheduler's.
        let t_exec = Instant::now();
        let cell_slots: Vec<Mutex<Option<CellResult>>> =
            self.cells.iter().map(|_| Mutex::new(None)).collect();
        let groups = self.profile_groups();
        {
            let next = AtomicUsize::new(0);
            let next = &next;
            let slots = &cell_slots;
            let prepared_workloads = &prepared_workloads;
            let groups = &groups;
            let worker = move || loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                if g >= groups.len() {
                    break;
                }
                // Filled by the group's first cell, read by the rest,
                // dropped with the group.
                let mut state = GroupState::new(self.group_target(&groups[g]));
                for &i in &groups[g] {
                    let cell = &self.cells[i];
                    let w = &prepared_workloads[cell.workload].0;
                    let key = &self.workloads[cell.workload];
                    // Fresh registry per cell, shared timeline:
                    // counters stay per-cell deterministic while spans
                    // interleave into one Chrome trace, which every
                    // flight dump of the run reads.
                    let cell_obs = obs.child();
                    let res = run_cell(
                        key,
                        w,
                        &cell.kind,
                        &mut state,
                        &self.budget,
                        self.capture,
                        &cell_obs,
                    );
                    *slots[i].lock().unwrap() = Some(res);
                }
            };
            run_pool(threads.min(groups.len()), worker);
        }
        let execute_secs = t_exec.elapsed().as_secs_f64();

        let cells: Vec<CellResult> = cell_slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("cell executed"))
            .collect();
        let workloads = self
            .workloads
            .iter()
            .zip(&prepared_workloads)
            .map(|(key, (_, secs))| WorkloadPrep {
                key: key.clone(),
                prepare_secs: *secs,
            })
            .collect();
        // Per-phase rollup and the merged metric view, both in
        // deterministic order (span names sorted; cells in grid
        // order).
        let mut metrics = MetricsSnapshot::new();
        for c in &cells {
            merge_snapshot(&mut metrics, &c.metrics);
        }
        let phases = if obs.is_enabled() {
            let mut agg: std::collections::BTreeMap<String, (u64, u64)> =
                std::collections::BTreeMap::new();
            for e in obs.events() {
                if e.kind == EventKind::Span {
                    let slot = agg.entry(e.name).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += e.dur_us.unwrap_or(0);
                }
            }
            agg.into_iter()
                .map(|(name, (count, total_us))| PhaseRollup {
                    name,
                    count,
                    total_us,
                })
                .collect()
        } else {
            Vec::new()
        };

        SweepReport {
            threads,
            prepare_secs,
            execute_secs,
            total_secs: t_total.elapsed().as_secs_f64(),
            workloads,
            cells,
            metrics,
            phases,
        }
    }

    /// The cell indices of each profile group, groups in order of
    /// their first cell and cells in grid order. Cells share a group
    /// when they agree on the workload and on what trace formation
    /// reads: the cache line size and the trace cap (a loop-cache
    /// cell's is its capacity, at least one line).
    fn profile_groups(&self) -> Vec<Vec<usize>> {
        let mut keys: Vec<(usize, u32, u32)> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let (cache, cap) = match &cell.kind {
                CellKind::Spm(c) => (c.cache, c.effective_trace_cap()),
                CellKind::LoopCache { cache, capacity } => {
                    (*cache, (*capacity).max(cache.line_size))
                }
            };
            let key = (cell.workload, cache.line_size, cap);
            match keys.iter().position(|k| *k == key) {
                Some(g) => groups[g].push(i),
                None => {
                    keys.push(key);
                    groups.push(vec![i]);
                }
            }
        }
        groups
    }

    /// The cache a group's stream is compiled for: among the group's
    /// caches, which share a line size, one with the fewest sets, so
    /// that the stream serves them all.
    fn group_target(&self, group: &[usize]) -> CacheConfig {
        group
            .iter()
            .map(|&i| match &self.cells[i].kind {
                CellKind::Spm(c) => c.cache,
                CellKind::LoopCache { cache, .. } => *cache,
            })
            .min_by_key(CacheConfig::num_sets)
            .expect("a group has a cell")
    }
}

/// What one profile group shares while its cells run: its traces and
/// compiled stream, formed by its first cell, which the profile of the
/// cache its latest scratchpad cell ran on takes over, so one copy of
/// each is alive.
struct GroupState {
    /// The cache the group's stream is compiled for.
    target: CacheConfig,
    shared: Shared,
}

/// Who holds a group's traces and stream.
enum Shared {
    /// Nothing formed yet.
    Empty,
    /// The group's traces and stream.
    Base(TraceSet, LineStream),
    /// The profile of this cache, holding the group's traces and
    /// stream.
    Profiled(CacheConfig, SpmProfile),
}

impl GroupState {
    fn new(target: CacheConfig) -> Self {
        GroupState {
            target,
            shared: Shared::Empty,
        }
    }

    /// Take the group's traces and stream, formed at trace cap `cap`
    /// if the group has none yet.
    fn take_base(&mut self, w: &PreparedWorkload, cap: u32, obs: &Obs) -> (TraceSet, LineStream) {
        match std::mem::replace(&mut self.shared, Shared::Empty) {
            Shared::Empty => {
                form_and_compile(&w.program, &w.profile, &w.exec, &self.target, cap, obs)
            }
            Shared::Base(traces, stream) => (traces, stream),
            Shared::Profiled(_, p) => (p.traces, p.stream),
        }
    }

    /// The group's traces and stream, formed at trace cap `cap` if the
    /// group has none yet.
    fn base(&mut self, w: &PreparedWorkload, cap: u32, obs: &Obs) -> (&TraceSet, &LineStream) {
        if matches!(self.shared, Shared::Empty) {
            let (traces, stream) = self.take_base(w, cap, obs);
            self.shared = Shared::Base(traces, stream);
        }
        match &self.shared {
            Shared::Base(traces, stream) => (traces, stream),
            Shared::Profiled(_, p) => (&p.traces, &p.stream),
            Shared::Empty => unreachable!("formed above"),
        }
    }

    /// The profile of `config`'s cache on the group's base, profiled
    /// unless the previous scratchpad cell ran on the same cache.
    fn profile(&mut self, w: &PreparedWorkload, config: &FlowConfig, obs: &Obs) -> &SpmProfile {
        if !matches!(&self.shared, Shared::Profiled(c, _) if *c == config.cache) {
            let (traces, stream) = self.take_base(w, config.effective_trace_cap(), obs);
            let prof = profile_on(&w.program, traces, stream, config, obs)
                .unwrap_or_else(|e| panic!("{} spm profile failed: {e}", w.name));
            self.shared = Shared::Profiled(config.cache, prof);
        }
        match &self.shared {
            Shared::Profiled(_, p) => p,
            _ => unreachable!("profiled above"),
        }
    }
}

/// Run `worker` on `workers` threads (at least one): the calling
/// thread is one of them, so a one-worker pool spawns no thread.
fn run_pool(workers: usize, worker: impl Fn() + Copy + Send) {
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(worker);
        }
        worker();
    });
}

/// Run one cell under `obs` on its group's `state`: a scratchpad cell
/// allocates on the profile of its cache, a loop-cache cell runs on
/// the group's traces and stream, each formed first if the group has
/// none yet.
fn run_cell(
    key: &WorkloadKey,
    w: &PreparedWorkload,
    kind: &CellKind,
    state: &mut GroupState,
    budget: &Budget,
    capture: bool,
    obs: &Obs,
) -> CellResult {
    let t = Instant::now();
    let (flavor, local_size) = match kind {
        CellKind::Spm(config) => (format!("spm:{:?}", config.allocator), config.spm_size),
        CellKind::LoopCache { capacity, .. } => ("loop-cache".to_string(), *capacity),
    };
    let span = obs.span_with(
        "cell",
        vec![
            ("benchmark".into(), ArgValue::Str(key.benchmark.clone())),
            ("flavor".into(), ArgValue::Str(flavor.clone())),
            ("local_size".into(), ArgValue::U64(u64::from(local_size))),
        ],
    );
    let mut ctx = FlowCtx::observed(obs).with_budget(budget.clone());
    let (report, cache, captured) = match kind {
        CellKind::Spm(config) => {
            // Only scratchpad cells capture: the loop-cache flow has no
            // allocation solve to record.
            if capture {
                ctx = ctx.with_capture(Capture::on());
            }
            let prof = state.profile(w, config, obs);
            let r = allocate_spm(&w.program, prof, config, &ctx)
                .unwrap_or_else(|e| panic!("{} spm cell failed: {e}", w.name));
            // Capture off builds no job: that would clone the graph.
            let captured = if capture {
                finish_cell(key, config, budget, &r, &ctx)
            } else {
                None
            };
            (r, config.cache, captured)
        }
        CellKind::LoopCache { cache, capacity } => {
            let lc = LoopCacheConfig::new(*cache, *capacity, LOOP_CACHE_SLOTS);
            let cap = (*capacity).max(cache.line_size);
            let (traces, stream) = state.base(w, cap, obs);
            let r = loop_cache_on(&w.program, &w.profile, traces, stream, &lc, &ctx)
                .unwrap_or_else(|e| panic!("{} loop-cache cell failed: {e}", w.name));
            (r, *cache, None)
        }
    };
    drop(span);
    // B&B/ILP flows have a real node count; knapsack, greedy, the
    // baseline and the loop cache have no tree search to report.
    let solver_nodes = match kind {
        CellKind::Spm(config) if config.allocator.searches_tree() => {
            Some(report.allocation.solver_nodes)
        }
        _ => None,
    };
    let stats = &report.final_sim.stats;
    CellResult {
        benchmark: key.benchmark.clone(),
        scale: key.scale,
        seed: key.seed,
        flavor,
        cache_size: cache.size,
        policy: format!("{:?}", cache.policy),
        local_size,
        energy_uj: report.energy_uj(),
        spm_accesses: stats.spm_accesses,
        loop_cache_accesses: stats.loop_cache_accesses,
        cache_accesses: stats.cache_accesses,
        cache_misses: stats.cache_misses,
        solver_nodes,
        status: report.alloc_status.as_str().to_string(),
        gap: report.alloc_status.gap(),
        budget_kind: report.stopped_by.map(|k| k.as_str().to_string()),
        wall_clock_budget: budget.has_wall_clock(),
        solver_secs: report.solver_time.as_secs_f64(),
        cell_secs: t.elapsed().as_secs_f64(),
        metrics: obs.snapshot(),
        capture: captured,
    }
}

/// Assemble one scratchpad cell's captured solve. The job is the
/// canonical request the session records, with explain on: every
/// scratchpad cell carries its decision provenance.
fn finish_cell(
    key: &WorkloadKey,
    config: &FlowConfig,
    budget: &Budget,
    report: &casa_core::flow::FlowReport,
    ctx: &FlowCtx,
) -> Option<Captured> {
    let job = SolveJob {
        graph: report.conflict_graph.clone(),
        table: report.energy_table,
        capacity: config.spm_size,
        allocator: config.allocator,
        budget_nodes: budget.max_nodes,
        budget_ms: budget.deadline.map(|d| d.as_millis() as u64),
        explain: true,
    };
    let out = AllocOutcome {
        allocation: report.allocation.clone(),
        status: report.alloc_status.clone(),
        stopped_by: report.stopped_by,
    };
    let model = EnergyModel::new(&job.graph, &job.table);
    let meta = vec![
        ("source".to_string(), "sweep".to_string()),
        ("benchmark".to_string(), key.benchmark.clone()),
        ("scale".to_string(), key.scale.to_string()),
        ("seed".to_string(), key.seed.to_string()),
    ];
    ctx.capture.finish(&job, &out, &model, meta, &ctx.obs)
}

// ---- JSON rendering -------------------------------------------------
//
// Hand-rolled: the vendored serde stand-in only provides the derive
// surface, not a serializer, and the determinism contract needs full
// control over field order anyway. `jnum` prints the shortest
// round-trip form, which is itself deterministic.

impl CellResult {
    fn json(&self, with_timings: bool) -> String {
        let mut s = format!(
            "{{\"benchmark\":\"{}\",\"scale\":{},\"seed\":{},\"flavor\":\"{}\",\
             \"cache_size\":{},\"policy\":\"{}\",\"local_size\":{},\
             \"energy_uj\":{},\"spm_accesses\":{},\"loop_cache_accesses\":{},\
             \"cache_accesses\":{},\"cache_misses\":{}",
            json_escape(&self.benchmark),
            self.scale,
            self.seed,
            json_escape(&self.flavor),
            self.cache_size,
            json_escape(&self.policy),
            self.local_size,
            jnum(self.energy_uj),
            self.spm_accesses,
            self.loop_cache_accesses,
            self.cache_accesses,
            self.cache_misses,
        );
        // Under a wall-clock budget, where the search stops (and thus
        // the node count, status and gap) depends on machine speed —
        // those fields are real results but not reproducible bytes, so
        // the deterministic view redacts them.
        if with_timings || !self.wall_clock_budget {
            let _ = write!(
                s,
                ",\"solver_nodes\":{},\"status\":\"{}\",\"gap\":{},\"budget_kind\":{}",
                self.solver_nodes
                    .map_or_else(|| "null".to_string(), |n| n.to_string()),
                json_escape(&self.status),
                self.gap.map_or_else(|| "null".to_string(), jnum),
                self.budget_kind
                    .as_ref()
                    .map_or_else(|| "null".to_string(), |k| format!("\"{}\"", json_escape(k))),
            );
        }
        if with_timings {
            let _ = write!(
                s,
                ",\"solver_secs\":{},\"cell_secs\":{}",
                jnum(self.solver_secs),
                jnum(self.cell_secs)
            );
            if !self.metrics.is_empty() {
                let _ = write!(s, ",\"metrics\":{}", snapshot_to_json(&self.metrics));
            }
        }
        s.push('}');
        s
    }
}

impl SweepReport {
    /// JSON of the sweep's *results only* — no thread count, no
    /// wall-clock — so any two runs of the same grid produce the same
    /// bytes regardless of worker count.
    pub fn deterministic_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(|c| c.json(false)).collect();
        format!("{{\"cells\":[{}]}}", cells.join(","))
    }

    /// Write every cell's capture under `dir` (created if missing) as
    /// `<benchmark>-<flavor>-<size>.*` siblings, in grid order (see
    /// [`Captured::write`] for the layout). Returns the number of cells
    /// written.
    ///
    /// # Errors
    ///
    /// The first filesystem error.
    pub fn write_captures(&self, dir: &Path) -> std::io::Result<usize> {
        let mut written = 0;
        for c in &self.cells {
            if let Some(capture) = &c.capture {
                let stem = format!("{}-{}-{}", c.benchmark, c.flavor, c.local_size);
                capture.write(dir, &stem)?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Full JSON including thread count and per-phase / per-cell wall
    /// clock (what `BENCH_sweep.json` stores).
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|p| {
                format!(
                    "{{\"benchmark\":\"{}\",\"scale\":{},\"seed\":{},\"prepare_secs\":{}}}",
                    json_escape(&p.key.benchmark),
                    p.key.scale,
                    p.key.seed,
                    jnum(p.prepare_secs)
                )
            })
            .collect();
        let cells: Vec<String> = self.cells.iter().map(|c| c.json(true)).collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"total_us\":{}}}",
                    json_escape(&p.name),
                    p.count,
                    p.total_us
                )
            })
            .collect();
        format!(
            "{{\"threads\":{},\"prepare_secs\":{},\"execute_secs\":{},\"total_secs\":{},\
             \"workloads\":[{}],\"cells\":[{}],\"metrics\":{},\"phases\":[{}]}}",
            self.threads,
            jnum(self.prepare_secs),
            jnum(self.execute_secs),
            jnum(self.total_secs),
            workloads.join(","),
            cells.join(","),
            snapshot_to_json(&self.metrics),
            phases.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_mem::ReplacementPolicy;

    fn small_grid() -> SweepGrid {
        // adpcm only (test speed), but exercising both flow kinds,
        // two allocators, and a seeded-Random replacement policy.
        let mut g = SweepGrid::new();
        let w = g.workload("adpcm", 1, 2004);
        let cache = CacheConfig::direct_mapped(128, LINE_SIZE);
        for &spm in &[64u32, 128] {
            for alloc in [AllocatorKind::CasaBb, AllocatorKind::Steinke] {
                g.push_spm(
                    w,
                    FlowConfig {
                        cache,
                        spm_size: spm,
                        allocator: alloc,
                        tech: TechParams::default(),
                        trace_cap: None,
                    },
                );
            }
        }
        g.push_loop_cache(w, cache, 128);
        // Random replacement with a pinned seed must stay bitwise
        // reproducible across worker counts.
        g.push_spm(
            w,
            FlowConfig {
                cache: CacheConfig {
                    size: 128,
                    line_size: LINE_SIZE,
                    associativity: 2,
                    policy: ReplacementPolicy::Random(7),
                },
                spm_size: 128,
                allocator: AllocatorKind::CasaBb,
                tech: TechParams::default(),
                trace_cap: None,
            },
        );
        g
    }

    /// Nine adpcm cells forming three profile groups: A = {0, 1, 2, 6,
    /// 7} at trace cap 128, B = {3, 4, 5} at trace cap 64 and D = {8}.
    /// Cell 4 differs from A only in its trace cap, so it shares B's
    /// profile despite its 128 B scratchpad, and cell 8 differs only in
    /// its walk seed, so it may not share; cell 2 is the loop-cache cell
    /// at 128 B, cell 6 differs only in `tech` and cell 7 only in
    /// spelling out its (effective) trace cap, so all three must share.
    fn grouping_grid() -> SweepGrid {
        let mut g = SweepGrid::new();
        let w = g.workload("adpcm", 1, 2004);
        let other_walk = g.workload("adpcm", 1, 7);
        let cache = CacheConfig::direct_mapped(128, LINE_SIZE);
        let spm = |spm_size, allocator| FlowConfig {
            cache,
            spm_size,
            allocator,
            tech: TechParams::default(),
            trace_cap: None,
        };
        let tech = TechParams {
            main_memory_word: 2.0 * TechParams::default().main_memory_word,
            ..TechParams::default()
        };
        g.push_spm(w, spm(128, AllocatorKind::CasaBb));
        g.push_spm(w, spm(128, AllocatorKind::Steinke));
        g.push_loop_cache(w, cache, 128);
        g.push_spm(w, spm(64, AllocatorKind::CasaBb));
        g.push_spm(
            w,
            FlowConfig {
                trace_cap: Some(64),
                ..spm(128, AllocatorKind::CasaBb)
            },
        );
        g.push_spm(w, spm(64, AllocatorKind::Steinke));
        g.push_spm(
            w,
            FlowConfig {
                tech,
                ..spm(128, AllocatorKind::Steinke)
            },
        );
        g.push_spm(
            w,
            FlowConfig {
                trace_cap: Some(128),
                ..spm(128, AllocatorKind::CasaBb)
            },
        );
        g.push_spm(other_walk, spm(128, AllocatorKind::CasaBb));
        g
    }

    #[test]
    fn shared_profiles_match_independent_flows() {
        let mut g = grouping_grid();
        g.set_capture(true);
        let prepared_workloads: Vec<PreparedWorkload> = g
            .workloads
            .iter()
            .map(|k| prepared(spec_by_name(&k.benchmark), k.scale, k.seed))
            .collect();
        let sim_counters = |m: &MetricsSnapshot| -> MetricsSnapshot {
            m.iter()
                .filter(|(k, _)| k.starts_with("sim."))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        for threads in [1usize, 2] {
            let obs = Obs::enabled();
            let r = g.run_with_threads_obs(threads, &obs);
            assert_eq!(r.cells.len(), 9);
            for (i, (c, cell)) in r.cells.iter().zip(&g.cells).enumerate() {
                let w = &prepared_workloads[cell.workload];
                let alone_obs = Obs::enabled();
                let ctx = FlowCtx::observed(&alone_obs);
                let alone = match &cell.kind {
                    CellKind::Spm(config) => {
                        casa_core::run_spm_flow(&w.program, &w.profile, &w.exec, config, &ctx)
                    }
                    CellKind::LoopCache { cache, capacity } => casa_core::run_loop_cache_flow(
                        &w.program,
                        &w.profile,
                        &w.exec,
                        &LoopCacheConfig::new(*cache, *capacity, LOOP_CACHE_SLOTS),
                        &ctx,
                    ),
                }
                .unwrap();
                let s = &alone.final_sim.stats;
                assert_eq!(
                    c.energy_uj.to_bits(),
                    alone.energy_uj().to_bits(),
                    "cell {i}"
                );
                assert_eq!(
                    (
                        c.cache_accesses,
                        c.cache_misses,
                        c.spm_accesses,
                        c.loop_cache_accesses
                    ),
                    (
                        s.cache_accesses,
                        s.cache_misses,
                        s.spm_accesses,
                        s.loop_cache_accesses
                    ),
                    "cell {i}"
                );
                // The final simulation's per-set tallies: hits,
                // evictions and fills too.
                assert_eq!(
                    sim_counters(&c.metrics),
                    sim_counters(&alone_obs.snapshot()),
                    "cell {i}"
                );
                assert_eq!(c.status, alone.alloc_status.as_str(), "cell {i}");
                assert_eq!(c.gap, alone.alloc_status.gap(), "cell {i}");
                match (&cell.kind, &c.capture) {
                    (CellKind::Spm(config), Some(cap)) => {
                        assert_eq!(cap.session.layout, alone.allocation.on_spm, "cell {i}");
                        if config.allocator.searches_tree() {
                            assert_eq!(c.solver_nodes, Some(alone.allocation.solver_nodes));
                        }
                    }
                    (CellKind::LoopCache { .. }, None) => {}
                    (_, cap) => panic!("cell {i}: unexpected capture {cap:?}"),
                }
            }
            // One trace formation, profiling simulation and conflict
            // graph per group (the loop-cache cell attributes no
            // conflicts), and every cell still solves and simulates.
            let count = |name: &str| {
                r.phases
                    .iter()
                    .find(|p| p.name == name)
                    .map_or(0, |p| p.count)
            };
            assert_eq!(count("profile_sim"), 3, "{threads} workers");
            assert_eq!(count("trace"), 3, "{threads} workers");
            assert_eq!(count("conflict"), 3, "{threads} workers");
            for name in ["cell", "solve", "simulate"] {
                assert_eq!(count(name), 9, "{name}, {threads} workers");
            }
        }
    }

    #[test]
    fn workloads_are_interned() {
        let mut g = SweepGrid::new();
        let a = g.workload("adpcm", 1, 2004);
        let b = g.workload("adpcm", 1, 2004);
        let c = g.workload("adpcm", 2, 2004);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(g.workload_count(), 2);
    }

    #[test]
    fn table1_grid_shape() {
        let g = SweepGrid::table1_paper(1, 2004);
        assert_eq!(g.workload_count(), 3);
        // 3 benchmarks × 4 sizes × (2 SPM allocators + 1 loop cache).
        assert_eq!(g.cell_count(), 3 * 4 * 3);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let g = small_grid();
        let r1 = g.run_with_threads(1);
        let r2 = g.run_with_threads(2);
        let r4 = g.run_with_threads(4);
        assert_eq!(r1.cells.len(), g.cell_count());
        // Bytes, not approximations: grid-order aggregation plus
        // per-cell isolation make the reports identical.
        assert_eq!(r1.deterministic_json(), r2.deterministic_json());
        assert_eq!(r1.deterministic_json(), r4.deterministic_json());
        assert_eq!(r2.threads, 2);
        // Sanity on content: every cell produced a live simulation.
        for c in &r1.cells {
            assert!(c.energy_uj > 0.0, "cell {c:?}");
            assert!(c.cache_accesses + c.spm_accesses + c.loop_cache_accesses > 0);
        }
        // The seeded-Random cell really ran with its policy.
        assert!(r1.cells.iter().any(|c| c.policy == "Random(7)"));
        // B&B cells record solver activity; Steinke's knapsack and
        // the loop-cache flow have no tree search to report.
        assert!(r1
            .cells
            .iter()
            .any(|c| c.flavor == "spm:CasaBb" && c.solver_nodes.is_some_and(|n| n > 0)));
        for c in &r1.cells {
            if c.flavor == "spm:Steinke" || c.flavor == "loop-cache" {
                assert_eq!(c.solver_nodes, None, "no search in {c:?}");
            }
        }
    }

    #[test]
    fn observed_sweep_is_deterministic_and_matches_uninstrumented() {
        let g = small_grid();
        let plain = g.run_with_threads(2);
        let reports: Vec<SweepReport> = [1usize, 2, 4]
            .iter()
            .map(|&t| g.run_with_threads_obs(t, &Obs::enabled()))
            .collect();
        // Byte-identical across worker counts AND against the
        // uninstrumented run: metrics and spans are quarantined away
        // from deterministic_json.
        for r in &reports {
            assert_eq!(plain.deterministic_json(), r.deterministic_json());
        }
        // The metric values themselves are also worker-count
        // independent (per-cell registries, grid-order merge).
        for r in &reports[1..] {
            assert_eq!(reports[0].metrics, r.metrics);
            for (a, b) in reports[0].cells.iter().zip(&r.cells) {
                assert_eq!(a.metrics, b.metrics);
            }
        }
        // Rollups cover the whole fig. 3 pipeline: every cell solves
        // and simulates, while small_grid's six cells form two profile
        // groups (trace caps 64 B and 128 B; the loop-cache cell and the
        // Random(7) cache join the second), each forming its traces
        // once, with three caches profiled once each (the direct-mapped
        // one in both groups, the Random(7) one in the second); only
        // profiles build conflict graphs.
        let r = &reports[0];
        assert!(!r.metrics.is_empty());
        let phase = |name: &str| r.phases.iter().find(|p| p.name == name);
        let count = |name: &str| {
            phase(name)
                .unwrap_or_else(|| panic!("missing phase {name}"))
                .count
        };
        let (groups, profiles) = (2, 3);
        for name in ["cell", "solve", "simulate"] {
            assert_eq!(count(name), g.cell_count() as u64, "phase {name}");
        }
        assert_eq!(count("trace"), groups);
        assert_eq!(count("conflict"), profiles);
        assert_eq!(count("profile_sim"), profiles);
        assert_eq!(count("prepare"), 1);
        // The full JSON carries the metrics section; histogram keys in
        // it are sorted (BTreeMap order).
        let full = r.to_json();
        assert!(full.contains("\"metrics\":{\""));
        assert!(full.contains("\"phases\":[{\"name\":\"cell\""));
        let plain_full = plain.to_json();
        assert!(plain_full.contains("\"metrics\":{}"));
        assert!(plain_full.contains("\"phases\":[]"));
    }

    #[test]
    fn flight_recorder_does_not_leak_into_deterministic_json() {
        // CellResult's wall-clock fields and the trace collector that
        // flight dumps read are both quarantined away from
        // deterministic_json, so turning instrumentation on (via an
        // enabled Obs) must not change a single byte, for any worker
        // count.
        let g = small_grid();
        let plain = g.run_with_threads(2).deterministic_json();
        for threads in [1usize, 2, 4] {
            let obs = Obs::enabled();
            let r = g.run_with_threads_obs(threads, &obs);
            assert_eq!(
                plain,
                r.deterministic_json(),
                "flight-enabled sweep must be byte-identical ({threads} workers)"
            );
            // Instrumentation really was live: the cells' spans reached
            // the shared collector, and so the parent's flight dump.
            assert!(
                obs.dump_flight()
                    .contains("\"kind\":\"span\",\"name\":\"cell\""),
                "no cell span in the flight dump with {threads} workers"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_grid_configuration() {
        let a = small_grid();
        let b = small_grid();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same grid, same hash");
        assert_eq!(a.fingerprint().len(), 16);
        let mut c = small_grid();
        c.push_loop_cache(0, CacheConfig::direct_mapped(128, LINE_SIZE), 64);
        assert_ne!(a.fingerprint(), c.fingerprint(), "extra cell changes hash");
        let mut d = small_grid();
        d.set_budget(Budget::nodes(1));
        assert_ne!(a.fingerprint(), d.fingerprint(), "budget changes hash");
        let mut e = small_grid();
        e.set_capture(true);
        assert_eq!(
            a.fingerprint(),
            e.fingerprint(),
            "capture is an output channel, not configuration"
        );
        // Fingerprints only reflect configuration, not execution.
        let _ = a.run_with_threads(1);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn deterministic_json_excludes_timing_full_json_includes_it() {
        let g = small_grid();
        let r = g.run_with_threads(1);
        let det = r.deterministic_json();
        assert!(!det.contains("secs"));
        assert!(!det.contains("threads"));
        let full = r.to_json();
        assert!(full.contains("\"threads\":1"));
        assert!(full.contains("\"solver_secs\""));
        assert!(full.contains("\"prepare_secs\""));
        // Shared preparation: one workload, many cells.
        assert_eq!(r.workloads.len(), 1);
        assert_eq!(r.cells.len(), 6);
    }

    #[test]
    fn session_capture_writes_replayable_files_for_spm_cells() {
        let dir = std::env::temp_dir().join(format!("casa-sweep-sessions-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = SweepGrid::new();
        let w = g.workload("adpcm", 1, 2004);
        let cache = CacheConfig::direct_mapped(128, LINE_SIZE);
        for alloc in [AllocatorKind::CasaBb, AllocatorKind::Steinke] {
            g.push_spm(
                w,
                FlowConfig {
                    cache,
                    spm_size: 128,
                    allocator: alloc,
                    tech: TechParams::default(),
                    trace_cap: None,
                },
            );
        }
        g.push_loop_cache(w, cache, 128);
        g.set_capture(true);
        let report = g.run_with_threads(1);
        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.write_captures(&dir).expect("captures written"), 2);

        let mut sessions: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .expect("capture dir exists")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "casa-session"))
            .collect();
        sessions.sort();
        assert_eq!(
            sessions.len(),
            2,
            "one session per SPM cell, none for loop-cache"
        );
        for path in &sessions {
            let s = casa_core::Session::load(path).expect("session loads");
            let summary = s
                .replay()
                .unwrap_or_else(|e| panic!("{} replay: {e}", path.display()));
            let cell = report
                .cells
                .iter()
                .find(|c| {
                    let stem = format!("{}-{}-{}", c.benchmark, c.flavor.replace(':', "_"), 128);
                    path.file_name().is_some_and(|f| {
                        f.to_string_lossy().as_ref() == format!("{stem}.casa-session")
                    })
                })
                .expect("session maps back to a cell");
            assert_eq!(summary.status, cell.status);
            // Every sibling holds exactly the bytes the cell captured,
            // and only the CasaBb cell searched a tree.
            let cap = cell.capture.as_ref().expect("spm cell captured");
            assert_eq!(s, cap.session);
            assert_eq!(cap.tree.is_some(), cell.flavor == "spm:CasaBb");
            for (ext, want) in [
                ("casa-session", Some(cap.session.to_binary())),
                ("report.json", Some(cap.session.report.clone().into_bytes())),
                ("tree.json", cap.tree.clone().map(String::into_bytes)),
                ("explain.json", cap.explain.clone().map(String::into_bytes)),
            ] {
                assert_eq!(std::fs::read(path.with_extension(ext)).ok(), want, "{ext}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn env_override_controls_thread_count() {
        // Serialized with other env readers by being the only test
        // that touches CASA_SWEEP_THREADS.
        std::env::set_var("CASA_SWEEP_THREADS", "3");
        assert_eq!(sweep_threads(), 3);
        std::env::set_var("CASA_SWEEP_THREADS", "0");
        assert_eq!(sweep_threads(), 1, "clamped to at least one worker");
        std::env::set_var("CASA_SWEEP_THREADS", "not-a-number");
        let fallback = sweep_threads();
        assert!(fallback >= 1);
        std::env::remove_var("CASA_SWEEP_THREADS");
    }

    #[test]
    fn node_budget_sweep_reports_status_and_stays_deterministic() {
        let mut g = small_grid();
        g.set_budget(Budget::nodes(1));
        let r1 = g.run_with_threads(1);
        let r2 = g.run_with_threads(2);
        let r4 = g.run_with_threads(4);
        // Node budgets are machine-independent: byte-identical across
        // worker counts, status columns included.
        assert_eq!(r1.deterministic_json(), r2.deterministic_json());
        assert_eq!(r1.deterministic_json(), r4.deterministic_json());
        assert!(r1.deterministic_json().contains("\"status\""));
        for c in &r1.cells {
            assert!(!c.status.is_empty(), "{c:?}");
            assert!(!c.wall_clock_budget);
            if c.status != "fallback" {
                let gap = c.gap.expect("non-fallback cells report a gap");
                assert!(gap.is_finite() && gap >= 0.0, "{c:?}");
            }
        }
        // The truncated B&B cells surface which budget dimension
        // stopped them; completion-sense cells (Steinke, loop cache)
        // stay optimal with no stop.
        assert!(r1
            .cells
            .iter()
            .any(|c| c.flavor == "spm:CasaBb" && c.budget_kind.as_deref() == Some("nodes")));
        for c in &r1.cells {
            if c.flavor == "spm:Steinke" || c.flavor == "loop-cache" {
                assert_eq!(c.status, "optimal", "{c:?}");
                assert_eq!(c.budget_kind, None);
            }
        }
    }

    #[test]
    fn wall_clock_budget_redacts_nondeterministic_columns() {
        let mut g = small_grid();
        // A generous deadline never fires, but its mere presence makes
        // node counts machine-dependent in principle — the
        // deterministic view must not carry them.
        g.set_budget(Budget::unlimited().with_deadline(std::time::Duration::from_secs(3600)));
        let r = g.run_with_threads(1);
        let det = r.deterministic_json();
        assert!(!det.contains("\"status\""));
        assert!(!det.contains("\"gap\""));
        assert!(!det.contains("\"solver_nodes\""));
        assert!(!det.contains("\"budget_kind\""));
        let full = r.to_json();
        assert!(full.contains("\"status\""));
        assert!(full.contains("\"gap\""));
        for c in &r.cells {
            assert!(c.wall_clock_budget);
            assert_eq!(c.status, "optimal", "deadline never fires: {c:?}");
        }
    }

    #[test]
    fn capture_stays_deterministic_and_quarantined() {
        let mut g = small_grid();
        g.set_capture(true);
        let plain = small_grid().run_with_threads(2).deterministic_json();
        let reports: Vec<SweepReport> = [1usize, 2, 4]
            .iter()
            .map(|&t| g.run_with_threads_obs(t, &Obs::enabled()))
            .collect();
        let captures = |r: &SweepReport| -> Vec<Option<Captured>> {
            r.cells.iter().map(|c| c.capture.clone()).collect()
        };
        // Capture must not move a byte of the deterministic report...
        for r in &reports {
            assert_eq!(plain, r.deterministic_json());
        }
        // ...and the captures are themselves byte-identical across
        // worker counts.
        for r in &reports[1..] {
            assert_eq!(captures(&reports[0]), captures(r));
        }
        let r = &reports[0];
        for (c, cell) in r.cells.iter().zip(&g.cells) {
            let CellKind::Spm(config) = &cell.kind else {
                // The loop-cache cell has no allocation solve to capture.
                assert_eq!(c.capture, None, "no capture for {}", c.flavor);
                continue;
            };
            let cap = c.capture.as_ref().expect("spm cell captured");
            // Exactly the tree-searching cells captured a tree, and each
            // log agrees with the cell's reported node count.
            if config.allocator.searches_tree() {
                let tree = cap.tree.as_ref().expect("CasaBb cell captured a tree");
                let log = casa_ilp::tree::parse_tree_log(tree).expect("valid casa_tree doc");
                assert_eq!(Some(log.nodes), c.solver_nodes);
                assert!(!log.events.is_empty());
            } else {
                assert_eq!(cap.tree, None, "no tree for {}", c.flavor);
            }
            // Every scratchpad cell carries a provenance document for
            // exactly the placement its session recorded.
            let text = cap.explain.as_ref().expect("spm cell captured explain");
            let doc = casa_core::parse_explain(text).expect("valid casa_explain doc");
            let layout = &cap.session.layout;
            assert_eq!(doc.objects.len(), layout.len(), "{}", c.flavor);
            for o in &doc.objects {
                assert_eq!(o.on_spm, layout[o.index], "{} obj {}", c.flavor, o.index);
                assert!(o.regret.is_finite());
            }
            assert_eq!(doc.allocator, casa_core::allocator_tag(config.allocator));
            assert_eq!(doc.capacity, config.spm_size);
            if config.allocator.searches_tree() {
                assert!(
                    doc.shadow_price.is_some(),
                    "exact cells report a shadow price: {}",
                    c.flavor
                );
                assert!(doc
                    .objects
                    .iter()
                    .all(|o| o.fixed_by != casa_core::FixedBy::Heuristic));
            }
        }
        // Capture rides the flow, not the Obs: an uninstrumented run
        // captures identical artifacts.
        let off = g.run_with_threads(2);
        assert_eq!(plain, off.deterministic_json());
        assert_eq!(captures(&off), captures(r));
        // Without opting in, no cell pays for capture.
        assert!(small_grid()
            .run_with_threads(1)
            .cells
            .iter()
            .all(|c| c.capture.is_none()));
    }
}
