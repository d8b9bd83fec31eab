//! The paper's fig. 3 experimental workflow, end to end.
//!
//! ```text
//! benchmark ──► trace generation ──► profiling simulation
//!        ──► conflict graph ──► allocator (CASA / Steinke / Ross)
//!        ──► re-layout (copy / move / preload) ──► final simulation
//!        ──► energy report
//! ```
//!
//! Both the profiling and the final run replay the *same* dynamic
//! block sequence, so allocators are compared on identical executions.
//!
//! The scratchpad flow is two steps, and [`run_spm_flow`] is their
//! composition:
//!
//! 1. [`profile_spm`] forms the traces, compiles the execution against
//!    them into a [`LineStream`], runs the profiling simulation from it
//!    on the initial layout (everything in main memory) and builds the
//!    conflict graph. It reads the workload (program, block profile,
//!    execution) and, of the [`FlowConfig`], only the cache and the
//!    effective trace cap.
//! 2. [`allocate_spm`] prices the graph, solves, re-lays the code out
//!    and runs the final simulation from the profile's stream. It reads
//!    the [`SpmProfile`] plus the allocator, scratchpad size, `tech` and
//!    everything in the [`FlowCtx`].
//!
//! So configurations that differ only in the allocator, scratchpad
//! size or `tech` can share one profile, as the paper's fig. 3 profiles
//! once and then allocates; the sweep runs the CASA and Steinke cells
//! of one (program, cache, size) that way. Caches that differ only in
//! size, ways or policy form the same traces, and one compiled stream
//! serves them all ([`profile_on`]); the loop-cache flow forms the same
//! traces when its capacity equals the effective trace cap, so
//! [`loop_cache_on`] runs its preload and final simulation on them.
//!
//! The canonical entry points take a [`FlowCtx`] bundling everything
//! ambient to a run — observability sink, solver [`Budget`], and the
//! [`Capture`] the solve records into — so one signature serves the
//! silent, the instrumented, the budgeted, and the recorded cases.

use crate::allocation::Allocation;
use crate::capture::Capture;
use crate::conflict::ConflictGraph;
use crate::energy_model::EnergyModel;
use crate::engine::{allocate_traced, AllocStatus, Budget, BudgetKind};
use crate::report::EnergyBreakdown;
use crate::ross::{allocate_loop_cache, LoopCacheAssignment};
use casa_energy::{EnergyTable, TechParams};
use casa_ir::{Profile, Program};
use casa_mem::cache::CacheConfig;
use casa_mem::loop_cache::PreloadError;
use casa_mem::{
    simulate_stream, simulate_stream_observed, ExecutionTrace, HierarchyConfig, LineStream,
    NullRecorder, SetStatsRecorder, SimError, SimOutcome, StreamError,
};
use casa_obs::Obs;
use casa_trace::layout::PlacementSemantics;
use casa_trace::trace::{form_traces, TraceConfig};
use casa_trace::{Layout, TraceSet};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Which allocator drives the scratchpad placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// CASA via the generic ILP, paper linearization (13)–(15).
    CasaIlpPaper,
    /// CASA via the generic ILP, tight AND-linearization.
    CasaIlpTight,
    /// CASA via the specialized exact branch & bound (default).
    CasaBb,
    /// CASA greedy heuristic (ablation).
    CasaGreedy,
    /// Steinke DATE'02 fetch-count knapsack, move semantics.
    Steinke,
    /// No allocation: cache-only baseline.
    None,
}

impl AllocatorKind {
    /// Whether this allocator realizes its placement by moving objects
    /// (Steinke) rather than copying them (CASA family).
    pub fn semantics(self) -> PlacementSemantics {
        match self {
            AllocatorKind::Steinke => PlacementSemantics::Move,
            _ => PlacementSemantics::Copy,
        }
    }

    /// Whether this allocator explores a branch-and-bound tree, and so
    /// has a search tree worth capturing and a node count worth
    /// reporting (the exact B&B and the two ILP linearizations).
    pub fn searches_tree(self) -> bool {
        matches!(
            self,
            AllocatorKind::CasaBb | AllocatorKind::CasaIlpPaper | AllocatorKind::CasaIlpTight
        )
    }
}

/// An invalid [`FlowConfig`], caught at construction time by
/// [`FlowConfigBuilder::build`] rather than deep inside the flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `spm_size == 0`: the scratchpad flow needs at least one byte of
    /// scratchpad (use [`AllocatorKind::None`] with a nonzero size to
    /// model the cache-only baseline).
    ZeroSpmSize,
    /// The requested trace cap is smaller than one cache line, so no
    /// trace could hold even a single line.
    TraceCapBelowLine {
        /// The rejected cap in bytes.
        trace_cap: u32,
        /// The cache line size in bytes.
        line_size: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroSpmSize => write!(f, "spm_size must be nonzero"),
            ConfigError::TraceCapBelowLine {
                trace_cap,
                line_size,
            } => write!(
                f,
                "trace cap {trace_cap} is below the cache line size {line_size}"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Configuration of one scratchpad-system experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// L1 I-cache.
    pub cache: CacheConfig,
    /// Scratchpad size in bytes.
    pub spm_size: u32,
    /// The allocator under test.
    pub allocator: AllocatorKind,
    /// Energy-model technology coefficients.
    pub tech: TechParams,
    /// Maximum trace size in bytes; `None` caps traces at `spm_size`
    /// (the paper's choice — every trace must fit the scratchpad).
    pub trace_cap: Option<u32>,
}

impl FlowConfig {
    /// A config with the paper's defaults for the derived knobs
    /// (`trace_cap = None`). Not validated; use [`FlowConfig::builder`]
    /// to reject degenerate setups early.
    pub fn new(cache: CacheConfig, spm_size: u32, allocator: AllocatorKind) -> Self {
        FlowConfig {
            cache,
            spm_size,
            allocator,
            tech: TechParams::default(),
            trace_cap: None,
        }
    }

    /// Start a validating builder.
    pub fn builder(
        cache: CacheConfig,
        spm_size: u32,
        allocator: AllocatorKind,
    ) -> FlowConfigBuilder {
        FlowConfigBuilder {
            config: FlowConfig::new(cache, spm_size, allocator),
        }
    }

    /// The effective trace cap: `trace_cap` if set, else `spm_size`,
    /// never below one cache line.
    pub fn effective_trace_cap(&self) -> u32 {
        self.trace_cap
            .unwrap_or(self.spm_size)
            .max(self.cache.line_size)
    }
}

/// Validating builder for [`FlowConfig`] — see [`FlowConfig::builder`].
#[derive(Debug, Clone)]
pub struct FlowConfigBuilder {
    config: FlowConfig,
}

impl FlowConfigBuilder {
    /// Override the technology coefficients.
    #[must_use]
    pub fn tech(mut self, tech: TechParams) -> Self {
        self.config.tech = tech;
        self
    }

    /// Cap traces at `bytes` instead of the scratchpad size.
    #[must_use]
    pub fn trace_cap(mut self, bytes: u32) -> Self {
        self.config.trace_cap = Some(bytes);
        self
    }

    /// Validate and produce the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroSpmSize`] if `spm_size == 0`;
    /// [`ConfigError::TraceCapBelowLine`] if an explicit trace cap is
    /// smaller than the cache line size.
    pub fn build(self) -> Result<FlowConfig, ConfigError> {
        if self.config.spm_size == 0 {
            return Err(ConfigError::ZeroSpmSize);
        }
        if let Some(cap) = self.config.trace_cap {
            if cap < self.config.cache.line_size {
                return Err(ConfigError::TraceCapBelowLine {
                    trace_cap: cap,
                    line_size: self.config.cache.line_size,
                });
            }
        }
        Ok(self.config)
    }
}

/// Configuration of the preloaded-loop-cache baseline flow
/// (fig. 1(b)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoopCacheConfig {
    /// L1 I-cache.
    pub cache: CacheConfig,
    /// Loop-cache capacity in bytes.
    pub capacity: u32,
    /// Controller limit on preloadable ranges.
    pub max_objects: usize,
    /// Energy-model technology coefficients.
    pub tech: TechParams,
}

impl LoopCacheConfig {
    /// A loop-cache config with default technology coefficients.
    pub fn new(cache: CacheConfig, capacity: u32, max_objects: usize) -> Self {
        LoopCacheConfig {
            cache,
            capacity,
            max_objects,
            tech: TechParams::default(),
        }
    }
}

/// Everything ambient to one flow run: where telemetry goes, how much
/// solver effort is allowed, and what the solve records for capture.
///
/// `FlowCtx::default()` reproduces the historical silent behaviour:
/// disabled observability, unlimited budget, nothing captured. The
/// final simulation records per-set statistics exactly when `obs` is
/// enabled.
#[derive(Debug, Clone, Default)]
pub struct FlowCtx {
    /// Observability sink (cheap to clone; disabled handles are
    /// no-ops).
    pub obs: Obs,
    /// Solver budget; [`Budget::unlimited`] runs to optimality.
    pub budget: Budget,
    /// The recorders the allocator writes into; the default records
    /// nothing. The caller turns them into artifacts afterwards with
    /// [`Capture::finish`].
    pub capture: Capture,
}

impl FlowCtx {
    /// Instrumented context: `obs`, unlimited budget, no capture.
    pub fn observed(obs: &Obs) -> Self {
        FlowCtx {
            obs: obs.clone(),
            ..FlowCtx::default()
        }
    }

    /// Budgeted context: disabled observability, `budget`, no capture.
    pub fn budgeted(budget: Budget) -> Self {
        FlowCtx {
            budget,
            ..FlowCtx::default()
        }
    }

    /// Replace the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Record the solve into `capture`.
    #[must_use]
    pub fn with_capture(mut self, capture: Capture) -> Self {
        self.capture = capture;
        self
    }
}

/// Everything one workflow run produces.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The trace partition used as memory objects.
    pub traces: TraceSet,
    /// The final code layout.
    pub layout: Layout,
    /// The conflict graph from the profiling run. The loop-cache flow
    /// profiles nothing (Ross's preload reads no conflict graph): its
    /// graph carries the final run's fetch counts and no edges.
    pub conflict_graph: ConflictGraph,
    /// The chosen allocation (empty for the loop-cache flow).
    pub allocation: Allocation,
    /// Proof status of the allocation under the run's budget.
    pub alloc_status: AllocStatus,
    /// Which budget dimension stopped the allocator, if any.
    pub stopped_by: Option<BudgetKind>,
    /// Loop-cache assignment (loop-cache flow only).
    pub loop_cache: Option<LoopCacheAssignment>,
    /// Simulation of the final configuration. It only counts: its
    /// `conflicts` are empty.
    pub final_sim: SimOutcome,
    /// Per-event energies used.
    pub energy_table: EnergyTable,
    /// Component energy breakdown of the final run.
    pub breakdown: EnergyBreakdown,
    /// Wall-clock time spent in the allocator.
    pub solver_time: Duration,
}

impl FlowReport {
    /// Total instruction-memory energy in µJ (Table 1's unit).
    pub fn energy_uj(&self) -> f64 {
        self.breakdown.total_uj()
    }
}

/// A workflow failure.
#[derive(Debug)]
pub enum FlowError {
    /// Loop-cache preloading failed (allocator produced ranges the
    /// controller rejects — a bug, surfaced rather than panicking).
    Preload(PreloadError),
    /// A profile's line stream cannot replay the final layout (a
    /// profile used with another trace set, or preload bounds finer
    /// than its units — a bug, surfaced rather than panicking).
    Stream(StreamError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Preload(e) => write!(f, "loop-cache preload failed: {e}"),
            FlowError::Stream(e) => write!(f, "final simulation failed: {e}"),
        }
    }
}

impl Error for FlowError {}

impl From<PreloadError> for FlowError {
    fn from(e: PreloadError) -> Self {
        FlowError::Preload(e)
    }
}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Preload(e) => FlowError::Preload(e),
            SimError::Stream(e) => FlowError::Stream(e),
        }
    }
}

/// What profiling one scratchpad configuration yields (the first step
/// of the flow, [`profile_spm`] or [`profile_on`]); [`allocate_spm`]
/// reads it.
#[derive(Debug, Clone)]
pub struct SpmProfile {
    /// The trace partition used as memory objects.
    pub traces: TraceSet,
    /// The conflict graph of the profiling simulation (initial
    /// layout, nothing on the scratchpad).
    pub graph: ConflictGraph,
    /// The execution compiled against `traces`: the profiling and every
    /// final simulation on this profile replay it. It serves every
    /// cache with its line size and at least the set count it was
    /// compiled for.
    pub stream: LineStream,
}

/// Profile `config` on one workload: form the traces and compile the
/// execution against them (`trace`), run the profiling simulation on
/// the initial layout (`profile_sim`) and build the conflict graph
/// (`conflict`), each under its own span when `obs` is enabled.
///
/// Of `config` this reads only `cache` and
/// [`FlowConfig::effective_trace_cap`]: configurations that agree on
/// those two share one profile, whatever their allocator, scratchpad
/// size or `tech`.
///
/// # Errors
///
/// Returns [`FlowError::Preload`] if hierarchy construction fails
/// (does not occur for scratchpad systems in practice).
///
/// # Panics
///
/// Panics if `exec` is inconsistent with `program`.
pub fn profile_spm(
    program: &Program,
    profile: &Profile,
    exec: &ExecutionTrace,
    config: &FlowConfig,
    obs: &Obs,
) -> Result<SpmProfile, FlowError> {
    let (traces, stream) = form_and_compile(
        program,
        profile,
        exec,
        &config.cache,
        config.effective_trace_cap(),
        obs,
    );
    profile_on(program, traces, stream, config, obs)
}

/// Form the traces of cap `trace_cap` for `cache`'s line size and
/// compile `exec` against them for `cache`, under a `trace` span: the
/// base [`profile_on`] and [`loop_cache_on`] run on. The stream serves
/// every cache of the same line size with at least as many sets as
/// `cache`.
pub fn form_and_compile(
    program: &Program,
    profile: &Profile,
    exec: &ExecutionTrace,
    cache: &CacheConfig,
    trace_cap: u32,
    obs: &Obs,
) -> (TraceSet, LineStream) {
    let _span = obs.span("trace");
    let traces = form_traces(
        program,
        profile,
        TraceConfig::new(trace_cap, cache.line_size),
        obs,
    );
    let stream = LineStream::compile(program, &traces, exec, &HierarchyConfig::cache_only(*cache));
    (traces, stream)
}

/// The profiling half of [`profile_spm`] on traces formed for `config`
/// (cap [`FlowConfig::effective_trace_cap`], padded to its line size)
/// and a stream compiled against them that serves `config.cache`:
/// the profiling simulation and the conflict graph.
///
/// # Errors
///
/// Returns [`FlowError::Stream`] if `stream` does not serve
/// `config.cache` or was compiled for other traces.
pub fn profile_on(
    program: &Program,
    traces: TraceSet,
    stream: LineStream,
    config: &FlowConfig,
    obs: &Obs,
) -> Result<SpmProfile, FlowError> {
    let layout0 = Layout::initial(program, &traces);
    let prof_cfg = HierarchyConfig::cache_only(config.cache);
    let span = obs.span("profile_sim");
    let sim = simulate_stream(&stream, &traces, &layout0, &prof_cfg)?;
    drop(span);
    let span = obs.span("conflict");
    let graph = ConflictGraph::from_simulation_obs(&traces, &sim, obs);
    drop(span);
    Ok(SpmProfile {
        traces,
        graph,
        stream,
    })
}

/// Allocate, lay out and simulate `config` on a profile from
/// [`profile_spm`] of the same workload under `ctx` (the second step
/// of the flow): energy table → `solve` → `layout` → `simulate` →
/// energy breakdown.
///
/// `prof` must come from a configuration with the same cache and
/// effective trace cap as `config`. The allocator
/// runs through the anytime engine under `ctx.budget`, so budget
/// exhaustion yields the incumbent with its proven gap
/// ([`FlowReport::alloc_status`]) instead of an error.
///
/// # Errors
///
/// Returns [`FlowError::Preload`] if hierarchy construction fails
/// (does not occur for scratchpad systems in practice), and
/// [`FlowError::Stream`] if `prof`'s stream cannot replay the final
/// layout (does not occur for a profile of this flow).
pub fn allocate_spm(
    program: &Program,
    prof: &SpmProfile,
    config: &FlowConfig,
    ctx: &FlowCtx,
) -> Result<FlowReport, FlowError> {
    let obs = &ctx.obs;
    let line = config.cache.line_size;
    let SpmProfile {
        traces,
        graph,
        stream,
    } = prof;

    let table = EnergyTable::build(
        config.cache.size,
        line,
        config.cache.associativity,
        config.spm_size,
        None,
        &config.tech,
    );
    let model = EnergyModel::new(graph, &table);

    let span = obs.span("solve");
    let started = std::time::Instant::now();
    let outcome = allocate_traced(
        &model,
        config.spm_size,
        config.allocator,
        &ctx.budget,
        None,
        obs,
        &ctx.capture.log,
        &ctx.capture.tree,
    );
    let solver_time = started.elapsed();
    let allocation = outcome.allocation;
    obs.add("solver.nodes", allocation.solver_nodes);
    obs.add("solver.spm_objects", allocation.spm_count() as u64);
    drop(span);

    let span = obs.span("layout");
    let layout = Layout::with_placement(
        program,
        traces,
        &allocation.to_placement(),
        config.allocator.semantics(),
    );
    drop(span);
    let span = obs.span("simulate");
    let cfg = HierarchyConfig::spm_system(config.cache, config.spm_size);
    let final_sim = run_final_sim(stream, traces, &layout, &cfg, obs)?;
    drop(span);
    let breakdown = EnergyBreakdown::from_stats(&final_sim.stats, &table, false);
    export_energy(obs, &breakdown);

    Ok(FlowReport {
        traces: traces.clone(),
        layout,
        conflict_graph: graph.clone(),
        allocation,
        alloc_status: outcome.status,
        stopped_by: outcome.stopped_by,
        loop_cache: None,
        final_sim,
        energy_table: table,
        breakdown,
        solver_time,
    })
}

/// Run the scratchpad workflow (paper fig. 1(a) + fig. 3) under `ctx`:
/// [`profile_spm`] then [`allocate_spm`], so every phase runs under
/// its own span (`trace` → `profile_sim` → `conflict` → `solve` →
/// `layout` → `simulate`) when `ctx.obs` is enabled.
///
/// # Errors
///
/// Returns [`FlowError::Preload`] if hierarchy construction fails
/// (does not occur for scratchpad systems in practice).
///
/// # Panics
///
/// Panics if `exec` is inconsistent with `program` (checked by the
/// simulator's layout arithmetic).
pub fn run_spm_flow(
    program: &Program,
    profile: &Profile,
    exec: &ExecutionTrace,
    config: &FlowConfig,
    ctx: &FlowCtx,
) -> Result<FlowReport, FlowError> {
    let prof = profile_spm(program, profile, exec, config, &ctx.obs)?;
    allocate_spm(program, &prof, config, ctx)
}

/// Run the preloaded-loop-cache workflow (paper fig. 1(b)) under
/// `ctx`.
///
/// Trace generation is applied identically ("for a fair comparison,
/// traces are generated for both" — paper §5); the loop cache then
/// preloads whole loops/functions on the *unchanged* initial layout.
/// The preload heuristic always runs to completion, so
/// [`FlowReport::alloc_status`] is [`AllocStatus::Optimal`] in the
/// completion sense of its own objective.
///
/// # Errors
///
/// Returns [`FlowError::Preload`] if the chosen ranges violate the
/// controller's limits (allocator bug).
pub fn run_loop_cache_flow(
    program: &Program,
    profile: &Profile,
    exec: &ExecutionTrace,
    config: &LoopCacheConfig,
    ctx: &FlowCtx,
) -> Result<FlowReport, FlowError> {
    let cap = config.capacity.max(config.cache.line_size);
    let (traces, stream) = form_and_compile(program, profile, exec, &config.cache, cap, &ctx.obs);
    loop_cache_on(program, profile, &traces, &stream, config, ctx)
}

/// [`run_loop_cache_flow`] on given traces and line stream: `traces`
/// must be the ones the loop-cache flow forms (cap `config.capacity`,
/// at least one line, padded to the cache's line size), as a
/// scratchpad profile of the same cache and effective trace cap
/// carries, and `stream` must be compiled against them for a cache of
/// the same line size and no more sets (see [`form_and_compile`]).
/// Ross's preload ranges are whole trace slots, so such a stream
/// serves the preloaded system.
///
/// # Errors
///
/// As [`run_loop_cache_flow`]; also [`FlowError::Stream`] if `stream`
/// cannot replay the preloaded system.
pub fn loop_cache_on(
    program: &Program,
    profile: &Profile,
    traces: &TraceSet,
    stream: &LineStream,
    config: &LoopCacheConfig,
    ctx: &FlowCtx,
) -> Result<FlowReport, FlowError> {
    let obs = &ctx.obs;
    let cache = config.cache;
    let capacity = config.capacity;
    let max_objects = config.max_objects;
    let layout = Layout::initial(program, traces);

    let span = obs.span("solve");
    let started = std::time::Instant::now();
    let assignment = allocate_loop_cache(program, profile, traces, &layout, capacity, max_objects);
    let solver_time = started.elapsed();
    obs.add("solver.lc_ranges", assignment.ranges().len() as u64);
    drop(span);

    let cfg = HierarchyConfig::loop_cache_system(cache, capacity, max_objects, assignment.ranges());
    let span = obs.span("simulate");
    let final_sim = run_final_sim(stream, traces, &layout, &cfg, obs)?;
    drop(span);
    let sizes = traces.traces().iter().map(|t| t.code_size()).collect();
    let graph = ConflictGraph::from_parts(final_sim.trace_fetches.clone(), sizes, HashMap::new());

    let table = EnergyTable::build(
        cache.size,
        cache.line_size,
        cache.associativity,
        0,
        Some((capacity, max_objects)),
        &config.tech,
    );
    let breakdown = EnergyBreakdown::from_stats(&final_sim.stats, &table, true);
    export_energy(obs, &breakdown);
    let n = traces.len();

    Ok(FlowReport {
        traces: traces.clone(),
        layout,
        conflict_graph: graph,
        allocation: Allocation::none(n),
        alloc_status: AllocStatus::Optimal,
        stopped_by: None,
        loop_cache: Some(assignment),
        final_sim,
        energy_table: table,
        breakdown,
        solver_time,
    })
}

/// The final simulation from `stream`, with per-set statistics when
/// `obs` is enabled and the allocation-free path otherwise. Nothing
/// reads a final run's conflicts, so it counts hits and misses without
/// attributing them.
fn run_final_sim(
    stream: &LineStream,
    traces: &TraceSet,
    layout: &Layout,
    cfg: &HierarchyConfig,
    obs: &Obs,
) -> Result<SimOutcome, SimError> {
    if obs.is_enabled() {
        let recorder = SetStatsRecorder::new(cfg.cache.num_sets() as usize);
        let (sim, recorder) = simulate_stream_observed(stream, traces, layout, cfg, recorder)?;
        recorder.export(obs);
        Ok(sim)
    } else {
        Ok(simulate_stream_observed(stream, traces, layout, cfg, NullRecorder)?.0)
    }
}

/// Record the component energy breakdown as gauges (nanojoules, the
/// breakdown's native unit; `energy.total_uj` additionally in µJ to
/// match Table 1).
fn export_energy(obs: &Obs, b: &EnergyBreakdown) {
    if !obs.is_enabled() {
        return;
    }
    obs.gauge_set("energy.cache_hit_nj", b.cache_hit_energy);
    obs.gauge_set("energy.cache_miss_nj", b.cache_miss_energy);
    obs.gauge_set("energy.spm_nj", b.spm_energy);
    obs.gauge_set("energy.lc_nj", b.lc_energy + b.lc_controller_energy);
    obs.gauge_set("energy.l2_nj", b.l2_energy);
    obs.gauge_set("energy.total_uj", b.total_uj());
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_ir::inst::{InstKind, IsaMode};
    use casa_ir::{BlockId, ProgramBuilder};

    /// Two hot blocks exactly one cache-size apart that thrash a tiny
    /// direct-mapped cache, plus filler.
    fn thrash_workload() -> (Program, Profile, ExecutionTrace) {
        let mut b = ProgramBuilder::new(IsaMode::Arm);
        let f = b.function("main");
        let head = b.block(f);
        let filler = b.block(f);
        let far = b.block(f);
        let ex = b.block(f);
        b.push_n(head, InstKind::Alu, 3);
        b.jump(head, far);
        b.push_n(filler, InstKind::Alu, 11);
        b.jump(filler, ex);
        b.push_n(far, InstKind::Alu, 3);
        b.branch(far, head, ex);
        b.push(ex, InstKind::Alu);
        b.exit(ex);
        let p = b.finish().unwrap();
        let mut seq: Vec<BlockId> = Vec::new();
        for _ in 0..200 {
            seq.push(head);
            seq.push(far);
        }
        seq.push(ex);
        // The profile counts exactly what the execution takes: 200
        // head -> far, 199 far -> head and one far -> ex.
        let mut prof = Profile::new();
        for &block in &seq {
            prof.add_block(block, 1);
        }
        for pair in seq.windows(2) {
            prof.add_edge(pair[0], pair[1], 1);
        }
        (p, prof, ExecutionTrace::new(seq))
    }

    fn config(allocator: AllocatorKind) -> FlowConfig {
        FlowConfig::new(CacheConfig::direct_mapped(64, 16), 32, allocator)
    }

    fn ctx() -> FlowCtx {
        FlowCtx::default()
    }

    #[test]
    fn casa_eliminates_thrashing() {
        let (p, prof, exec) = thrash_workload();
        let none = run_spm_flow(&p, &prof, &exec, &config(AllocatorKind::None), &ctx()).unwrap();
        let casa = run_spm_flow(&p, &prof, &exec, &config(AllocatorKind::CasaBb), &ctx()).unwrap();
        assert!(none.final_sim.stats.cache_misses > 100, "baseline thrashes");
        assert!(
            casa.final_sim.stats.cache_misses < 10,
            "CASA removes the thrash ({} misses left)",
            casa.final_sim.stats.cache_misses
        );
        assert!(casa.energy_uj() < none.energy_uj());
        // One of the two thrashing traces is on the SPM (plus possibly
        // small leftovers that still fit).
        assert!(casa.allocation.spm_count() >= 1);
        // An unlimited budget proves optimality.
        assert!(casa.alloc_status.is_optimal());
        assert_eq!(casa.stopped_by, None);
    }

    #[test]
    fn all_casa_variants_agree_on_energy() {
        let (p, prof, exec) = thrash_workload();
        let e_bb = run_spm_flow(&p, &prof, &exec, &config(AllocatorKind::CasaBb), &ctx())
            .unwrap()
            .energy_uj();
        let e_paper = run_spm_flow(
            &p,
            &prof,
            &exec,
            &config(AllocatorKind::CasaIlpPaper),
            &ctx(),
        )
        .unwrap()
        .energy_uj();
        let e_tight = run_spm_flow(
            &p,
            &prof,
            &exec,
            &config(AllocatorKind::CasaIlpTight),
            &ctx(),
        )
        .unwrap()
        .energy_uj();
        assert!((e_bb - e_paper).abs() < 1e-9, "{e_bb} vs {e_paper}");
        assert!((e_bb - e_tight).abs() < 1e-9);
    }

    #[test]
    fn fetch_identity_holds_in_all_flows() {
        let (p, prof, exec) = thrash_workload();
        for kind in [
            AllocatorKind::None,
            AllocatorKind::CasaBb,
            AllocatorKind::CasaGreedy,
            AllocatorKind::Steinke,
        ] {
            let r = run_spm_flow(&p, &prof, &exec, &config(kind), &ctx()).unwrap();
            assert!(
                r.final_sim.check_fetch_identity(),
                "{kind:?} violates eq. (4)"
            );
            assert!(r.final_sim.stats.is_consistent());
        }
    }

    #[test]
    fn loop_cache_flow_runs() {
        let (p, prof, exec) = thrash_workload();
        let r = run_loop_cache_flow(
            &p,
            &prof,
            &exec,
            &LoopCacheConfig::new(CacheConfig::direct_mapped(64, 16), 64, 4),
            &ctx(),
        )
        .unwrap();
        assert!(r.final_sim.stats.is_consistent());
        assert!(r.loop_cache.is_some());
        // Nothing is profiled: the graph carries the final run's fetch
        // counts and no edges.
        let g = &r.conflict_graph;
        assert_eq!(g.edge_count(), 0);
        let fetches: Vec<u64> = (0..g.len()).map(|i| g.fetches_of(i)).collect();
        assert_eq!(fetches, r.final_sim.trace_fetches);
        // Completion semantics: the preload heuristic always finishes.
        assert!(r.alloc_status.is_optimal());
        assert_eq!(r.alloc_status.gap(), Some(0.0));
        // The hot head/far loop spans the whole program here; the
        // controller may or may not capture it, but energy must be
        // computed either way.
        assert!(r.energy_uj() > 0.0);
    }

    #[test]
    #[should_panic(expected = "did not attribute")]
    fn a_count_only_final_simulation_builds_no_conflict_graph() {
        let (p, prof, exec) = thrash_workload();
        let r = run_spm_flow(&p, &prof, &exec, &config(AllocatorKind::CasaBb), &ctx()).unwrap();
        ConflictGraph::from_simulation(&r.traces, &r.final_sim);
    }

    #[test]
    fn summary_renders_key_figures() {
        let (p, prof, exec) = thrash_workload();
        let r = run_spm_flow(&p, &prof, &exec, &config(AllocatorKind::CasaBb), &ctx()).unwrap();
        let text = crate::report::render_summary("demo", &r);
        assert!(text.contains("=== demo ==="));
        assert!(text.contains("traces"));
        assert!(text.contains("energy:"));
        assert!(text.contains("µJ"));
    }

    #[test]
    fn observed_flow_matches_plain_and_covers_phases() {
        let (p, prof, exec) = thrash_workload();
        let cfg = config(AllocatorKind::CasaBb);
        let plain = run_spm_flow(&p, &prof, &exec, &cfg, &ctx()).unwrap();

        let obs = Obs::enabled();
        let observed = run_spm_flow(&p, &prof, &exec, &cfg, &FlowCtx::observed(&obs)).unwrap();
        assert_eq!(plain.allocation.on_spm, observed.allocation.on_spm);
        assert_eq!(
            plain.final_sim.stats.cache_misses,
            observed.final_sim.stats.cache_misses
        );
        assert!((plain.energy_uj() - observed.energy_uj()).abs() < 1e-12);

        // The span tree covers every phase of fig. 3.
        let events = obs.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        for phase in [
            "trace",
            "profile_sim",
            "conflict",
            "solve",
            "layout",
            "simulate",
        ] {
            assert!(names.contains(&phase), "missing span {phase}: {names:?}");
        }

        // Metrics: solver effort, graph shape, per-set cache activity
        // and energy all landed.
        use casa_obs::MetricValue;
        let snap = obs.snapshot();
        assert_eq!(
            snap.get("solver.nodes"),
            Some(&MetricValue::Counter(plain.allocation.solver_nodes))
        );
        assert_eq!(
            snap.get("conflict.vertices"),
            Some(&MetricValue::Counter(plain.conflict_graph.len() as u64))
        );
        match snap.get("sim.cache.misses") {
            Some(&MetricValue::Counter(m)) => {
                assert_eq!(m, plain.final_sim.stats.cache_misses)
            }
            other => panic!("missing sim.cache.misses: {other:?}"),
        }
        match snap.get("energy.total_uj") {
            Some(&MetricValue::Gauge(e)) => assert!((e - plain.energy_uj()).abs() < 1e-12),
            other => panic!("missing energy.total_uj: {other:?}"),
        }
    }

    #[test]
    fn one_profile_serves_every_allocator_exactly() {
        let (p, prof, exec) = thrash_workload();
        let casa = config(AllocatorKind::CasaBb);
        let shared = profile_spm(&p, &prof, &exec, &casa, &Obs::disabled()).unwrap();
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::Steinke,
            AllocatorKind::CasaGreedy,
            AllocatorKind::None,
        ] {
            let cfg = config(kind);
            let alone =
                run_spm_flow(&p, &prof, &exec, &cfg, &FlowCtx::observed(&Obs::enabled())).unwrap();
            let obs = Obs::enabled();
            let r = allocate_spm(&p, &shared, &cfg, &FlowCtx::observed(&obs)).unwrap();
            assert_eq!(
                r.energy_uj().to_bits(),
                alone.energy_uj().to_bits(),
                "{kind:?}"
            );
            assert_eq!(r.final_sim.stats, alone.final_sim.stats, "{kind:?}");
            assert_eq!(r.allocation, alone.allocation, "{kind:?}");
            assert_eq!(r.alloc_status, alone.alloc_status, "{kind:?}");
            assert_eq!(r.traces, alone.traces, "{kind:?}");
            // The allocation step opens no profiling span of its own.
            let names: Vec<String> = obs.events().into_iter().map(|e| e.name).collect();
            assert!(!names.iter().any(|n| n == "profile_sim"), "{names:?}");
            assert!(names.iter().any(|n| n == "simulate"), "{names:?}");
        }
    }

    #[test]
    fn observed_loop_cache_flow_matches_plain() {
        let (p, prof, exec) = thrash_workload();
        let cache = CacheConfig::direct_mapped(64, 16);
        let lc = LoopCacheConfig::new(cache, 64, 4);
        let plain = run_loop_cache_flow(&p, &prof, &exec, &lc, &ctx()).unwrap();
        let obs = Obs::enabled();
        let observed =
            run_loop_cache_flow(&p, &prof, &exec, &lc, &FlowCtx::observed(&obs)).unwrap();
        assert!((plain.energy_uj() - observed.energy_uj()).abs() < 1e-12);
        assert_eq!(
            plain.final_sim.stats.cache_misses,
            observed.final_sim.stats.cache_misses
        );
        assert!(!obs.events().is_empty());
    }

    #[test]
    fn flow_capture_is_passive_and_deterministic() {
        let (p, prof, exec) = thrash_workload();
        let cfg = config(AllocatorKind::CasaBb);
        let run = || {
            let obs = Obs::enabled();
            let ctx = FlowCtx::observed(&obs).with_capture(Capture::on());
            let report = run_spm_flow(&p, &prof, &exec, &cfg, &ctx).unwrap();
            let log = ctx
                .capture
                .log
                .take()
                .expect("enabled recorder yields a log");
            let tree = ctx
                .capture
                .tree
                .take()
                .expect("enabled recorder yields a tree");
            (report, log, tree)
        };
        let (report, log, tree) = run();
        // The recorded final incumbent IS the flow's allocation.
        let last = log
            .incumbents
            .last()
            .expect("at least the initial incumbent");
        assert_eq!(last.on_spm, report.allocation.on_spm);
        assert_eq!(log.stop, None, "unbudgeted search closes");
        assert!(!tree.events.is_empty(), "flow tree capture records nodes");
        // Determinism: the tree export is byte-identical across runs.
        let (_, _, tree2) = run();
        assert_eq!(
            casa_ilp::tree::tree_log_json(&tree),
            casa_ilp::tree::tree_log_json(&tree2)
        );
        // Capture is passive: same answer with everything disabled.
        let silent = run_spm_flow(&p, &prof, &exec, &cfg, &FlowCtx::default()).unwrap();
        assert_eq!(silent.allocation.on_spm, report.allocation.on_spm);
        assert!((silent.energy_uj() - report.energy_uj()).abs() < 1e-12);
    }

    #[test]
    fn one_node_budget_still_allocates_with_finite_gap() {
        let (p, prof, exec) = thrash_workload();
        let ctx = FlowCtx::budgeted(Budget::nodes(1));
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
        ] {
            let r = run_spm_flow(&p, &prof, &exec, &config(kind), &ctx).unwrap();
            match &r.alloc_status {
                AllocStatus::Optimal => {}
                AllocStatus::Feasible { gap } => {
                    assert!(gap.is_finite() && *gap >= 0.0, "{kind:?} gap {gap}")
                }
                AllocStatus::Fallback { reason } => {
                    assert!(!reason.is_empty(), "{kind:?}")
                }
            }
            assert!(r.final_sim.stats.is_consistent());
        }
    }

    #[test]
    fn config_builder_validates() {
        let cache = CacheConfig::direct_mapped(64, 16);
        assert_eq!(
            FlowConfig::builder(cache, 0, AllocatorKind::CasaBb).build(),
            Err(ConfigError::ZeroSpmSize)
        );
        assert_eq!(
            FlowConfig::builder(cache, 32, AllocatorKind::CasaBb)
                .trace_cap(8)
                .build(),
            Err(ConfigError::TraceCapBelowLine {
                trace_cap: 8,
                line_size: 16
            })
        );
        let ok = FlowConfig::builder(cache, 32, AllocatorKind::CasaBb)
            .trace_cap(16)
            .build()
            .unwrap();
        assert_eq!(ok.effective_trace_cap(), 16);
        assert_eq!(config(AllocatorKind::CasaBb).effective_trace_cap(), 32);
        let err = ConfigError::ZeroSpmSize;
        assert!(err.to_string().contains("nonzero"));
    }

    #[test]
    fn solver_runtime_recorded() {
        let (p, prof, exec) = thrash_workload();
        let r = run_spm_flow(&p, &prof, &exec, &config(AllocatorKind::CasaBb), &ctx()).unwrap();
        // The §4 claim: well under a second at these sizes.
        assert!(r.solver_time < Duration::from_secs(1));
    }
}
