//! # casa-core — Cache-Aware Scratchpad Allocation
//!
//! The paper's contribution (Verma/Wehmeyer/Marwedel, DATE 2004):
//! given a program partitioned into memory objects (traces), a
//! profiled **conflict graph** capturing which objects evict which in
//! the I-cache, and per-access energies, choose the subset of objects
//! to *copy* onto the scratchpad that minimizes instruction-memory
//! energy.
//!
//! * [`conflict`] — the conflict graph `G = (X, E)` of §3.3, built
//!   from the simulator's eviction attribution, plus a static
//!   address-overlap approximation for comparison.
//! * [`energy_model`] — eqs. (1)–(6): per-object cache/scratchpad
//!   energy and whole-allocation evaluation.
//! * [`casa_ilp`] — the ILP of eqs. (7)–(17), in the paper's exact
//!   linearization (binary `L`, constraints 13–15) or the tighter
//!   standard AND-linearization, solved by `casa-ilp`'s branch & bound.
//! * [`casa_bb`] — a specialized exact branch & bound over the same
//!   objective that exploits the problem's structure (positive
//!   conflict weights, single capacity constraint); orders of
//!   magnitude faster on large conflict graphs and cross-validated
//!   against the ILP by property tests.
//! * [`greedy`] — a density-greedy heuristic (incumbent provider and
//!   ablation point).
//! * [`engine`] — the anytime allocation engine: any allocator under a
//!   wall-clock/node/cancellation [`engine::Budget`], warm-started and
//!   degrading gracefully to an incumbent-with-gap or the greedy
//!   heuristic instead of failing.
//! * [`steinke`] — the DATE'02 baseline: cache-oblivious fetch-count
//!   knapsack with *move* semantics.
//! * [`ross`] — the preloaded-loop-cache baseline: density-greedy
//!   selection of ≤ N loops/functions.
//! * [`flow`] — the fig. 3 experimental workflow: trace formation →
//!   profiling simulation → conflict graph (one profile per
//!   configuration) → allocation → re-layout → final simulation →
//!   energy report.
//! * [`explain`] — decision provenance and sensitivity: per-object
//!   density rank, root-LP reduced cost, capacity shadow price, and
//!   flip distances, as a deterministic sorted-key JSON document.
//! * [`server`] — allocation as a service: request schema, the
//!   fingerprinted verify-on-hit solution cache, and the lock-per-shard
//!   bounded-admission service behind the `casa-server` binary.
//! * [`session`] — record/replay: the versioned `.casa-session`
//!   on-disk format capturing a solve's request, decision log, and
//!   answer, plus byte-exact offline replay and divergence analysis.
//! * [`capture`] — the one capture path: the recorders a solve writes
//!   into and the `<stem>.*` artifact siblings assembled from them.
//! * [`multi_spm`] — the paper's §4 extension to multiple scratchpads.
//! * [`overlay`] — the paper's §7 future-work extension: phase-wise
//!   dynamic copying of objects with DMA cost accounting.
//! * [`placement`] — the related-work comparator: cache-aware code
//!   placement (trace reordering) without any scratchpad.
//! * [`wcet`] — structural worst-case execution time bounds,
//!   quantifying the intro's claim that scratchpads allow tighter
//!   WCET prediction than caches.
//! * [`data_alloc`] — the paper's other future-work item: joint
//!   code+data allocation over the disjoint union of the I- and
//!   D-side conflict graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod capture;
pub mod casa_bb;
pub mod casa_ilp;
pub mod conflict;
pub mod data_alloc;
pub mod energy_model;
pub mod engine;
pub mod explain;
pub mod flow;
pub mod greedy;
pub mod multi_spm;
pub mod overlay;
pub mod placement;
pub mod report;
pub mod ross;
pub mod server;
pub mod session;
pub mod steinke;
pub mod wcet;

pub use allocation::Allocation;
pub use capture::{Capture, Captured};
pub use conflict::ConflictGraph;
pub use energy_model::EnergyModel;
pub use engine::{
    allocate_budgeted, allocate_traced, AllocOutcome, AllocStatus, Budget, BudgetKind, CancelToken,
    TreeRecorder,
};
pub use explain::{
    explain_allocation, explain_json, parse_explain, render_explain, ExplainDoc, ExplainError,
    FixedBy, ObjectExplain, ProbeResult, EXPLAIN_SCHEMA, MAX_PROBES,
};
pub use flow::{
    allocate_spm, form_and_compile, loop_cache_on, profile_on, profile_spm, run_loop_cache_flow,
    run_spm_flow, AllocatorKind, ConfigError, FlowConfig, FlowCtx, FlowReport, LoopCacheConfig,
    SpmProfile,
};
pub use report::EnergyBreakdown;
pub use server::{
    allocator_tag, parse_allocator, parse_request, response_json, AllocService, CacheOutcome,
    CacheStats, ParsedRequest, RequestError, ServiceConfig, SolutionCache, SolveJob, SolveReply,
    SubmitError, WorkloadRequest, WIRE_VERSION,
};
pub use session::{
    request_json, DecisionLog, ReplayError, ReplaySummary, Session, SessionError, SessionRecorder,
    SESSION_SCHEMA,
};
