//! The fetch engine: replays a dynamic basic-block sequence against a
//! code layout, driving the memory system and the conflict recorder.
//!
//! This is the reproduction of the paper's profiling/accounting step:
//! ARMulator produced an instruction trace, and `memsim` counted hits
//! and misses per level. Here the dynamic block sequence (produced by
//! `casa-workloads`) plays the role of the instruction trace; the same
//! sequence can be replayed against different layouts and hierarchies,
//! which keeps comparisons between allocators exact.
//!
//! The engine works in **line runs**: it walks each executed block
//! once and charges each group of consecutive fetches served by one
//! place with a single memory-system call (see the crate docs for why
//! that is exact under every replacement policy).
//!
//! [`Replayer`] supports segment-wise replay with **layout switching**
//! between segments, which is what the overlay extension (paper §7
//! future work: "dynamic copying of memory objects") needs: each
//! program phase runs under its own scratchpad contents, and the DMA
//! cost of (re)loading the scratchpad is charged via
//! [`Replayer::charge_copy_words`].

use crate::conflict::{ConflictRecorder, RawConflicts};
use crate::hierarchy::{FetchEvent, HierarchyConfig, InstMemorySystem};
use crate::loop_cache::PreloadError;
use crate::recorder::{NullRecorder, Recorder};
use crate::stats::FetchStats;
use casa_ir::{BlockId, Program, Terminator};
use casa_trace::{Layout, Location, TraceSet};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A dynamic execution: the sequence of basic blocks a program run
/// visits, in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    blocks: Vec<BlockId>,
}

/// An inconsistency between an [`ExecutionTrace`] and the program's
/// CFG, found by [`ExecutionTrace::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Position in the sequence where the illegal step occurs.
    pub position: usize,
    /// Human-readable description of the violation.
    pub reason: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal step at position {}: {}",
            self.position, self.reason
        )
    }
}

impl Error for ExecError {}

impl ExecutionTrace {
    /// Wrap a block sequence.
    pub fn new(blocks: Vec<BlockId>) -> Self {
        ExecutionTrace { blocks }
    }

    /// The block sequence.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Number of block executions.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Verify that every step follows a legal CFG edge, maintaining a
    /// call stack for `Call`/`Return` terminators.
    ///
    /// # Errors
    ///
    /// Returns the first illegal step.
    pub fn check(&self, program: &Program) -> Result<(), ExecError> {
        let mut stack: Vec<BlockId> = Vec::new();
        for (pos, w) in self.blocks.windows(2).enumerate() {
            let (cur, next) = (w[0], w[1]);
            let term = program.block(cur).terminator();
            let ok = match term {
                Terminator::FallThrough { next: t } | Terminator::Jump { target: t } => next == t,
                Terminator::Branch { taken, fallthrough } => next == taken || next == fallthrough,
                Terminator::Call { callee, return_to } => {
                    stack.push(return_to);
                    next == program.function(callee).entry()
                }
                Terminator::Return => match stack.pop() {
                    Some(r) => next == r,
                    None => false,
                },
                Terminator::Exit => false,
            };
            if !ok {
                return Err(ExecError {
                    position: pos,
                    reason: format!("{cur} ({term:?}) cannot be followed by {next}"),
                });
            }
        }
        if let Some(&last) = self.blocks.last() {
            let term = program.block(last).terminator();
            if !matches!(term, Terminator::Exit) {
                return Err(ExecError {
                    position: self.blocks.len() - 1,
                    reason: format!(
                        "execution ends at {last} whose terminator is {term:?}, not Exit"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Everything one simulation run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Aggregate component counters.
    pub stats: FetchStats,
    /// Per-memory-object instruction fetches (`f_i` of the paper).
    pub trace_fetches: Vec<u64>,
    /// Per-object I-cache hits.
    pub trace_hits: Vec<u64>,
    /// Per-object I-cache misses.
    pub trace_misses: Vec<u64>,
    /// Per-object scratchpad fetches.
    pub trace_spm: Vec<u64>,
    /// Per-object loop-cache fetches.
    pub trace_lc: Vec<u64>,
    /// Conflict-miss attribution (`m_ij` raw data).
    pub conflicts: RawConflicts,
    /// Base CPU cycles of every executed instruction (ALU/load/…
    /// latencies, no memory stalls — add those from `stats`).
    pub base_cycles: u64,
}

impl SimOutcome {
    /// The paper's eq. (4): `f_i = Hit(x_i) + Miss(x_i)` — with SPM
    /// and loop-cache fetches folded in, every fetch of an object is
    /// served by exactly one component.
    pub fn check_fetch_identity(&self) -> bool {
        (0..self.trace_fetches.len()).all(|i| {
            self.trace_fetches[i]
                == self.trace_hits[i] + self.trace_misses[i] + self.trace_spm[i] + self.trace_lc[i]
        })
    }

    /// Total CPU cycles under a simple in-order timing model:
    /// base instruction cycles, plus `miss_penalty` per I-cache miss
    /// (line fill from off-chip memory). Hits, SPM and loop-cache
    /// fetches are single-cycle (pipelined).
    pub fn total_cycles(&self, miss_penalty: u64) -> u64 {
        self.base_cycles + self.stats.cache_misses * miss_penalty
    }
}

/// Incremental fetch-engine session: replay segments of an execution,
/// optionally switching layouts (scratchpad contents) between them.
///
/// Generic over an event [`Recorder`] (default: none) that observes
/// every cache/SPM/loop-cache event the replay generates.
#[derive(Debug, Clone)]
pub struct Replayer<R: Recorder = NullRecorder> {
    system: InstMemorySystem<R>,
    recorder: ConflictRecorder,
    trace_fetches: Vec<u64>,
    trace_hits: Vec<u64>,
    trace_misses: Vec<u64>,
    trace_spm: Vec<u64>,
    trace_lc: Vec<u64>,
    base_cycles: u64,
    copy_words: u64,
}

impl Replayer {
    /// Create a session for `traces.len()` memory objects against the
    /// memory system described by `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] if `config` carries an invalid
    /// loop-cache preload.
    pub fn new(traces: &TraceSet, config: &HierarchyConfig) -> Result<Self, PreloadError> {
        Replayer::with_recorder(traces, config, NullRecorder)
    }
}

impl<R: Recorder> Replayer<R> {
    /// Like [`Replayer::new`], but every memory-system event is also
    /// reported to `recorder`.
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] if `config` carries an invalid
    /// loop-cache preload.
    pub fn with_recorder(
        traces: &TraceSet,
        config: &HierarchyConfig,
        recorder: R,
    ) -> Result<Self, PreloadError> {
        let n = traces.len();
        Ok(Replayer {
            system: InstMemorySystem::with_recorder(config, recorder)?,
            recorder: ConflictRecorder::new(n),
            trace_fetches: vec![0; n],
            trace_hits: vec![0; n],
            trace_misses: vec![0; n],
            trace_spm: vec![0; n],
            trace_lc: vec![0; n],
            base_cycles: 0,
            copy_words: 0,
        })
    }

    /// Replay `exec.blocks()[range]` under `layout`. Glue-jump
    /// detection looks one block past the end of the range, so
    /// consecutive segment replays behave exactly like one big replay
    /// under a constant layout.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or a location is
    /// inconsistent with the system (layout/config bug).
    pub fn replay(
        &mut self,
        program: &Program,
        traces: &TraceSet,
        layout: &Layout,
        exec: &ExecutionTrace,
        range: std::ops::Range<usize>,
    ) {
        let blocks = exec.blocks();
        assert!(range.end <= blocks.len(), "segment out of bounds");
        for pos in range {
            let block = blocks[pos];
            let tid = traces.trace_of(block);
            let ti = tid.index();
            let start = layout.block_location(traces, block);
            let insts = program.block(block).insts();
            self.trace_fetches[ti] += insts.len() as u64;
            // Walk the block's instructions, closing a run whenever the
            // next one starts at or past the current run's end.
            let (mut first, mut last, mut n) = (start, start.addr, 0u64);
            let mut end = self.system.run_end(start);
            let mut loc = start;
            let mut cycles = 0u64;
            for inst in insts {
                if loc.addr >= end {
                    self.serve(ti, first, last, n);
                    (first, n) = (loc, 0);
                    end = self.system.run_end(loc);
                }
                last = loc.addr;
                n += 1;
                cycles += u64::from(inst.kind().base_cycles());
                loc.addr += inst.size();
            }
            if n > 0 {
                self.serve(ti, first, last, n);
            }
            self.base_cycles += cycles;
            // Trace-exit glue jump: fetched when the fall-through edge
            // leaves the trace.
            let trace = traces.trace(tid);
            if trace.glue_jump_size().is_some() && Some(&block) == trace.blocks().last() {
                let ft = program.block(block).terminator().fallthrough_successor();
                let next = blocks.get(pos + 1).copied();
                if ft.is_some() && ft == next {
                    let glue = layout
                        .glue_location(tid)
                        .expect("trace with glue jump has a glue location");
                    self.trace_fetches[ti] += 1;
                    self.serve(ti, glue, glue.addr, 1);
                    self.base_cycles += u64::from(casa_ir::InstKind::Jump.base_cycles());
                }
            }
        }
    }

    /// Split a run of `n` of object `ti`'s fetches, from `loc` to
    /// `last` and all served by one place, among its per-place
    /// counters (its `trace_fetches` are counted per block).
    fn serve(&mut self, ti: usize, loc: Location, last: u32, n: u64) {
        match self.system.fetch_run(loc, last, n) {
            FetchEvent::Spm { .. } => self.trace_spm[ti] += n,
            FetchEvent::LoopCache => self.trace_lc[ti] += n,
            FetchEvent::Cache(access) if access.hit => self.trace_hits[ti] += n,
            FetchEvent::Cache(access) => {
                self.trace_hits[ti] += n - 1;
                self.trace_misses[ti] += 1;
                let cache = self.system.cache();
                let evicted = access
                    .evicted_tag
                    .map(|t| cache.line_of(cache.line_addr(access.set, t)));
                self.recorder.on_miss(ti, cache.line_of(loc.addr), evicted);
            }
        }
    }

    /// Charge an overlay DMA transfer of `words` 32-bit words read
    /// from main memory (and written to the scratchpad).
    pub fn charge_copy_words(&mut self, words: u64) {
        self.copy_words += words;
    }

    /// Counters so far (cheap, copyable).
    pub fn stats(&self) -> FetchStats {
        let mut s = self.system.stats();
        s.overlay_copy_words = self.copy_words;
        s
    }

    /// Finish the session.
    pub fn into_outcome(self) -> SimOutcome {
        self.into_outcome_and_recorder().0
    }

    /// Finish the session, also yielding the event recorder.
    pub fn into_outcome_and_recorder(self) -> (SimOutcome, R) {
        let mut stats = self.system.stats();
        stats.overlay_copy_words = self.copy_words;
        let outcome = SimOutcome {
            stats,
            trace_fetches: self.trace_fetches,
            trace_hits: self.trace_hits,
            trace_misses: self.trace_misses,
            trace_spm: self.trace_spm,
            trace_lc: self.trace_lc,
            conflicts: self.recorder.into_conflicts(),
            base_cycles: self.base_cycles,
        };
        (outcome, self.system.into_recorder())
    }
}

/// Replay `exec` under `layout` against the memory system described by
/// `config`.
///
/// # Errors
///
/// Returns a [`PreloadError`] if `config` carries an invalid loop-cache
/// preload.
///
/// # Panics
///
/// Panics if a fetched location is inconsistent with the system (e.g.
/// a scratchpad bank that does not exist) — that indicates a layout or
/// configuration bug.
pub fn simulate(
    program: &Program,
    traces: &TraceSet,
    layout: &Layout,
    exec: &ExecutionTrace,
    config: &HierarchyConfig,
) -> Result<SimOutcome, PreloadError> {
    let mut session = Replayer::new(traces, config)?;
    session.replay(program, traces, layout, exec, 0..exec.len());
    Ok(session.into_outcome())
}

/// Like [`simulate`], but reporting every memory-system event to
/// `recorder` and returning it alongside the outcome.
///
/// # Errors
///
/// Returns a [`PreloadError`] if `config` carries an invalid loop-cache
/// preload.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`].
pub fn simulate_observed<R: Recorder>(
    program: &Program,
    traces: &TraceSet,
    layout: &Layout,
    exec: &ExecutionTrace,
    config: &HierarchyConfig,
    recorder: R,
) -> Result<(SimOutcome, R), PreloadError> {
    let mut session = Replayer::with_recorder(traces, config, recorder)?;
    session.replay(program, traces, layout, exec, 0..exec.len());
    Ok(session.into_outcome_and_recorder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use casa_ir::inst::{InstKind, IsaMode};
    use casa_ir::{Profile, ProgramBuilder};
    use casa_trace::layout::PlacementSemantics;
    use casa_trace::trace::{form_traces, TraceConfig};

    /// Loop between two blocks in different traces that conflict in a
    /// tiny direct-mapped cache.
    fn conflict_setup() -> (Program, TraceSet, ExecutionTrace, BlockId, BlockId) {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let head = bld.block(f);
        // Filler blocks to push `far` one cache-size away.
        let filler = bld.block(f);
        let far = bld.block(f);
        let ex = bld.block(f);
        bld.push_n(head, InstKind::Alu, 3);
        bld.jump(head, far); // head -> far
        bld.push_n(filler, InstKind::Alu, 11);
        bld.jump(filler, ex);
        bld.push_n(far, InstKind::Alu, 3);
        bld.branch(far, head, ex); // far -> head (loop) or exit
        bld.push(ex, InstKind::Alu);
        bld.exit(ex);
        let p = bld.finish().unwrap();
        let prof = Profile::new();
        let ts = form_traces(
            &p,
            &prof,
            TraceConfig::new(256, 16),
            &casa_obs::Obs::disabled(),
        );
        // Execution: (head far)*4 then exit.
        let mut seq = Vec::new();
        for _ in 0..4 {
            seq.push(head);
            seq.push(far);
        }
        seq.push(ex);
        (p, ts, ExecutionTrace::new(seq), head, far)
    }

    #[test]
    fn exec_trace_check_accepts_legal() {
        let (p, _, exec, _, _) = conflict_setup();
        exec.check(&p).expect("legal execution");
    }

    #[test]
    fn exec_trace_check_rejects_illegal_step() {
        let (p, _, _, head, far) = conflict_setup();
        // far -> far is not an edge.
        let bad = ExecutionTrace::new(vec![head, far, far]);
        let err = bad.check(&p).unwrap_err();
        assert_eq!(err.position, 1);
        assert!(err.to_string().contains("position 1"));
    }

    #[test]
    fn exec_trace_check_rejects_non_exit_ending() {
        let (p, _, _, head, _) = conflict_setup();
        let bad = ExecutionTrace::new(vec![head]);
        assert!(bad.check(&p).is_err());
    }

    #[test]
    fn thrashing_recorded_between_conflicting_traces() {
        let (p, ts, exec, head, far) = conflict_setup();
        let layout = Layout::initial(&p, &ts);
        // head at 0..16, filler at 16..64, far at 64..80: in a 64 B DM
        // cache head and far share set 0.
        let cfg = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16));
        let out = simulate(&p, &ts, &layout, &exec, &cfg).unwrap();
        assert!(out.check_fetch_identity());
        let (ti_head, ti_far) = (ts.trace_of(head).index(), ts.trace_of(far).index());
        // They thrash: conflict edges both directions.
        assert!(
            out.conflicts
                .misses_between
                .get(&(ti_head, ti_far))
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(
            out.conflicts
                .misses_between
                .get(&(ti_far, ti_head))
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(out.stats.cache_misses > 2);
    }

    #[test]
    fn spm_allocation_removes_conflicts() {
        let (p, ts, exec, head, far) = conflict_setup();
        let mut placement = vec![None; ts.len()];
        placement[ts.trace_of(head).index()] = Some(0);
        let layout = Layout::with_placement(&p, &ts, &placement, PlacementSemantics::Copy);
        let cfg = HierarchyConfig::spm_system(CacheConfig::direct_mapped(64, 16), 128);
        let out = simulate(&p, &ts, &layout, &exec, &cfg).unwrap();
        assert!(out.check_fetch_identity());
        let ti_head = ts.trace_of(head).index();
        let ti_far = ts.trace_of(far).index();
        // head is fetched from SPM; far no longer conflict-misses.
        assert!(out.trace_spm[ti_head] > 0);
        assert_eq!(out.trace_misses[ti_head], 0);
        assert_eq!(out.conflicts.conflict_misses_of(ti_far), 0);
        // far still pays exactly one cold miss per line.
        assert_eq!(out.conflicts.cold_misses[ti_far], out.trace_misses[ti_far]);
    }

    #[test]
    fn loop_cache_serves_preloaded_trace() {
        let (p, ts, exec, head, _) = conflict_setup();
        let layout = Layout::initial(&p, &ts);
        let t_head = ts.trace_of(head);
        let loc = layout.trace_location(t_head);
        let size = ts.trace(t_head).padded_size(16);
        let cfg = HierarchyConfig::loop_cache_system(
            CacheConfig::direct_mapped(64, 16),
            128,
            4,
            vec![(loc.addr, loc.addr + size)],
        );
        let out = simulate(&p, &ts, &layout, &exec, &cfg).unwrap();
        assert!(out.check_fetch_identity());
        let ti = t_head.index();
        assert_eq!(out.trace_lc[ti], out.trace_fetches[ti]);
        assert_eq!(out.trace_misses[ti], 0);
    }

    #[test]
    fn glue_jump_fetched_on_fallthrough_exit() {
        // One block falling through to the next, in separate traces.
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let a = bld.block(f);
        let b = bld.block(f);
        bld.push_n(a, InstKind::Alu, 2);
        bld.fall_through(a, b);
        bld.push(b, InstKind::Alu);
        bld.exit(b);
        let p = bld.finish().unwrap();
        let prof = Profile::new();
        let ts = form_traces(
            &p,
            &prof,
            TraceConfig::new(12, 4),
            &casa_obs::Obs::disabled(),
        );
        assert_eq!(ts.len(), 2, "cap must split a and b");
        let layout = Layout::initial(&p, &ts);
        let exec = ExecutionTrace::new(vec![a, b]);
        let cfg = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16));
        let out = simulate(&p, &ts, &layout, &exec, &cfg).unwrap();
        // a: 2 insts + 1 glue jump = 3 fetches; b: 1 fetch.
        assert_eq!(out.trace_fetches[ts.trace_of(a).index()], 3);
        assert_eq!(out.trace_fetches[ts.trace_of(b).index()], 1);
        assert_eq!(out.stats.fetches, 4);
    }

    #[test]
    fn segmented_replay_equals_monolithic() {
        let (p, ts, exec, _, _) = conflict_setup();
        let layout = Layout::initial(&p, &ts);
        let cfg = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16));
        let whole = simulate(&p, &ts, &layout, &exec, &cfg).unwrap();
        let mut session = Replayer::new(&ts, &cfg).unwrap();
        let mid = exec.len() / 2;
        session.replay(&p, &ts, &layout, &exec, 0..mid);
        session.replay(&p, &ts, &layout, &exec, mid..exec.len());
        let split = session.into_outcome();
        assert_eq!(whole, split, "segment boundary must be invisible");
    }

    #[test]
    fn copy_words_accumulate_into_stats() {
        let (_, ts, _, _, _) = conflict_setup();
        let cfg = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16));
        let mut session = Replayer::new(&ts, &cfg).unwrap();
        session.charge_copy_words(10);
        session.charge_copy_words(6);
        assert_eq!(session.stats().overlay_copy_words, 16);
        let out = session.into_outcome();
        assert_eq!(out.stats.overlay_copy_words, 16);
    }

    #[test]
    fn base_cycles_counted() {
        let (p, ts, exec, _, _) = conflict_setup();
        let layout = Layout::initial(&p, &ts);
        let cfg = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16));
        let out = simulate(&p, &ts, &layout, &exec, &cfg).unwrap();
        // Every fetched instruction costs >= 1 cycle.
        assert!(out.base_cycles >= out.stats.fetches);
        // Timing model adds the miss penalty.
        assert_eq!(
            out.total_cycles(10),
            out.base_cycles + 10 * out.stats.cache_misses
        );
    }
}
