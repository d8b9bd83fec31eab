//! The fetch engine: replays a dynamic basic-block sequence against a
//! code layout, driving the memory system and its event recorder (a
//! [`ConflictRecorder`] in a profiling replay).
//!
//! This is the reproduction of the paper's profiling/accounting step:
//! ARMulator produced an instruction trace, and `memsim` counted hits
//! and misses per level. Here the dynamic block sequence (produced by
//! `casa-workloads`) plays the role of the instruction trace; the same
//! sequence can be replayed against different layouts and hierarchies,
//! which keeps comparisons between allocators exact.
//!
//! A replay runs from a [`LineStream`]: the execution compiled once
//! against its trace set into the units its fetches touch, in order.
//! [`Replayer::replay_stream`] maps each unit to the layout's I-cache
//! line through one table, looks each one up in one flat loop, which
//! also finishes direct-mapped and LRU misses, and folds everything
//! else in from the stream's totals when the call ends (see the crate
//! docs for why that is exact). [`simulate`] and [`Replayer::replay`]
//! compile the stream for their one replay.
//!
//! [`Replayer`] supports segment-wise replay with **layout switching**
//! between segments, which is what the overlay extension (paper §7
//! future work: "dynamic copying of memory objects") needs: each
//! program phase runs under its own scratchpad contents, and the DMA
//! cost of (re)loading the scratchpad is charged via
//! [`Replayer::charge_copy_words`].

use crate::cache::Finish;
use crate::conflict::{ConflictRecorder, RawConflicts};
use crate::hierarchy::{HierarchyConfig, InstMemorySystem};
use crate::loop_cache::PreloadError;
use crate::recorder::{NullRecorder, Recorder};
use crate::stats::FetchStats;
use crate::stream::{Id, Ids, LineStream, StreamError, LOOP, SPM};
use casa_ir::{BlockId, Program, Terminator};
use casa_trace::{Layout, Region, TraceId, TraceSet};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A dynamic execution: the sequence of basic blocks a program run
/// visits, in order. Block ids take 16 bits each while every id fits
/// (programs of fewer than 65,536 blocks), 32 bits otherwise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionTrace {
    pub(crate) ids: Ids,
}

impl PartialEq for ExecutionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for ExecutionTrace {}

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
        let bound = blocks.iter().map(|b| b.index() + 1).max().unwrap_or(0);
        let mut trace = ExecutionTrace::for_blocks(bound);
        match &mut trace.ids {
            Ids::Narrow(v) => v.extend(blocks.iter().map(|b| b.index() as u16)),
            Ids::Wide(v) => v.extend(blocks.iter().map(|b| b.index() as u32)),
        }
        trace
    }

    /// An empty sequence for a program of `n_blocks` blocks, to
    /// [`push`](Self::push) onto.
    pub fn for_blocks(n_blocks: usize) -> Self {
        ExecutionTrace {
            ids: Ids::for_bound(n_blocks),
        }
    }

    /// Append one block execution.
    #[inline]
    pub fn push(&mut self, block: BlockId) {
        self.ids.push(block.index() as u32);
    }

    /// Release the capacity [`push`](Self::push) left unused, once the
    /// sequence is complete.
    pub fn shrink_to_fit(&mut self) {
        match &mut self.ids {
            Ids::Narrow(v) => v.shrink_to_fit(),
            Ids::Wide(v) => v.shrink_to_fit(),
        }
    }

    /// The block executed at `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> Option<BlockId> {
        self.ids.get(pos).map(BlockId::from_raw)
    }

    /// The block sequence, in order.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (narrow, wide): (&[u16], &[u32]) = match &self.ids {
            Ids::Narrow(v) => (v, &[]),
            Ids::Wide(v) => (&[], v),
        };
        narrow
            .iter()
            .map(|&b| u32::from(b))
            .chain(wide.iter().copied())
            .map(BlockId::from_raw)
    }

    /// Number of block executions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Verify that every step follows a legal CFG edge, maintaining a
    /// call stack for `Call`/`Return` terminators.
    ///
    /// # Errors
    ///
    /// Returns the first illegal step.
    pub fn check(&self, program: &Program) -> Result<(), ExecError> {
        let mut stack: Vec<BlockId> = Vec::new();
        let mut steps = self.iter().peekable();
        let mut pos = 0;
        while let (Some(cur), Some(&next)) = (steps.next(), steps.peek()) {
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
            pos += 1;
        }
        if let Some(last) = self.len().checked_sub(1).and_then(|p| self.get(p)) {
            let term = program.block(last).terminator();
            if !matches!(term, Terminator::Exit) {
                return Err(ExecError {
                    position: self.len() - 1,
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
    /// Conflict-miss attribution (`m_ij` raw data) of an attributing
    /// replay ([`simulate`], [`simulate_stream`],
    /// [`Replayer::into_attributed`]); empty for every other.
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

/// A lookup key: the cache slot to compare in the high half, the line
/// in the low half.
fn key(slot: usize, line: u32) -> u64 {
    (slot as u64) << 32 | u64::from(line)
}

/// Why a stream replay could not run: the memory system is invalid, or
/// the stream does not fit the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration carries an invalid loop-cache preload.
    Preload(PreloadError),
    /// The stream cannot replay the layout.
    Stream(StreamError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Preload(e) => e.fmt(f),
            SimError::Stream(e) => e.fmt(f),
        }
    }
}

impl Error for SimError {}

impl From<PreloadError> for SimError {
    fn from(e: PreloadError) -> Self {
        SimError::Preload(e)
    }
}

impl From<StreamError> for SimError {
    fn from(e: StreamError) -> Self {
        SimError::Stream(e)
    }
}

/// Incremental fetch-engine session: replay segments of an execution,
/// optionally switching layouts (scratchpad contents) between them.
///
/// Generic over an event [`Recorder`] (default: none) that observes
/// the replay's cache, SPM and loop-cache events (see [`Recorder`] for
/// when each arrives). A session attributes conflict misses only when
/// that recorder is a [`ConflictRecorder`] ([`Replayer::attributing`]):
/// the profiling replays that build conflict graphs take one, and
/// replays that only count hits and misses skip the attribution.
#[derive(Debug, Clone)]
pub struct Replayer<R: Recorder = NullRecorder> {
    system: InstMemorySystem<R>,
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

impl Replayer<ConflictRecorder> {
    /// Like [`Replayer::new`], but every miss is attributed to the
    /// memory object that evicted its line: a profiling session, whose
    /// outcome ([`Self::into_attributed`]) feeds a conflict graph.
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] if `config` carries an invalid
    /// loop-cache preload.
    pub fn attributing(traces: &TraceSet, config: &HierarchyConfig) -> Result<Self, PreloadError> {
        Replayer::with_recorder(traces, config, ConflictRecorder::new(traces.len()))
    }

    /// Finish an attributing session: the outcome, with its conflicts.
    pub fn into_attributed(self) -> SimOutcome {
        let (mut outcome, recorder) = self.into_outcome_and_recorder();
        outcome.conflicts = recorder.into_conflicts();
        outcome
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
            trace_fetches: vec![0; n],
            trace_hits: vec![0; n],
            trace_misses: vec![0; n],
            trace_spm: vec![0; n],
            trace_lc: vec![0; n],
            base_cycles: 0,
            copy_words: 0,
        })
    }

    /// Replay `exec[range]` under `layout`: compile the range's
    /// [`LineStream`] and replay it. Glue-jump detection looks one
    /// block past the end of the range, so consecutive segment replays
    /// behave exactly like one big replay under a constant layout, and
    /// the cache keeps its state across layout switches. Every counter
    /// is complete when the call returns.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or a location is
    /// inconsistent with the system (layout/config bug); a scratchpad
    /// location only when its trace executes in the range.
    pub fn replay(
        &mut self,
        program: &Program,
        traces: &TraceSet,
        layout: &Layout,
        exec: &ExecutionTrace,
        range: std::ops::Range<usize>,
    ) {
        let target = self.system.target(traces.line_size());
        let stream = LineStream::compile_range(program, traces, exec, range, target);
        self.replay_stream(&stream, traces, layout)
            .expect("a stream compiled for this system replays on it");
    }

    /// Replay `stream` under `layout`, a layout of the trace set the
    /// stream was compiled for. Every counter is complete when the
    /// call returns.
    ///
    /// # Errors
    ///
    /// [`StreamError::OtherTraceSet`] if `traces` is not the stream's
    /// trace set; [`StreamError::OtherSystem`] if this memory system
    /// does not fit the stream (see [`LineStream::compile`]).
    ///
    /// # Panics
    ///
    /// Panics if a location is inconsistent with the system: a
    /// scratchpad location only when its trace has fetches in the
    /// stream.
    pub fn replay_stream(
        &mut self,
        stream: &LineStream,
        traces: &TraceSet,
        layout: &Layout,
    ) -> Result<(), StreamError> {
        let target = self.system.target(traces.line_size());
        stream.check(traces, target, self.system.cache().config())?;
        let map = stream.remap(layout, &self.system);
        let cache = self.system.cache();
        let (skip_slot, skipped) = cache.skip_slot();
        let keys: Vec<u64> = map
            .iter()
            .map(|&line| match line {
                _ if line < LOOP => key(cache.first_slot(line), line),
                _ => key(skip_slot, skipped),
            })
            .collect();
        let misses_before = self.trace_misses.clone();
        let obj = &stream.unit_obj;
        match stream.units() {
            Ids::Narrow(units) => self.lookups(units, &keys, obj),
            Ids::Wide(units) => self.lookups(units, &keys, obj),
        }
        self.fold(stream, layout, &map, &misses_before);
        Ok(())
    }

    /// One I-cache lookup per stream unit. `keys` holds, per unit, the
    /// first slot of its line's set and the line (see [`key`]); a unit
    /// the layout does not fetch from the I-cache names the cache's
    /// skip slot, so it "hits" there. A hit in the first slot is the
    /// whole lookup. Without an L2, a direct-mapped miss (the slot is
    /// replaced) and an LRU lookup (the set is reordered) finish in the
    /// loop too; every other lookup leaves it ([`Self::lookup_rest`]).
    fn lookups<U: Id>(&mut self, units: &[U], keys: &[u64], unit_obj: &[u32]) {
        let finish = self.system.finish();
        for &u in units {
            let k = keys[u.index()];
            let (slot, line) = ((k >> 32) as usize, k as u32);
            if self.system.cache().slot_holds(slot, u64::from(line)) {
                continue;
            }
            let obj = unit_obj[u.index()] as usize;
            let evicted = match finish {
                Finish::DirectMapped => self.system.cache_mut().replace_slot(slot, line),
                Finish::Lru => match self.system.cache_mut().lru_finish(slot, line) {
                    (true, _) => continue,
                    (false, evicted) => evicted,
                },
                Finish::OutOfLine => {
                    self.lookup_rest(obj, line);
                    continue;
                }
            };
            self.missed(obj, line, evicted);
        }
    }

    /// A lookup the loop does not finish: a FIFO, round-robin or random
    /// set scan, a random direct-mapped fill, or any lookup of a system
    /// with an L2.
    #[inline(never)]
    fn lookup_rest(&mut self, obj: usize, line: u32) {
        let access = self.system.cache_mut().access_line(line);
        if !access.hit {
            let evicted = self.system.cache().evicted_line(&access);
            self.missed(obj, line, evicted);
        }
    }

    /// Charge a miss of object `obj` on `line`, which evicted line
    /// `evicted` if any, after the cache has counted it: the object's
    /// miss, the line fill and the recorder's miss events, in order.
    #[inline(always)]
    fn missed(&mut self, obj: usize, line: u32, evicted: Option<u32>) {
        self.trace_misses[obj] += 1;
        self.system.line_fill(line, evicted.is_some());
        self.system.recorder_mut().cache_miss(obj, line, evicted);
    }

    /// Charge everything that depends only on the stream's totals:
    /// fetches, base cycles, scratchpad and loop-cache service, and the
    /// I-cache access and hit totals and per-set fetches. An object's
    /// I-cache hits are its I-cache fetches minus the misses the call
    /// counted (eq. 4).
    fn fold(&mut self, stream: &LineStream, layout: &Layout, map: &[u32], misses_before: &[u64]) {
        let n = self.trace_fetches.len();
        let mut fetches = 0;
        for o in 0..n {
            let f = stream.obj_fetches[o];
            if f == 0 {
                continue;
            }
            self.trace_fetches[o] += f;
            fetches += f;
            let loc = layout.trace_location(TraceId::from_raw(o as u32));
            if let Region::Spm(bank) = loc.region {
                self.system
                    .spm_fetches(bank, loc.addr + stream.obj_last[o], f);
                self.trace_spm[o] += f;
            }
        }
        self.system.charge_fetches(fetches);
        self.base_cycles += stream.base_cycles;
        let mut cache = vec![0u64; n];
        let mut lc = vec![0u64; n];
        for ((&f, &o), &line) in stream.unit_fetches.iter().zip(&stream.unit_obj).zip(map) {
            match line {
                _ if f == 0 => {}
                SPM => {}
                LOOP => lc[o as usize] += f,
                line => {
                    cache[o as usize] += f;
                    self.system.record_cache_fetches(line, f);
                }
            }
        }
        let (mut accesses, mut hits) = (0, 0);
        for o in 0..n {
            if lc[o] > 0 {
                self.system.loop_cache_fetches(lc[o]);
                self.trace_lc[o] += lc[o];
            }
            let h = cache[o] - (self.trace_misses[o] - misses_before[o]);
            self.trace_hits[o] += h;
            accesses += cache[o];
            hits += h;
        }
        self.system.charge_cache_fetches(accesses, hits);
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

    /// Finish the session, also yielding the event recorder. The
    /// outcome carries no conflicts: an attributing session's are in
    /// its recorder (see [`Self::into_attributed`]).
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
            conflicts: RawConflicts::default(),
            base_cycles: self.base_cycles,
        };
        (outcome, self.system.into_recorder())
    }
}

/// Replay `exec` under `layout` against the memory system described by
/// `config`: compile its [`LineStream`] and replay it once, attributing
/// every conflict miss ([`SimOutcome::conflicts`]).
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
    let mut session = Replayer::attributing(traces, config)?;
    session.replay(program, traces, layout, exec, 0..exec.len());
    Ok(session.into_attributed())
}

/// Like [`simulate`], but reporting every memory-system event to
/// `recorder` and returning it alongside the outcome, which carries no
/// conflicts: the replay attributes only if `recorder` is a
/// [`ConflictRecorder`], and then into it.
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

/// Replay a compiled `stream` under `layout`, a layout of the trace
/// set it was compiled for, against the memory system described by
/// `config`, attributing every conflict miss. Equal to [`simulate`] of
/// the stream's execution, field for field.
///
/// # Errors
///
/// [`SimError::Preload`] for an invalid loop-cache preload;
/// [`SimError::Stream`] if the stream cannot replay `layout` on this
/// system (see [`Replayer::replay_stream`]).
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`].
pub fn simulate_stream(
    stream: &LineStream,
    traces: &TraceSet,
    layout: &Layout,
    config: &HierarchyConfig,
) -> Result<SimOutcome, SimError> {
    let mut session = Replayer::attributing(traces, config)?;
    session.replay_stream(stream, traces, layout)?;
    Ok(session.into_attributed())
}

/// Like [`simulate_stream`], but reporting every memory-system event to
/// `recorder` and returning it alongside the outcome, which carries no
/// conflicts (see [`simulate_observed`]). With [`NullRecorder`] this is
/// the count-only replay of a final simulation.
///
/// # Errors
///
/// As [`simulate_stream`].
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`].
pub fn simulate_stream_observed<R: Recorder>(
    stream: &LineStream,
    traces: &TraceSet,
    layout: &Layout,
    config: &HierarchyConfig,
    recorder: R,
) -> Result<(SimOutcome, R), SimError> {
    let mut session = Replayer::with_recorder(traces, config, recorder)?;
    session.replay_stream(stream, traces, layout)?;
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
        let mut session = Replayer::attributing(&ts, &cfg).unwrap();
        let mid = exec.len() / 2;
        session.replay(&p, &ts, &layout, &exec, 0..mid);
        session.replay(&p, &ts, &layout, &exec, mid..exec.len());
        let split = session.into_attributed();
        assert!(!split.conflicts.misses_between.is_empty());
        assert_eq!(whole, split, "segment boundary must be invisible");
    }

    /// Places the trace of `block` in scratchpad bank 1.
    fn in_bank_1(p: &Program, ts: &TraceSet, block: BlockId) -> Layout {
        let mut placement = vec![None; ts.len()];
        placement[ts.trace_of(block).index()] = Some(1);
        Layout::with_placement(p, ts, &placement, PlacementSemantics::Copy)
    }

    #[test]
    fn block_in_a_missing_bank_is_harmless_until_it_executes() {
        let (p, ts, exec, _, _) = conflict_setup();
        // `filler`, the second block built, is the one the execution
        // never visits.
        let filler = BlockId::from_raw(1);
        assert!(!exec.iter().any(|b| b == filler));
        let cfg = HierarchyConfig::spm_system(CacheConfig::direct_mapped(64, 16), 128);
        let out = simulate(&p, &ts, &in_bank_1(&p, &ts, filler), &exec, &cfg).unwrap();
        let initial = simulate(&p, &ts, &Layout::initial(&p, &ts), &exec, &cfg).unwrap();
        assert_eq!(out, initial, "a copy never fetched changes nothing");
    }

    #[test]
    #[should_panic(expected = "no scratchpad bank")]
    fn executed_block_in_a_missing_bank_panics() {
        let (p, ts, exec, head, _) = conflict_setup();
        let cfg = HierarchyConfig::spm_system(CacheConfig::direct_mapped(64, 16), 128);
        let _ = simulate(&p, &ts, &in_bank_1(&p, &ts, head), &exec, &cfg);
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
