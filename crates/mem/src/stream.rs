//! The line stream: one execution compiled once against a trace set,
//! replayed under any layout of that set.
//!
//! Every main-memory trace slot starts on a multiple of the padding the
//! traces were formed with (`Layout::with_order` advances its cursor by
//! [`casa_trace::Trace::padded_size`]), and a trace's blocks and glue
//! jump keep their offsets inside the slot whether it is copied, moved
//! or reordered. So if memory is cut into aligned *units* of a size
//! that divides the I-cache line, the padding and every loop-cache
//! range bound, the `k`-th unit of object `o` lies at `base_L(o) + k`
//! units in every layout `L`, wholly inside one I-cache line and wholly
//! in or out of each preloaded range. A [`LineStream`] records the
//! execution's units in fetch order, numbered by their place in the
//! initial image; replaying it under a layout maps each unit through
//! one table to that layout's line, or to "scratchpad" or "loop cache",
//! which no lookup reaches.
//!
//! Consecutive repeats of a unit are merged when compiling: a lookup
//! of the line just looked up hits the slot it left first in its set
//! and changes no state under any policy, and skipping the lookups of
//! scratchpad or loop-cache units leaves every other lookup in order.
//! When the units are whole lines the stream is also run-filtered
//! (see [`LineStream::compile`]). Fetch, scratchpad, loop-cache and
//! cycle counts do not depend on history, so the stream carries them as
//! per-unit and per-object totals, counted once when it is compiled.

use crate::cache::CacheConfig;
use crate::hierarchy::InstMemorySystem;
use crate::recorder::Recorder;
use crate::ExecutionTrace;
use casa_ir::{InstKind, Program};
use casa_trace::{Layout, Region, TraceId, TraceSet};
use std::collections::hash_map::DefaultHasher;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// A dense id stored as narrow as its range allows.
pub(crate) trait Id: Copy + Eq {
    /// The id of index `i`, which must fit.
    fn from_index(i: usize) -> Self;
    /// The id as an index.
    fn index(self) -> usize;
}

impl Id for u16 {
    #[inline(always)]
    fn from_index(i: usize) -> Self {
        i as u16
    }
    #[inline(always)]
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl Id for u32 {
    #[inline(always)]
    fn from_index(i: usize) -> Self {
        i as u32
    }
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

/// A sequence of dense ids, in 16 bits each while every id fits.
#[derive(Debug, Clone)]
pub(crate) enum Ids {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Ids {
    /// An empty sequence for ids below `bound`.
    pub(crate) fn for_bound(bound: usize) -> Ids {
        if bound <= usize::from(u16::MAX) + 1 {
            Ids::Narrow(Vec::new())
        } else {
            Ids::Wide(Vec::new())
        }
    }

    /// Append `id`, widening the sequence if it does not fit.
    #[inline]
    pub(crate) fn push(&mut self, id: u32) {
        match self {
            Ids::Narrow(v) => match u16::try_from(id) {
                Ok(id) => v.push(id),
                Err(_) => {
                    let mut wide: Vec<u32> = v.iter().map(|&x| u32::from(x)).collect();
                    wide.push(id);
                    *self = Ids::Wide(wide);
                }
            },
            Ids::Wide(v) => v.push(id),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Ids::Narrow(v) => v.len(),
            Ids::Wide(v) => v.len(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, pos: usize) -> Option<u32> {
        match self {
            Ids::Narrow(v) => v.get(pos).map(|&x| u32::from(x)),
            Ids::Wide(v) => v.get(pos).copied(),
        }
    }
}

/// The map value of a unit of a scratchpad-resident object.
pub(crate) const SPM: u32 = u32::MAX;
/// The map value of a unit the loop cache serves; every value below
/// it is an I-cache line id.
pub(crate) const LOOP: u32 = u32::MAX - 1;

/// What a stream is compiled for: its unit size, and the I-cache
/// geometry its run filter assumes.
///
/// The unit is the largest power of two `g` such that every aligned
/// `g`-byte unit of main memory is fetched one way in any layout of
/// the trace set: `g` divides the I-cache line, the trace padding (and
/// with it every slot start) and every loop-cache range bound.
///
/// When the unit is a whole line, the stream is also run-filtered (see
/// [`LineStream::compile`]) for the cache's line size and set count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Target {
    /// Unit size in bytes.
    granule: u32,
    /// Line size and set count the run filter assumes, if it is on.
    filter: Option<(u32, u32)>,
}

impl Target {
    /// The target of a `cache` with loop-cache `ranges`, for traces
    /// padded to `padding` bytes.
    pub(crate) fn of(cache: &CacheConfig, padding: u32, ranges: &[(u32, u32)]) -> Target {
        let granule = ranges
            .iter()
            .flat_map(|&(s, e)| [s, e])
            .filter(|&b| b != 0)
            .fold(cache.line_size.min(padding), |g, b| {
                g.min(1 << b.trailing_zeros())
            });
        Target {
            granule,
            filter: (granule == cache.line_size).then(|| (cache.line_size, cache.num_sets())),
        }
    }

    /// Whether a stream compiled for `self` replays exactly on a
    /// system whose target is `system` and whose cache is `cache`: its
    /// units are no coarser, and a run filter's line size and set count
    /// still hold.
    fn serves(self, system: Target, cache: &CacheConfig) -> bool {
        system.granule >= self.granule
            && self
                .filter
                .is_none_or(|(line, sets)| cache.line_size == line && cache.num_sets() >= sets)
    }
}

/// A layout the stream cannot replay, found by
/// [`crate::Replayer::replay_stream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The trace set differs from the one the stream was compiled for.
    OtherTraceSet,
    /// The memory system does not fit the stream: it tells apart
    /// addresses inside one of the stream's units (a loop-cache range
    /// bound or an I-cache line finer than the units), or its I-cache
    /// has another line size or fewer sets than the stream's run filter
    /// assumes.
    OtherSystem,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::OtherTraceSet => {
                write!(f, "line stream was compiled for another trace set")
            }
            StreamError::OtherSystem => {
                write!(f, "line stream was compiled for another memory system")
            }
        }
    }
}

impl Error for StreamError {}

/// An execution compiled against one [`TraceSet`]: the units its
/// fetches touch in order, consecutive repeats merged and run-filtered,
/// plus the history-free totals every replay folds in. Built by
/// [`LineStream::compile`]; replayed by [`crate::simulate_stream`] or
/// [`crate::Replayer::replay_stream`] under any layout of the same
/// trace set.
#[derive(Debug, Clone)]
pub struct LineStream {
    /// Fingerprint of the trace set compiled for.
    traces: u64,
    /// What the stream was compiled for.
    target: Target,
    /// `log2` of the unit size in bytes; unit `u` is initial-image
    /// bytes `u << shift ..`.
    shift: u32,
    /// Unit ids in fetch order, consecutive repeats merged and
    /// run-filtered.
    units: Ids,
    /// Per unit: the object whose slot holds it.
    pub(crate) unit_obj: Vec<u32>,
    /// Per unit: the fetches whose address lies in it, glue jumps
    /// included.
    pub(crate) unit_fetches: Vec<u64>,
    /// Per object and one past the last: the first unit of its slot in
    /// the initial image.
    first_unit: Vec<u32>,
    /// Per object: its fetches.
    pub(crate) obj_fetches: Vec<u64>,
    /// Per object with fetches: the highest offset in the object a
    /// fetch reads (the scratchpad bank check).
    pub(crate) obj_last: Vec<u32>,
    /// Base cycles of every fetched instruction, glue jumps included.
    pub(crate) base_cycles: u64,
}

/// How one static block is fetched in the initial image.
#[derive(Debug, Clone, Copy)]
struct StaticBlock {
    /// The block's units: `pieces.0..pieces.1` of the piece table.
    pieces: (u32, u32),
    /// Raw id of the fall-through successor whose execution next
    /// fetches the block's trace-exit glue jump, or `u32::MAX`.
    glue_next: u32,
    /// The glue jump's unit.
    glue_unit: u32,
}

/// A block's static totals, read once per compile from its count.
#[derive(Debug, Clone, Copy)]
struct BlockTotals {
    obj: u32,
    fetches: u32,
    cycles: u32,
    /// Offset in the object of the last instruction.
    last: u32,
    /// Offset in the object of the glue jump.
    glue: u32,
}

impl LineStream {
    /// Compile all of `exec` for `traces` and the memory system
    /// `config` describes: its units are fine enough for its I-cache
    /// line and loop-cache preload bounds, and its run filter fits its
    /// I-cache. The stream then replays any layout of `traces` on any
    /// system with the same I-cache line size, at least as many sets
    /// and no finer preload bounds.
    ///
    /// When the units are whole lines, the stream is *run-filtered*:
    /// within one run of an object (consecutive fetches of it), a block
    /// already fetched in the run adds no lookups if the object spans
    /// at most as many lines as the cache has sets. The object's lines
    /// then sit in distinct sets in every layout, so since the block's
    /// earlier lookups only other sets were touched, and each of its
    /// lines still sits first in its set: the dropped lookups are
    /// first-slot hits, which change no state under any policy.
    ///
    /// # Panics
    ///
    /// Panics if `exec` names blocks `program` does not have, or the
    /// main image does not fit 32-bit line ids.
    pub fn compile(
        program: &Program,
        traces: &TraceSet,
        exec: &ExecutionTrace,
        config: &crate::HierarchyConfig,
    ) -> LineStream {
        let ranges: &[(u32, u32)] = match config.loop_cache {
            Some(_) => &config.loop_cache_preload,
            None => &[],
        };
        let target = Target::of(&config.cache, traces.line_size(), ranges);
        LineStream::compile_range(program, traces, exec, 0..exec.len(), target)
    }

    /// Compile `exec[range]` for `traces` and `target`, whose unit
    /// divides the trace padding. Glue-jump detection looks one block
    /// past the end of the range.
    pub(crate) fn compile_range(
        program: &Program,
        traces: &TraceSet,
        exec: &ExecutionTrace,
        range: Range<usize>,
        target: Target,
    ) -> LineStream {
        let granule = target.granule;
        assert!(range.end <= exec.len(), "segment out of bounds");
        assert!(
            granule.is_power_of_two() && traces.line_size().is_multiple_of(granule),
            "unit of {granule} B does not divide the trace padding"
        );
        let shift = granule.trailing_zeros();
        let mut first_unit = Vec::with_capacity(traces.len() + 1);
        let mut image = 0u32;
        for t in traces.traces() {
            first_unit.push(image >> shift);
            image = image
                .checked_add(t.padded_size(traces.line_size()))
                .filter(|&end| end < LOOP)
                .expect("main image fits 32-bit line ids");
        }
        first_unit.push(image >> shift);
        let n_units = (image >> shift) as usize;

        // Per static block: its units, glue jump and totals.
        let n_blocks = program.blocks().len();
        let mut statics = vec![
            StaticBlock {
                pieces: (0, 0),
                glue_next: u32::MAX,
                glue_unit: 0,
            };
            n_blocks
        ];
        let mut totals = vec![
            BlockTotals {
                obj: 0,
                fetches: 0,
                cycles: 0,
                last: 0,
                glue: 0,
            };
            n_blocks
        ];
        let mut piece_units: Vec<u32> = Vec::new();
        let mut piece_fetches: Vec<u32> = Vec::new();
        for (t, &first) in traces.traces().iter().zip(&first_unit) {
            let base = first << shift;
            let mut off = 0u32;
            for &id in t.blocks() {
                let block = program.block(id);
                let start = piece_units.len() as u32;
                let (mut cycles, mut last) = (0, off);
                for inst in block.insts() {
                    let unit = (base + off) >> shift;
                    if piece_units.len() as u32 > start && piece_units.last() == Some(&unit) {
                        *piece_fetches.last_mut().expect("a piece") += 1;
                    } else {
                        piece_units.push(unit);
                        piece_fetches.push(1);
                    }
                    cycles += inst.kind().base_cycles();
                    last = off;
                    off += inst.size();
                }
                let b = id.index();
                statics[b].pieces = (start, piece_units.len() as u32);
                totals[b] = BlockTotals {
                    obj: t.id().index() as u32,
                    fetches: block.insts().len() as u32,
                    cycles,
                    last,
                    glue: 0,
                };
            }
            if let (Some(_), Some(&id)) = (t.glue_jump_size(), t.blocks().last()) {
                if let Some(next) = program.block(id).terminator().fallthrough_successor() {
                    let b = id.index();
                    statics[b].glue_next = next.index() as u32;
                    statics[b].glue_unit = (base + off) >> shift;
                    totals[b].glue = off;
                }
            }
        }

        // Per block: its object, and whether the run filter drops its
        // repeats (the object spans at most as many lines as sets).
        let filtered: Vec<bool> = match target.filter {
            Some((line, sets)) => traces
                .traces()
                .iter()
                .map(|t| t.padded_size(traces.line_size()) / line <= sets)
                .collect(),
            None => vec![false; traces.len()],
        };
        let objects: Vec<(u32, bool)> = totals
            .iter()
            .map(|t| (t.obj, filtered[t.obj as usize]))
            .collect();
        let mut counts = vec![0u64; n_blocks];
        let mut glue_counts = vec![0u64; n_blocks];
        let mut walk = Emit {
            statics: &statics,
            objects: &objects,
            piece_units: &piece_units,
            counts: &mut counts,
            glue_counts: &mut glue_counts,
        };
        let units = match (&exec.ids, n_units <= usize::from(u16::MAX)) {
            (Ids::Narrow(e), true) => Ids::Narrow(walk.run(e, range)),
            (Ids::Wide(e), true) => Ids::Narrow(walk.run(e, range)),
            (Ids::Narrow(e), false) => Ids::Wide(walk.run(e, range)),
            (Ids::Wide(e), false) => Ids::Wide(walk.run(e, range)),
        };

        // Fold the history-free totals from the block counts.
        let n_objects = traces.len();
        let mut unit_obj = vec![0u32; n_units];
        for (o, w) in first_unit.windows(2).enumerate() {
            unit_obj[w[0] as usize..w[1] as usize].fill(o as u32);
        }
        let mut unit_fetches = vec![0u64; n_units];
        let mut obj_fetches = vec![0u64; n_objects];
        let mut obj_last = vec![0u32; n_objects];
        let mut base_cycles = 0u64;
        let jump_cycles = u64::from(InstKind::Jump.base_cycles());
        for (b, (s, t)) in statics.iter().zip(&totals).enumerate() {
            let (c, g) = (counts[b], glue_counts[b]);
            let o = t.obj as usize;
            if c > 0 {
                for p in s.pieces.0 as usize..s.pieces.1 as usize {
                    unit_fetches[piece_units[p] as usize] += c * u64::from(piece_fetches[p]);
                }
                obj_fetches[o] += c * u64::from(t.fetches);
                base_cycles += c * u64::from(t.cycles);
                if t.fetches > 0 {
                    obj_last[o] = obj_last[o].max(t.last);
                }
            }
            if g > 0 {
                unit_fetches[s.glue_unit as usize] += g;
                obj_fetches[o] += g;
                base_cycles += g * jump_cycles;
                obj_last[o] = obj_last[o].max(t.glue);
            }
        }
        LineStream {
            traces: fingerprint(traces),
            target,
            shift,
            units,
            unit_obj,
            unit_fetches,
            first_unit,
            obj_fetches,
            obj_last,
            base_cycles,
        }
    }

    /// Lookups in the stream: the compiled units after merging
    /// consecutive repeats and run filtering.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the compiled range fetched nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unit size in bytes.
    pub fn granule(&self) -> u32 {
        1 << self.shift
    }

    /// Check that this stream can replay a layout of `traces` on a
    /// memory system of target `system` and I-cache `cache`.
    pub(crate) fn check(
        &self,
        traces: &TraceSet,
        system: Target,
        cache: &CacheConfig,
    ) -> Result<(), StreamError> {
        if fingerprint(traces) != self.traces {
            return Err(StreamError::OtherTraceSet);
        }
        if !self.target.serves(system, cache) {
            return Err(StreamError::OtherSystem);
        }
        Ok(())
    }

    /// Per unit, where `layout` fetches it on `system`: an I-cache line
    /// id, [`LOOP`] or [`SPM`].
    pub(crate) fn remap<R: Recorder>(
        &self,
        layout: &Layout,
        system: &InstMemorySystem<R>,
    ) -> Vec<u32> {
        let mut map = vec![SPM; self.unit_obj.len()];
        for (o, w) in self.first_unit.windows(2).enumerate() {
            let loc = layout.trace_location(TraceId::from_raw(o as u32));
            if loc.region != Region::Main {
                continue;
            }
            for u in w[0]..w[1] {
                let addr = ((u - w[0]) << self.shift) + loc.addr;
                map[u as usize] = if system.in_loop_cache(addr) {
                    LOOP
                } else {
                    system.cache().line_of(addr)
                };
            }
        }
        map
    }

    /// The compiled units, in fetch order.
    pub(crate) fn units(&self) -> &Ids {
        &self.units
    }
}

/// Units copied per block without a loop; longer blocks take one.
const CHUNK: usize = 8;

/// What [`Emit::run`] reads per executed block.
#[derive(Clone, Copy)]
struct EmitBlock<U> {
    /// The block's first units, padded to [`CHUNK`].
    head: [U; CHUNK],
    /// How many units the block has.
    n: u32,
    /// Its last unit.
    last: U,
    /// Raw id of the successor that fetches the glue jump, or
    /// `u32::MAX`.
    glue_next: u32,
    /// The glue jump's unit.
    glue: U,
    /// The block's object.
    obj: u32,
    /// Whether the run filter drops repeats in the object's runs.
    filtered: bool,
}

/// The compile walk: its inputs and the block counts it tallies.
struct Emit<'a> {
    statics: &'a [StaticBlock],
    /// Per block: its object and whether the run filter applies.
    objects: &'a [(u32, bool)],
    piece_units: &'a [u32],
    counts: &'a mut [u64],
    glue_counts: &'a mut [u64],
}

impl Emit<'_> {
    /// Count every block execution and glue jump of `ids[range]`, and
    /// return the units they fetch, consecutive repeats merged and
    /// run-filtered.
    ///
    /// A block appends its first [`CHUNK`] units unconditionally and
    /// cuts the vector back to the ones it has; when its first unit
    /// repeats the last one written, the copy starts on that entry
    /// instead, which holds the same id, so no branch decides the
    /// merge. The run filter works per block: a block of a filtered
    /// object that was already fetched in the current run appends
    /// nothing, since all its units were looked up in the run. (Merging
    /// across the lookups it drops stays exact: in a filtered run any
    /// repeated unit is a first-slot hit.)
    fn run<E: Id, U: Id>(&mut self, ids: &[E], range: Range<usize>) -> Vec<U> {
        let unit = |p: usize| U::from_index(self.piece_units[p] as usize);
        let table: Vec<EmitBlock<U>> = self
            .statics
            .iter()
            .zip(self.objects)
            .map(|(s, &(obj, filtered))| {
                let (start, end) = (s.pieces.0 as usize, s.pieces.1 as usize);
                let mut head = [U::from_index(0); CHUNK];
                for (h, p) in head.iter_mut().zip(start..end) {
                    *h = unit(p);
                }
                EmitBlock {
                    head,
                    n: s.pieces.1 - s.pieces.0,
                    last: if end > start { unit(end - 1) } else { head[0] },
                    glue_next: s.glue_next,
                    glue: U::from_index(s.glue_unit as usize),
                    obj,
                    filtered,
                }
            })
            .collect();
        let mut out: Vec<U> = Vec::new();
        // No unit has this id: units number fewer than the id type holds.
        let none = U::from_index(usize::MAX);
        let mut last = none;
        // Runs are numbered from 1; a block marked with the current run
        // was fetched in it, so all its units were looked up in it.
        let (mut run, mut run_obj) = (0u32, u32::MAX);
        let mut block_seen = vec![0u32; table.len()];
        for pos in range {
            let b = ids[pos].index();
            self.counts[b] += 1;
            let e = &table[b];
            let n = e.n as usize;
            if e.obj != run_obj {
                (run, run_obj, last) = (run + 1, e.obj, none);
            }
            if !(e.filtered && block_seen[b] == run) {
                block_seen[b] = run;
                let repeat = usize::from((e.head[0] == last) & (n != 0));
                let at = out.len() - repeat;
                out.truncate(at);
                out.extend_from_slice(&e.head);
                if n > CHUNK {
                    let start = self.statics[b].pieces.0 as usize;
                    out.truncate(at);
                    out.extend((start..start + n).map(unit));
                }
                out.truncate(at + n);
                last = if n != 0 { e.last } else { last };
            }
            if e.glue_next != u32::MAX
                && ids.get(pos + 1).map(|e| e.index()) == Some(e.glue_next as usize)
            {
                self.glue_counts[b] += 1;
                if e.glue != last {
                    out.push(e.glue);
                    last = e.glue;
                }
            }
        }
        out.shrink_to_fit();
        out
    }
}

/// A fingerprint of everything about `traces` a stream depends on.
fn fingerprint(traces: &TraceSet) -> u64 {
    let mut h = DefaultHasher::new();
    traces.hash(&mut h);
    h.finish()
}
