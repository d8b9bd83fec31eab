//! Trace formation (paper §3.2, after Tomiyama & Yasuura).

use casa_ir::{BlockId, Profile, Program, Terminator};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a [`Trace`] within a [`TraceSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TraceId(u32);

impl TraceId {
    /// Create a trace id from a raw index.
    pub fn from_raw(raw: u32) -> Self {
        TraceId(raw)
    }

    /// The raw index of this trace inside [`TraceSet::traces`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Parameters controlling trace formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Upper bound on the *unpadded* size of a trace in bytes. The
    /// paper caps traces at the scratchpad size so any trace can be
    /// allocated whole.
    pub max_trace_size: u32,
    /// Cache line size in bytes; traces are padded to multiples of it.
    pub line_size: u32,
}

impl TraceConfig {
    /// Config for a scratchpad of `spm_size` bytes and the given cache
    /// line size.
    pub fn new(spm_size: u32, line_size: u32) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be 2^k");
        assert!(spm_size >= line_size, "scratchpad smaller than a line");
        TraceConfig {
            max_trace_size: spm_size,
            line_size,
        }
    }
}

/// One trace: a straight-line path of basic blocks connected by
/// fall-through edges, forming a memory object.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Trace {
    id: TraceId,
    blocks: Vec<BlockId>,
    block_size: u32,
    glue_jump: Option<u32>,
}

impl Trace {
    /// This trace's id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The blocks of the trace, in execution (fall-through) order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Size of the appended unconditional jump in bytes, if the trace
    /// needed one (its last block would otherwise fall through to code
    /// outside the trace).
    pub fn glue_jump_size(&self) -> Option<u32> {
        self.glue_jump
    }

    /// Unpadded code size in bytes: block instructions plus the glue
    /// jump. This is the paper's `S(x_i)` — the size charged against
    /// the scratchpad capacity.
    pub fn code_size(&self) -> u32 {
        self.block_size + self.glue_jump.unwrap_or(0)
    }

    /// Size occupied in main memory: [`Self::code_size`] rounded up to
    /// the next multiple of `line_size` with NOP padding.
    pub fn padded_size(&self, line_size: u32) -> u32 {
        round_up(self.code_size(), line_size)
    }

    /// NOP padding bytes added in main memory.
    pub fn padding(&self, line_size: u32) -> u32 {
        self.padded_size(line_size) - self.code_size()
    }

    /// Instruction fetches of this trace under `profile`: the sum over
    /// member blocks of `executions × block length`, plus one fetch of
    /// the glue jump per traversal of the trace-exit fall-through edge.
    ///
    /// This is the conflict-graph vertex weight `f_i` of the paper.
    pub fn fetches(&self, program: &Program, profile: &Profile) -> u64 {
        let mut f: u64 = self
            .blocks
            .iter()
            .map(|&b| profile.fetches(program, b))
            .sum();
        if self.glue_jump.is_some() {
            let last = *self.blocks.last().expect("trace is never empty");
            if let Some(ft) = program.block(last).terminator().fallthrough_successor() {
                f += profile.edge_count(last, ft);
            }
        }
        f
    }

    /// Number of blocks in the trace.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the trace has no blocks (never true for built traces).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The result of trace formation: a partition of all program blocks
/// into traces.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceSet {
    traces: Vec<Trace>,
    block_trace: Vec<TraceId>,
    line_size: u32,
}

impl TraceSet {
    /// All traces, indexed by [`TraceId::index`]. Ordered by the
    /// original program position of their first block, so laying them
    /// out in this order reproduces the source layout.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// The trace containing `block`.
    pub fn trace_of(&self, block: BlockId) -> TraceId {
        self.block_trace[block.index()]
    }

    /// Look up a trace.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this set.
    pub fn trace(&self, id: TraceId) -> &Trace {
        &self.traces[id.index()]
    }

    /// The cache line size traces were padded for.
    pub fn line_size(&self) -> u32 {
        self.line_size
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether there are no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total padded size of all traces (the main-memory image size).
    pub fn total_padded_size(&self) -> u32 {
        self.traces
            .iter()
            .map(|t| t.padded_size(self.line_size))
            .sum()
    }
}

fn round_up(v: u32, to: u32) -> u32 {
    v.div_ceil(to) * to
}

/// Partition `program` into traces.
///
/// Seeds are chosen hottest-first (by block execution count); each
/// seed grows forward along fall-through edges while the target block
/// is unassigned, is in the same function, is the seed's *hottest*
/// continuation, and the grown trace still fits `config.max_trace_size`
/// (including a potential glue jump). Every block ends up in exactly
/// one trace; cold blocks become singleton traces.
///
/// A single block larger than the cap becomes a singleton trace that
/// exceeds `max_trace_size`; such a trace can never be allocated to
/// the scratchpad (the capacity constraint excludes it), matching the
/// paper's rule that only traces smaller than the scratchpad are
/// candidates.
///
/// Formation is wrapped in a `trace.form` span on `obs`, recording how
/// many traces were built, how many needed glue jumps, the total NOP
/// padding, and a histogram of padded trace sizes. Pass
/// [`casa_obs::Obs::disabled`] (free) when observability is not
/// wanted: the result is identical either way.
pub fn form_traces(
    program: &Program,
    profile: &Profile,
    config: TraceConfig,
    obs: &casa_obs::Obs,
) -> TraceSet {
    let span = obs.span("trace.form");
    let ts = form_traces_impl(program, profile, config);
    obs.add("trace.objects", ts.len() as u64);
    obs.add(
        "trace.glue_jumps",
        ts.traces()
            .iter()
            .filter(|t| t.glue_jump_size().is_some())
            .count() as u64,
    );
    obs.add(
        "trace.padding_bytes",
        ts.traces()
            .iter()
            .map(|t| u64::from(t.padding(ts.line_size())))
            .sum(),
    );
    for t in ts.traces() {
        obs.record(
            "trace.object_size",
            u64::from(t.padded_size(ts.line_size())),
        );
    }
    drop(span);
    ts
}

fn form_traces_impl(program: &Program, profile: &Profile, config: TraceConfig) -> TraceSet {
    let n = program.blocks().len();
    let jump_size = program.mode().inst_bytes();
    let mut assigned = vec![false; n];

    // Hottest blocks first; ties by id for determinism.
    let mut seeds: Vec<BlockId> = program.blocks().iter().map(|b| b.id()).collect();
    seeds.sort_by_key(|&b| (std::cmp::Reverse(profile.block_count(b)), b));

    let mut raw_traces: Vec<Vec<BlockId>> = Vec::new();
    for seed in seeds {
        if assigned[seed.index()] {
            continue;
        }
        let mut blocks = vec![seed];
        assigned[seed.index()] = true;
        let mut size = program.block(seed).size();
        // Grow forward along fall-through edges.
        let mut cur = seed;
        loop {
            let term = program.block(cur).terminator();
            let Some(next) = term.fallthrough_successor() else {
                break;
            };
            if assigned[next.index()]
                || program.block(next).function() != program.block(cur).function()
            {
                break;
            }
            // Only extend along the dominant direction out of `cur`:
            // if the branch is taken more often than it falls through,
            // the fall-through block is cold relative to this path.
            if let Terminator::Branch { taken, fallthrough } = term {
                if profile.edge_count(cur, taken) > profile.edge_count(cur, fallthrough) {
                    break;
                }
            }
            let next_size = program.block(next).size();
            // Reserve room for a glue jump: the grown trace may still
            // end in a fall-through.
            if size + next_size + jump_size > config.max_trace_size {
                break;
            }
            blocks.push(next);
            assigned[next.index()] = true;
            size += next_size;
            cur = next;
        }
        raw_traces.push(blocks);
    }

    // Order traces by original program position of their first block.
    raw_traces.sort_by_key(|blocks| blocks[0]);

    let mut traces = Vec::with_capacity(raw_traces.len());
    let mut block_trace = vec![TraceId::from_raw(0); n];
    for (i, blocks) in raw_traces.into_iter().enumerate() {
        let id = TraceId::from_raw(i as u32);
        let block_size: u32 = blocks.iter().map(|&b| program.block(b).size()).sum();
        let last = *blocks.last().expect("non-empty");
        // A glue jump is needed when the last block's terminator can
        // fall through to a block outside this trace.
        let glue_jump = match program.block(last).terminator().fallthrough_successor() {
            Some(ft) if !blocks.contains(&ft) => Some(jump_size),
            _ => None,
        };
        for &b in &blocks {
            block_trace[b.index()] = id;
        }
        traces.push(Trace {
            id,
            blocks,
            block_size,
            glue_jump,
        });
    }

    TraceSet {
        traces,
        block_trace,
        line_size: config.line_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unobserved formation; shadows the canonical 4-arg function so
    /// the many assertions below stay focused on trace shapes.
    fn form_traces(program: &Program, profile: &Profile, config: TraceConfig) -> TraceSet {
        super::form_traces(program, profile, config, &casa_obs::Obs::disabled())
    }
    use casa_ir::inst::{InstKind, IsaMode};
    use casa_ir::ProgramBuilder;

    /// Three blocks in a fall-through chain plus one jump target.
    fn chain_program() -> (Program, [BlockId; 4]) {
        let mut b = ProgramBuilder::new(IsaMode::Arm);
        let f = b.function("f");
        let a = b.block(f);
        let c = b.block(f);
        let d = b.block(f);
        let e = b.block(f);
        b.push_n(a, InstKind::Alu, 2);
        b.fall_through(a, c);
        b.push_n(c, InstKind::Alu, 2);
        b.fall_through(c, d);
        b.push_n(d, InstKind::Alu, 1);
        b.jump(d, e);
        b.push(e, InstKind::Alu);
        b.exit(e);
        (b.finish().unwrap(), [a, c, d, e])
    }

    fn hot_profile(blocks: &[BlockId]) -> Profile {
        let mut p = Profile::new();
        for &b in blocks {
            p.add_block(b, 100);
        }
        p
    }

    #[test]
    fn chain_merges_into_one_trace() {
        let (p, ids) = chain_program();
        let prof = hot_profile(&ids);
        let ts = form_traces(&p, &prof, TraceConfig::new(1024, 16));
        // a+c+d merge (fall-through chain ending in jump); e separate.
        assert_eq!(ts.len(), 2);
        let t0 = ts.trace(ts.trace_of(ids[0]));
        assert_eq!(t0.blocks(), &ids[..3]);
        assert_eq!(ts.trace_of(ids[1]), t0.id());
        assert_eq!(ts.trace_of(ids[2]), t0.id());
        assert_ne!(ts.trace_of(ids[3]), t0.id());
        // Ends in an explicit jump: no glue needed.
        assert_eq!(t0.glue_jump_size(), None);
    }

    #[test]
    fn size_cap_limits_growth() {
        let (p, ids) = chain_program();
        let prof = hot_profile(&ids);
        // a = 8B, c = 8B, d = 8B (incl jump). Cap 20B: a+c=16 +4 glue = 20 fits,
        // adding d (8B) would need 24+ -> stop after c.
        let ts = form_traces(&p, &prof, TraceConfig::new(20, 4));
        let t0 = ts.trace(ts.trace_of(ids[0]));
        assert_eq!(t0.len(), 2);
        // Trace ends at c which falls through to d outside the trace.
        assert_eq!(t0.glue_jump_size(), Some(4));
        assert_eq!(t0.code_size(), 8 + 8 + 4);
    }

    #[test]
    fn padding_rounds_to_line() {
        let (p, ids) = chain_program();
        let prof = hot_profile(&ids);
        let ts = form_traces(&p, &prof, TraceConfig::new(1024, 16));
        let t0 = ts.trace(ts.trace_of(ids[0]));
        // code = 2+2 alu + 1 alu + 1 jump = 6 insts * 4B = 24B -> pad to 32.
        assert_eq!(t0.code_size(), 24);
        assert_eq!(t0.padded_size(16), 32);
        assert_eq!(t0.padding(16), 8);
    }

    #[test]
    fn every_block_assigned_exactly_once() {
        let (p, ids) = chain_program();
        let prof = hot_profile(&ids);
        let ts = form_traces(&p, &prof, TraceConfig::new(64, 16));
        let mut seen = vec![0usize; p.blocks().len()];
        for t in ts.traces() {
            for &b in t.blocks() {
                seen[b.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn fetches_count_glue_jump_traversals() {
        let (p, ids) = chain_program();
        let mut prof = Profile::new();
        prof.add_block(ids[0], 10);
        prof.add_block(ids[1], 10);
        prof.add_edge(ids[0], ids[1], 10);
        // Cap so the trace is only {a}: a falls through to c.
        let ts = form_traces(&p, &prof, TraceConfig::new(12, 4));
        let ta = ts.trace(ts.trace_of(ids[0]));
        assert_eq!(ta.blocks(), &[ids[0]]);
        assert_eq!(ta.glue_jump_size(), Some(4));
        // 10 execs * 2 insts + 10 glue-jump fetches.
        assert_eq!(ta.fetches(&p, &prof), 30);
    }

    #[test]
    fn observed_formation_matches_plain_and_records_metrics() {
        let (p, ids) = chain_program();
        let prof = hot_profile(&ids);
        let config = TraceConfig::new(20, 4);
        let plain = form_traces(&p, &prof, config);

        let obs = casa_obs::Obs::enabled();
        let observed = super::form_traces(&p, &prof, config, &obs);
        assert_eq!(plain, observed);

        let snap = obs.snapshot();
        use casa_obs::MetricValue;
        assert_eq!(
            snap.get("trace.objects"),
            Some(&MetricValue::Counter(observed.len() as u64))
        );
        let glue = observed
            .traces()
            .iter()
            .filter(|t| t.glue_jump_size().is_some())
            .count() as u64;
        assert_eq!(
            snap.get("trace.glue_jumps"),
            Some(&MetricValue::Counter(glue))
        );
        match snap.get("trace.object_size") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, observed.len() as u64),
            other => panic!("expected size histogram, got {other:?}"),
        }
        // One span covering formation.
        assert_eq!(obs.events().len(), 1);

        // A disabled Obs records nothing but returns the same traces.
        let off = casa_obs::Obs::disabled();
        assert_eq!(super::form_traces(&p, &prof, config, &off), plain);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn cold_fallthrough_not_merged_when_branch_prefers_taken() {
        // head branches: taken (hot) vs fallthrough (cold).
        let mut b = ProgramBuilder::new(IsaMode::Arm);
        let f = b.function("f");
        let head = b.block(f);
        let cold = b.block(f);
        let hot = b.block(f);
        b.push(head, InstKind::Alu);
        b.branch(head, hot, cold);
        b.push(cold, InstKind::Alu);
        b.jump(cold, hot);
        b.push(hot, InstKind::Alu);
        b.exit(hot);
        let p = b.finish().unwrap();
        let mut prof = Profile::new();
        prof.add_block(head, 100);
        prof.add_block(hot, 95);
        prof.add_block(cold, 5);
        prof.add_edge(head, hot, 95);
        prof.add_edge(head, cold, 5);
        prof.add_edge(cold, hot, 5);
        let ts = form_traces(&p, &prof, TraceConfig::new(1024, 16));
        // head must NOT merge with its cold fall-through.
        assert_ne!(ts.trace_of(head), ts.trace_of(cold));
    }

    #[test]
    fn trace_order_follows_program_order() {
        let (p, ids) = chain_program();
        // Make e hottest so it seeds first.
        let mut prof = Profile::new();
        prof.add_block(ids[3], 1000);
        prof.add_block(ids[0], 1);
        let ts = form_traces(&p, &prof, TraceConfig::new(1024, 16));
        // Still ordered by first-block position: trace 0 starts at a.
        assert_eq!(ts.traces()[0].blocks()[0], ids[0]);
    }

    #[test]
    fn oversized_block_becomes_unallocatable_singleton() {
        let mut b = ProgramBuilder::new(IsaMode::Arm);
        let f = b.function("f");
        let x = b.block(f);
        b.push_n(x, InstKind::Alu, 100); // 400B > 64B cap
        b.exit(x);
        let p = b.finish().unwrap();
        let prof = Profile::new();
        let ts = form_traces(&p, &prof, TraceConfig::new(64, 16));
        assert_eq!(ts.len(), 1);
        let t = &ts.traces()[0];
        assert_eq!(t.len(), 1);
        // Larger than the cap: the capacity constraint will exclude it.
        assert!(t.code_size() > 64);
    }

    #[test]
    fn total_padded_size_sums() {
        let (p, ids) = chain_program();
        let prof = hot_profile(&ids);
        let ts = form_traces(&p, &prof, TraceConfig::new(1024, 16));
        let sum: u32 = ts.traces().iter().map(|t| t.padded_size(16)).sum();
        assert_eq!(ts.total_padded_size(), sum);
    }
}
