//! Differential test of the compiled fetch engine.
//!
//! `simulate` and segmented `Replayer` sessions compile a line stream
//! per replay call, and `simulate_stream` and `simulate_stream_observed`
//! replay one compiled stream under many layouts and memory systems:
//! each looks up the stream's units through a per-layout remap and folds
//! scratchpad, loop-cache, fetch, hit and cycle counts in from the
//! stream's totals. The reference replay here does none of that: it
//! issues one `InstMemorySystem::fetch` per `Layout::inst_locations`
//! entry, applies the trace-exit glue-jump rule itself and attributes
//! conflict misses through its own `(set, tag)` eviction map. Every
//! counter, per-object vector, base cycle and per-set recorder tally
//! must agree, on generated programs in ARM and Thumb mode, under
//! copy, move and reordered placements, every replacement policy at 1,
//! 2 and 4 ways, with and without an L2, with loop-cache preloads of
//! whole trace slots and ones that start and end mid-line, and across
//! layout switches, where the counters must also be complete after
//! every segment. Each case replays twice: attributing, as a profiling
//! replay does (`simulate`, `simulate_stream`,
//! `Replayer::attributing`), where every conflict edge and cold miss
//! must agree too; and count-only, as a final simulation does (through
//! `NullRecorder` and `SetStatsRecorder`), which leaves the conflicts
//! empty.

use casa::ir::inst::{InstKind, IsaMode};
use casa::ir::BlockId;
use casa::ir::Program;
use casa::mem::cache::{CacheConfig, ReplacementPolicy};
use casa::mem::conflict::RawConflicts;
use casa::mem::hierarchy::FetchEvent;
use casa::mem::{
    simulate, simulate_stream, simulate_stream_observed, ExecutionTrace, FetchStats,
    HierarchyConfig, InstMemorySystem, LineStream, NullRecorder, Replayer, SetStatsRecorder,
    SimOutcome, StreamError,
};
use casa::obs::Obs;
use casa::trace::layout::PlacementSemantics;
use casa::trace::{form_traces, Layout, Location, TraceConfig, TraceId, TraceSet};
use casa::workloads::generator::{random_spec, GeneratorConfig};
use casa::workloads::Walker;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;

const LINE: u32 = 16;

/// The reference: one fetch per instruction, no runs.
struct Reference {
    sys: InstMemorySystem<SetStatsRecorder>,
    cache: CacheConfig,
    fetches: Vec<u64>,
    hits: Vec<u64>,
    misses: Vec<u64>,
    spm: Vec<u64>,
    lc: Vec<u64>,
    evicted_by: HashMap<(u32, u32), usize>,
    misses_between: HashMap<(usize, usize), u64>,
    cold: Vec<u64>,
    base_cycles: u64,
}

impl Reference {
    fn new(n: usize, config: &HierarchyConfig) -> Self {
        let recorder = SetStatsRecorder::new(config.cache.num_sets() as usize);
        Reference {
            sys: InstMemorySystem::with_recorder(config, recorder).expect("valid preload"),
            cache: config.cache,
            fetches: vec![0; n],
            hits: vec![0; n],
            misses: vec![0; n],
            spm: vec![0; n],
            lc: vec![0; n],
            evicted_by: HashMap::new(),
            misses_between: HashMap::new(),
            cold: vec![0; n],
            base_cycles: 0,
        }
    }

    fn replay(
        &mut self,
        program: &Program,
        traces: &TraceSet,
        layout: &Layout,
        exec: &ExecutionTrace,
        range: Range<usize>,
    ) {
        for pos in range {
            let block = exec.get(pos).expect("in range");
            let tid = traces.trace_of(block);
            let ti = tid.index();
            for (loc, _) in layout.inst_locations(program, traces, block) {
                self.fetch(ti, loc);
            }
            for inst in program.block(block).insts() {
                self.base_cycles += u64::from(inst.kind().base_cycles());
            }
            let trace = traces.trace(tid);
            if trace.glue_jump_size().is_some() && trace.blocks().last() == Some(&block) {
                let ft = program.block(block).terminator().fallthrough_successor();
                if ft.is_some() && ft == exec.get(pos + 1) {
                    self.fetch(ti, layout.glue_location(tid).expect("glue placed"));
                    self.base_cycles += u64::from(InstKind::Jump.base_cycles());
                }
            }
        }
    }

    fn fetch(&mut self, ti: usize, loc: Location) {
        self.fetches[ti] += 1;
        match self.sys.fetch(loc) {
            FetchEvent::Spm { .. } => self.spm[ti] += 1,
            FetchEvent::LoopCache => self.lc[ti] += 1,
            FetchEvent::Cache(a) if a.hit => self.hits[ti] += 1,
            FetchEvent::Cache(a) => {
                self.misses[ti] += 1;
                let tag = self.cache.tag(loc.addr);
                match self.evicted_by.get(&(a.set, tag)) {
                    Some(&by) => *self.misses_between.entry((ti, by)).or_insert(0) += 1,
                    None => self.cold[ti] += 1,
                }
                if let Some(et) = a.evicted_tag {
                    self.evicted_by.insert((a.set, et), ti);
                }
                self.evicted_by.remove(&(a.set, tag));
            }
        }
    }

    /// Assert that an attributing replay's `out` (and, when given, the
    /// engine's recorder) match this replay exactly.
    fn assert_matches(&self, out: &SimOutcome, recorder: Option<&SetStatsRecorder>, case: &str) {
        self.assert_counted(out, recorder, case);
        assert_eq!(
            out.conflicts.misses_between, self.misses_between,
            "{case}: misses_between"
        );
        assert_eq!(out.conflicts.cold_misses, self.cold, "{case}: cold_misses");
    }

    /// Assert that a count-only replay's `out` (and, when given, the
    /// engine's recorder) match this replay in every field but the
    /// conflicts, which it leaves empty.
    fn assert_counts(&self, out: &SimOutcome, recorder: Option<&SetStatsRecorder>, case: &str) {
        self.assert_counted(out, recorder, case);
        assert_eq!(out.conflicts, RawConflicts::default(), "{case}: conflicts");
    }

    fn assert_counted(&self, out: &SimOutcome, recorder: Option<&SetStatsRecorder>, case: &str) {
        let mut stats = self.sys.stats();
        stats.overlay_copy_words = out.stats.overlay_copy_words;
        assert_eq!(out.stats, stats, "{case}: stats");
        assert_eq!(out.trace_fetches, self.fetches, "{case}: trace_fetches");
        assert_eq!(out.trace_hits, self.hits, "{case}: trace_hits");
        assert_eq!(out.trace_misses, self.misses, "{case}: trace_misses");
        assert_eq!(out.trace_spm, self.spm, "{case}: trace_spm");
        assert_eq!(out.trace_lc, self.lc, "{case}: trace_lc");
        assert_eq!(out.base_cycles, self.base_cycles, "{case}: base_cycles");
        if let Some(r) = recorder {
            assert_eq!(r, self.sys.recorder(), "{case}: per-set recorder tallies");
        }
    }
}

/// A generated program with one recorded execution and its traces.
struct Case {
    program: Program,
    exec: ExecutionTrace,
    traces: TraceSet,
}

fn case(seed: u64, mode: IsaMode) -> Case {
    // Bigger than the default shapes, so that small caches thrash and
    // conflict misses, evictions and victim choices all occur.
    let shape = GeneratorConfig {
        max_functions: 5,
        max_elements: 5,
        max_depth: 3,
        max_straight: 12,
        max_trips: 6,
    };
    let mut spec = random_spec(seed, &shape);
    spec.mode = mode;
    let w = spec.compile();
    let (exec, profile) = Walker::new(&w.program, &w.behaviors)
        .run(seed)
        .expect("generated programs terminate");
    let cap = [48, 64, 128][seed as usize % 3];
    let traces = form_traces(
        &w.program,
        &profile,
        TraceConfig::new(cap, LINE),
        &Obs::disabled(),
    );
    Case {
        program: w.program,
        exec,
        traces,
    }
}

fn cache(size: u32, associativity: u32, policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig {
        size,
        line_size: LINE,
        associativity,
        policy,
    }
}

/// Roughly a third of the traces in the scratchpad, over two banks.
fn placement(rng: &mut SmallRng, n: usize) -> Vec<Option<u8>> {
    (0..n)
        .map(|_| match rng.gen_range(0..6) {
            0 => Some(0),
            1 => Some(1),
            _ => None,
        })
        .collect()
}

/// Up to four preload ranges, each starting up to 14 bytes past an
/// executed block at 2-byte granularity and 2 to 80 bytes long, so
/// starts and ends fall anywhere in a line.
fn preload(rng: &mut SmallRng, c: &Case, layout: &Layout) -> Vec<(u32, u32)> {
    (0..rng.gen_range(1..=4))
        .map(|_| {
            let block = c
                .exec
                .get(rng.gen_range(0..c.exec.len()))
                .expect("in range");
            let start = layout.block_location(&c.traces, block).addr + rng.gen_range(0..8u32) * 2;
            (start, start + rng.gen_range(1..=40u32) * 2)
        })
        .collect()
}

fn spm_system(cache: CacheConfig, layouts: &[&Layout]) -> HierarchyConfig {
    let banks = layouts
        .iter()
        .map(|l| l.spm_used().len())
        .max()
        .unwrap_or(1);
    let spm_sizes = (0..banks)
        .map(|b| {
            let used = layouts.iter().filter_map(|l| l.spm_used().get(b)).max();
            used.copied().unwrap_or(0).max(4)
        })
        .collect();
    HierarchyConfig {
        spm_sizes,
        ..HierarchyConfig::cache_only(cache)
    }
}

fn set_stats(config: &HierarchyConfig) -> SetStatsRecorder {
    SetStatsRecorder::new(config.cache.num_sets() as usize)
}

/// `simulate`, which attributes, against the reference in every field;
/// then the count-only replays of a final simulation, from one stream
/// compiled for `config` through `NullRecorder` and `SetStatsRecorder`,
/// in every field but the conflicts. Returns the checked outcome's
/// counters.
fn check(c: &Case, layout: &Layout, config: &HierarchyConfig, name: &str) -> FetchStats {
    let mut reference = Reference::new(c.traces.len(), config);
    reference.replay(&c.program, &c.traces, layout, &c.exec, 0..c.exec.len());
    let out = simulate(&c.program, &c.traces, layout, &c.exec, config).expect("simulates");
    reference.assert_matches(&out, None, name);
    assert!(out.check_fetch_identity(), "{name}: eq. (4)");
    let stream = LineStream::compile(&c.program, &c.traces, &c.exec, config);
    let (counted, _) = simulate_stream_observed(&stream, &c.traces, layout, config, NullRecorder)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    reference.assert_counts(&counted, None, &format!("{name} count-only"));
    let (counted, recorder) =
        simulate_stream_observed(&stream, &c.traces, layout, config, set_stats(config))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    reference.assert_counts(&counted, Some(&recorder), &format!("{name} set stats"));
    out.stats
}

fn policies(seed: u64) -> [ReplacementPolicy; 4] {
    [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::RoundRobin,
        ReplacementPolicy::Random(seed),
    ]
}

#[test]
fn every_policy_and_associativity_matches_per_fetch_replay() {
    let mut total = FetchStats::new();
    // Seeds 7 to 10 execute 1.3 k to 21 k fetches (most smaller seeds
    // exit after a few dozen).
    for seed in 7..11u64 {
        let c = case(seed, IsaMode::Arm);
        let mut rng = SmallRng::seed_from_u64(seed);
        let place = placement(&mut rng, c.traces.len());
        let copy = Layout::with_placement(&c.program, &c.traces, &place, PlacementSemantics::Copy);
        for policy in policies(seed) {
            for ways in [1, 2, 4] {
                let config = spm_system(cache(64, ways, policy), &[&copy]);
                total += check(
                    &c,
                    &copy,
                    &config,
                    &format!("seed {seed} {policy:?} {ways}-way"),
                );
            }
        }
    }
    assert!(
        total.cache_misses > 1000 && total.spm_accesses > 0,
        "{total:?}"
    );
}

#[test]
fn placements_isa_modes_and_l2_match_per_fetch_replay() {
    let mut total = FetchStats::new();
    for seed in 0..12u64 {
        for mode in [IsaMode::Arm, IsaMode::Thumb] {
            let c = case(seed, mode);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
            let policy = policies(seed)[seed as usize % 4];
            let ways = [1, 2, 4][seed as usize % 3];
            let mut l1 = HierarchyConfig::cache_only(cache(256, ways, policy));
            if seed % 2 == 1 {
                l1 = l1.with_l2(cache(1024, 2, ReplacementPolicy::Lru));
            }
            let place = placement(&mut rng, c.traces.len());
            for semantics in [PlacementSemantics::Copy, PlacementSemantics::Move] {
                let layout = Layout::with_placement(&c.program, &c.traces, &place, semantics);
                let config = HierarchyConfig {
                    spm_sizes: spm_system(l1.cache, &[&layout]).spm_sizes,
                    ..l1.clone()
                };
                total += check(
                    &c,
                    &layout,
                    &config,
                    &format!("seed {seed} {mode:?} {semantics:?} l2={}", l1.l2.is_some()),
                );
            }
        }
    }
    assert!(
        total.spm_accesses > 0 && total.l2_misses > 0 && total.l2_hits > 0,
        "{total:?}"
    );
}

#[test]
fn mid_line_loop_cache_preloads_match_per_fetch_replay() {
    let mut total = FetchStats::new();
    for seed in 0..12u64 {
        for mode in [IsaMode::Arm, IsaMode::Thumb] {
            let c = case(seed, mode);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x1c);
            let layout = Layout::initial(&c.program, &c.traces);
            let ranges = preload(&mut rng, &c, &layout);
            let capacity = ranges.iter().map(|(s, e)| e - s).sum();
            let ways = [1, 2, 4][seed as usize % 3];
            let config = HierarchyConfig::loop_cache_system(
                cache(64, ways, policies(seed)[seed as usize % 4]),
                capacity,
                4,
                ranges.clone(),
            );
            total += check(
                &c,
                &layout,
                &config,
                &format!("seed {seed} {mode:?} lc {ranges:?}"),
            );
        }
    }
    assert!(
        total.loop_cache_accesses > 1000 && total.cache_misses > 0,
        "{total:?}"
    );
}

#[test]
fn segmented_replay_with_layout_switches_matches_per_fetch_replay() {
    for seed in 0..8u64 {
        let c = case(seed, [IsaMode::Arm, IsaMode::Thumb][seed as usize % 2]);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e9);
        let a = Layout::with_placement(
            &c.program,
            &c.traces,
            &placement(&mut rng, c.traces.len()),
            PlacementSemantics::Copy,
        );
        let b = Layout::with_placement(
            &c.program,
            &c.traces,
            &placement(&mut rng, c.traces.len()),
            PlacementSemantics::Move,
        );
        let ways = [1, 2, 4][seed as usize % 3];
        let config = spm_system(
            cache(128, ways, policies(seed)[seed as usize % 4]),
            &[&a, &b],
        );
        let len = c.exec.len();
        let segments = [
            (&a, 0..len / 3),
            (&b, len / 3..2 * len / 3),
            (&a, 2 * len / 3..len),
        ];
        let mut reference = Reference::new(c.traces.len(), &config);
        let mut session = Replayer::attributing(&c.traces, &config).expect("valid config");
        let mut counting =
            Replayer::with_recorder(&c.traces, &config, set_stats(&config)).expect("valid config");
        for (k, (layout, range)) in segments.into_iter().enumerate() {
            reference.replay(&c.program, &c.traces, layout, &c.exec, range.clone());
            session.replay(&c.program, &c.traces, layout, &c.exec, range.clone());
            counting.replay(&c.program, &c.traces, layout, &c.exec, range);
            for s in [session.stats(), counting.stats()] {
                assert_eq!(
                    s,
                    reference.sys.stats(),
                    "seed {seed} segment {k}: a replay call leaves its counters complete"
                );
            }
        }
        session.charge_copy_words(7);
        counting.charge_copy_words(7);
        let out = session.into_attributed();
        assert_eq!(out.stats.overlay_copy_words, 7);
        reference.assert_matches(&out, None, &format!("seed {seed} segmented"));
        let (counted, recorder) = counting.into_outcome_and_recorder();
        reference.assert_counts(
            &counted,
            Some(&recorder),
            &format!("seed {seed} segmented count-only"),
        );
    }
}

/// Loop-cache preload ranges.
type Preload = Vec<(u32, u32)>;

/// A random permutation of the trace ids.
fn shuffled(rng: &mut SmallRng, n: usize) -> Vec<TraceId> {
    let mut order: Vec<TraceId> = (0..n as u32).map(TraceId::from_raw).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Up to four executed traces' whole slots in `layout`.
fn whole_slots(rng: &mut SmallRng, c: &Case, layout: &Layout) -> Vec<(u32, u32)> {
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    for _ in 0..4 {
        let block = c
            .exec
            .get(rng.gen_range(0..c.exec.len()))
            .expect("in range");
        let t = c.traces.trace_of(block);
        let start = layout.trace_location(t).addr;
        let range = (start, start + c.traces.trace(t).padded_size(LINE));
        if !ranges.contains(&range) {
            ranges.push(range);
        }
    }
    ranges
}

#[test]
fn one_stream_replays_many_layouts_and_systems() {
    let mut total = FetchStats::new();
    for seed in 7..10u64 {
        let c = case(seed, [IsaMode::Arm, IsaMode::Thumb][seed as usize % 2]);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x57ea);
        // Compiled once, for the cache with the fewest sets, so that
        // the run filter holds on every cache below.
        let stream = LineStream::compile(
            &c.program,
            &c.traces,
            &c.exec,
            &HierarchyConfig::cache_only(cache(128, 4, ReplacementPolicy::Lru)),
        );
        assert_eq!(stream.granule(), LINE);
        let n = c.traces.len();
        let initial = Layout::initial(&c.program, &c.traces);
        // (name, layout, whole-slot preload ranges).
        let mut layouts: Vec<(String, Layout, Preload)> = (0..8)
            .map(|k| {
                let semantics = [PlacementSemantics::Copy, PlacementSemantics::Move][k % 2];
                let place = placement(&mut rng, n);
                let layout = Layout::with_placement(&c.program, &c.traces, &place, semantics);
                (format!("placement {k} {semantics:?}"), layout, Vec::new())
            })
            .collect();
        let order = shuffled(&mut rng, n);
        let place = placement(&mut rng, n);
        let reordered = Layout::with_order(
            &c.program,
            &c.traces,
            &order,
            &place,
            PlacementSemantics::Move,
        );
        layouts.push(("reordered".to_string(), reordered, Vec::new()));
        let ranges = whole_slots(&mut rng, &c, &initial);
        layouts.push(("whole-slot preload".to_string(), initial, ranges));
        for (i, (name, layout, ranges)) in layouts.iter().enumerate() {
            // Six of the 24 (policy, ways, L2) systems per layout,
            // rotating, so the ten layouts cover each at least twice.
            for j in 0..6 {
                let combo = i * 6 + j;
                let policy = policies(seed)[combo % 4];
                let ways = [1, 2, 4][combo / 4 % 3];
                let l1 = cache(128, ways, policy);
                let mut config = if ranges.is_empty() {
                    spm_system(l1, &[layout])
                } else {
                    let capacity = ranges.iter().map(|(s, e)| e - s).sum();
                    HierarchyConfig::loop_cache_system(l1, capacity, 4, ranges.clone())
                };
                let l2 = combo / 12 % 2 == 1;
                if l2 {
                    config = config.with_l2(cache(512, 2, ReplacementPolicy::Lru));
                }
                let what = format!("seed {seed} {name} {policy:?} {ways}-way l2={l2}");
                let mut reference = Reference::new(n, &config);
                reference.replay(&c.program, &c.traces, layout, &c.exec, 0..c.exec.len());
                let out = simulate_stream(&stream, &c.traces, layout, &config)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                reference.assert_matches(&out, None, &what);
                let (counted, _) =
                    simulate_stream_observed(&stream, &c.traces, layout, &config, NullRecorder)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                reference.assert_counts(&counted, None, &format!("{what} count-only"));
                let (counted, recorder) = simulate_stream_observed(
                    &stream,
                    &c.traces,
                    layout,
                    &config,
                    set_stats(&config),
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                reference.assert_counts(&counted, Some(&recorder), &format!("{what} set stats"));
                total += out.stats;
            }
        }
    }
    assert!(
        total.cache_misses > 1000
            && total.spm_accesses > 0
            && total.loop_cache_accesses > 0
            && total.l2_hits > 0,
        "{total:?}"
    );
}

#[test]
fn a_stream_refuses_another_trace_set_and_finer_preloads() {
    let c = case(8, IsaMode::Arm);
    let config = HierarchyConfig::cache_only(cache(64, 1, ReplacementPolicy::Lru));
    let stream = LineStream::compile(&c.program, &c.traces, &c.exec, &config);
    // The traces a cold profile forms at another cap.
    let other = form_traces(
        &c.program,
        &casa::ir::Profile::new(),
        TraceConfig::new(256, LINE),
        &Obs::disabled(),
    );
    assert_ne!(other, c.traces);
    let layout = Layout::initial(&c.program, &other);
    let mut session = Replayer::new(&other, &config).expect("valid config");
    assert_eq!(
        session.replay_stream(&stream, &other, &layout),
        Err(StreamError::OtherTraceSet)
    );
    // A preload bound inside a line needs units finer than a line: the
    // whole-line stream refuses it, and a stream compiled for it has
    // sub-line units, so its run filter is off.
    let initial = Layout::initial(&c.program, &c.traces);
    let start = initial.trace_location(TraceId::from_raw(0)).addr + 4;
    let mid_line = HierarchyConfig::loop_cache_system(
        cache(64, 1, ReplacementPolicy::Lru),
        8,
        4,
        vec![(start, start + 8)],
    );
    let mut session = Replayer::new(&c.traces, &mid_line).expect("valid preload");
    assert_eq!(
        session.replay_stream(&stream, &c.traces, &initial),
        Err(StreamError::OtherSystem)
    );
    let fine = LineStream::compile(&c.program, &c.traces, &c.exec, &mid_line);
    assert_eq!(fine.granule(), 4);
    assert!(fine.len() >= stream.len(), "no run filter below a line");
    // A cache with fewer sets than the run filter assumed is refused.
    let fewer_sets = HierarchyConfig::cache_only(cache(64, 4, ReplacementPolicy::Lru));
    let mut session = Replayer::new(&c.traces, &fewer_sets).expect("valid config");
    assert_eq!(
        session.replay_stream(&stream, &c.traces, &initial),
        Err(StreamError::OtherSystem)
    );
}

#[test]
fn execution_trace_round_trips_ids_across_the_16_bit_boundary() {
    let ids = |raw: &[u32]| -> Vec<BlockId> { raw.iter().map(|&r| BlockId::from_raw(r)).collect() };
    for raw in [
        vec![0, 1, 65_535, 7],
        vec![65_535, 65_536, 0],
        vec![70_000, 3, 1 << 31],
        vec![],
    ] {
        let built = ExecutionTrace::new(ids(&raw));
        let mut pushed = ExecutionTrace::for_blocks(10);
        for &b in &ids(&raw) {
            pushed.push(b);
        }
        for t in [&built, &pushed] {
            assert_eq!(t.len(), raw.len());
            assert_eq!(t.iter().collect::<Vec<_>>(), ids(&raw), "{raw:?}");
            for (pos, &r) in raw.iter().enumerate() {
                assert_eq!(t.get(pos), Some(BlockId::from_raw(r)));
            }
            assert_eq!(t.get(raw.len()), None);
        }
        assert_eq!(built, pushed, "{raw:?}");
    }
    // The width follows the program, not the ids: a 16-bit trace and a
    // 32-bit one of the same blocks are equal.
    let mut wide = ExecutionTrace::for_blocks(100_000);
    for b in ids(&[1, 2, 3]) {
        wide.push(b);
    }
    assert_eq!(wide, ExecutionTrace::new(ids(&[1, 2, 3])));
    assert_ne!(wide, ExecutionTrace::new(ids(&[1, 2])));
}
