//! Differential test of the line-run fetch engine.
//!
//! `simulate`, `simulate_observed` and segmented `Replayer` sessions
//! group consecutive fetches served by one place into a single
//! memory-system call. The reference replay here does none of that: it
//! issues one `InstMemorySystem::fetch` per `Layout::inst_locations`
//! entry, applies the trace-exit glue-jump rule itself and attributes
//! conflict misses through its own `(set, tag)` eviction map. Every
//! counter, per-object vector, conflict edge, cold miss, base cycle and
//! per-set recorder tally must agree, on generated programs in ARM and
//! Thumb mode, under copy and move placements, every replacement policy
//! at 1, 2 and 4 ways, with and without an L2, with loop-cache preloads
//! that start and end mid-line, and across layout switches.

use casa::ir::inst::{InstKind, IsaMode};
use casa::ir::Program;
use casa::mem::cache::{CacheConfig, ReplacementPolicy};
use casa::mem::hierarchy::FetchEvent;
use casa::mem::{
    simulate, simulate_observed, ExecutionTrace, FetchStats, HierarchyConfig, InstMemorySystem,
    Replayer, SetStatsRecorder, SimOutcome,
};
use casa::obs::Obs;
use casa::trace::layout::PlacementSemantics;
use casa::trace::{form_traces, Layout, Location, TraceConfig, TraceSet};
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
        let blocks = exec.blocks();
        for pos in range {
            let block = blocks[pos];
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
                if ft.is_some() && ft == blocks.get(pos + 1).copied() {
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

    /// Assert that `out` (and, when given, the engine's recorder)
    /// match this replay exactly.
    fn assert_matches(&self, out: &SimOutcome, recorder: Option<&SetStatsRecorder>, case: &str) {
        let mut stats = self.sys.stats();
        stats.overlay_copy_words = out.stats.overlay_copy_words;
        assert_eq!(out.stats, stats, "{case}: stats");
        assert_eq!(out.trace_fetches, self.fetches, "{case}: trace_fetches");
        assert_eq!(out.trace_hits, self.hits, "{case}: trace_hits");
        assert_eq!(out.trace_misses, self.misses, "{case}: trace_misses");
        assert_eq!(out.trace_spm, self.spm, "{case}: trace_spm");
        assert_eq!(out.trace_lc, self.lc, "{case}: trace_lc");
        assert_eq!(
            out.conflicts.misses_between, self.misses_between,
            "{case}: misses_between"
        );
        assert_eq!(out.conflicts.cold_misses, self.cold, "{case}: cold_misses");
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
            let block = c.exec.blocks()[rng.gen_range(0..c.exec.len())];
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

/// `simulate` and `simulate_observed` against the reference; returns
/// the checked outcome's counters.
fn check(c: &Case, layout: &Layout, config: &HierarchyConfig, name: &str) -> FetchStats {
    let mut reference = Reference::new(c.traces.len(), config);
    reference.replay(&c.program, &c.traces, layout, &c.exec, 0..c.exec.len());
    let out = simulate(&c.program, &c.traces, layout, &c.exec, config).expect("simulates");
    reference.assert_matches(&out, None, name);
    assert!(out.check_fetch_identity(), "{name}: eq. (4)");
    let recorder = SetStatsRecorder::new(config.cache.num_sets() as usize);
    let (observed, recorder) =
        simulate_observed(&c.program, &c.traces, layout, &c.exec, config, recorder)
            .expect("simulates");
    assert_eq!(observed, out, "{name}: observed outcome");
    reference.assert_matches(&observed, Some(&recorder), name);
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
        let mut session = Replayer::new(&c.traces, &config).expect("valid config");
        for (layout, range) in segments {
            reference.replay(&c.program, &c.traces, layout, &c.exec, range.clone());
            session.replay(&c.program, &c.traces, layout, &c.exec, range);
        }
        session.charge_copy_words(7);
        let out = session.into_outcome();
        assert_eq!(out.stats.overlay_copy_words, 7);
        reference.assert_matches(&out, None, &format!("seed {seed} segmented"));
    }
}
