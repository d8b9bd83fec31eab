//! The execution walker: turns a compiled workload into a dynamic
//! basic-block sequence plus the matching profile.
//!
//! This substitutes for running the benchmark under ARMulator: the
//! walker interprets the CFG, counting loop trips deterministically
//! and drawing data-dependent branch outcomes from a seeded RNG, so a
//! given `(workload, seed)` pair always produces the identical
//! execution — which lets every allocator be evaluated on exactly the
//! same dynamic instruction stream.
//!
//! The walk runs once per executed block, so its per-block state is
//! dense: branch behaviours, loop counters, block counts and the
//! counts of each block's two outgoing arms live in vectors indexed by
//! block id. The [`Profile`] is built once, when the walk exits, from
//! the non-zero counts; the RNG is drawn in execution order, one draw
//! per evaluated probabilistic branch, so a seed names one execution.

use crate::spec::Workload;
use casa_ir::inst::InstKind;
use casa_ir::{BlockId, Profile, Program, Terminator};
use casa_mem::data::DataAccessKind;
use casa_mem::{DataAccess, DataTrace, ExecutionTrace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// How a `Branch` terminator behaves dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BranchBehavior {
    /// Taken with probability `taken` on each evaluation.
    Prob {
        /// Probability the branch is taken.
        taken: f64,
    },
    /// Counted loop test: per entry into the loop the continue arm is
    /// chosen `trips` times, then the exit arm once.
    Loop {
        /// Iterations per loop entry.
        trips: u64,
        /// Whether the *taken* arm is the loop exit (as the spec
        /// compiler emits) or the continue edge.
        taken_is_exit: bool,
    },
}

/// A walk failed to terminate or encountered a broken CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkError {
    /// `max_steps` block executions happened without reaching `Exit`.
    StepLimit {
        /// The configured limit.
        limit: u64,
    },
    /// `Return` executed with an empty call stack.
    ReturnWithoutCall {
        /// The returning block.
        block: BlockId,
    },
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::StepLimit { limit } => {
                write!(f, "execution did not exit within {limit} block steps")
            }
            WalkError::ReturnWithoutCall { block } => {
                write!(f, "block {block} returned with an empty call stack")
            }
        }
    }
}

impl Error for WalkError {}

/// Interprets a program's CFG under a set of branch behaviours.
#[derive(Debug, Clone)]
pub struct Walker<'a> {
    program: &'a Program,
    behaviors: &'a HashMap<BlockId, BranchBehavior>,
    /// Hard cap on executed blocks (default 50 million).
    pub max_steps: u64,
}

impl<'a> Walker<'a> {
    /// A walker over `program` with the given branch behaviours.
    /// Branches without a behaviour entry default to 50/50.
    pub fn new(program: &'a Program, behaviors: &'a HashMap<BlockId, BranchBehavior>) -> Self {
        Walker {
            program,
            behaviors,
            max_steps: 50_000_000,
        }
    }

    /// Run the program from its entry, returning the dynamic block
    /// sequence and the execution profile (consistent with each other
    /// by construction).
    ///
    /// The walk keeps per-block state in vectors indexed by block id:
    /// the branch behaviours (behaviour entries naming blocks past the
    /// program's last are never consulted), the loop counters, the
    /// execution counts and, per block, the traversals of its
    /// taken-or-only arm and of its fall-through arm. A call's arm is
    /// its return-to block (the profile's edges are intra-procedural
    /// and must satisfy flow conservation against the CFG's successor
    /// lists); returns and exits have none. The profile gets one
    /// `add_block` and one `add_edge` per non-zero count when the walk
    /// exits, so a branch whose two arms name the same block merges
    /// into one edge. Probabilistic branches and branches without a
    /// behaviour draw from the seeded RNG in execution order.
    ///
    /// # Errors
    ///
    /// [`WalkError::StepLimit`] if the program does not exit within
    /// `max_steps` blocks; [`WalkError::ReturnWithoutCall`] on a
    /// malformed call structure.
    pub fn run(&self, seed: u64) -> Result<(ExecutionTrace, Profile), WalkError> {
        let blocks = self.program.blocks();
        let mut behaviors = vec![None; blocks.len()];
        for (&b, &behavior) in self.behaviors {
            if let Some(slot) = behaviors.get_mut(b.index()) {
                *slot = Some(behavior);
            }
        }
        let mut loop_counters = vec![0u64; blocks.len()];
        let mut counts = vec![0u64; blocks.len()];
        // Per block: traversals of the taken-or-only arm, then of the
        // fall-through arm.
        let mut arms = vec![[0u64; 2]; blocks.len()];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seq = ExecutionTrace::for_blocks(blocks.len());
        let mut stack: Vec<BlockId> = Vec::new();

        let mut cur = self.program.function(self.program.entry()).entry();
        let mut steps: u64 = 0;
        loop {
            steps += 1;
            if steps > self.max_steps {
                return Err(WalkError::StepLimit {
                    limit: self.max_steps,
                });
            }
            seq.push(cur);
            let b = cur.index();
            counts[b] += 1;
            cur = match blocks[b].terminator() {
                Terminator::FallThrough { next } | Terminator::Jump { target: next } => {
                    arms[b][0] += 1;
                    next
                }
                Terminator::Branch { taken, fallthrough } => {
                    let take = match behaviors[b] {
                        Some(BranchBehavior::Prob { taken: p }) => rng.gen_bool(p.clamp(0.0, 1.0)),
                        Some(BranchBehavior::Loop {
                            trips,
                            taken_is_exit,
                        }) => {
                            let c = &mut loop_counters[b];
                            let exit_now = *c >= trips;
                            *c = if exit_now { 0 } else { *c + 1 };
                            exit_now == taken_is_exit
                        }
                        None => rng.gen_bool(0.5),
                    };
                    arms[b][usize::from(!take)] += 1;
                    if take {
                        taken
                    } else {
                        fallthrough
                    }
                }
                Terminator::Call { callee, return_to } => {
                    stack.push(return_to);
                    arms[b][0] += 1;
                    self.program.function(callee).entry()
                }
                Terminator::Return => stack
                    .pop()
                    .ok_or(WalkError::ReturnWithoutCall { block: cur })?,
                Terminator::Exit => break,
            };
        }

        let mut profile = Profile::new();
        for ((block, &count), &[first, second]) in blocks.iter().zip(&counts).zip(&arms) {
            if count == 0 {
                continue;
            }
            let id = block.id();
            profile.add_block(id, count);
            let (first_to, second_to) = match block.terminator() {
                Terminator::FallThrough { next } | Terminator::Jump { target: next } => {
                    (Some(next), None)
                }
                Terminator::Branch { taken, fallthrough } => (Some(taken), Some(fallthrough)),
                Terminator::Call { return_to, .. } => (Some(return_to), None),
                Terminator::Return | Terminator::Exit => (None, None),
            };
            for (to, n) in [(first_to, first), (second_to, second)] {
                if let Some(to) = to.filter(|_| n > 0) {
                    profile.add_edge(id, to, n);
                }
            }
        }
        seq.shrink_to_fit();
        Ok((seq, profile))
    }

    /// Like [`Self::run`], additionally producing the data-access
    /// stream of `workload`'s modeled data objects: every executed
    /// `Load`/`Store` instruction of a function with a data array
    /// touches the next word of that array (a sequential sweep that
    /// wraps — the access pattern of the paper's media kernels).
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    ///
    /// # Panics
    ///
    /// Panics if `workload` does not correspond to `self`'s program
    /// (mismatched function count).
    pub fn run_with_data(
        &self,
        workload: &Workload,
        seed: u64,
    ) -> Result<(ExecutionTrace, Profile, DataTrace), WalkError> {
        assert_eq!(
            workload.data_object_of.len(),
            self.program.functions().len(),
            "workload does not match the program"
        );
        let (exec, profile) = self.run(seed)?;
        let mut cursors = vec![0u32; workload.data_objects.len()];
        let mut accesses = Vec::new();
        let mut kinds = Vec::new();
        for block in exec.iter() {
            let f = self.program.block(block).function();
            let Some(obj) = workload.data_object_of[f.index()] else {
                continue;
            };
            let size = workload.data_objects[obj].size;
            for inst in self.program.block(block).insts() {
                let kind = match inst.kind() {
                    InstKind::Load => DataAccessKind::Load,
                    InstKind::Store => DataAccessKind::Store,
                    _ => continue,
                };
                accesses.push(DataAccess {
                    object: obj,
                    offset: cursors[obj],
                });
                kinds.push(kind);
                cursors[obj] = (cursors[obj] + 4) % size.max(4);
            }
        }
        Ok((exec, profile, DataTrace::with_kinds(accesses, kinds)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{random_spec, GeneratorConfig};
    use crate::spec::{BenchmarkSpec, Element, FunctionSpec};
    use casa_ir::{IsaMode, ProgramBuilder};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The walk with hash-keyed state, one profile update per step and
    /// one per edge: the reference the dense walk must equal.
    fn reference_run(
        program: &Program,
        behaviors: &HashMap<BlockId, BranchBehavior>,
        max_steps: u64,
        seed: u64,
    ) -> Result<(ExecutionTrace, Profile), WalkError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seq = Vec::new();
        let mut counts: BTreeMap<BlockId, u64> = BTreeMap::new();
        let mut edges: BTreeMap<(BlockId, BlockId), u64> = BTreeMap::new();
        let mut stack = Vec::new();
        let mut loop_counters: HashMap<BlockId, u64> = HashMap::new();
        let mut cur = program.function(program.entry()).entry();
        let mut steps = 0;
        loop {
            steps += 1;
            if steps > max_steps {
                return Err(WalkError::StepLimit { limit: max_steps });
            }
            seq.push(cur);
            *counts.entry(cur).or_insert(0) += 1;
            let next = match program.block(cur).terminator() {
                Terminator::FallThrough { next } | Terminator::Jump { target: next } => Some(next),
                Terminator::Branch { taken, fallthrough } => {
                    let take = match behaviors.get(&cur) {
                        Some(BranchBehavior::Prob { taken: p }) => rng.gen_bool(p.clamp(0.0, 1.0)),
                        Some(BranchBehavior::Loop {
                            trips,
                            taken_is_exit,
                        }) => {
                            let c = loop_counters.entry(cur).or_insert(0);
                            let exit_now = *c >= *trips;
                            *c = if exit_now { 0 } else { *c + 1 };
                            exit_now == *taken_is_exit
                        }
                        None => rng.gen_bool(0.5),
                    };
                    Some(if take { taken } else { fallthrough })
                }
                Terminator::Call { callee, return_to } => {
                    stack.push(return_to);
                    *edges.entry((cur, return_to)).or_insert(0) += 1;
                    cur = program.function(callee).entry();
                    continue;
                }
                Terminator::Return => match stack.pop() {
                    Some(r) => {
                        cur = r;
                        continue;
                    }
                    None => return Err(WalkError::ReturnWithoutCall { block: cur }),
                },
                Terminator::Exit => None,
            };
            let Some(n) = next else { break };
            *edges.entry((cur, n)).or_insert(0) += 1;
            cur = n;
        }
        let mut profile = Profile::new();
        for (b, c) in counts {
            profile.add_block(b, c);
        }
        for ((from, to), c) in edges {
            profile.add_edge(from, to, c);
        }
        Ok((ExecutionTrace::new(seq), profile))
    }

    /// The dense walk and the reference agree on `(program,
    /// behaviors)` at `seed`, under the default step limit and a
    /// 100-step one.
    fn assert_matches_reference(
        program: &Program,
        behaviors: &HashMap<BlockId, BranchBehavior>,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut walker = Walker::new(program, behaviors);
        for max_steps in [walker.max_steps, 100] {
            walker.max_steps = max_steps;
            let got = walker.run(seed);
            let want = reference_run(program, behaviors, max_steps, seed);
            prop_assert!(
                got == want,
                "seed {seed}, max_steps {max_steps}: walk {:?} vs reference {:?}",
                got.as_ref().map(|(e, p)| (e.len(), p.blocks().count())),
                want.as_ref().map(|(e, p)| (e.len(), p.blocks().count()))
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random programs, also with behaviours dropped (their
        /// branches draw 50/50) and with entries naming blocks past
        /// the program's end (never consulted).
        #[test]
        fn walk_equals_the_reference_on_random_programs(
            spec_seed in any::<u64>(),
            walk_seed in any::<u64>(),
            dropped in any::<u64>(),
        ) {
            let w = random_spec(spec_seed, &GeneratorConfig::default()).compile();
            assert_matches_reference(&w.program, &w.behaviors, walk_seed)?;
            let n = w.program.blocks().len() as u32;
            let mut behaviors: HashMap<BlockId, BranchBehavior> = w
                .behaviors
                .iter()
                .filter(|(b, _)| dropped >> (b.index() % 64) & 1 == 0)
                .map(|(&b, &behavior)| (b, behavior))
                .collect();
            behaviors.insert(BlockId::from_raw(n), BranchBehavior::Prob { taken: 0.5 });
            behaviors.insert(
                BlockId::from_raw(n + 7),
                BranchBehavior::Loop { trips: 3, taken_is_exit: true },
            );
            assert_matches_reference(&w.program, &behaviors, walk_seed)?;
        }
    }

    #[test]
    fn walk_equals_the_reference_on_the_mediabench_programs() {
        for spec in [crate::adpcm(), crate::g721(), crate::mpeg(), crate::epic()] {
            for scale in [1, 2] {
                let mut spec = spec.clone();
                spec.scale_trips(scale);
                let w = spec.compile();
                for seed in [2004, 7, 11] {
                    assert_matches_reference(&w.program, &w.behaviors, seed)
                        .unwrap_or_else(|e| panic!("{} at scale {scale}: {e}", spec.name));
                }
            }
        }
    }

    #[test]
    fn branch_with_identical_arms_merges_into_one_edge() {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("main");
        let (head, join) = (bld.block(f), bld.block(f));
        bld.push_n(head, InstKind::Alu, 2);
        bld.branch(head, join, join);
        bld.push(join, InstKind::Alu);
        bld.exit(join);
        let program = bld.finish().unwrap();
        let none = HashMap::new();
        let (_, profile) = Walker::new(&program, &none).run(5).unwrap();
        assert_eq!(profile.edge_count(head, join), 1);
        assert_eq!(profile.edges().count(), 1);
        assert_matches_reference(&program, &none, 5).unwrap();
    }

    #[test]
    fn return_without_call_matches_the_reference() {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("main");
        let b = bld.block(f);
        bld.push(b, InstKind::Alu);
        bld.ret(b);
        let program = bld.finish().unwrap();
        let none = HashMap::new();
        assert_eq!(
            Walker::new(&program, &none).run(0).unwrap_err(),
            WalkError::ReturnWithoutCall { block: b }
        );
        assert_matches_reference(&program, &none, 0).unwrap();
    }

    fn looped_workload(trips: u64) -> crate::spec::Workload {
        BenchmarkSpec::new(
            "w",
            IsaMode::Arm,
            vec![FunctionSpec::new(
                "main",
                vec![Element::loop_of(trips, vec![Element::Straight(3)])],
            )],
        )
        .compile()
    }

    #[test]
    fn loop_trip_count_exact() {
        let w = looped_workload(7);
        let walker = Walker::new(&w.program, &w.behaviors);
        let (exec, profile) = walker.run(1).unwrap();
        exec.check(&w.program).expect("legal execution");
        profile.check_flow(&w.program).expect("flow conserved");
        // Find the loop header: executed trips + 1 times.
        let header = w
            .program
            .blocks()
            .iter()
            .find(|b| matches!(b.terminator(), casa_ir::Terminator::Branch { .. }))
            .unwrap()
            .id();
        assert_eq!(profile.block_count(header), 8);
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let w = BenchmarkSpec::new(
            "w",
            IsaMode::Arm,
            vec![FunctionSpec::new(
                "main",
                vec![Element::loop_of(
                    50,
                    vec![Element::cond(0.4, vec![Element::Straight(2)], vec![])],
                )],
            )],
        )
        .compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (a, _) = walker.run(99).unwrap();
        let (b, _) = walker.run(99).unwrap();
        let (c, _) = walker.run(100).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed, different path");
    }

    #[test]
    fn calls_and_returns_balanced() {
        let w = BenchmarkSpec::new(
            "w",
            IsaMode::Arm,
            vec![
                FunctionSpec::new("main", vec![Element::loop_of(4, vec![Element::Call(1)])]),
                FunctionSpec::new("leaf", vec![Element::Straight(5)]),
            ],
        )
        .compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (exec, profile) = walker.run(0).unwrap();
        exec.check(&w.program).expect("legal");
        profile.check_flow(&w.program).expect("flow conserved");
        // The leaf entry executes exactly 4 times.
        let leaf = w.program.functions()[1].entry();
        assert_eq!(profile.block_count(leaf), 4);
    }

    #[test]
    fn step_limit_reported() {
        let w = looped_workload(1_000_000);
        let mut walker = Walker::new(&w.program, &w.behaviors);
        walker.max_steps = 100;
        assert_eq!(
            walker.run(0).unwrap_err(),
            WalkError::StepLimit { limit: 100 }
        );
    }

    #[test]
    fn nested_loops_multiply() {
        let w = BenchmarkSpec::new(
            "w",
            IsaMode::Arm,
            vec![FunctionSpec::new(
                "main",
                vec![Element::loop_of(
                    3,
                    vec![Element::loop_of(5, vec![Element::Straight(1)])],
                )],
            )],
        )
        .compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (_, profile) = walker.run(0).unwrap();
        profile.check_flow(&w.program).expect("flow conserved");
        // Inner header runs (5+1) per outer iteration * 3 outer = 18.
        let headers: Vec<_> = w
            .program
            .blocks()
            .iter()
            .filter(|b| matches!(b.terminator(), casa_ir::Terminator::Branch { .. }))
            .map(|b| b.id())
            .collect();
        assert_eq!(headers.len(), 2);
        let counts: Vec<u64> = headers.iter().map(|&h| profile.block_count(h)).collect();
        assert!(counts.contains(&4), "outer header 3+1: {counts:?}");
        assert!(counts.contains(&18), "inner header 3*(5+1): {counts:?}");
    }

    #[test]
    fn data_stream_sweeps_declared_arrays() {
        use crate::spec::FunctionSpec;
        let spec = BenchmarkSpec::new(
            "d",
            IsaMode::Arm,
            vec![
                FunctionSpec::new("main", vec![Element::loop_of(3, vec![Element::Call(1)])]),
                // 10 straight insts contain 2 loads and 1 store per
                // the deterministic mix.
                FunctionSpec::new("kernel", vec![Element::Straight(10)]).with_data(32),
            ],
        );
        let w = spec.compile();
        assert_eq!(w.data_objects.len(), 1);
        assert_eq!(w.data_objects[0].size, 32);
        let walker = Walker::new(&w.program, &w.behaviors);
        let (_, _, data) = walker.run_with_data(&w, 0).unwrap();
        // 3 calls × 3 memory insts each.
        assert_eq!(data.len(), 9);
        for a in data.accesses() {
            assert_eq!(a.object, 0);
            assert!(a.offset < 32);
        }
        // Sequential sweep wraps at the array size.
        let offsets: Vec<u32> = data.accesses().iter().map(|a| a.offset).collect();
        assert_eq!(offsets, vec![0, 4, 8, 12, 16, 20, 24, 28, 0]);
    }

    #[test]
    fn functions_without_data_emit_nothing() {
        let spec = BenchmarkSpec::new(
            "d",
            IsaMode::Arm,
            vec![FunctionSpec::new("main", vec![Element::Straight(20)])],
        );
        let w = spec.compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (_, _, data) = walker.run_with_data(&w, 0).unwrap();
        assert!(data.is_empty());
    }

    #[test]
    fn error_display() {
        assert!(WalkError::StepLimit { limit: 9 }.to_string().contains('9'));
    }
}
