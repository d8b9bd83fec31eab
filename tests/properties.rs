#![allow(clippy::needless_range_loop)] // parallel test arrays

//! Property-based tests over the whole pipeline, driven by the seeded
//! random program generator.

use casa::core::casa_bb::allocate_bb;
use casa::core::casa_ilp::{allocate_ilp, Linearization};
use casa::core::conflict::ConflictGraph;
use casa::core::energy_model::EnergyModel;
use casa::core::flow::{run_spm_flow, AllocatorKind, FlowConfig, FlowCtx};
use casa::core::greedy::allocate_greedy;
use casa::energy::{EnergyTable, TechParams};
use casa::ilp::SolverOptions;
use casa::mem::cache::CacheConfig;
use casa::workloads::generator::{random_spec, GeneratorConfig};
use casa::workloads::Walker;
use proptest::prelude::*;
use std::collections::HashMap;

fn table() -> EnergyTable {
    EnergyTable {
        cache_hit: 1.0,
        cache_miss: 101.0,
        spm_access: 0.4,
        lc_access: 0.0,
        lc_controller: 0.0,
        mm_word: 24.0,
        l2_access: 0.0,
    }
}

/// The LCG the instance generators draw from, started at `state`.
fn lcg(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// A random conflict graph of `n` objects drawn from an LCG started at
/// `state`: fetches below 3000, sizes 4..124 bytes, and each ordered
/// pair, self-pairs included, an edge with probability 1/3.
fn random_graph(n: usize, state: u64) -> ConflictGraph {
    let mut next = lcg(state);
    let fetches: Vec<u64> = (0..n).map(|_| next() % 3000).collect();
    let sizes: Vec<u32> = (0..n).map(|_| (next() % 120 + 4) as u32).collect();
    let mut edges = HashMap::new();
    for i in 0..n {
        for j in 0..n {
            if next().is_multiple_of(3) {
                edges.insert((i, j), next() % 400);
            }
        }
    }
    ConflictGraph::from_parts(fetches, sizes, edges)
}

/// A near-tie instance of `n` objects and its capacity, drawn from an
/// LCG started at `state`: fetches 2000..2040, sizes of 16, 20 or 24
/// bytes, each ordered pair, self-pairs included, an edge below 20
/// with probability 1/4, and a capacity of 30–70% of the total size.
/// Densities this close put the best subsets within a few percent of
/// each other, where a search that prunes too eagerly loses the
/// optimum.
fn near_tie_graph(n: usize, state: u64) -> (ConflictGraph, u32) {
    let mut next = lcg(state);
    let fetches: Vec<u64> = (0..n).map(|_| 2000 + next() % 40).collect();
    let sizes: Vec<u32> = (0..n)
        .map(|_| [16, 20, 24][(next() % 3) as usize])
        .collect();
    let mut edges = HashMap::new();
    for i in 0..n {
        for j in 0..n {
            if next().is_multiple_of(4) {
                edges.insert((i, j), next() % 20);
            }
        }
    }
    let total: u32 = sizes.iter().sum();
    let cap = total * (30 + next() as u32 % 41) / 100;
    (ConflictGraph::from_parts(fetches, sizes, edges), cap)
}

/// Bytes of `g`'s objects that `on` puts on the scratchpad.
fn used(g: &ConflictGraph, on: &[bool]) -> u32 {
    (0..g.len()).filter(|&i| on[i]).map(|i| g.size_of(i)).sum()
}

/// The minimum of eq. (11) over every subset of `g`'s objects that
/// fits in `cap` bytes.
fn brute_force_optimum(g: &ConflictGraph, m: &EnergyModel, cap: u32) -> f64 {
    let n = g.len();
    let mut best = f64::INFINITY;
    for mask in 0u32..1 << n {
        let on: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        if used(g, &on) <= cap {
            best = best.min(m.total_energy(&on));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full workflow holds its invariants on arbitrary programs:
    /// eq. (4), counter consistency, capacity, and CASA ≤ baseline.
    #[test]
    fn workflow_invariants_on_random_programs(seed in 0u64..400, spm_pow in 5u32..9) {
        let spec = random_spec(seed, &GeneratorConfig::default());
        let w = spec.compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (exec, profile) = walker.run(seed).expect("generated programs terminate");
        let spm_size = 1u32 << spm_pow; // 32..256
        let cfg = FlowConfig {
            cache: CacheConfig::direct_mapped(256, 16),
            spm_size,
            allocator: AllocatorKind::CasaBb,
            tech: TechParams::default(),
            trace_cap: None,
        };
        let casa = run_spm_flow(&w.program, &profile, &exec, &cfg, &FlowCtx::default()).expect("casa flow");
        prop_assert!(casa.final_sim.check_fetch_identity());
        prop_assert!(casa.final_sim.stats.is_consistent());
        prop_assert!(casa.allocation.spm_bytes(&casa.traces) <= spm_size);

        let base = run_spm_flow(
            &w.program,
            &profile,
            &exec,
            &FlowConfig { allocator: AllocatorKind::None, ..cfg },
        &FlowCtx::default(),
).expect("baseline flow");
        prop_assert!(casa.energy_uj() <= base.energy_uj() + 1e-9);
        // Total fetches are identical across configurations (same
        // dynamic execution replayed).
        prop_assert_eq!(casa.final_sim.stats.fetches, base.final_sim.stats.fetches);
    }

    /// The specialized branch & bound and the generic ILP (both
    /// linearizations) agree on random conflict graphs.
    #[test]
    fn solvers_agree_on_random_conflict_graphs(
        n in 2usize..7,
        cap in 0u32..300,
        seed in 0u64..10_000,
    ) {
        let g = random_graph(n, seed.wrapping_mul(2654435761).wrapping_add(1));
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let bb = allocate_bb(&m, cap);
        let paper = allocate_ilp(&m, cap, Linearization::Paper, &SolverOptions::default())
            .expect("paper ILP solves");
        let tight = allocate_ilp(&m, cap, Linearization::Tight, &SolverOptions::default())
            .expect("tight ILP solves");
        let (eb, ep, et) = (
            bb.predicted_energy.unwrap(),
            paper.predicted_energy.unwrap(),
            tight.predicted_energy.unwrap(),
        );
        let tol = 1e-6 * eb.abs().max(1.0);
        prop_assert!((eb - ep).abs() < tol, "bb {} vs paper {}", eb, ep);
        prop_assert!((eb - et).abs() < tol, "bb {} vs tight {}", eb, et);
        // Both respect capacity.
        for a in [&bb.on_spm, &paper.on_spm, &tight.on_spm] {
            let used: u32 = (0..n).filter(|&i| a[i]).map(|i| g.size_of(i)).sum();
            prop_assert!(used <= cap);
        }
    }

    /// CasaBb is exact on the CASA model itself: its predicted energy
    /// is the minimum of eq. (11) over every subset that fits (at most
    /// 2^12), its own set fits, and greedy never beats that minimum.
    /// Each case checks a random instance and a near-tie one.
    #[test]
    fn casa_bb_matches_brute_force_on_the_model(
        n in 2usize..13,
        cap in 0u32..600,
        seed in 0u64..10_000,
        tie_n in 6usize..13,
    ) {
        let state = seed.wrapping_mul(2654435761).wrapping_add(1);
        for (g, cap) in [(random_graph(n, state), cap), near_tie_graph(tie_n, state)] {
            let n = g.len();
            let t = table();
            let m = EnergyModel::new(&g, &t);
            let best = brute_force_optimum(&g, &m, cap);
            let tol = 1e-6 * best.abs().max(1.0);
            let bb = allocate_bb(&m, cap);
            let eb = bb.predicted_energy.expect("casa-bb predicts");
            prop_assert!((eb - best).abs() < tol, "bb {} vs brute force {} (n {}, capacity {})", eb, best, n, cap);
            prop_assert!(used(&g, &bb.on_spm) <= cap);
            let greedy = allocate_greedy(&m, cap);
            prop_assert!(used(&g, &greedy.on_spm) <= cap);
            let eg = m.total_energy(&greedy.on_spm);
            prop_assert!(eg > best - tol, "greedy {} below the optimum {}", eg, best);
        }
    }

    /// Monotonicity: over a *fixed* conflict graph, a larger
    /// scratchpad never yields worse optimal predicted energy (any
    /// allocation feasible at C is feasible at C' > C).
    ///
    /// Note this deliberately holds the memory objects fixed — in the
    /// full workflow the trace-size cap equals the scratchpad size
    /// (paper §3.2), so different sizes partition the program into
    /// *different* objects and the end-to-end curve may be non-
    /// monotone between adjacent sizes.
    #[test]
    fn bigger_scratchpad_never_hurts_on_fixed_graph(
        n in 2usize..8,
        seed in 0u64..10_000,
    ) {
        let g = random_graph(n, seed.wrapping_mul(0x9E3779B9).wrapping_add(7));
        let t = table();
        let m = EnergyModel::new(&g, &t);
        let mut last = f64::INFINITY;
        for cap in [0u32, 32, 64, 128, 256, 512] {
            let pred = allocate_bb(&m, cap).predicted_energy.expect("predicts");
            prop_assert!(
                pred <= last + 1e-6,
                "optimal energy must not grow with capacity: {} after {}",
                pred,
                last
            );
            last = pred;
        }
    }

    /// The dynamic walker and the static profile agree: replaying the
    /// walker's execution trace yields exactly the profile's fetch
    /// count (the conflict graph's f_i come from the same source as
    /// the simulated fetches).
    #[test]
    fn profile_matches_replay(seed in 0u64..300) {
        let spec = random_spec(seed, &GeneratorConfig::default());
        let w = spec.compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (exec, profile) = walker.run(seed).expect("runs");
        exec.check(&w.program).expect("legal execution");
        profile.check_flow(&w.program).expect("flow conserved");
        let cfg = FlowConfig {
            cache: CacheConfig::direct_mapped(128, 16),
            spm_size: 64,
            allocator: AllocatorKind::None,
            tech: TechParams::default(),
            trace_cap: None,
        };
        let r = run_spm_flow(&w.program, &profile, &exec, &cfg, &FlowCtx::default()).expect("flow");
        // Simulated fetches = profile fetches + glue-jump fetches;
        // glue fetches are bounded by the number of block transitions.
        let profile_fetches = profile.total_fetches(&w.program);
        prop_assert!(r.final_sim.stats.fetches >= profile_fetches);
        prop_assert!(
            r.final_sim.stats.fetches <= profile_fetches + exec.len() as u64,
            "at most one glue fetch per executed block"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Both ILP linearizations are exact on the CASA model: each one's
    /// predicted energy is the minimum of eq. (11) over every subset
    /// that fits, and its own set fits and prices at that energy. Each
    /// case checks a random instance and a near-tie one. `n` stays at 9
    /// or below, where a debug build solves both within ~0.1 s.
    #[test]
    fn ilp_matches_brute_force_on_the_model(
        n in 2usize..10,
        cap in 0u32..600,
        seed in 0u64..10_000,
        tie_n in 6usize..10,
    ) {
        let state = seed.wrapping_mul(0x9E3779B9).wrapping_add(3);
        for (g, cap) in [(random_graph(n, state), cap), near_tie_graph(tie_n, state)] {
            let n = g.len();
            let t = table();
            let m = EnergyModel::new(&g, &t);
            let best = brute_force_optimum(&g, &m, cap);
            let tol = 1e-6 * best.abs().max(1.0);
            for lin in [Linearization::Paper, Linearization::Tight] {
                let a = allocate_ilp(&m, cap, lin, &SolverOptions::default())
                    .expect("the ILP solves");
                let e = a.predicted_energy.expect("the ILP predicts");
                prop_assert!((e - best).abs() < tol, "{:?} {} vs brute force {} (n {}, capacity {})", lin, e, best, n, cap);
                prop_assert!(used(&g, &a.on_spm) <= cap, "{:?} over capacity", lin);
                prop_assert!((m.total_energy(&a.on_spm) - best).abs() < tol, "{:?} set prices off its prediction", lin);
            }
        }
    }
}
