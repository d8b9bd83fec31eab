//! Property test: the production cache against a naive reference
//! model (one slot per physical way, linear scans, no clever indexing)
//! across all four replacement policies.

use casa_mem::cache::{Cache, CacheConfig, ReplacementPolicy};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A resident line: its tag, last-use time and fill time.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    last_use: u64,
    filled: u64,
}

/// Straight-line reference implementation of a set-associative cache.
/// It keeps physical ways, so round-robin and random victims, which
/// name a way rather than a line, can be mirrored exactly: an invalid
/// way first (round-robin's counter moves past it), then the least
/// recently used or oldest line, the set's counter, or a draw from the
/// seeded RNG.
struct ReferenceCache {
    cfg: CacheConfig,
    /// Per set, per way.
    sets: Vec<Vec<Option<Line>>>,
    rr: Vec<usize>,
    rng: SmallRng,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceCache {
    fn new(cfg: CacheConfig) -> Self {
        let seed = match cfg.policy {
            ReplacementPolicy::Random(s) => s,
            _ => 0,
        };
        ReferenceCache {
            cfg,
            sets: vec![vec![None; cfg.associativity as usize]; cfg.num_sets() as usize],
            rr: vec![0; cfg.num_sets() as usize],
            rng: SmallRng::seed_from_u64(seed),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns (hit, way, evicted_tag).
    fn access(&mut self, addr: u32) -> (bool, u32, Option<u32>) {
        self.clock += 1;
        let set = self.cfg.map(addr) as usize;
        let tag = self.cfg.tag(addr);
        let assoc = self.cfg.associativity as usize;
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter().position(|l| l.is_some_and(|l| l.tag == tag)) {
            if matches!(self.cfg.policy, ReplacementPolicy::Lru) {
                ways[w].as_mut().unwrap().last_use = self.clock;
            }
            self.hits += 1;
            return (true, w as u32, None);
        }
        self.misses += 1;
        let oldest = |key: fn(&Line) -> u64| {
            (0..assoc)
                .min_by_key(|&w| key(ways[w].as_ref().unwrap()))
                .unwrap()
        };
        let victim = match ways.iter().position(Option::is_none) {
            Some(w) => {
                if matches!(self.cfg.policy, ReplacementPolicy::RoundRobin) {
                    self.rr[set] = (w + 1) % assoc;
                }
                w
            }
            None => match self.cfg.policy {
                ReplacementPolicy::Lru => oldest(|l| l.last_use),
                ReplacementPolicy::Fifo => oldest(|l| l.filled),
                ReplacementPolicy::RoundRobin => {
                    let w = self.rr[set];
                    self.rr[set] = (w + 1) % assoc;
                    w
                }
                ReplacementPolicy::Random(_) => self.rng.gen_range(0..assoc),
            },
        };
        let evicted = ways[victim].map(|l| l.tag);
        ways[victim] = Some(Line {
            tag,
            last_use: self.clock,
            filled: self.clock,
        });
        (false, victim as u32, evicted)
    }
}

/// An address stream biased the way an instruction replay is: an op
/// `(kind, x)` with `kind < 3` revisits the line its set (`x` modulo
/// the set count) touched last, at some offset in the line; any other
/// op fetches `x` itself.
fn biased_stream(cfg: &CacheConfig, ops: &[(u32, u32)]) -> Vec<u32> {
    let mut last: Vec<Option<u32>> = vec![None; cfg.num_sets() as usize];
    ops.iter()
        .map(|&(kind, x)| {
            let addr = match last[(x % cfg.num_sets()) as usize] {
                Some(line) if kind < 3 => line * cfg.line_size + x % cfg.line_size,
                _ => x,
            };
            last[cfg.map(addr) as usize] = Some(addr / cfg.line_size);
            addr
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cache_matches_reference(
        ops in prop::collection::vec((0u32..5, 0u32..4096), 1..400),
        size_pow in 6u32..12,
        line_pow in 2u32..6,
        assoc_pow in 0u32..4,
        policy_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let line = 1u32 << line_pow;
        let assoc = 1u32 << assoc_pow;
        let size = (1u32 << size_pow).max(line * assoc);
        let policy = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::RoundRobin,
            ReplacementPolicy::Random(seed),
        ][policy_idx];
        let cfg = CacheConfig { size, line_size: line, associativity: assoc, policy };
        let mut real = Cache::new(cfg);
        let mut reference = ReferenceCache::new(cfg);
        for (k, &a) in biased_stream(&cfg, &ops).iter().enumerate() {
            let got = real.access(a);
            let want = reference.access(a);
            prop_assert_eq!(
                (got.hit, got.way, got.evicted_tag),
                want,
                "access #{} addr {} under {:?}",
                k, a, cfg
            );
        }
        prop_assert_eq!(
            (real.hits(), real.misses()),
            (reference.hits, reference.misses)
        );
    }

    /// Round-robin victim choice differs from LRU in general, but hit
    /// behaviour on a direct-mapped cache is policy-independent.
    #[test]
    fn direct_mapped_policy_invariance(
        addrs in prop::collection::vec(0u32..2048, 1..200),
    ) {
        let mk = |policy| {
            let cfg = CacheConfig { size: 256, line_size: 16, associativity: 1, policy };
            let mut c = Cache::new(cfg);
            addrs.iter().map(|&a| c.access(a).hit).collect::<Vec<_>>()
        };
        let lru = mk(ReplacementPolicy::Lru);
        prop_assert_eq!(&lru, &mk(ReplacementPolicy::Fifo));
        prop_assert_eq!(&lru, &mk(ReplacementPolicy::RoundRobin));
        prop_assert_eq!(&lru, &mk(ReplacementPolicy::Random(3)));
    }

    /// A fully-associative LRU cache of n lines hits iff the address's
    /// line is among the n most recently used distinct lines.
    #[test]
    fn fully_associative_lru_stack_property(
        addrs in prop::collection::vec(0u32..512, 1..150),
    ) {
        let cfg = CacheConfig {
            size: 128,
            line_size: 16,
            associativity: 8, // 128/16 = 8 lines: fully associative
            policy: ReplacementPolicy::Lru,
        };
        let mut c = Cache::new(cfg);
        let mut stack: Vec<u32> = Vec::new(); // most recent first
        for &a in &addrs {
            let linum = a / 16;
            let expected_hit = stack.iter().take(8).any(|&l| l == linum);
            let got = c.access(a);
            prop_assert_eq!(got.hit, expected_hit, "line {} stack {:?}", linum, stack);
            stack.retain(|&l| l != linum);
            stack.insert(0, linum);
        }
    }
}
