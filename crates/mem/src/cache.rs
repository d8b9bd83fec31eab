//! Set-associative instruction cache model.
//!
//! Implements the paper's mapping function (§3.3):
//!
//! ```text
//! Map(addr) = (addr / line) mod (CacheSize / (Associativity · line))
//! ```
//!
//! plus the replacement policies whose antisymmetric victim relation
//! defines the conflict graph.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Cache replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out (oldest fill evicted).
    Fifo,
    /// ARM-style round-robin victim counter per set.
    RoundRobin,
    /// Uniform random victim, deterministic under the given seed.
    Random(u64),
}

/// Static cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u32,
    /// Line size in bytes.
    pub line_size: u32,
    /// Number of ways (1 = direct-mapped).
    pub associativity: u32,
    /// Replacement policy (irrelevant for direct-mapped caches).
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// A direct-mapped cache (the paper's experiments use 2 kB / 1 kB /
    /// 128 B direct-mapped I-caches with 16-byte lines).
    pub fn direct_mapped(size: u32, line_size: u32) -> Self {
        CacheConfig {
            size,
            line_size,
            associativity: 1,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.size / (self.line_size * self.associativity)
    }

    /// The set an address maps to — the paper's `Map` function.
    pub fn map(&self, addr: u32) -> u32 {
        (addr / self.line_size) % self.num_sets()
    }

    /// The tag of an address.
    pub fn tag(&self, addr: u32) -> u32 {
        addr / (self.line_size * self.num_sets())
    }

    /// 32-bit words per line (line-fill transfer count on a miss).
    pub fn words_per_line(&self) -> u32 {
        self.line_size / 4
    }

    fn validate(&self) {
        assert!(self.line_size.is_power_of_two(), "line size must be 2^k");
        assert!(
            self.associativity >= 1
                && self
                    .size
                    .is_multiple_of(self.line_size * self.associativity),
            "size must be a multiple of line_size * associativity"
        );
        assert!(self.num_sets().is_power_of_two(), "sets must be 2^k");
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// Set index the address mapped to.
    pub set: u32,
    /// Way the line resides in after the access.
    pub way: u32,
    /// On a miss that replaced a valid line: that line's tag.
    pub evicted_tag: Option<u32>,
}

/// The slot value of an invalid way. Slots hold line ids, which are
/// `u32` values widened to `u64`, so no reachable line equals it: with
/// 1-byte lines the line id is the whole address, and `u32::MAX` is
/// one.
const INVALID: u64 = u64::MAX;

/// How a set orders its slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Most recently used first (LRU): a hit moves its slot to the
    /// front, a fill enters at the front and the last slot is the
    /// victim.
    Recency,
    /// Newest fill first (FIFO): a hit changes nothing, a fill enters
    /// at the front and the last slot is the victim.
    Fill,
    /// Slot `w` is physical way `w` (round-robin, random): the victim
    /// names a way, so the order never changes.
    Physical,
}

/// Where a stream replay finishes a lookup that missed its set's first
/// slot. It follows from the cache's ways and policy, and from whether
/// an L2 serves the misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Finish {
    /// In the replay loop: [`Cache::replace_slot`] of the set's one
    /// slot (direct-mapped, every policy but `Random`).
    DirectMapped,
    /// In the replay loop: [`Cache::lru_finish`] (set-associative LRU).
    Lru,
    /// Out of the loop, through [`Cache::access_line`]: FIFO,
    /// round-robin and random set scans, a `Random(seed)` direct-mapped
    /// fill (which draws), and every lookup of a system with an L2.
    OutOfLine,
}

/// The value of the first slot of one extra set past the last. No line
/// a replay looks up has this id, so it is never resident elsewhere; a
/// stream replay sends the units it skips (scratchpad or loop-cache
/// fetches) to that set, where they hit its first slot without a branch
/// of their own.
const SKIPPED: u64 = u32::MAX as u64;

/// A set-associative cache.
///
/// Each set is `associativity` slots, each holding a resident line id
/// (or nothing) and the physical way it occupies. LRU keeps a set's
/// slots in recency order and FIFO in fill order, so the victim is
/// always the last valid slot and no stamps or clock are needed;
/// round-robin and random keep physical order, because their victims
/// name a way. Nothing ever invalidates a line, so a set's valid slots
/// are a prefix and its invalid ones keep physical order: a cold fill
/// takes the lowest invalid way under every policy.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per slot, row-major by set: the resident line id, or
    /// [`INVALID`]; then one more set whose first slot holds
    /// [`SKIPPED`].
    lines: Vec<u64>,
    /// Per slot: the physical way holding the slot's line.
    ways: Vec<u32>,
    rr_counters: Vec<u32>,
    rng: SmallRng,
    hits: u64,
    misses: u64,
    /// `log2(line_size)`: `addr >> line_shift` is the line id.
    line_shift: u32,
    /// `log2(num_sets)`: `line >> set_shift` is the tag.
    set_shift: u32,
    /// `num_sets - 1`: the set is the line id's low bits.
    set_mask: u32,
    /// Ways per set.
    assoc: usize,
    order: Order,
}

impl Cache {
    /// Create an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not internally consistent
    /// (non-power-of-two line size or set count, zero ways).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let assoc = config.associativity as usize;
        let n = config.num_sets() as usize * assoc;
        let seed = match config.policy {
            ReplacementPolicy::Random(s) => s,
            _ => 0,
        };
        let mut lines = vec![INVALID; n + assoc];
        lines[n] = SKIPPED;
        Cache {
            config,
            lines,
            ways: (0..n + assoc).map(|i| (i % assoc) as u32).collect(),
            rr_counters: vec![0; config.num_sets() as usize],
            rng: SmallRng::seed_from_u64(seed),
            hits: 0,
            misses: 0,
            line_shift: config.line_size.trailing_zeros(),
            set_shift: config.num_sets().trailing_zeros(),
            set_mask: config.num_sets() - 1,
            assoc,
            order: match config.policy {
                ReplacementPolicy::Lru => Order::Recency,
                ReplacementPolicy::Fifo => Order::Fill,
                ReplacementPolicy::RoundRobin | ReplacementPolicy::Random(_) => Order::Physical,
            },
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access `addr`, updating state. Returns hit/miss plus victim
    /// information for conflict attribution.
    pub fn access(&mut self, addr: u32) -> CacheAccess {
        let access = self.access_line(self.line_of(addr));
        self.hits += u64::from(access.hit);
        access
    }

    /// Look line `line` (see [`Cache::line_of`]) up once, updating
    /// state as [`Cache::access`] does. Misses are counted here; hits
    /// are left to the caller (see [`Cache::add_hits`]), which may
    /// charge them in bulk.
    ///
    /// A set-associative LRU lookup is [`Cache::lru_lookup`]. Under
    /// every other policy a hit changes nothing, and a hit in a set's
    /// first slot is the whole lookup: the replay loop makes that check
    /// inline ([`Cache::slot_holds`]), finishes a failed one itself
    /// where [`Finish`] allows, and calls this for the rest.
    #[inline(always)]
    pub(crate) fn access_line(&mut self, line: u32) -> CacheAccess {
        let set = line & self.set_mask;
        let base = set as usize * self.assoc;
        if self.lru_sets() {
            return self.lru_access(base, line);
        }
        if self.lines[base] == u64::from(line) {
            return CacheAccess {
                hit: true,
                set,
                way: self.ways[base],
                evicted_tag: None,
            };
        }
        if self.assoc == 1 {
            self.fill_direct_mapped(set, line)
        } else {
            self.scan(set, line)
        }
    }

    /// [`Cache::access_line`] for set-associative LRU sets.
    #[inline(always)]
    fn lru_access(&mut self, base: usize, line: u32) -> CacheAccess {
        let (hit, old, way) = self.lru_lookup(base, u64::from(line));
        if hit {
            CacheAccess {
                hit,
                set: line & self.set_mask,
                way,
                evicted_tag: None,
            }
        } else {
            self.missed(line, old, way)
        }
    }

    /// The index of line `line`'s set's first slot: a direct-mapped
    /// set's one way, an LRU set's most recently used way. A lookup
    /// that hits there changes no state.
    #[inline]
    pub(crate) fn first_slot(&self, line: u32) -> usize {
        (line & self.set_mask) as usize * self.assoc
    }

    /// The first slot of the set skipped units are sent to, and the
    /// value it holds (see [`SKIPPED`]).
    #[inline]
    pub(crate) fn skip_slot(&self) -> (usize, u32) {
        (self.lines.len() - self.assoc, SKIPPED as u32)
    }

    /// Whether sets are set-associative and kept in LRU order, the
    /// policy whose hits reorder a set.
    #[inline]
    fn lru_sets(&self) -> bool {
        self.order == Order::Recency && self.assoc > 1
    }

    /// Where a stream replay finishes a lookup that missed the first
    /// slot, before an L2 is considered.
    pub(crate) fn finish(&self) -> Finish {
        if self.lru_sets() {
            Finish::Lru
        } else if self.assoc == 1 && !matches!(self.config.policy, ReplacementPolicy::Random(_)) {
            Finish::DirectMapped
        } else {
            Finish::OutOfLine
        }
    }

    /// A direct-mapped miss of `line`, whose set's one slot is `slot`:
    /// fill the slot and count the miss. Returns the line it evicted,
    /// if the slot was valid. Draws nothing (see
    /// [`Cache::fill_direct_mapped`]).
    #[inline(always)]
    pub(crate) fn replace_slot(&mut self, slot: usize, line: u32) -> Option<u32> {
        self.misses += 1;
        let old = std::mem::replace(&mut self.lines[slot], u64::from(line));
        (old != INVALID).then_some(old as u32)
    }

    /// [`Cache::lru_lookup`] of `line` in the set whose first slot is
    /// `base`, counting a miss. Returns whether it hit and, on a miss,
    /// the line the fill evicted, if the set was full.
    #[inline(always)]
    pub(crate) fn lru_finish(&mut self, base: usize, line: u32) -> (bool, Option<u32>) {
        let (hit, old, _) = self.lru_lookup(base, u64::from(line));
        if hit {
            return (true, None);
        }
        self.misses += 1;
        (false, (old != INVALID).then_some(old as u32))
    }

    /// The whole LRU lookup of `line` in the set whose first slot is
    /// `base`. Hit or miss, the line ends in the first slot: a hit in
    /// slot `k`, or a fill of victim slot `k` (the first invalid slot,
    /// else the last, the least recently used), moves slots `0..k` back
    /// by one. For 4-way sets, the benchmark's set-associative caches,
    /// the hit position, the victim and the shift are selects, not
    /// branches, so where a lookup hits costs no misprediction.
    /// Returns whether it hit, the slot's previous line (on a miss: the
    /// evicted line or [`INVALID`]) and the way now holding `line`.
    /// Misses are not counted here (see [`Cache::missed`]).
    #[inline(always)]
    fn lru_lookup(&mut self, base: usize, line: u64) -> (bool, u64, u32) {
        match self.assoc {
            4 => self.lru_lookup_ways::<4>(base, line),
            _ => {
                let k = (0..self.assoc).find(|&i| self.lines[base + i] == line);
                let valid = self.lines[base..base + self.assoc]
                    .iter()
                    .take_while(|&&l| l != INVALID)
                    .count();
                let last = self.assoc - 1;
                let k_at = k.unwrap_or(valid.min(last));
                let (old, way) = (self.lines[base + k_at], self.ways[base + k_at]);
                move_to_front(
                    &mut self.lines[base..base + self.assoc],
                    &mut self.ways[base..base + self.assoc],
                    k_at,
                );
                self.lines[base] = line;
                (k.is_some(), old, way)
            }
        }
    }

    /// [`Cache::lru_lookup`] for `W`-way sets, where the set is an
    /// array and every step a select.
    #[inline(always)]
    fn lru_lookup_ways<const W: usize>(&mut self, base: usize, line: u64) -> (bool, u64, u32) {
        let lines: &mut [u64; W] = (&mut self.lines[base..base + W])
            .try_into()
            .expect("W ways");
        let ways: &mut [u32; W] = (&mut self.ways[base..base + W]).try_into().expect("W ways");
        let (old_lines, old_ways) = (*lines, *ways);
        let (mut k, mut hit, mut valid) = (W - 1, false, 0);
        for i in (0..W).rev() {
            let eq = old_lines[i] == line;
            k = if eq { i } else { k };
            hit |= eq;
            valid += usize::from(old_lines[i] != INVALID);
        }
        // Valid slots are a prefix: the first invalid one is `valid`.
        let k = if hit { k } else { valid.min(W - 1) };
        let (old, way) = (old_lines[k], old_ways[k]);
        for i in 1..W {
            let moves = i <= k;
            lines[i] = if moves {
                old_lines[i - 1]
            } else {
                old_lines[i]
            };
            ways[i] = if moves { old_ways[i - 1] } else { old_ways[i] };
        }
        lines[0] = line;
        ways[0] = way;
        (hit, old, way)
    }

    /// The outcome of a set-associative LRU miss that put `line` in
    /// `way` in place of slot value `old`, counting the miss.
    fn missed(&mut self, line: u32, old: u64, way: u32) -> CacheAccess {
        self.misses += 1;
        CacheAccess {
            hit: false,
            set: line & self.set_mask,
            way,
            evicted_tag: self.tag_of(old),
        }
    }

    /// Whether slot `slot` holds line `line`.
    #[inline(always)]
    pub(crate) fn slot_holds(&self, slot: usize, line: u64) -> bool {
        self.lines[slot] == line
    }

    /// The miss side of a direct-mapped [`Cache::access_line`].
    #[inline(always)]
    fn fill_direct_mapped(&mut self, set: u32, line: u32) -> CacheAccess {
        let evicted = self.replace_slot(set as usize, line);
        if evicted.is_some() && matches!(self.config.policy, ReplacementPolicy::Random(_)) {
            // The set-associative path draws for a full set; drawing
            // here too keeps the RNG sequence policy-uniform. The
            // victim is way 0 all the same.
            self.rng.gen_range(0..1usize);
        }
        CacheAccess {
            hit: false,
            set,
            way: 0,
            evicted_tag: evicted.map(|l| l >> self.set_shift),
        }
    }

    /// A FIFO, round-robin or random lookup that missed the set's
    /// first slot: search the others, then fill a victim on a miss.
    #[inline(never)]
    fn scan(&mut self, set: u32, line: u32) -> CacheAccess {
        let base = set as usize * self.assoc;
        let slots = base..base + self.assoc;
        let key = u64::from(line);
        let lines = &self.lines[slots.clone()];
        if let Some(k) = (1..lines.len()).find(|&k| lines[k] == key) {
            let way = self.ways[base + k];
            return CacheAccess {
                hit: true,
                set,
                way,
                evicted_tag: None,
            };
        }

        self.misses += 1;
        // Valid slots are a prefix, so a set whose last slot is valid
        // is full.
        let last = self.assoc - 1;
        let invalid = if lines[last] == INVALID {
            lines.iter().position(|&l| l == INVALID)
        } else {
            None
        };
        let k = match (self.order, invalid) {
            (Order::Physical, _) => self.pick_physical_victim(set, invalid),
            (_, Some(k)) => k,
            (_, None) => last,
        };
        let old = std::mem::replace(&mut self.lines[base + k], key);
        let way = self.ways[base + k];
        if self.order == Order::Fill {
            // The victim's slot moves to the front: the newest fill.
            move_to_front(&mut self.lines[slots.clone()], &mut self.ways[slots], k);
        }
        CacheAccess {
            hit: false,
            set,
            way,
            evicted_tag: self.tag_of(old),
        }
    }

    /// The victim way of a round-robin or random set: the lowest
    /// invalid way if any (round-robin's fill pointer still moves past
    /// it: ARM-style counters track every linefill, not just
    /// evictions), else the set's counter or a draw from the seeded
    /// RNG.
    fn pick_physical_victim(&mut self, set: u32, invalid: Option<usize>) -> usize {
        let assoc = self.assoc;
        let round_robin = matches!(self.config.policy, ReplacementPolicy::RoundRobin);
        if let Some(w) = invalid {
            if round_robin {
                self.rr_counters[set as usize] = ((w + 1) % assoc) as u32;
            }
            return w;
        }
        if round_robin {
            let c = &mut self.rr_counters[set as usize];
            let w = *c as usize;
            *c = (*c + 1) % self.config.associativity;
            w
        } else {
            self.rng.gen_range(0..assoc)
        }
    }

    /// The tag of slot value `slot`, `None` for an invalid one.
    #[inline]
    fn tag_of(&self, slot: u64) -> Option<u32> {
        (slot != INVALID).then_some((slot as u32) >> self.set_shift)
    }

    /// Count `n` hits that [`Cache::access_line`] left to its caller.
    #[inline]
    pub(crate) fn add_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// The dense line id of `addr`: `addr / line_size`.
    #[inline]
    pub(crate) fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }

    /// The first address of line `line`.
    #[inline]
    pub(crate) fn line_start(&self, line: u32) -> u32 {
        line << self.line_shift
    }

    /// The set line `line` maps to.
    #[inline]
    pub(crate) fn set_of(&self, line: u32) -> u32 {
        line & self.set_mask
    }

    /// The id of the line a miss evicted, if it evicted one.
    #[inline]
    pub(crate) fn evicted_line(&self, access: &CacheAccess) -> Option<u32> {
        access
            .evicted_tag
            .map(|t| (t << self.set_shift) | access.set)
    }

    /// Look up whether `addr` is currently resident (no state change).
    pub fn probe(&self, addr: u32) -> bool {
        let line = self.line_of(addr);
        let base = self.set_of(line) as usize * self.assoc;
        self.lines[base..base + self.assoc].contains(&u64::from(line))
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Reconstruct the base address of a line from its set and tag
    /// (inverse of [`CacheConfig::map`] / [`CacheConfig::tag`]).
    #[inline]
    pub fn line_addr(&self, set: u32, tag: u32) -> u32 {
        self.line_start((tag << self.set_shift) | set)
    }
}

/// Move slot `k` of a set to the front, shifting slots `0..k` back by
/// one.
#[inline]
fn move_to_front(lines: &mut [u64], ways: &mut [u32], k: usize) {
    let (line, way) = (lines[k], ways[k]);
    for i in (0..k).rev() {
        lines[i + 1] = lines[i];
        ways[i + 1] = ways[i];
    }
    lines[0] = line;
    ways[0] = way;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_64b() -> Cache {
        // 64 B direct-mapped, 16 B lines -> 4 sets.
        Cache::new(CacheConfig::direct_mapped(64, 16))
    }

    #[test]
    fn mapping_function_matches_paper() {
        let c = CacheConfig::direct_mapped(2048, 16);
        assert_eq!(c.num_sets(), 128);
        assert_eq!(c.map(0), 0);
        assert_eq!(c.map(16), 1);
        assert_eq!(c.map(2048), 0); // wraps at cache size
        assert_eq!(c.tag(0), 0);
        assert_eq!(c.tag(2048), 1);
    }

    #[test]
    fn associative_mapping() {
        let c = CacheConfig {
            size: 2048,
            line_size: 16,
            associativity: 2,
            policy: ReplacementPolicy::Lru,
        };
        assert_eq!(c.num_sets(), 64);
        // Two addresses one "way-stride" apart map to the same set.
        assert_eq!(c.map(0), c.map(1024));
        assert_ne!(c.tag(0), c.tag(1024));
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm_64b();
        let a = c.access(0);
        assert!(!a.hit);
        assert_eq!(a.evicted_tag, None);
        let a = c.access(4); // same line
        assert!(a.hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let mut c = dm_64b();
        c.access(0); // set 0, tag 0
        let a = c.access(64); // set 0, tag 1: evicts tag 0
        assert!(!a.hit);
        assert_eq!(a.evicted_tag, Some(0));
        assert_eq!(c.line_addr(a.set, a.evicted_tag.unwrap()), 0);
        let a = c.access(0); // misses again (thrash)
        assert!(!a.hit);
        assert_eq!(a.evicted_tag, Some(1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = CacheConfig {
            size: 64,
            line_size: 16,
            associativity: 2,
            policy: ReplacementPolicy::Lru,
        };
        let mut c = Cache::new(cfg);
        // 2 sets. Addresses 0, 32, 64 all map to set 0.
        c.access(0); // fill way0 tag0
        c.access(32); // fill way1 tag1
        c.access(0); // touch tag0 -> tag1 is LRU
        let a = c.access(64); // evicts tag1
        assert_eq!(a.evicted_tag, Some(c.config().tag(32)));
        assert!(c.probe(0));
        assert!(!c.probe(32));
    }

    #[test]
    fn fifo_evicts_oldest_fill() {
        let cfg = CacheConfig {
            size: 64,
            line_size: 16,
            associativity: 2,
            policy: ReplacementPolicy::Fifo,
        };
        let mut c = Cache::new(cfg);
        c.access(0); // oldest fill
        c.access(32);
        c.access(0); // hit: does NOT refresh FIFO stamp
        let a = c.access(64);
        assert_eq!(a.evicted_tag, Some(c.config().tag(0)));
    }

    #[test]
    fn round_robin_cycles_ways() {
        let cfg = CacheConfig {
            size: 64,
            line_size: 16,
            associativity: 2,
            policy: ReplacementPolicy::RoundRobin,
        };
        let mut c = Cache::new(cfg);
        c.access(0);
        c.access(32);
        let a1 = c.access(64);
        let a2 = c.access(96);
        assert_ne!(a1.way, a2.way, "round robin alternates victims");
    }

    #[test]
    fn round_robin_victim_sequence_pinned() {
        // 4-way, 64 B, 16 B lines -> a single set; addresses n*64 all
        // collide. The fill pointer advances on every allocation (cold
        // fills included), so victims proceed 0,1,2,3 during the cold
        // fill and keep cycling 0,1,2,3,0 once the set is full.
        let cfg = CacheConfig {
            size: 64,
            line_size: 16,
            associativity: 4,
            policy: ReplacementPolicy::RoundRobin,
        };
        let mut c = Cache::new(cfg);
        let ways: Vec<u32> = (0..9u32).map(|n| c.access(n * 64).way).collect();
        assert_eq!(ways, vec![0, 1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mk = |seed| {
            let cfg = CacheConfig {
                size: 128,
                line_size: 16,
                associativity: 4,
                policy: ReplacementPolicy::Random(seed),
            };
            let mut c = Cache::new(cfg);
            let addrs = [0u32, 128, 256, 384, 512, 0, 128, 640, 256];
            addrs.iter().map(|&a| c.access(a).hit).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = dm_64b();
        c.access(0);
        let h = c.hits();
        let m = c.misses();
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!((c.hits(), c.misses()), (h, m));
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn bad_line_size_panics() {
        Cache::new(CacheConfig::direct_mapped(64, 12));
    }

    #[test]
    fn line_addr_round_trips() {
        let c = dm_64b();
        for addr in (0..512).step_by(16) {
            let set = c.config().map(addr);
            let tag = c.config().tag(addr);
            assert_eq!(c.line_addr(set, tag), addr);
        }
    }
}
