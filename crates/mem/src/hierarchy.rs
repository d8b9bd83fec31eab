//! The instruction memory system: cache + optional scratchpad banks or
//! loop cache, backed by off-chip main memory.

use crate::cache::{Cache, CacheAccess, CacheConfig, Finish};
use crate::loop_cache::{LoopCacheController, PreloadError};
use crate::recorder::{NullRecorder, Recorder};
use crate::scratchpad::Scratchpad;
use crate::stats::FetchStats;
use crate::stream::Target;
use casa_trace::{Location, Region};
use serde::{Deserialize, Serialize};

/// Static description of an instruction memory system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 I-cache parameters.
    pub cache: CacheConfig,
    /// Optional unified L2 I-cache behind the L1 (paper §4: the CASA
    /// formulation is unchanged by deeper hierarchies — L2 misses are
    /// a subset of L1 misses). Must use the same line size as L1.
    pub l2: Option<CacheConfig>,
    /// Scratchpad bank sizes in bytes (empty = no scratchpad).
    pub spm_sizes: Vec<u32>,
    /// Loop cache `(capacity, max_objects)`, if present.
    pub loop_cache: Option<(u32, usize)>,
    /// Main-memory ranges statically preloaded into the loop cache.
    pub loop_cache_preload: Vec<(u32, u32)>,
}

impl HierarchyConfig {
    /// Scratchpad-plus-cache system (paper fig. 1(a)) with one bank.
    pub fn spm_system(cache: CacheConfig, spm_size: u32) -> Self {
        HierarchyConfig {
            cache,
            l2: None,
            spm_sizes: vec![spm_size],
            loop_cache: None,
            loop_cache_preload: Vec::new(),
        }
    }

    /// Loop-cache-plus-cache system (paper fig. 1(b)).
    pub fn loop_cache_system(
        cache: CacheConfig,
        capacity: u32,
        max_objects: usize,
        preload: Vec<(u32, u32)>,
    ) -> Self {
        HierarchyConfig {
            cache,
            l2: None,
            spm_sizes: Vec::new(),
            loop_cache: Some((capacity, max_objects)),
            loop_cache_preload: preload,
        }
    }

    /// Add an L2 I-cache behind the L1.
    ///
    /// # Panics
    ///
    /// Panics if the L2 line size differs from the L1's (line-fill
    /// accounting assumes equal lines).
    pub fn with_l2(mut self, l2: CacheConfig) -> Self {
        assert_eq!(
            l2.line_size, self.cache.line_size,
            "L2 line size must match L1"
        );
        self.l2 = Some(l2);
        self
    }

    /// Cache-only system (no SPM, no loop cache).
    pub fn cache_only(cache: CacheConfig) -> Self {
        HierarchyConfig {
            cache,
            l2: None,
            spm_sizes: Vec::new(),
            loop_cache: None,
            loop_cache_preload: Vec::new(),
        }
    }
}

/// How a fetch was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchEvent {
    /// Served by scratchpad bank `bank`.
    Spm {
        /// The bank index.
        bank: u8,
    },
    /// Served by the loop cache.
    LoopCache,
    /// Went to the I-cache; carries the cache outcome for conflict
    /// attribution.
    Cache(CacheAccess),
}

/// A live instruction memory system with counters.
///
/// Generic over a [`Recorder`] that observes every event; the default
/// [`NullRecorder`] monomorphizes every recorder call away, so the
/// uninstrumented system is exactly as fast as before the trait
/// existed.
#[derive(Debug, Clone)]
pub struct InstMemorySystem<R: Recorder = NullRecorder> {
    cache: Cache,
    l2: Option<Cache>,
    spm: Vec<Scratchpad>,
    loop_cache: Option<LoopCacheController>,
    counters: FetchStats,
    recorder: R,
}

impl InstMemorySystem {
    /// Build the system described by `config` (no event recording).
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] if the loop-cache preload violates
    /// the controller's limits.
    pub fn new(config: &HierarchyConfig) -> Result<Self, PreloadError> {
        InstMemorySystem::with_recorder(config, NullRecorder)
    }
}

impl<R: Recorder> InstMemorySystem<R> {
    /// Build the system described by `config`, reporting every event
    /// to `recorder`.
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] if the loop-cache preload violates
    /// the controller's limits.
    pub fn with_recorder(config: &HierarchyConfig, recorder: R) -> Result<Self, PreloadError> {
        let loop_cache = match config.loop_cache {
            Some((cap, max)) => {
                let mut lc = LoopCacheController::new(cap, max);
                lc.preload(&config.loop_cache_preload)?;
                Some(lc)
            }
            None => None,
        };
        Ok(InstMemorySystem {
            cache: Cache::new(config.cache),
            l2: config.l2.map(Cache::new),
            spm: config
                .spm_sizes
                .iter()
                .map(|&s| Scratchpad::new(s))
                .collect(),
            loop_cache,
            counters: FetchStats::new(),
            recorder,
        })
    }

    /// Fetch one instruction from `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` names a scratchpad bank the system does not
    /// have, or an address outside that bank — both indicate a layout
    /// bug, not a runtime condition.
    pub fn fetch(&mut self, loc: Location) -> FetchEvent {
        self.charge_fetches(1);
        match loc.region {
            Region::Spm(bank) => {
                self.spm_fetches(bank, loc.addr, 1);
                FetchEvent::Spm { bank }
            }
            Region::Main if self.in_loop_cache(loc.addr) => {
                self.loop_cache_fetches(1);
                FetchEvent::LoopCache
            }
            Region::Main => {
                let line = self.cache.line_of(loc.addr);
                self.recorder.cache_fetches(self.cache.set_of(line), 1);
                let access = self.cache.access_line(line);
                if !access.hit {
                    self.line_fill(line, access.evicted_tag.is_some());
                }
                self.charge_cache_fetches(1, u64::from(access.hit));
                FetchEvent::Cache(access)
            }
        }
    }

    /// What a line stream replayed on this system must be compiled
    /// for, with traces padded to `padding` bytes.
    pub(crate) fn target(&self, padding: u32) -> Target {
        let ranges = self.loop_cache.as_ref().map_or(&[][..], |lc| lc.ranges());
        Target::of(self.cache.config(), padding, ranges)
    }

    /// Whether the loop cache serves main-memory address `addr`.
    #[inline]
    pub(crate) fn in_loop_cache(&self, addr: u32) -> bool {
        self.loop_cache.as_ref().is_some_and(|lc| lc.contains(addr))
    }

    /// Charge `n` fetches, served by any component, to the fetch
    /// counter.
    #[inline]
    pub(crate) fn charge_fetches(&mut self, n: u64) {
        self.counters.fetches += n;
    }

    /// Charge `n` fetches from scratchpad bank `bank`, the highest at
    /// `last`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::fetch`].
    pub(crate) fn spm_fetches(&mut self, bank: u8, last: u32, n: u64) {
        let spm = self
            .spm
            .get_mut(bank as usize)
            .unwrap_or_else(|| panic!("no scratchpad bank {bank}"));
        spm.access_run(last, n);
        self.counters.spm_accesses += n;
        self.recorder.spm_access(bank, n);
    }

    /// Charge `n` fetches served by the loop cache.
    pub(crate) fn loop_cache_fetches(&mut self, n: u64) {
        self.loop_cache
            .as_mut()
            .expect("only a loop cache serves loop-cache fetches")
            .count(n);
        self.counters.loop_cache_accesses += n;
        self.recorder.loop_cache_access(n);
    }

    /// Charge `accesses` I-cache fetches, `hits` of them hits, to the
    /// access and hit counters and to [`Cache::hits`]. A lookup and
    /// [`Self::line_fill`] leave all three to their caller.
    #[inline]
    pub(crate) fn charge_cache_fetches(&mut self, accesses: u64, hits: u64) {
        self.counters.cache_accesses += accesses;
        self.counters.cache_hits += hits;
        self.cache.add_hits(hits);
    }

    /// Report `n` I-cache fetches of line `line` to the recorder's
    /// per-set tally.
    #[inline]
    pub(crate) fn record_cache_fetches(&mut self, line: u32, n: u64) {
        self.recorder.cache_fetches(self.cache.set_of(line), n);
    }

    /// Where a stream replay finishes an I-cache lookup that missed its
    /// set's first slot: out of the loop whenever an L2 serves misses.
    pub(crate) fn finish(&self) -> Finish {
        match self.l2 {
            Some(_) => Finish::OutOfLine,
            None => self.cache.finish(),
        }
    }

    /// The miss side of an I-cache lookup of line `line`, which
    /// evicted a valid line if `evicted`: the miss counters, the
    /// recorder's fill and eviction events and the line fill from the
    /// L2 or main memory. The cache has counted its own miss; the
    /// access and hit counters, the cache's own included, and the
    /// recorder's fetch tally are charged by the caller (see
    /// [`Self::charge_cache_fetches`]).
    #[inline(always)]
    pub(crate) fn line_fill(&mut self, line: u32, evicted: bool) {
        let set = self.cache.set_of(line);
        self.counters.cache_misses += 1;
        self.recorder.cache_fill(set);
        if evicted {
            self.recorder.cache_eviction(set);
        }
        let words = self.cache.config().words_per_line() as u64;
        match &mut self.l2 {
            Some(l2) => {
                self.counters.l2_accesses += 1;
                let l2_hit = l2.access(self.cache.line_start(line)).hit;
                self.recorder.l2_access(l2_hit);
                if l2_hit {
                    self.counters.l2_hits += 1;
                } else {
                    self.counters.l2_misses += 1;
                    self.counters.main_word_accesses += words;
                }
            }
            None => self.counters.main_word_accesses += words,
        }
    }

    /// The I-cache (for tag/set arithmetic).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The I-cache, for a replay that finishes lookups itself.
    #[inline]
    pub(crate) fn cache_mut(&mut self) -> &mut Cache {
        &mut self.cache
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FetchStats {
        self.counters
    }

    /// The event recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The event recorder, for the events a replay reports itself.
    #[inline]
    pub(crate) fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// Tear down, yielding the recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn loc(region: Region, addr: u32) -> Location {
        Location { region, addr }
    }

    #[test]
    fn spm_fetch_bypasses_cache() {
        let cfg = HierarchyConfig::spm_system(CacheConfig::direct_mapped(64, 16), 128);
        let mut sys = InstMemorySystem::new(&cfg).unwrap();
        sys.fetch(loc(Region::Spm(0), 0));
        sys.fetch(loc(Region::Spm(0), 4));
        assert_eq!(sys.stats().spm_accesses, 2);
        assert_eq!(sys.stats().cache_accesses, 0);
        assert!(sys.stats().is_consistent());
    }

    #[test]
    fn main_fetch_uses_cache_and_counts_linefill() {
        let cfg = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16));
        let mut sys = InstMemorySystem::new(&cfg).unwrap();
        let e = sys.fetch(loc(Region::Main, 0));
        assert!(matches!(e, FetchEvent::Cache(a) if !a.hit));
        let e = sys.fetch(loc(Region::Main, 4));
        assert!(matches!(e, FetchEvent::Cache(a) if a.hit));
        // One miss = one 16-byte line fill = 4 words.
        assert_eq!(sys.stats().main_word_accesses, 4);
        assert!(sys.stats().is_consistent());
        // The cache's own counters agree once the fetch has returned.
        assert_eq!(sys.cache().hits(), sys.stats().cache_hits);
        assert_eq!(sys.cache().misses(), sys.stats().cache_misses);
    }

    #[test]
    fn loop_cache_intercepts_preloaded_range() {
        let cfg = HierarchyConfig::loop_cache_system(
            CacheConfig::direct_mapped(64, 16),
            128,
            4,
            vec![(0, 32)],
        );
        let mut sys = InstMemorySystem::new(&cfg).unwrap();
        assert!(matches!(
            sys.fetch(loc(Region::Main, 0)),
            FetchEvent::LoopCache
        ));
        assert!(matches!(
            sys.fetch(loc(Region::Main, 32)),
            FetchEvent::Cache(_)
        ));
        assert_eq!(sys.stats().loop_cache_accesses, 1);
        assert_eq!(sys.stats().cache_accesses, 1);
        assert!(sys.stats().is_consistent());
    }

    #[test]
    fn bad_preload_propagates_error() {
        let cfg = HierarchyConfig::loop_cache_system(
            CacheConfig::direct_mapped(64, 16),
            16,
            1,
            vec![(0, 32)], // 32 bytes > 16 capacity
        );
        assert!(InstMemorySystem::new(&cfg).is_err());
    }

    #[test]
    #[should_panic(expected = "no scratchpad bank")]
    fn fetch_from_missing_bank_panics() {
        let cfg = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16));
        let mut sys = InstMemorySystem::new(&cfg).unwrap();
        sys.fetch(loc(Region::Spm(0), 0));
    }

    #[test]
    fn l2_filters_main_memory_traffic() {
        let cfg = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16))
            .with_l2(CacheConfig::direct_mapped(256, 16));
        let mut sys = InstMemorySystem::new(&cfg).unwrap();
        // Two lines that conflict in the 64 B L1 but coexist in the
        // 256 B L2: after the cold pass, thrashing L1 misses hit L2.
        for _ in 0..5 {
            sys.fetch(loc(Region::Main, 0));
            sys.fetch(loc(Region::Main, 64));
        }
        let st = sys.stats();
        assert!(st.is_consistent());
        assert_eq!(st.l2_accesses, st.cache_misses);
        assert_eq!(st.l2_misses, 2, "only the two cold fills reach memory");
        assert!(st.l2_hits >= 6);
        assert_eq!(st.main_word_accesses, 2 * 4);
    }

    #[test]
    #[should_panic(expected = "line size must match")]
    fn l2_line_size_mismatch_panics() {
        let _ = HierarchyConfig::cache_only(CacheConfig::direct_mapped(64, 16))
            .with_l2(CacheConfig::direct_mapped(256, 32));
    }
}
