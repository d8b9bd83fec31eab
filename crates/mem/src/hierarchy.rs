//! The instruction memory system: cache + optional scratchpad banks or
//! loop cache, backed by off-chip main memory.

use crate::cache::{Cache, CacheAccess, CacheConfig};
use crate::loop_cache::{LoopCacheController, PreloadError};
use crate::recorder::{NullRecorder, Recorder};
use crate::scratchpad::Scratchpad;
use crate::stats::{FetchCounters, FetchStats};
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
    counters: FetchCounters,
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
            counters: FetchCounters::new(),
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
        self.fetch_run(loc, loc.addr, 1)
    }

    /// The first address past `loc` that a run of fetches starting at
    /// `loc` must not reach: the end of `loc`'s I-cache line, cut at
    /// the nearest loop-cache range bound. A run inside a loop-cache
    /// range ends where the range does; a scratchpad bank serves
    /// every address alike, so a run there never has to end.
    #[inline]
    pub(crate) fn run_end(&self, loc: Location) -> u32 {
        match loc.region {
            Region::Spm(_) => u32::MAX,
            Region::Main => {
                let line_end = self.cache.line_end(loc.addr);
                match &self.loop_cache {
                    Some(lc) => lc.run_end(loc.addr, line_end),
                    None => line_end,
                }
            }
        }
    }

    /// Fetch `n ≥ 1` instructions at ascending addresses from `loc` to
    /// `last`, all below [`Self::run_end`]`(loc)` and therefore served
    /// by one place: counted exactly as `n` calls of [`Self::fetch`],
    /// with one lookup. The returned event is the first fetch's; in
    /// the I-cache only it can miss.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::fetch`].
    #[inline]
    pub(crate) fn fetch_run(&mut self, loc: Location, last: u32, n: u64) -> FetchEvent {
        self.counters.fetches.add(n);
        match loc.region {
            Region::Spm(bank) => {
                let spm = self
                    .spm
                    .get_mut(bank as usize)
                    .unwrap_or_else(|| panic!("no scratchpad bank {bank}"));
                spm.access_run(last, n);
                self.counters.spm_accesses.add(n);
                self.recorder.spm_access(bank, n);
                FetchEvent::Spm { bank }
            }
            Region::Main => {
                if let Some(lc) = &mut self.loop_cache {
                    if lc.access_run(loc.addr, n) {
                        self.counters.loop_cache_accesses.add(n);
                        self.recorder.loop_cache_access(n);
                        return FetchEvent::LoopCache;
                    }
                }
                let access = self.cache.access_run(loc.addr, n);
                self.counters.cache_accesses.add(n);
                self.recorder.cache_access(access.set, n, access.hit);
                if access.hit {
                    self.counters.cache_hits.add(n);
                } else {
                    self.counters.cache_hits.add(n - 1);
                    self.counters.cache_misses.inc();
                    self.recorder.cache_fill(access.set);
                    if access.evicted_tag.is_some() {
                        self.recorder.cache_eviction(access.set);
                    }
                    let words = self.cache.config().words_per_line() as u64;
                    match &mut self.l2 {
                        Some(l2) => {
                            self.counters.l2_accesses.inc();
                            let l2_hit = l2.access(loc.addr).hit;
                            self.recorder.l2_access(l2_hit);
                            if l2_hit {
                                self.counters.l2_hits.inc();
                            } else {
                                self.counters.l2_misses.inc();
                                self.counters.main_word_accesses.add(words);
                            }
                        }
                        None => self.counters.main_word_accesses.add(words),
                    }
                }
                FetchEvent::Cache(access)
            }
        }
    }

    /// The I-cache (for tag/set arithmetic).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Counters accumulated so far, as a plain-integer snapshot.
    pub fn stats(&self) -> FetchStats {
        self.counters.view()
    }

    /// The event recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
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
