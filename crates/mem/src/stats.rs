//! Access counters for one simulation run.
//!
//! [`FetchStats`] is both the tally the fetch engine increments and
//! what everything downstream (energy model, reports, tests) reads.

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Per-component access counts collected by the fetch engine.
///
/// These are exactly the quantities the paper's figures plot: SPM /
/// loop-cache / I-cache accesses, I-cache misses, and main-memory word
/// transfers (line fills).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchStats {
    /// Total instruction fetches issued.
    pub fetches: u64,
    /// Fetches served by a scratchpad bank.
    pub spm_accesses: u64,
    /// Fetches served by the loop cache.
    pub loop_cache_accesses: u64,
    /// Fetches that accessed the I-cache (hits + misses).
    pub cache_accesses: u64,
    /// I-cache hits.
    pub cache_hits: u64,
    /// I-cache misses.
    pub cache_misses: u64,
    /// 32-bit words transferred from main memory (miss line fills).
    pub main_word_accesses: u64,
    /// 32-bit words copied from main memory to the scratchpad by the
    /// overlay manager (zero for static allocation).
    pub overlay_copy_words: u64,
    /// L2 lookups (equals L1 misses when an L2 is present, else 0).
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (these go to main memory).
    pub l2_misses: u64,
}

impl FetchStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        FetchStats::default()
    }

    /// I-cache miss rate in `[0, 1]`; `0` when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.cache_accesses == 0 {
            0.0
        } else {
            self.cache_misses as f64 / self.cache_accesses as f64
        }
    }

    /// Internal-consistency check: cache accesses split into hits and
    /// misses, and every fetch is served by exactly one component.
    pub fn is_consistent(&self) -> bool {
        self.cache_accesses == self.cache_hits + self.cache_misses
            && self.fetches == self.spm_accesses + self.loop_cache_accesses + self.cache_accesses
            && self.l2_accesses == self.l2_hits + self.l2_misses
            && (self.l2_accesses == 0 || self.l2_accesses == self.cache_misses)
    }
}

impl AddAssign for FetchStats {
    fn add_assign(&mut self, rhs: FetchStats) {
        self.fetches += rhs.fetches;
        self.spm_accesses += rhs.spm_accesses;
        self.loop_cache_accesses += rhs.loop_cache_accesses;
        self.cache_accesses += rhs.cache_accesses;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.main_word_accesses += rhs.main_word_accesses;
        self.overlay_copy_words += rhs.overlay_copy_words;
        self.l2_accesses += rhs.l2_accesses;
        self.l2_hits += rhs.l2_hits;
        self.l2_misses += rhs.l2_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero() {
        assert_eq!(FetchStats::new().miss_rate(), 0.0);
        let s = FetchStats {
            cache_accesses: 10,
            cache_hits: 9,
            cache_misses: 1,
            fetches: 10,
            ..FetchStats::new()
        };
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        assert!(s.is_consistent());
    }

    #[test]
    fn inconsistent_detected() {
        let s = FetchStats {
            fetches: 5,
            cache_accesses: 3,
            cache_hits: 3,
            ..FetchStats::new()
        };
        assert!(!s.is_consistent());
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = FetchStats {
            fetches: 1,
            spm_accesses: 1,
            ..FetchStats::new()
        };
        let b = FetchStats {
            fetches: 2,
            cache_accesses: 2,
            cache_hits: 2,
            ..FetchStats::new()
        };
        a += b;
        assert_eq!(a.fetches, 3);
        assert_eq!(a.spm_accesses, 1);
        assert_eq!(a.cache_hits, 2);
    }
}
