//! Fine-grained simulation event recording behind a zero-cost trait.
//!
//! The fetch engine reports I-cache events to a [`Recorder`] as they
//! happen: one `cache_access` per run of consecutive fetches of one
//! line, with the run's length as a count, and one `cache_fill`,
//! `cache_eviction` and `l2_access` per miss. Scratchpad and loop-cache
//! service does not depend on history, so a replay reports it as
//! per-block totals to `spm_access` and `loop_cache_access` when each
//! [`crate::Replayer::replay`] call ends (see [`crate::fetch`]). Summed,
//! every tally is what one fetch at a time gives. The
//! default [`NullRecorder`] has empty inlined methods, so the
//! uninstrumented path monomorphizes to exactly the old code — no
//! allocation, no branch. [`SetStatsRecorder`] keeps
//! per-set hit/miss/eviction/fill tallies (the raw material behind the
//! paper's conflict analysis: a set with evictions ≫ cold fills is
//! where `m_ij` lives) and can export them into a `casa-obs` registry.

use casa_obs::Obs;

/// Observer of individual memory-system events.
///
/// All methods have empty default bodies: implement only what you
/// need. Methods take `&mut self` so recorders can be plain structs
/// without interior mutability.
pub trait Recorder {
    /// `n ≥ 1` I-cache lookups of one line in `set`: the first hit
    /// (`hit`) or missed, the other `n − 1` hit.
    #[inline]
    fn cache_access(&mut self, set: u32, n: u64, hit: bool) {
        let _ = (set, n, hit);
    }

    /// A line fill into `set` (every miss allocates a line).
    #[inline]
    fn cache_fill(&mut self, set: u32) {
        let _ = set;
    }

    /// A fill into `set` that displaced a valid line.
    #[inline]
    fn cache_eviction(&mut self, set: u32) {
        let _ = set;
    }

    /// `n` fetches served by scratchpad bank `bank`. A replay reports a
    /// block's total when the [`crate::Replayer::replay`] call ends.
    #[inline]
    fn spm_access(&mut self, bank: u8, n: u64) {
        let _ = (bank, n);
    }

    /// `n` fetches served by the loop cache. A replay reports a
    /// block's total when the [`crate::Replayer::replay`] call ends.
    #[inline]
    fn loop_cache_access(&mut self, n: u64) {
        let _ = n;
    }

    /// An L2 lookup that hit (`hit`) or missed.
    #[inline]
    fn l2_access(&mut self, hit: bool) {
        let _ = hit;
    }
}

/// The do-nothing recorder; the default everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Per-set cache statistics: hits, misses, evictions and line fills
/// indexed by set, plus per-bank SPM and loop-cache/L2 tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetStatsRecorder {
    hits: Vec<u64>,
    misses: Vec<u64>,
    evictions: Vec<u64>,
    fills: Vec<u64>,
    spm: Vec<u64>,
    loop_cache: u64,
    l2_hits: u64,
    l2_misses: u64,
}

impl SetStatsRecorder {
    /// A recorder for a cache with `num_sets` sets.
    pub fn new(num_sets: usize) -> Self {
        SetStatsRecorder {
            hits: vec![0; num_sets],
            misses: vec![0; num_sets],
            evictions: vec![0; num_sets],
            fills: vec![0; num_sets],
            ..SetStatsRecorder::default()
        }
    }

    /// Per-set hit counts.
    pub fn hits(&self) -> &[u64] {
        &self.hits
    }

    /// Per-set miss counts.
    pub fn misses(&self) -> &[u64] {
        &self.misses
    }

    /// Per-set eviction counts (valid lines displaced).
    pub fn evictions(&self) -> &[u64] {
        &self.evictions
    }

    /// Per-set line-fill counts (every miss fills a line, so
    /// `fills[s] == misses[s]`; evictions are the non-cold subset).
    pub fn fills(&self) -> &[u64] {
        &self.fills
    }

    /// Per-bank SPM access counts.
    pub fn spm(&self) -> &[u64] {
        &self.spm
    }

    /// Export into an observability registry: totals as counters
    /// (`sim.cache.*`, `sim.spm.accesses`, …) and the across-set
    /// distributions as histograms (`sim.cache.set_*`) — one sample
    /// per set, so skew between sets is visible without a metric per
    /// set.
    pub fn export(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        let total = |v: &[u64]| v.iter().sum::<u64>();
        obs.add("sim.cache.hits", total(&self.hits));
        obs.add("sim.cache.misses", total(&self.misses));
        obs.add("sim.cache.evictions", total(&self.evictions));
        obs.add("sim.cache.fills", total(&self.fills));
        obs.add("sim.spm.accesses", total(&self.spm));
        obs.add("sim.loop_cache.accesses", self.loop_cache);
        obs.add("sim.l2.hits", self.l2_hits);
        obs.add("sim.l2.misses", self.l2_misses);
        for s in 0..self.hits.len() {
            obs.record("sim.cache.set_hits", self.hits[s]);
            obs.record("sim.cache.set_misses", self.misses[s]);
            obs.record("sim.cache.set_evictions", self.evictions[s]);
        }
    }
}

impl Recorder for SetStatsRecorder {
    #[inline]
    fn cache_access(&mut self, set: u32, n: u64, hit: bool) {
        let s = set as usize;
        if hit {
            self.hits[s] += n;
        } else {
            self.misses[s] += 1;
            self.hits[s] += n - 1;
        }
    }

    #[inline]
    fn cache_fill(&mut self, set: u32) {
        self.fills[set as usize] += 1;
    }

    #[inline]
    fn cache_eviction(&mut self, set: u32) {
        self.evictions[set as usize] += 1;
    }

    #[inline]
    fn spm_access(&mut self, bank: u8, n: u64) {
        let b = bank as usize;
        if self.spm.len() <= b {
            self.spm.resize(b + 1, 0);
        }
        self.spm[b] += n;
    }

    #[inline]
    fn loop_cache_access(&mut self, n: u64) {
        self.loop_cache += n;
    }

    #[inline]
    fn l2_access(&mut self, hit: bool) {
        if hit {
            self.l2_hits += 1;
        } else {
            self.l2_misses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_obs::MetricValue;

    #[test]
    fn set_stats_accumulate() {
        let mut r = SetStatsRecorder::new(4);
        r.cache_access(0, 1, false);
        r.cache_fill(0);
        r.cache_access(0, 1, true);
        r.cache_access(3, 4, false);
        r.cache_fill(3);
        r.cache_eviction(3);
        r.cache_access(2, 3, true);
        r.spm_access(1, 2);
        r.loop_cache_access(5);
        r.l2_access(true);
        assert_eq!(r.hits(), &[1, 0, 3, 3], "a run's trailing fetches hit");
        assert_eq!(r.misses(), &[1, 0, 0, 1]);
        assert_eq!(r.fills(), &[1, 0, 0, 1]);
        assert_eq!(r.evictions(), &[0, 0, 0, 1]);
        assert_eq!(r.spm(), &[0, 2], "bank vector grows on demand");
        assert_eq!(r.loop_cache, 5);
    }

    #[test]
    fn export_writes_totals_and_distributions() {
        let mut r = SetStatsRecorder::new(2);
        r.cache_access(0, 2, true);
        r.cache_access(1, 1, false);
        r.cache_fill(1);
        r.cache_eviction(1);
        let obs = Obs::enabled();
        r.export(&obs);
        let snap = obs.snapshot();
        assert_eq!(snap.get("sim.cache.hits"), Some(&MetricValue::Counter(2)));
        assert_eq!(snap.get("sim.cache.misses"), Some(&MetricValue::Counter(1)));
        assert_eq!(
            snap.get("sim.cache.evictions"),
            Some(&MetricValue::Counter(1))
        );
        match snap.get("sim.cache.set_hits") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 2, "one sample per set"),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn export_on_disabled_obs_is_noop() {
        let r = SetStatsRecorder::new(1);
        let obs = Obs::disabled();
        r.export(&obs);
        assert!(obs.snapshot().is_empty());
    }
}
