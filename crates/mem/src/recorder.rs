//! Fine-grained simulation event recording behind a zero-cost trait.
//!
//! The fetch engine reports I-cache misses to a [`Recorder`] as they
//! happen: one `cache_fill`, `cache_eviction` and `l2_access` per miss,
//! and in a [`crate::Replayer`] one `cache_miss` naming the memory
//! object. Everything that does not depend on history arrives as
//! totals when a replay call ends (see [`crate::fetch`]): the I-cache
//! fetches of each set (`cache_fetches`), and the scratchpad and
//! loop-cache fetches of each memory object. Summed, every tally is
//! what one fetch at a time gives. The default [`NullRecorder`] has
//! empty inlined methods, so the uninstrumented path monomorphizes to
//! no recording at all — no allocation, no branch.
//! [`SetStatsRecorder`] keeps per-set hit/miss/eviction/fill tallies
//! (the raw material behind the paper's conflict analysis: a set with
//! evictions ≫ cold fills is where `m_ij` lives) and can export them
//! into a `casa-obs` registry. [`crate::ConflictRecorder`] attributes
//! each miss to the object that evicted its line: a replay builds
//! conflict edges only when it is handed one.

use casa_obs::Obs;

/// Observer of individual memory-system events.
///
/// All methods have empty default bodies: implement only what you
/// need. Methods take `&mut self` so recorders can be plain structs
/// without interior mutability.
pub trait Recorder {
    /// `n` I-cache fetches that mapped to `set`, hits and misses alike.
    /// A replay reports each set's total when the call ends; its hits
    /// are these fetches minus the set's fills.
    #[inline]
    fn cache_fetches(&mut self, set: u32, n: u64) {
        let _ = (set, n);
    }

    /// A miss in `set`, which fills a line (every miss allocates one).
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
    /// memory object's total when the call ends.
    #[inline]
    fn spm_access(&mut self, bank: u8, n: u64) {
        let _ = (bank, n);
    }

    /// `n` fetches served by the loop cache. A replay reports a memory
    /// object's total when the call ends.
    #[inline]
    fn loop_cache_access(&mut self, n: u64) {
        let _ = n;
    }

    /// An L2 lookup that hit (`hit`) or missed.
    #[inline]
    fn l2_access(&mut self, hit: bool) {
        let _ = hit;
    }

    /// A [`crate::Replayer`]'s I-cache miss of memory object `obj` on
    /// line id `line` (`addr / line_size`), which displaced line
    /// `evicted` if the set was full. Arrives after the miss's fill,
    /// eviction and L2 events.
    #[inline]
    fn cache_miss(&mut self, obj: usize, line: u32, evicted: Option<u32>) {
        let _ = (obj, line, evicted);
    }
}

/// The do-nothing recorder; the default everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Per-set cache statistics: fetches, misses (line fills) and
/// evictions indexed by set, plus per-bank SPM and loop-cache/L2
/// tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetStatsRecorder {
    fetches: Vec<u64>,
    fills: Vec<u64>,
    evictions: Vec<u64>,
    spm: Vec<u64>,
    loop_cache: u64,
    l2_hits: u64,
    l2_misses: u64,
}

impl SetStatsRecorder {
    /// A recorder for a cache with `num_sets` sets.
    pub fn new(num_sets: usize) -> Self {
        SetStatsRecorder {
            fetches: vec![0; num_sets],
            fills: vec![0; num_sets],
            evictions: vec![0; num_sets],
            ..SetStatsRecorder::default()
        }
    }

    /// Per-set hit counts: each set's fetches minus its misses.
    pub fn hits(&self) -> Vec<u64> {
        self.fetches
            .iter()
            .zip(&self.fills)
            .map(|(&f, &m)| f.saturating_sub(m))
            .collect()
    }

    /// Per-set miss counts.
    pub fn misses(&self) -> &[u64] {
        &self.fills
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
        let hits = self.hits();
        obs.add("sim.cache.hits", total(&hits));
        obs.add("sim.cache.misses", total(&self.fills));
        obs.add("sim.cache.evictions", total(&self.evictions));
        obs.add("sim.cache.fills", total(&self.fills));
        obs.add("sim.spm.accesses", total(&self.spm));
        obs.add("sim.loop_cache.accesses", self.loop_cache);
        obs.add("sim.l2.hits", self.l2_hits);
        obs.add("sim.l2.misses", self.l2_misses);
        for ((&h, &m), &e) in hits.iter().zip(&self.fills).zip(&self.evictions) {
            obs.record("sim.cache.set_hits", h);
            obs.record("sim.cache.set_misses", m);
            obs.record("sim.cache.set_evictions", e);
        }
    }
}

impl Recorder for SetStatsRecorder {
    #[inline]
    fn cache_fetches(&mut self, set: u32, n: u64) {
        self.fetches[set as usize] += n;
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
        r.cache_fill(0);
        r.cache_fetches(0, 2);
        r.cache_fill(3);
        r.cache_eviction(3);
        r.cache_fetches(3, 4);
        r.cache_fetches(2, 3);
        r.spm_access(1, 2);
        r.loop_cache_access(5);
        r.l2_access(true);
        assert_eq!(r.hits(), vec![1, 0, 3, 3], "fetches minus misses");
        assert_eq!(r.misses(), &[1, 0, 0, 1]);
        assert_eq!(r.fills(), &[1, 0, 0, 1]);
        assert_eq!(r.evictions(), &[0, 0, 0, 1]);
        assert_eq!(r.spm(), &[0, 2], "bank vector grows on demand");
        assert_eq!(r.loop_cache, 5);
    }

    #[test]
    fn export_writes_totals_and_distributions() {
        let mut r = SetStatsRecorder::new(2);
        r.cache_fetches(0, 2);
        r.cache_fetches(1, 1);
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
