//! Typed counters, gauges and histograms in a global-free [`Registry`].
//!
//! Two counter flavours serve two regimes:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] are atomic handles vended
//!   by a [`Registry`]; the registry is `Send + Sync`, so handles can
//!   be updated from the sweep thread pool without coordination.
//! * [`LocalCounter`] is a plain `u64` for single-owner hot paths (the
//!   fetch engine increments one per simulated instruction); it costs
//!   exactly an integer add and is flushed into a registry — or viewed
//!   as a snapshot struct — after the run.
//!
//! Exported state is always read through [`Registry::snapshot`], which
//! returns a [`MetricsSnapshot`] — a `BTreeMap`, so iteration (and the
//! JSON rendering in [`crate::export`]) is in sorted key order and
//! therefore deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A plain single-owner counter for hot paths: no atomics, no
/// allocation, `Copy`. The uninstrumented path pays one integer add.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LocalCounter(u64);

impl LocalCounter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        LocalCounter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// A monotonically increasing atomic counter handle.
///
/// Cloning shares the underlying cell; all updates use relaxed
/// ordering (counters are statistics, not synchronization).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not registered anywhere (useful for tests).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic `f64` gauge handle (stored as bit pattern; last write
/// wins).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not registered anywhere.
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: one for zero plus one per power of
/// two, covering the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    // Exact extremes, so quantile interpolation can be clamped to the
    // observed range instead of the (up to 2x wider) bucket bounds.
    // Sentinels (u64::MAX / 0) are never exported while count == 0.
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// An atomic histogram handle over `u64` samples with power-of-two
/// buckets: bucket 0 holds zeros, bucket `k >= 1` holds values in
/// `[2^(k-1), 2^k)`.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// The bucket index a value falls into.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `k` can hold (inclusive).
pub fn bucket_upper_bound(k: usize) -> u64 {
    match k {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << k) - 1,
    }
}

/// The smallest value bucket `k` can hold.
pub fn bucket_lower_bound(k: usize) -> u64 {
    match k {
        0 => 0,
        _ => 1u64 << (k - 1),
    }
}

impl Histogram {
    /// A histogram not registered anywhere.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Snapshot the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = (0..HISTOGRAM_BUCKETS)
            .filter_map(|k| {
                let c = self.0.buckets[k].load(Ordering::Relaxed);
                (c > 0).then_some((bucket_upper_bound(k), c))
            })
            .collect();
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            buckets,
            min: (count > 0).then(|| self.0.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.0.max.load(Ordering::Relaxed)),
        }
    }
}

/// Immutable view of a histogram: non-empty buckets as
/// `(inclusive upper bound, count)` in ascending bound order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(upper_bound, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Smallest recorded sample (`None` when empty or the snapshot
    /// was built without extremes, e.g. by hand in tests).
    pub min: Option<u64>,
    /// Largest recorded sample (`None` when empty or unknown).
    pub max: Option<u64>,
}

impl HistogramSnapshot {
    /// The smallest sample, falling back to the first non-empty
    /// bucket's lower bound when exact extremes are absent.
    pub fn min_estimate(&self) -> Option<u64> {
        self.min.or_else(|| {
            self.buckets
                .first()
                .map(|&(ub, _)| bucket_lower_bound(bucket_index(ub)))
        })
    }

    /// The largest sample, falling back to the last non-empty
    /// bucket's upper bound when exact extremes are absent.
    pub fn max_estimate(&self) -> Option<u64> {
        self.max.or_else(|| self.buckets.last().map(|&(ub, _)| ub))
    }

    /// The `q`-quantile (`0.0 <= q <= 1.0`) with within-bucket linear
    /// interpolation, clamped to the exact observed `[min, max]`.
    ///
    /// The cumulative target `q·count` is located in the bucket walk;
    /// the estimate interpolates linearly between that bucket's bounds
    /// by the fraction of its samples below the target. The first and
    /// last buckets are tightened to the recorded min/max, so a
    /// single-sample histogram reports the sample exactly, `q -> 0`
    /// approaches the minimum, and `q = 1` is the maximum. Monotone in
    /// `q` by construction. `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        let last_idx = self.buckets.len().checked_sub(1)?;
        for (bi, &(ub, c)) in self.buckets.iter().enumerate() {
            let next = cum + c;
            if (next as f64) >= target || bi == last_idx {
                let k = bucket_index(ub);
                let mut lo = bucket_lower_bound(k) as f64;
                let mut hi = ub as f64;
                if bi == 0 {
                    if let Some(m) = self.min {
                        lo = lo.max(m as f64);
                    }
                }
                if bi == last_idx {
                    if let Some(m) = self.max {
                        hi = hi.min(m as f64);
                    }
                }
                if hi < lo {
                    hi = lo;
                }
                let frac = if c == 0 {
                    1.0
                } else {
                    ((target - cum as f64) / c as f64).clamp(0.0, 1.0)
                };
                let mut v = lo + (hi - lo) * frac;
                if let (Some(mn), Some(mx)) = (self.min, self.max) {
                    v = v.clamp(mn as f64, mx as f64);
                }
                return Some(v);
            }
            cum = next;
        }
        None
    }

    /// Median estimate ([`Self::quantile`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.9)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Merge another snapshot into this one (bucket-wise addition;
    /// extremes combine, estimating from bucket bounds for a side
    /// that lacks them).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mins = (self.min_estimate(), other.min_estimate());
        let maxs = (self.max_estimate(), other.max_estimate());
        self.min = match mins {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match maxs {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.count += other.count;
        self.sum += other.sum;
        for &(le, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&le, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += c,
                Err(i) => self.buckets.insert(i, (le, c)),
            }
        }
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// A last-write-wins gauge.
    Gauge(f64),
    /// A bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of a registry: metric name → value, sorted by
/// name (it is a `BTreeMap`), which is what makes the JSON export
/// deterministic.
pub type MetricsSnapshot = BTreeMap<String, MetricValue>;

/// Merge `from` into `into`: counters add, histograms merge, gauges
/// take `from`'s value; a kind mismatch is resolved in `from`'s
/// favour.
pub fn merge_snapshot(into: &mut MetricsSnapshot, from: &MetricsSnapshot) {
    for (name, v) in from {
        match (into.get_mut(name), v) {
            (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
            (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
            (slot, v) => {
                let v = v.clone();
                match slot {
                    Some(s) => *s = v,
                    None => {
                        into.insert(name.clone(), v);
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A global-free metric registry: create one per scope you want to
/// aggregate over (one per sweep cell, one per process, ...), pass it
/// by reference, snapshot it at the end. `Send + Sync`; handle lookup
/// takes a lock, updates through handles are lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.write().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.write().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.write().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().unwrap().len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .read()
            .unwrap()
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_single_sample_is_the_sample_at_every_q() {
        let h = Histogram::detached();
        h.record(37);
        let snap = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), Some(37.0), "q={q}");
        }
    }

    #[test]
    fn quantile_extremes_clamp_to_exact_min_and_max() {
        let h = Histogram::detached();
        for v in [5, 9, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        // q=0 is the recorded minimum exactly (not the first bucket's
        // lower bound), q=1 the recorded maximum exactly (not the last
        // bucket's upper bound).
        assert_eq!(snap.quantile(0.0), Some(5.0));
        assert_eq!(snap.quantile(1.0), Some(1000.0));
        // Every interior quantile stays inside [min, max].
        for i in 0..=20 {
            let q = f64::from(i) / 20.0;
            let v = snap.quantile(q).unwrap();
            assert!((5.0..=1000.0).contains(&v), "q={q} escaped: {v}");
        }
    }

    #[test]
    fn quantile_out_of_range_q_clamps_into_unit_interval() {
        let h = Histogram::detached();
        h.record(4);
        h.record(64);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(-3.5), snap.quantile(0.0));
        assert_eq!(snap.quantile(7.0), snap.quantile(1.0));
        assert_eq!(snap.quantile(f64::NEG_INFINITY), snap.quantile(0.0));
        assert_eq!(snap.quantile(f64::INFINITY), snap.quantile(1.0));
        assert_eq!(snap.quantile(-0.0), Some(4.0));
    }

    #[test]
    fn local_counter_is_a_plain_add() {
        let mut c = LocalCounter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_index_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's upper bound falls into that bucket, and its
        // successor into the next.
        for k in 0..HISTOGRAM_BUCKETS {
            let ub = bucket_upper_bound(k);
            assert_eq!(bucket_index(ub), k, "upper bound of bucket {k}");
            if k < 64 {
                assert_eq!(bucket_index(ub + 1), k + 1);
            }
        }
    }

    #[test]
    fn histogram_records_into_expected_buckets() {
        let h = Histogram::detached();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        // 0 -> bucket 0 (le 0); 1 -> le 1; 2,3 -> le 3; 4 -> le 7;
        // 1000 -> le 1023.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]);
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        a.record(1);
        a.record(100);
        b.record(1);
        b.record(5);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 107);
        assert_eq!(s.buckets, vec![(1, 2), (7, 1), (127, 1)]);
        assert_eq!(s.min, Some(1), "merged min is the smaller exact min");
        assert_eq!(s.max, Some(100), "merged max is the larger exact max");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::detached();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.min, Some(1));
        assert_eq!(s.max, Some(512));
        // One sample per bucket: the q-target lands exactly on each
        // bucket's cumulative boundary, so interpolation reports that
        // bucket's (min/max-tightened) upper edge.
        assert_eq!(s.quantile(0.1), Some(1.0), "first bucket clamps to min");
        assert_eq!(s.p50(), Some(31.0), "upper edge of the 5th bucket");
        assert_eq!(s.p90(), Some(511.0), "upper edge of the 9th bucket");
        assert_eq!(s.p99(), Some(512.0), "last bucket clamps to max");
        assert_eq!(s.quantile(1.0), Some(512.0), "q = 1 is the maximum");
    }

    #[test]
    fn quantiles_pin_known_sample_sets() {
        // Regression for the pre-interpolation underestimate: a
        // cluster at 100 used to report p50 = 64 (the bucket's lower
        // bound) no matter what the samples were.
        let h = Histogram::detached();
        for _ in 0..100 {
            h.record(100);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(100.0), "identical samples are exact");
        assert_eq!(s.p99(), Some(100.0));
        // Uniform 1..=1000: true p50 is 500, p90 is 900. The log2
        // estimate must land inside the correct bucket, clamped to
        // the exact extremes, and must not report the old lower
        // bounds (256 / 512).
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.min, Some(1));
        assert_eq!(s.max, Some(1000));
        let p50 = s.p50().unwrap();
        assert!(
            (256.0..=511.0).contains(&p50) && p50 > 256.0,
            "p50 {p50} must interpolate above the bucket floor 256"
        );
        let p99 = s.p99().unwrap();
        assert!(
            (512.0..=1000.0).contains(&p99) && p99 > 512.0,
            "p99 {p99} must interpolate above the bucket floor 512"
        );
        assert_eq!(s.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::detached();
        let mut v = 1u64;
        for i in 0..200u64 {
            h.record(v + i % 7);
            if i % 5 == 0 {
                v = v.saturating_mul(2).min(1 << 40);
            }
        }
        let s = h.snapshot();
        let mut last = 0.0f64;
        for i in 1..=100 {
            let q = s.quantile(f64::from(i) / 100.0).unwrap();
            assert!(q >= last, "quantile must be monotone: q{i} = {q} < {last}");
            last = q;
        }
        let (p50, p90, p99) = (s.p50().unwrap(), s.p90().unwrap(), s.p99().unwrap());
        assert!(p50 <= p90 && p90 <= p99, "{p50} <= {p90} <= {p99}");
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let s = Histogram::detached().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p50(), None);
        assert_eq!(s.p99(), None);
    }

    #[test]
    fn quantile_of_single_sample_and_zeros() {
        let h = Histogram::detached();
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(0.0));
        assert_eq!(s.p99(), Some(0.0));
        let h = Histogram::detached();
        h.record(1000); // bucket [512, 1024) — exact extremes pin it
        let s = h.snapshot();
        assert_eq!((s.min, s.max), (Some(1000), Some(1000)));
        assert_eq!(s.p50(), Some(1000.0));
        assert_eq!(s.p99(), Some(1000.0));
    }

    #[test]
    fn bucket_lower_bounds_bracket_their_buckets() {
        for k in 0..HISTOGRAM_BUCKETS {
            let lb = bucket_lower_bound(k);
            assert!(lb <= bucket_upper_bound(k), "bucket {k}");
            assert_eq!(bucket_index(lb), k, "lower bound of bucket {k}");
        }
    }

    #[test]
    fn registry_vends_shared_handles() {
        let r = Registry::new();
        let c1 = r.counter("x");
        let c2 = r.counter("x");
        c1.add(2);
        c2.inc();
        assert_eq!(r.counter("x").get(), 3);
        r.gauge("g").set(1.5);
        r.histogram("h").record(9);
        let snap = r.snapshot();
        assert_eq!(snap.get("x"), Some(&MetricValue::Counter(3)));
        assert_eq!(snap.get("g"), Some(&MetricValue::Gauge(1.5)));
        let keys: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["g", "h", "x"], "sorted iteration order");
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshots_merge_deterministically() {
        let r1 = Registry::new();
        r1.counter("n").add(2);
        r1.gauge("g").set(1.0);
        let r2 = Registry::new();
        r2.counter("n").add(3);
        r2.gauge("g").set(2.0);
        let mut s = r1.snapshot();
        merge_snapshot(&mut s, &r2.snapshot());
        assert_eq!(s.get("n"), Some(&MetricValue::Counter(5)));
        assert_eq!(s.get("g"), Some(&MetricValue::Gauge(2.0)), "last wins");
    }

    #[test]
    fn registry_is_send_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
    }
}
