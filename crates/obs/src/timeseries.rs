//! Bounded, deterministic time-series store.
//!
//! Metrics snapshots answer "how much, in total"; this module answers
//! "how did it evolve". A [`TimeSeriesStore`] holds named series of
//! `(tick, value)` points where the tick is an explicit **logical
//! clock** supplied by the caller — a phase ordinal, a B&B node count,
//! a request-completion counter — never a wall-clock timestamp. That
//! restriction is the whole point: a series sampled at logical ticks
//! is byte-identical across worker counts and machines, so the sweep
//! can diff time-series between runs the same way it diffs the
//! deterministic report.
//!
//! The store is bounded **keep-first**: once `cap` points are held,
//! further samples are counted in `dropped` and discarded. Unlike the
//! flight ring (which keeps the *newest* events because it exists for
//! post-mortems), a time-series exists to show convergence from the
//! start, so the head of each series is the part worth keeping — and
//! keep-first drops are deterministic in sample order by construction.
//!
//! Export is [`timeseries_json`]: sorted series names (the map is a
//! `BTreeMap`), fixed field order, `jnum` floats — same deterministic
//! JSON discipline as every other exporter in this crate.

use crate::export::{jnum, json_escape};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Point capacity of every store the workspace creates.
pub const DEFAULT_TIMESERIES_CAPACITY: usize = 4096;

/// Schema version of the time-series JSON document.
pub const TIMESERIES_SCHEMA: u32 = 1;

/// One sample: `(logical tick, value)`.
pub type TimePoint = (u64, f64);

/// A point-in-time copy of a [`TimeSeriesStore`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeriesSnapshot {
    /// Point capacity of the store this was taken from.
    pub cap: usize,
    /// Samples discarded because the store was full.
    pub dropped: u64,
    /// Series name → points, in sample order.
    pub series: BTreeMap<String, Vec<TimePoint>>,
}

impl TimeSeriesSnapshot {
    /// Total points across all series.
    pub fn points(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }

    /// Whether no series holds any point.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[derive(Debug, Default)]
struct TsState {
    points: usize,
    dropped: u64,
    series: BTreeMap<String, Vec<TimePoint>>,
}

/// Bounded store of named logical-tick series.
#[derive(Debug)]
pub struct TimeSeriesStore {
    cap: usize,
    state: Mutex<TsState>,
}

impl TimeSeriesStore {
    /// A store holding at most `cap` points across all series
    /// (clamped to ≥ 1).
    pub fn new(cap: usize) -> TimeSeriesStore {
        TimeSeriesStore {
            cap: cap.max(1),
            state: Mutex::new(TsState::default()),
        }
    }

    /// Point capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TsState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one sample to `series` at logical `tick`. Once the
    /// store holds `cap` points the sample is dropped (keep-first) and
    /// counted.
    pub fn sample(&self, series: &str, tick: u64, value: f64) {
        let mut st = self.lock();
        if st.points >= self.cap {
            st.dropped += 1;
            return;
        }
        st.points += 1;
        st.series
            .entry(series.to_string())
            .or_default()
            .push((tick, value));
    }

    /// Append every point of `snap` (series by series, in point
    /// order), subject to this store's capacity. `snap.dropped` is
    /// carried over so evidence of truncation survives a merge chain.
    pub fn merge(&self, snap: &TimeSeriesSnapshot) {
        let mut st = self.lock();
        st.dropped += snap.dropped;
        for (name, points) in &snap.series {
            for &(tick, value) in points {
                if st.points >= self.cap {
                    st.dropped += 1;
                    continue;
                }
                st.points += 1;
                st.series
                    .entry(name.clone())
                    .or_default()
                    .push((tick, value));
            }
        }
    }

    /// Copy out the current contents.
    pub fn snapshot(&self) -> TimeSeriesSnapshot {
        let st = self.lock();
        TimeSeriesSnapshot {
            cap: self.cap,
            dropped: st.dropped,
            series: st.series.clone(),
        }
    }
}

/// Serialize a snapshot as a deterministic JSON document: fixed field
/// order, sorted series names, points as `[tick,value]` pairs in
/// sample order, non-finite values as `null`.
pub fn timeseries_json(snap: &TimeSeriesSnapshot) -> String {
    let mut s = format!(
        "{{\"casa_timeseries\":{TIMESERIES_SCHEMA},\"cap\":{},\"dropped\":{},\"series\":{{",
        snap.cap, snap.dropped
    );
    for (i, (name, points)) in snap.series.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":[", json_escape(name)));
        for (j, (tick, value)) in points.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{tick},{}]", jnum(*value)));
        }
        s.push(']');
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_accumulate_in_order() {
        let ts = TimeSeriesStore::new(16);
        ts.sample("bb.incumbent", 1, 10.0);
        ts.sample("bb.incumbent", 7, 12.5);
        ts.sample("flow.progress", 0, 3.0);
        let snap = ts.snapshot();
        assert_eq!(snap.points(), 3);
        assert_eq!(
            snap.series.get("bb.incumbent"),
            Some(&vec![(1, 10.0), (7, 12.5)])
        );
        assert_eq!(snap.series.get("flow.progress"), Some(&vec![(0, 3.0)]));
    }

    #[test]
    fn keep_first_cap_counts_drops() {
        let ts = TimeSeriesStore::new(2);
        ts.sample("s", 0, 1.0);
        ts.sample("s", 1, 2.0);
        ts.sample("s", 2, 3.0);
        ts.sample("t", 0, 4.0);
        let snap = ts.snapshot();
        assert_eq!(snap.points(), 2);
        assert_eq!(snap.dropped, 2);
        // The head of the series survives, not the tail.
        assert_eq!(snap.series.get("s"), Some(&vec![(0, 1.0), (1, 2.0)]));
        assert!(!snap.series.contains_key("t"));
    }

    #[test]
    fn capacity_clamped_to_one() {
        let ts = TimeSeriesStore::new(0);
        assert_eq!(ts.capacity(), 1);
        ts.sample("s", 0, 1.0);
        ts.sample("s", 1, 2.0);
        assert_eq!(ts.snapshot().points(), 1);
    }

    #[test]
    fn merge_appends_and_carries_drops() {
        let a = TimeSeriesStore::new(8);
        a.sample("x", 0, 1.0);
        let b = TimeSeriesStore::new(2);
        b.sample("x", 5, 2.0);
        b.sample("y", 0, 3.0);
        b.sample("y", 1, 4.0); // dropped at b's cap
        let dst = TimeSeriesStore::new(8);
        dst.merge(&a.snapshot());
        dst.merge(&b.snapshot());
        let snap = dst.snapshot();
        assert_eq!(snap.series.get("x"), Some(&vec![(0, 1.0), (5, 2.0)]));
        assert_eq!(snap.series.get("y"), Some(&vec![(0, 3.0)]));
        assert_eq!(snap.dropped, 1, "b's drop evidence survives the merge");
    }

    #[test]
    fn merge_respects_destination_cap() {
        let src = TimeSeriesStore::new(8);
        for i in 0..5 {
            src.sample("s", i, i as f64);
        }
        let dst = TimeSeriesStore::new(3);
        dst.merge(&src.snapshot());
        let snap = dst.snapshot();
        assert_eq!(snap.points(), 3);
        assert_eq!(snap.dropped, 2);
        assert_eq!(
            snap.series.get("s"),
            Some(&vec![(0, 0.0), (1, 1.0), (2, 2.0)])
        );
    }

    #[test]
    fn json_is_deterministic_and_parses_back() {
        let ts = TimeSeriesStore::new(8);
        ts.sample("z.series", 3, 1.5);
        ts.sample("a.series", 0, f64::NAN);
        let snap = ts.snapshot();
        let json = timeseries_json(&snap);
        assert_eq!(json, timeseries_json(&snap), "same snapshot, same bytes");
        let a = json.find("a.series").unwrap();
        let z = json.find("z.series").unwrap();
        assert!(a < z, "series names sorted: {json}");
        assert!(json.contains("[0,null]"), "NaN exports as null: {json}");
        let v = serde::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("casa_timeseries").and_then(|x| x.as_f64()), Some(1.0));
        let series = v.get("series").and_then(|x| x.as_object()).unwrap();
        assert!(series.contains_key("z.series"));
    }

    #[test]
    fn empty_store_exports_valid_json() {
        let json = timeseries_json(&TimeSeriesStore::new(4).snapshot());
        let v = serde::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("series").and_then(|x| x.as_object()).map(|m| m.len()),
            Some(0)
        );
    }
}
