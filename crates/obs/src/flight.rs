//! Flight recorder: a bounded ring buffer of recent observability
//! events, dumped as deterministic JSON when something goes wrong.
//!
//! The recorder mirrors what flows through an enabled [`Obs`] handle —
//! span opens, instant events, counter/gauge/histogram updates — into
//! a fixed-capacity ring. When the program panics (via an installed
//! hook), when the allocation engine degrades to a fallback allocator,
//! or on demand, the ring is serialized with a stable field order so
//! post-mortem diffs are meaningful. The buffer is bounded by
//! construction: once full, the oldest event is overwritten and a
//! `dropped` counter keeps the evidence honest.
//!
//! "Lock-free-enough": pushes take one short [`Mutex`] critical
//! section (a ring-slot write, no allocation besides the event's name)
//! rather than a true lock-free queue — the recorder shares the
//! enabled-path cost profile of the metric registry it mirrors, and
//! the disabled path pays nothing because a disabled [`Obs`] never
//! constructs one.
//!
//! [`Obs`]: crate::Obs

use crate::export::{jnum, json_escape, snapshot_to_json};
use crate::metrics::MetricsSnapshot;
use crate::span::ArgValue;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Default ring capacity when `CASA_FLIGHT_CAP` is unset.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Schema version of the flight-dump JSON document.
pub const FLIGHT_DUMP_SCHEMA: u32 = 1;

/// What kind of activity a [`FlightEvent`] mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span was opened (`Obs::span` / `Obs::span_with`).
    Span,
    /// An instant event (`Obs::instant`).
    Instant,
    /// A counter increment (`Obs::add`); the value is the increment.
    Counter,
    /// A gauge write (`Obs::gauge_set`); the value is the new reading.
    Gauge,
    /// A histogram observation (`Obs::record`); the value is the
    /// sample.
    Histogram,
    /// A free-form annotation (degradation reasons, dump triggers).
    Note,
}

impl FlightKind {
    /// Stable lowercase tag used in the dump JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Span => "span",
            FlightKind::Instant => "instant",
            FlightKind::Counter => "counter",
            FlightKind::Gauge => "gauge",
            FlightKind::Histogram => "histogram",
            FlightKind::Note => "note",
        }
    }

    /// Inverse of [`FlightKind::as_str`] (not `FromStr`: unknown tags
    /// are an expected `None`, not an error type).
    pub fn from_tag(s: &str) -> Option<FlightKind> {
        Some(match s {
            "span" => FlightKind::Span,
            "instant" => FlightKind::Instant,
            "counter" => FlightKind::Counter,
            "gauge" => FlightKind::Gauge,
            "histogram" => FlightKind::Histogram,
            "note" => FlightKind::Note,
            _ => return None,
        })
    }
}

/// One mirrored event in the flight ring.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotone sequence number (never reused, survives ring wrap).
    pub seq: u64,
    /// Microseconds since the owning collector's epoch.
    pub ts_us: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Metric / span / note name.
    pub name: String,
    /// Payload, when the event carries one.
    pub value: Option<ArgValue>,
}

#[derive(Debug, Default)]
struct FlightState {
    next_seq: u64,
    dropped: u64,
    ring: VecDeque<FlightEvent>,
}

/// Bounded recorder of recent [`FlightEvent`]s plus the optional dump
/// sink path automatic dumps (panic hook, engine degradation) write
/// to.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    state: Mutex<FlightState>,
    sink: Mutex<Option<PathBuf>>,
    dump_lock: Mutex<()>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            state: Mutex::new(FlightState::default()),
            sink: Mutex::new(None),
            dump_lock: Mutex::new(()),
        }
    }

    /// A recorder sized from `CASA_FLIGHT_CAP` (default
    /// [`DEFAULT_FLIGHT_CAPACITY`]).
    pub fn from_env() -> FlightRecorder {
        let cap = std::env::var("CASA_FLIGHT_CAP")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_FLIGHT_CAPACITY);
        FlightRecorder::new(cap)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().ring.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap().dropped
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&self, kind: FlightKind, name: &str, ts_us: u64, value: Option<ArgValue>) {
        let mut st = self.state.lock().unwrap();
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.ring.len() == self.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
        st.ring.push_back(FlightEvent {
            seq,
            ts_us,
            kind,
            name: name.to_string(),
            value,
        });
    }

    /// Snapshot the buffered events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.state.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Set (or clear) the automatic-dump sink path.
    pub fn set_sink(&self, path: Option<PathBuf>) {
        *self.sink.lock().unwrap() = path;
    }

    /// The automatic-dump sink path, if configured.
    pub fn sink(&self) -> Option<PathBuf> {
        self.sink.lock().unwrap().clone()
    }

    /// Serialize access to dump-file writes so concurrent dumps (panic
    /// hook vs. degradation note) never interleave within one file. Poison-tolerant: dumps run inside panic hooks, where a
    /// poisoned mutex must not abort the post-mortem write.
    pub fn dump_guard(&self) -> MutexGuard<'_, ()> {
        self.dump_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

fn value_json(v: &Option<ArgValue>) -> String {
    match v {
        None => "null".to_string(),
        Some(ArgValue::U64(n)) => n.to_string(),
        Some(ArgValue::F64(n)) => jnum(*n),
        Some(ArgValue::Str(s)) => format!("\"{}\"", json_escape(s)),
    }
}

/// Serialize a flight buffer as a deterministic JSON document: fixed
/// field order, events oldest-first, metrics in sorted key order.
/// (The *format* is deterministic; timestamps are real measurements.)
pub fn flight_dump_json(
    capacity: usize,
    dropped: u64,
    events: &[FlightEvent],
    metrics: &MetricsSnapshot,
) -> String {
    let mut s = format!(
        "{{\"casa_flight\":{FLIGHT_DUMP_SCHEMA},\"capacity\":{capacity},\"dropped\":{dropped},\"events\":["
    );
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"seq\":{},\"ts_us\":{},\"kind\":\"{}\",\"name\":\"{}\",\"value\":{}}}",
            e.seq,
            e.ts_us,
            e.kind.as_str(),
            json_escape(&e.name),
            value_json(&e.value)
        ));
    }
    s.push_str("],\"metrics\":");
    s.push_str(&snapshot_to_json(metrics));
    s.push('}');
    s
}

/// Render flight events as a time-ordered fixed-width table (sorted by
/// sequence number, which is also time order within one recorder).
pub fn render_flight_table(events: &[FlightEvent]) -> String {
    let mut rows: Vec<&FlightEvent> = events.iter().collect();
    rows.sort_by_key(|e| e.seq);
    let mut s = String::new();
    s.push_str(&format!(
        "{:>6} {:>12} {:<10} {:<40} {}\n",
        "seq", "t (ms)", "kind", "name", "value"
    ));
    for e in rows {
        let value = match &e.value {
            None => "-".to_string(),
            Some(ArgValue::U64(n)) => n.to_string(),
            Some(ArgValue::F64(n)) => format!("{n}"),
            Some(ArgValue::Str(v)) => v.clone(),
        };
        s.push_str(&format!(
            "{:>6} {:>12.3} {:<10} {:<40} {}\n",
            e.seq,
            e.ts_us as f64 / 1000.0,
            e.kind.as_str(),
            e.name,
            value
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.push(FlightKind::Counter, "n", i, Some(ArgValue::U64(i)));
        }
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let evs = r.events();
        // Oldest two evicted; sequence numbers keep counting.
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn capacity_clamped_to_one() {
        let r = FlightRecorder::new(0);
        r.push(FlightKind::Note, "a", 0, None);
        r.push(FlightKind::Note, "b", 1, None);
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].name, "b");
    }

    #[test]
    fn kind_tags_round_trip() {
        for k in [
            FlightKind::Span,
            FlightKind::Instant,
            FlightKind::Counter,
            FlightKind::Gauge,
            FlightKind::Histogram,
            FlightKind::Note,
        ] {
            assert_eq!(FlightKind::from_tag(k.as_str()), Some(k));
        }
        assert_eq!(FlightKind::from_tag("bogus"), None);
    }

    #[test]
    fn dump_is_valid_deterministic_json() {
        let r = FlightRecorder::new(8);
        r.push(FlightKind::Span, "solve", 10, None);
        r.push(
            FlightKind::Note,
            "engine.fallback",
            20,
            Some(ArgValue::Str("reason \"x\"".to_string())),
        );
        r.push(FlightKind::Gauge, "gap", 30, Some(ArgValue::F64(1.5)));
        let json = flight_dump_json(
            r.capacity(),
            r.dropped(),
            &r.events(),
            &MetricsSnapshot::new(),
        );
        let v = serde::json::parse(&json).expect("dump must be valid JSON");
        assert_eq!(
            v.get("casa_flight").and_then(|x| x.as_f64()),
            Some(f64::from(FLIGHT_DUMP_SCHEMA))
        );
        let events = v.get("events").and_then(|x| x.as_array()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1].get("value").and_then(|x| x.as_str()),
            Some("reason \"x\"")
        );
        // Same inputs, same bytes.
        let again = flight_dump_json(
            r.capacity(),
            r.dropped(),
            &r.events(),
            &MetricsSnapshot::new(),
        );
        assert_eq!(json, again);
    }

    #[test]
    fn table_orders_by_sequence() {
        let events = vec![
            FlightEvent {
                seq: 2,
                ts_us: 30,
                kind: FlightKind::Instant,
                name: "later".to_string(),
                value: None,
            },
            FlightEvent {
                seq: 1,
                ts_us: 10,
                kind: FlightKind::Counter,
                name: "earlier".to_string(),
                value: Some(ArgValue::U64(7)),
            },
        ];
        let table = render_flight_table(&events);
        let earlier = table.find("earlier").unwrap();
        let later = table.find("later").unwrap();
        assert!(earlier < later, "rows are time-ordered:\n{table}");
        assert!(table.contains("counter"));
        assert!(table.contains('7'));
    }
}
