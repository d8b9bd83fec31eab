//! Flight dumps: the newest events of the [`TraceCollector`] plus a
//! metric snapshot, written as deterministic JSON when something goes
//! wrong.
//!
//! There is no ring of its own: the collector already keeps the newest
//! [`TRACE_CAPACITY`] events, so a dump ([`Obs::dump_flight`]) renders
//! its newest [`FLIGHT_EVENTS`] with their arguments and durations, the
//! collector's drop count, and the dumping handle's registry snapshot.
//! The panic hook, [`Obs::note_degradation`], the server's
//! slow-request capture and `GET /flight.json` all write this document;
//! `diag flight` reads it back into [`render_flight_table`].
//!
//! [`TraceCollector`]: crate::TraceCollector
//! [`TRACE_CAPACITY`]: crate::TRACE_CAPACITY
//! [`Obs::dump_flight`]: crate::Obs::dump_flight
//! [`Obs::note_degradation`]: crate::Obs::note_degradation

use crate::export::{arg_json, json_escape, snapshot_to_json};
use crate::metrics::MetricsSnapshot;
use crate::span::{ArgValue, EventKind, TraceEvent};

/// Events a flight dump carries: the collector's newest.
pub const FLIGHT_EVENTS: usize = 1024;

/// Schema version of the flight-dump JSON document.
pub const FLIGHT_DUMP_SCHEMA: u32 = 2;

/// Serialize numbered events (oldest first) as a flight dump: fixed
/// field order, each event with its number (`seq`), `dur_us` (`null`
/// for an instant or a span still open) and arguments, then `metrics`
/// in sorted key order. (The *format* is deterministic; timestamps are
/// real measurements.)
pub(crate) fn flight_dump_json(
    events: &[(u64, TraceEvent)],
    dropped: u64,
    metrics: &MetricsSnapshot,
) -> String {
    let mut s = format!(
        "{{\"casa_flight\":{FLIGHT_DUMP_SCHEMA},\"capacity\":{FLIGHT_EVENTS},\"dropped\":{dropped},\"events\":["
    );
    for (i, (seq, e)) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let dur = e
            .dur_us
            .map_or_else(|| "null".to_string(), |d| d.to_string());
        s.push_str(&format!(
            "{{\"seq\":{seq},\"ts_us\":{},\"kind\":\"{}\",\"name\":\"{}\",\"tid\":{},\"dur_us\":{dur},\"args\":{{",
            e.ts_us,
            e.kind.as_str(),
            json_escape(&e.name),
            e.tid,
        ));
        for (j, (k, v)) in e.args.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", json_escape(k), arg_json(v)));
        }
        s.push_str("}}");
    }
    s.push_str("],\"metrics\":");
    s.push_str(&snapshot_to_json(metrics));
    s.push('}');
    s
}

/// Render numbered events as a time-ordered fixed-width table, sorted
/// by event number. The value column holds a span's duration (`open`
/// while it runs) and the event's `key=value` arguments.
pub fn render_flight_table(events: &[(u64, TraceEvent)]) -> String {
    let mut rows: Vec<&(u64, TraceEvent)> = events.iter().collect();
    rows.sort_by_key(|(seq, _)| *seq);
    let mut s = format!(
        "{:>6} {:>12} {:<10} {:<40} {}\n",
        "seq", "t (ms)", "kind", "name", "value"
    );
    for (seq, e) in rows {
        let mut value: Vec<String> = match (e.kind, e.dur_us) {
            (EventKind::Span, Some(d)) => vec![format!("dur_ms={:.3}", d as f64 / 1000.0)],
            (EventKind::Span, None) => vec!["open".to_string()],
            (EventKind::Instant, _) => Vec::new(),
        };
        value.extend(e.args.iter().map(|(k, v)| match v {
            ArgValue::U64(n) => format!("{k}={n}"),
            ArgValue::F64(n) => format!("{k}={n}"),
            ArgValue::Str(t) => format!("{k}={t}"),
        }));
        let value = if value.is_empty() {
            "-".to_string()
        } else {
            value.join(" ")
        };
        s.push_str(&format!(
            "{:>6} {:>12.3} {:<10} {:<40} {}\n",
            seq,
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

    fn event(kind: EventKind, name: &str, ts_us: u64, dur_us: Option<u64>) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            kind,
            tid: 0,
            parent: None,
            ts_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn dump_is_valid_deterministic_json() {
        let mut note = event(EventKind::Instant, "engine.fallback", 20, None);
        note.args = vec![(
            "reason".to_string(),
            ArgValue::Str("reason \"x\"".to_string()),
        )];
        let events = vec![
            (7, event(EventKind::Span, "solve", 10, Some(5))),
            (8, note),
            (9, event(EventKind::Span, "open", 30, None)),
        ];
        let json = flight_dump_json(&events, 7, &MetricsSnapshot::new());
        let v = serde::json::parse(&json).expect("dump must be valid JSON");
        assert_eq!(
            v.get("casa_flight").and_then(|x| x.as_f64()),
            Some(f64::from(FLIGHT_DUMP_SCHEMA))
        );
        assert_eq!(v.get("dropped").and_then(|x| x.as_f64()), Some(7.0));
        let evs = v.get("events").and_then(|x| x.as_array()).unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].get("seq").and_then(|x| x.as_f64()), Some(7.0));
        assert_eq!(evs[0].get("dur_us").and_then(|x| x.as_f64()), Some(5.0));
        assert_eq!(
            evs[1]
                .get("args")
                .and_then(|a| a.get("reason"))
                .and_then(|x| x.as_str()),
            Some("reason \"x\"")
        );
        assert_eq!(evs[2].get("dur_us"), Some(&serde::json::Value::Null));
        // Same inputs, same bytes.
        assert_eq!(json, flight_dump_json(&events, 7, &MetricsSnapshot::new()));
    }

    #[test]
    fn table_orders_by_event_number() {
        let mut later = event(EventKind::Instant, "later", 30, None);
        later.args = vec![("n".to_string(), ArgValue::U64(7))];
        let events = vec![(2, later), (1, event(EventKind::Span, "earlier", 10, None))];
        let table = render_flight_table(&events);
        let earlier = table.find("earlier").unwrap();
        let later = table.find("later").unwrap();
        assert!(earlier < later, "rows are time-ordered:\n{table}");
        assert!(table.contains("open"), "an open span says so:\n{table}");
        assert!(table.contains("n=7"), "arguments are listed:\n{table}");
    }
}
