//! Deterministic JSON exporters.
//!
//! Everything here is hand-rolled `String` building: the workspace's
//! vendored `serde` is a compile-time stand-in without a serializer,
//! and determinism (sorted keys, shortest-round-trip floats, no
//! whitespace variance) is easier to guarantee by construction anyway.

use crate::metrics::{MetricValue, MetricsSnapshot};
use crate::span::{ArgValue, EventKind, TraceEvent};

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number: shortest round-trip form, `null`
/// for non-finite values (JSON has no NaN/Inf).
pub fn jnum(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    // `{}` on an integral f64 prints no decimal point; keep it — the
    // value round-trips either way and stays deterministic.
    s
}

/// Serialize a metrics snapshot. Keys come out in sorted order (the
/// snapshot is a `BTreeMap`), counters and gauges as bare numbers,
/// histograms as `{"count":..,"sum":..,"buckets":[[le,count],..],
/// "p50":..,"p90":..,"p99":..,"min":..,"max":..}` with only
/// non-empty buckets listed, quantiles interpolated within the log₂
/// buckets ([`crate::metrics::HistogramSnapshot::quantile`]), and the
/// exact recorded extremes (`null` when the histogram is empty).
pub fn snapshot_to_json(snap: &MetricsSnapshot) -> String {
    let mut s = String::from("{");
    let mut first = true;
    for (name, value) in snap {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\"{}\":", json_escape(name)));
        match value {
            MetricValue::Counter(v) => s.push_str(&v.to_string()),
            MetricValue::Gauge(v) => s.push_str(&jnum(*v)),
            MetricValue::Histogram(h) => {
                s.push_str(&format!(
                    "{{\"count\":{},\"sum\":{},\"buckets\":[",
                    h.count, h.sum
                ));
                for (i, (le, c)) in h.buckets.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("[{le},{c}]"));
                }
                let q = |v: Option<f64>| v.map_or_else(|| "null".to_string(), jnum);
                let e = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
                s.push_str(&format!(
                    "],\"p50\":{},\"p90\":{},\"p99\":{},\"min\":{},\"max\":{}}}",
                    q(h.p50()),
                    q(h.p90()),
                    q(h.p99()),
                    e(h.min),
                    e(h.max)
                ));
            }
        }
    }
    s.push('}');
    s
}

pub(crate) fn arg_json(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(n) => n.to_string(),
        ArgValue::F64(n) => jnum(*n),
        ArgValue::Str(s) => format!("\"{}\"", json_escape(s)),
    }
}

/// Serialize events in Chrome `trace_event` JSON-object format, ready
/// for `chrome://tracing` / Perfetto: spans become phase-`X` complete
/// events, instants phase-`i` thread-scoped events. `ts`/`dur` are
/// microseconds per the format spec.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"casa\",\"pid\":1,\"tid\":{},\"ts\":{}",
            json_escape(&e.name),
            e.tid,
            e.ts_us
        ));
        match e.kind {
            EventKind::Span => {
                s.push_str(&format!(",\"ph\":\"X\",\"dur\":{}", e.dur_us.unwrap_or(0)));
            }
            EventKind::Instant => s.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        if !e.args.is_empty() {
            s.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{}", json_escape(k), arg_json(v)));
            }
            s.push('}');
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::{ArgValue, EventKind, TraceEvent};

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn jnum_is_finite_or_null() {
        assert_eq!(jnum(1.5), "1.5");
        assert_eq!(jnum(2.0), "2");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(f64::INFINITY), "null");
    }

    #[test]
    fn snapshot_json_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("z.count").add(3);
        r.gauge("a.gauge").set(0.5);
        r.histogram("m.hist").record(4);
        let json = snapshot_to_json(&r.snapshot());
        let za = json.find("\"z.count\"").unwrap();
        let aa = json.find("\"a.gauge\"").unwrap();
        let ma = json.find("\"m.hist\"").unwrap();
        assert!(aa < ma && ma < za, "keys sorted: {json}");
        assert!(json.contains("\"z.count\":3"));
        assert!(json.contains("\"a.gauge\":0.5"));
        assert!(json.contains("\"count\":1,\"sum\":4"));
        // Quantile summaries ride along with every histogram; a
        // single sample clamps every quantile to that exact value.
        assert!(json.contains("\"p50\":4,\"p90\":4,\"p99\":4"), "{json}");
        assert!(json.contains("\"min\":4,\"max\":4"), "{json}");
    }

    #[test]
    fn empty_histogram_exports_null_quantiles() {
        let r = Registry::new();
        let _ = r.histogram("h");
        let json = snapshot_to_json(&r.snapshot());
        assert!(
            json.contains("\"p50\":null,\"p90\":null,\"p99\":null,\"min\":null,\"max\":null"),
            "{json}"
        );
    }

    #[test]
    fn chrome_trace_shape() {
        let events = vec![
            TraceEvent {
                name: "solve".to_string(),
                kind: EventKind::Span,
                tid: 0,
                parent: None,
                ts_us: 10,
                dur_us: Some(25),
                args: vec![("nodes".to_string(), ArgValue::U64(7))],
            },
            TraceEvent {
                name: "incumbent".to_string(),
                kind: EventKind::Instant,
                tid: 0,
                parent: Some(0),
                ts_us: 20,
                dur_us: None,
                args: Vec::new(),
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\",\"dur\":25"));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""));
        assert!(json.contains("\"args\":{\"nodes\":7}"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn control_characters_in_names_stay_valid_json_everywhere() {
        // Regression: a span / metric name carrying raw control
        // characters (U+0000–U+001F) must come out `\u00XX`-escaped in
        // every JSON writer, or the Chrome trace, `/snapshot.json`,
        // and the flight dump all emit invalid documents.
        let nasty = "phase\nwith\ttabs\u{1}and\u{0}nul";
        let events = vec![TraceEvent {
            name: nasty.to_string(),
            kind: EventKind::Span,
            tid: 0,
            parent: None,
            ts_us: 5,
            dur_us: Some(10),
            args: vec![(
                "why\u{2}".to_string(),
                ArgValue::Str("ctrl\u{3}arg".to_string()),
            )],
        }];
        let trace = chrome_trace_json(&events);
        let v = serde::json::parse(&trace).expect("chrome trace stays valid JSON");
        let e = &v.get("traceEvents").and_then(|x| x.as_array()).unwrap()[0];
        assert_eq!(e.get("name").and_then(|x| x.as_str()), Some(nasty));
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("why\u{2}"))
                .and_then(|x| x.as_str()),
            Some("ctrl\u{3}arg")
        );

        let r = Registry::new();
        r.counter(nasty).add(7);
        let snap_json = snapshot_to_json(&r.snapshot());
        let v = serde::json::parse(&snap_json).expect("snapshot stays valid JSON");
        assert_eq!(
            v.get(nasty).and_then(|x| x.as_f64()),
            Some(7.0),
            "escaped key round-trips: {snap_json}"
        );

        let dump = crate::flight::flight_dump_json(&[(0, events[0].clone())], 0, &r.snapshot());
        let v = serde::json::parse(&dump).expect("flight dump stays valid JSON");
        let ev = &v.get("events").and_then(|x| x.as_array()).unwrap()[0];
        assert_eq!(ev.get("name").and_then(|x| x.as_str()), Some(nasty));
        assert_eq!(
            ev.get("args")
                .and_then(|a| a.get("why\u{2}"))
                .and_then(|x| x.as_str()),
            Some("ctrl\u{3}arg")
        );
    }

    #[test]
    fn chrome_trace_parses_back_with_vendored_serde() {
        let events = vec![TraceEvent {
            name: "a \"quoted\" name".to_string(),
            kind: EventKind::Span,
            tid: 3,
            parent: None,
            ts_us: 0,
            dur_us: Some(12),
            args: vec![
                ("k".to_string(), ArgValue::Str("v\n".to_string())),
                ("x".to_string(), ArgValue::F64(1.25)),
            ],
        }];
        let json = chrome_trace_json(&events);
        let value = serde::json::parse(&json).expect("exported trace must be valid JSON");
        let trace_events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(trace_events.len(), 1);
        let e = &trace_events[0];
        assert_eq!(
            e.get("name").and_then(|v| v.as_str()),
            Some("a \"quoted\" name")
        );
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(e.get("dur").and_then(|v| v.as_f64()), Some(12.0));
        assert_eq!(e.get("tid").and_then(|v| v.as_f64()), Some(3.0));
        let args = e.get("args").expect("args object");
        assert_eq!(args.get("k").and_then(|v| v.as_str()), Some("v\n"));
        assert_eq!(args.get("x").and_then(|v| v.as_f64()), Some(1.25));
    }
}
