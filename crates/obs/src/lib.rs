//! `casa-obs`: zero-dependency structured observability for the CASA
//! workspace.
//!
//! Three pieces, all pure `std`:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`])
//!   — typed, `Send + Sync`, global-free. Snapshots are
//!   [`BTreeMap`](std::collections::BTreeMap)s, so JSON export
//!   iterates in sorted key order and is deterministic by
//!   construction.
//! * **Tracing** ([`TraceCollector`], RAII [`Span`] guards, instant
//!   events) — hierarchical spans with monotonic microsecond
//!   timestamps and explicit parent links, bounded at the newest
//!   [`TRACE_CAPACITY`] events, exportable as Chrome
//!   `trace_event` JSON ([`chrome_trace_json`]) for
//!   `chrome://tracing` / Perfetto, or summarized as an indented
//!   table ([`render_span_table`]).
//! * **The [`Obs`] handle** — a cheap clonable facade the allocation
//!   flow threads through its phases. A disabled handle
//!   ([`Obs::disabled`]) makes every call a no-op without heap
//!   traffic, so instrumented code paths cost nothing when
//!   observability is off; [`Obs::from_env`] enables it when
//!   `CASA_TRACE` is set. Each call records once: spans and instants
//!   in the collector, counters, gauges and histograms in the
//!   registry. A flight dump ([`Obs::dump_flight`], [`flight`]) reads
//!   the collector's newest events and the registry's snapshot.
//!
//! Timing lives only in trace events; metric snapshots carry counts
//! and values, never wall clock — that split is what lets
//! deterministic report sections include metrics while quarantining
//! timing to the non-deterministic sections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod fnv;
pub mod metrics;
pub mod serve;
pub mod span;

pub use export::{chrome_trace_json, jnum, json_escape, snapshot_to_json};
pub use flight::{render_flight_table, FLIGHT_DUMP_SCHEMA, FLIGHT_EVENTS};
pub use fnv::{fnv1a_64, Fnv1a, FNV_OFFSET, FNV_PRIME};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, merge_snapshot, Counter, Gauge,
    Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use serve::{
    collect_sse, header_value, http_get, http_post, http_request, prometheus_name, prometheus_text,
    status_text, valid_request_id, validate_exposition, ExpositionStats, JournalEntry, Request,
    RequestJournal, Response, Router, ServeHandle, ServeOptions, SolveAttribution,
    REQUEST_ID_HEADER, SSE_SUBSCRIBER_CAPACITY,
};
pub use span::{
    render_span_table, span_tree, ArgValue, EventKind, Span, SpanSummary, StreamEvent,
    SubscriberId, TraceCollector, TraceEvent, TRACE_CAPACITY,
};

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug)]
struct ObsInner {
    registry: Registry,
    collector: Arc<TraceCollector>,
    /// Where automatic flight dumps go. Every dump write holds this
    /// lock, so two dumps never interleave in one file.
    flight_sink: Arc<Mutex<Option<PathBuf>>>,
}

impl ObsInner {
    /// The dump sink, locked. Poison-tolerant: dumps run inside panic
    /// hooks, where a poisoned mutex must not abort the write.
    fn sink(&self) -> MutexGuard<'_, Option<PathBuf>> {
        self.flight_sink
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Handle threaded through the allocation flow. Clones share the same
/// registry and trace collector; a disabled handle is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A handle on which every operation is a no-op.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An enabled handle with a fresh registry and trace collector.
    pub fn enabled() -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: Registry::new(),
                collector: Arc::new(TraceCollector::new()),
                flight_sink: Arc::new(Mutex::new(None)),
            })),
        }
    }

    /// A child handle: fresh registry, shared trace collector **and**
    /// shared flight-dump sink. This is what the sweep gives each cell
    /// — per-cell metric isolation, one timeline that every flight dump
    /// reads. Disabled parents produce disabled children.
    pub fn child(&self) -> Obs {
        match &self.inner {
            Some(i) => Obs {
                inner: Some(Arc::new(ObsInner {
                    registry: Registry::new(),
                    collector: Arc::clone(&i.collector),
                    flight_sink: Arc::clone(&i.flight_sink),
                })),
            },
            None => Obs::disabled(),
        }
    }

    /// Enabled iff `CASA_TRACE` is set to a non-empty value other
    /// than `0`.
    pub fn from_env() -> Obs {
        match std::env::var("CASA_TRACE") {
            Ok(v) if !v.is_empty() && v != "0" => Obs::enabled(),
            _ => Obs::disabled(),
        }
    }

    /// Whether instrumentation is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metric registry, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The trace collector, if enabled.
    pub fn collector(&self) -> Option<&Arc<TraceCollector>> {
        self.inner.as_deref().map(|i| &i.collector)
    }

    /// Open a span (no-op guard when disabled).
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, Vec::new())
    }

    /// Open a span with arguments (no-op guard when disabled).
    pub fn span_with(&self, name: &str, args: Vec<(String, ArgValue)>) -> Span {
        match &self.inner {
            Some(i) => i.collector.begin_span(name, args),
            None => Span::noop(),
        }
    }

    /// Record an instant event.
    pub fn instant(&self, name: &str, args: Vec<(String, ArgValue)>) {
        if let Some(i) = &self.inner {
            i.collector.instant(name, args);
        }
    }

    /// Add to a named counter.
    pub fn add(&self, name: &str, v: u64) {
        if let Some(i) = &self.inner {
            i.registry.counter(name).add(v);
        }
    }

    /// Set a named gauge.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(i) = &self.inner {
            i.registry.gauge(name).set(v);
        }
    }

    /// Record a histogram observation.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(i) = &self.inner {
            i.registry.histogram(name).record(v);
        }
    }

    /// Snapshot the registry; empty when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.registry.snapshot(),
            None => MetricsSnapshot::new(),
        }
    }

    /// Snapshot the trace events; empty when disabled.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(i) => i.collector.events(),
            None => Vec::new(),
        }
    }

    /// The flight dump: the collector's newest [`FLIGHT_EVENTS`]
    /// events, its drop count and this handle's metric snapshot, as a
    /// deterministic JSON document (see [`flight`]). Empty-but-valid
    /// when disabled.
    pub fn dump_flight(&self) -> String {
        match &self.inner {
            Some(i) => {
                let (events, dropped) = i.collector.newest(FLIGHT_EVENTS);
                flight::flight_dump_json(&events, dropped, &i.registry.snapshot())
            }
            None => flight::flight_dump_json(&[], 0, &MetricsSnapshot::new()),
        }
    }

    /// Configure where automatic flight dumps (panic hook, engine
    /// degradation) are written. [`Obs::child`] handles share it.
    pub fn set_flight_sink(&self, path: Option<PathBuf>) {
        if let Some(i) = &self.inner {
            *i.sink() = path;
        }
    }

    /// The configured automatic-dump sink, if any.
    pub fn flight_sink(&self) -> Option<PathBuf> {
        self.inner.as_deref().and_then(|i| i.sink().clone())
    }

    /// Write [`Obs::dump_flight`] to the configured sink, **falling
    /// back to `fallback`** when no sink is set or the sink write
    /// fails (unwritable directory, read-only mount — exactly the
    /// situations a post-mortem dump must survive). Returns the path
    /// actually written; `None` when disabled or when both writes
    /// fail. Concurrent dumps (panic hook, degradation note)
    /// serialize on the sink's lock so no file ever holds two
    /// interleaved documents.
    pub fn dump_flight_to_sink_or(&self, fallback: &str) -> Option<PathBuf> {
        let i = self.inner.as_deref()?;
        let sink = i.sink();
        let body = self.dump_flight();
        if let Some(path) = sink.as_ref() {
            if std::fs::write(path, &body).is_ok() {
                return Some(path.clone());
            }
        }
        let fallback = PathBuf::from(fallback);
        std::fs::write(&fallback, &body).ok()?;
        Some(fallback)
    }

    /// Record a degradation note (e.g. the allocation engine
    /// substituting a fallback allocator) as an instant event named
    /// `name` carrying `reason`, and write a flight dump to the
    /// configured sink. Returns the dump path when one was written;
    /// `None` when disabled or when no sink is configured (the instant
    /// is recorded all the same).
    pub fn note_degradation(&self, name: &str, reason: &str) -> Option<PathBuf> {
        let i = self.inner.as_deref()?;
        i.collector.instant(
            name,
            vec![("reason".to_string(), ArgValue::Str(reason.to_string()))],
        );
        let sink = i.sink();
        let path = sink.as_ref()?;
        std::fs::write(path, self.dump_flight()).ok()?;
        Some(path.clone())
    }

    /// Install a process-wide panic hook that writes the flight dump
    /// (to the sink, else `casa_flight_dump.json` in the working
    /// directory) before delegating to the previous hook. Intended for
    /// binaries; installing from more than one handle chains the
    /// hooks. No-op when disabled.
    pub fn install_panic_hook(&self) {
        if !self.is_enabled() {
            return;
        }
        let obs = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(path) = obs.dump_flight_to_sink_or("casa_flight_dump.json") {
                let events = obs.collector().map_or(0, |c| c.len().min(FLIGHT_EVENTS));
                eprintln!(
                    "flight recorder: dumped {events} events to {}",
                    path.display()
                );
            }
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        let _g = obs.span("phase");
        obs.add("n", 5);
        obs.gauge_set("g", 1.0);
        obs.record("h", 9);
        obs.instant("i", Vec::new());
        assert!(!obs.is_enabled());
        assert!(obs.snapshot().is_empty());
        assert!(obs.events().is_empty());
    }

    #[test]
    fn enabled_handle_records_and_clones_share() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        {
            let _g = obs.span("outer");
            clone.add("n", 2);
            clone.add("n", 3);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.get("n"), Some(&MetricValue::Counter(5)));
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "outer");
        assert!(events[0].dur_us.is_some());
    }

    #[test]
    fn obs_is_send_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
    }

    #[test]
    fn child_shares_collector_and_sink_but_not_registry() {
        let parent = Obs::enabled();
        parent.set_flight_sink(Some(std::path::PathBuf::from("/tmp/never-written.json")));
        let child = parent.child();
        child.add("x", 3);
        parent.add("y", 1);
        {
            let _c = child.span("c");
        }
        parent.instant("p", Vec::new());
        // One shared timeline sees both, in order.
        let names: Vec<String> = parent.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["c", "p"]);
        assert_eq!(child.flight_sink(), parent.flight_sink());
        // Registries stay isolated.
        assert!(parent.snapshot().contains_key("y"));
        assert!(!parent.snapshot().contains_key("x"));
        assert!(child.snapshot().contains_key("x"));
        // Disabled parents produce disabled children.
        assert!(!Obs::disabled().child().is_enabled());
    }

    fn dump_events(dump: &str) -> Vec<serde::json::Value> {
        let v = serde::json::parse(dump).expect("flight dump must be valid JSON");
        v.get("events").and_then(|x| x.as_array()).unwrap().to_vec()
    }

    fn str_field<'a>(e: &'a serde::json::Value, key: &str) -> Option<&'a str> {
        e.get(key).and_then(|x| x.as_str())
    }

    #[test]
    fn dump_lists_events_once_and_metrics_by_value() {
        let obs = Obs::enabled();
        obs.add("solver.nodes", 41);
        obs.record("trace.size", 64);
        {
            let _g = obs.span_with("solve", vec![("n".to_string(), ArgValue::U64(3))]);
        }
        obs.instant("tick", Vec::new());
        let dump = obs.dump_flight();
        // Only the collector's events: metric updates are not events.
        let events = dump_events(&dump);
        let names: Vec<&str> = events.iter().filter_map(|e| str_field(e, "name")).collect();
        assert_eq!(names, ["solve", "tick"]);
        assert_eq!(str_field(&events[0], "kind"), Some("span"));
        assert!(events[0].get("dur_us").and_then(|d| d.as_f64()).is_some());
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("n"))
                .and_then(|x| x.as_f64()),
            Some(3.0)
        );
        assert_eq!(str_field(&events[1], "kind"), Some("instant"));
        // The registry snapshot rides along for post-mortem context.
        let v = serde::json::parse(&dump).unwrap();
        let metrics = v.get("metrics").and_then(|x| x.as_object()).unwrap();
        assert!(metrics.contains_key("solver.nodes"));
        assert!(metrics.contains_key("trace.size"));
        // A disabled handle still dumps a valid (empty) document.
        assert!(dump_events(&Obs::disabled().dump_flight()).is_empty());
    }

    #[test]
    fn dump_inside_an_open_span_lists_it_as_open() {
        let obs = Obs::enabled();
        {
            let _done = obs.span("done");
        }
        let _open = obs.span("running");
        let events = dump_events(&obs.dump_flight());
        assert_eq!(str_field(&events[1], "name"), Some("running"));
        assert_eq!(events[1].get("dur_us"), Some(&serde::json::Value::Null));
        assert!(events[0].get("dur_us").and_then(|d| d.as_f64()).is_some());
        // Obs::events still reports the open span's duration so far.
        assert!(obs.events()[1].dur_us.is_some());
    }

    #[test]
    fn a_full_collector_dumps_its_newest_events_and_drop_count() {
        let obs = Obs::enabled();
        let pushed = TRACE_CAPACITY + 100;
        for i in 0..pushed {
            obs.instant("tick", vec![("i".to_string(), ArgValue::U64(i as u64))]);
        }
        let v = serde::json::parse(&obs.dump_flight()).expect("valid JSON");
        let evicted = (pushed - TRACE_CAPACITY) as f64;
        assert_eq!(v.get("dropped").and_then(|x| x.as_f64()), Some(evicted));
        let events = v.get("events").and_then(|x| x.as_array()).unwrap();
        assert_eq!(events.len(), FLIGHT_EVENTS);
        // The newest events, numbered by their place in everything the
        // collector recorded.
        let seq = |e: &serde::json::Value| e.get("seq").and_then(|x| x.as_f64());
        assert_eq!(seq(&events[0]), Some((pushed - FLIGHT_EVENTS) as f64));
        assert_eq!(seq(events.last().unwrap()), Some((pushed - 1) as f64));
    }

    #[test]
    fn dump_falls_back_when_sink_write_fails() {
        let obs = Obs::enabled();
        obs.add("n", 1);
        // A sink inside a directory that does not exist: the write
        // must fail and the dump must land on the fallback path
        // instead of vanishing.
        let bad = std::env::temp_dir()
            .join(format!("casa_no_such_dir_{}", std::process::id()))
            .join("sink.json");
        obs.set_flight_sink(Some(bad.clone()));
        let fallback = std::env::temp_dir().join(format!(
            "casa_fallback_test_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&fallback);
        let written = obs
            .dump_flight_to_sink_or(&fallback.display().to_string())
            .expect("fallback write succeeds");
        assert_eq!(written, fallback);
        assert!(!bad.exists());
        let body = std::fs::read_to_string(&fallback).unwrap();
        assert!(serde::json::parse(&body).is_ok(), "fallback dump is valid");
        let _ = std::fs::remove_file(&fallback);
    }

    #[test]
    fn concurrent_dumps_do_not_interleave() {
        let obs = Obs::enabled();
        let sink = std::env::temp_dir().join(format!(
            "casa_dump_race_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&sink);
        obs.set_flight_sink(Some(sink.clone()));
        let fallback = sink.display().to_string();
        // Panic-hook-style dumps and degradation notes race onto the
        // same sink from many threads; the sink's lock serializes the
        // writes so the file never ends up holding two interleaved
        // documents. (Readers racing an in-progress write can still
        // see a truncated file — the guarantee is about writers, so
        // the file is only inspected after the storm.)
        std::thread::scope(|s| {
            for t in 0..4 {
                let obs = obs.clone();
                let fallback = fallback.clone();
                s.spawn(move || {
                    for j in 0..25 {
                        if t % 2 == 0 {
                            obs.note_degradation("engine.fallback", &format!("t{t} i{j}"));
                        } else {
                            obs.dump_flight_to_sink_or(&fallback);
                        }
                    }
                });
            }
        });
        let final_body = std::fs::read_to_string(&sink).unwrap();
        assert!(
            serde::json::parse(&final_body).is_ok(),
            "sink must hold one complete JSON document"
        );
        let _ = std::fs::remove_file(&sink);
    }

    #[test]
    fn note_degradation_records_an_instant_and_dumps_to_sink() {
        let obs = Obs::enabled();
        // Without a sink: recorded, no file written.
        assert_eq!(obs.note_degradation("engine.fallback", "no sink yet"), None);
        let path =
            std::env::temp_dir().join(format!("casa_flight_test_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        obs.set_flight_sink(Some(path.clone()));
        let written = obs
            .note_degradation("engine.fallback", "ilp solve failed: singular basis")
            .expect("sink configured");
        assert_eq!(written, path);
        let reason = |e: &serde::json::Value| {
            e.get("args")
                .and_then(|a| a.get("reason"))
                .and_then(|x| x.as_str())
                .map(str::to_string)
        };
        let dump = std::fs::read_to_string(&path).unwrap();
        let notes: Vec<serde::json::Value> = dump_events(&dump)
            .into_iter()
            .filter(|e| str_field(e, "name") == Some("engine.fallback"))
            .collect();
        assert_eq!(notes.len(), 2, "both degradation notes recorded");
        assert!(notes
            .iter()
            .all(|e| str_field(e, "kind") == Some("instant")));
        assert_eq!(
            reason(&notes[1]).as_deref(),
            Some("ilp solve failed: singular basis")
        );
        // The same instants are on the timeline every other view reads.
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.kind == EventKind::Instant));
        assert_eq!(
            events[1].args,
            vec![(
                "reason".to_string(),
                ArgValue::Str("ilp solve failed: singular basis".to_string())
            )]
        );
        let _ = std::fs::remove_file(&path);
    }
}
