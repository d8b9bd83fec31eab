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
//!   `CASA_TRACE` is set.
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
pub use flight::{
    flight_dump_json, render_flight_table, FlightEvent, FlightKind, FlightRecorder,
    DEFAULT_FLIGHT_CAPACITY, FLIGHT_DUMP_SCHEMA,
};
pub use fnv::{fnv1a_64, Fnv1a, FNV_OFFSET, FNV_PRIME};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, merge_snapshot, Counter, Gauge,
    Histogram, HistogramSnapshot, LocalCounter, MetricValue, MetricsSnapshot, Registry,
    HISTOGRAM_BUCKETS,
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
use std::sync::Arc;

#[derive(Debug)]
struct ObsInner {
    registry: Registry,
    collector: Arc<TraceCollector>,
    flight: Arc<FlightRecorder>,
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
        Obs::with_collector(Arc::new(TraceCollector::new()))
    }

    /// An enabled handle with a fresh registry but a shared trace
    /// collector — lets parallel per-cell registries feed one
    /// timeline. The flight recorder is fresh; use [`Obs::child`] to
    /// share it too.
    pub fn with_collector(collector: Arc<TraceCollector>) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: Registry::new(),
                collector,
                flight: Arc::new(FlightRecorder::from_env()),
            })),
        }
    }

    /// An enabled handle whose flight ring holds at most `cap` events
    /// — for tests and tools that exercise ring-wrap behaviour without
    /// touching `CASA_FLIGHT_CAP` (environment writes race across
    /// threads).
    pub fn with_flight_capacity(cap: usize) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: Registry::new(),
                collector: Arc::new(TraceCollector::new()),
                flight: Arc::new(FlightRecorder::new(cap)),
            })),
        }
    }

    /// A child handle: fresh registry, shared trace collector **and**
    /// shared flight recorder (including its dump sink). This is what
    /// the sweep gives each cell — per-cell metric isolation, one
    /// timeline, one post-mortem ring.
    /// Disabled parents produce disabled children.
    pub fn child(&self) -> Obs {
        match &self.inner {
            Some(i) => Obs {
                inner: Some(Arc::new(ObsInner {
                    registry: Registry::new(),
                    collector: Arc::clone(&i.collector),
                    flight: Arc::clone(&i.flight),
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
        match &self.inner {
            Some(i) => {
                i.flight
                    .push(FlightKind::Span, name, i.collector.elapsed_us(), None);
                i.collector.begin_span(name, Vec::new())
            }
            None => Span::noop(),
        }
    }

    /// Open a span with arguments (no-op guard when disabled).
    pub fn span_with(&self, name: &str, args: Vec<(String, ArgValue)>) -> Span {
        match &self.inner {
            Some(i) => {
                i.flight
                    .push(FlightKind::Span, name, i.collector.elapsed_us(), None);
                i.collector.begin_span(name, args)
            }
            None => Span::noop(),
        }
    }

    /// Record an instant event.
    pub fn instant(&self, name: &str, args: Vec<(String, ArgValue)>) {
        if let Some(i) = &self.inner {
            i.flight
                .push(FlightKind::Instant, name, i.collector.elapsed_us(), None);
            i.collector.instant(name, args);
        }
    }

    /// Add to a named counter.
    pub fn add(&self, name: &str, v: u64) {
        if let Some(i) = &self.inner {
            i.flight.push(
                FlightKind::Counter,
                name,
                i.collector.elapsed_us(),
                Some(ArgValue::U64(v)),
            );
            i.registry.counter(name).add(v);
        }
    }

    /// Set a named gauge.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(i) = &self.inner {
            i.flight.push(
                FlightKind::Gauge,
                name,
                i.collector.elapsed_us(),
                Some(ArgValue::F64(v)),
            );
            i.registry.gauge(name).set(v);
        }
    }

    /// Record a histogram observation.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(i) = &self.inner {
            i.flight.push(
                FlightKind::Histogram,
                name,
                i.collector.elapsed_us(),
                Some(ArgValue::U64(v)),
            );
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

    /// The flight recorder, if enabled.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.inner.as_deref().map(|i| &i.flight)
    }

    /// Snapshot the flight-recorder ring, oldest first; empty when
    /// disabled.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        match &self.inner {
            Some(i) => i.flight.events(),
            None => Vec::new(),
        }
    }

    /// Serialize the flight ring (plus this handle's metric snapshot)
    /// as a deterministic JSON document. Empty-but-valid when
    /// disabled.
    pub fn dump_flight(&self) -> String {
        match &self.inner {
            Some(i) => flight_dump_json(
                i.flight.capacity(),
                i.flight.dropped(),
                &i.flight.events(),
                &i.registry.snapshot(),
            ),
            None => flight_dump_json(0, 0, &[], &MetricsSnapshot::new()),
        }
    }

    /// Configure where automatic flight dumps (panic hook, engine
    /// degradation) are written. The sink lives on the flight
    /// recorder, so [`Obs::child`] handles inherit it.
    pub fn set_flight_sink(&self, path: Option<PathBuf>) {
        if let Some(i) = &self.inner {
            i.flight.set_sink(path);
        }
    }

    /// The configured automatic-dump sink, if any.
    pub fn flight_sink(&self) -> Option<PathBuf> {
        self.inner.as_deref().and_then(|i| i.flight.sink())
    }

    /// Write [`Obs::dump_flight`] to the configured sink, **falling
    /// back to `fallback`** when no sink is set or the sink write
    /// fails (unwritable directory, read-only mount — exactly the
    /// situations a post-mortem dump must survive). Returns the path
    /// actually written; `None` when disabled or when both writes
    /// fail. Concurrent dumps (panic hook, degradation note)
    /// serialize on the flight recorder's dump lock so no file ever
    /// holds two interleaved documents.
    pub fn dump_flight_to_sink_or(&self, fallback: &str) -> Option<PathBuf> {
        let i = self.inner.as_deref()?;
        let _guard = i.flight.dump_guard();
        let body = self.dump_flight();
        if let Some(sink) = self.flight_sink() {
            if std::fs::write(&sink, &body).is_ok() {
                return Some(sink);
            }
        }
        let fallback = PathBuf::from(fallback);
        std::fs::write(&fallback, &body).ok()?;
        Some(fallback)
    }

    /// Record a degradation note (e.g. the allocation engine
    /// substituting a fallback allocator) and trigger an automatic
    /// flight dump to the configured sink. Returns the dump path when
    /// one was written. No-op (returning `None`) when disabled or when
    /// no sink is configured — the note is still buffered for later
    /// on-demand dumps.
    pub fn note_degradation(&self, name: &str, reason: &str) -> Option<PathBuf> {
        let i = self.inner.as_deref()?;
        i.flight.push(
            FlightKind::Note,
            name,
            i.collector.elapsed_us(),
            Some(ArgValue::Str(reason.to_string())),
        );
        let sink = i.flight.sink()?;
        let _guard = i.flight.dump_guard();
        std::fs::write(&sink, self.dump_flight()).ok()?;
        Some(sink)
    }

    /// Buffer a note in the flight ring **without** triggering a dump
    /// — the quiet sibling of [`Obs::note_degradation`]. The server
    /// uses this to stamp each request's correlation ID into the
    /// post-mortem ring, so a captured flight dump can be filtered to
    /// one request without every request forcing a disk write.
    pub fn annotate(&self, name: &str, value: &str) {
        if let Some(i) = &self.inner {
            i.flight.push(
                FlightKind::Note,
                name,
                i.collector.elapsed_us(),
                Some(ArgValue::Str(value.to_string())),
            );
        }
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
                eprintln!(
                    "flight recorder: dumped {} events to {}",
                    obs.flight_events().len(),
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
    fn shared_collector_distinct_registries() {
        let collector = Arc::new(TraceCollector::new());
        let a = Obs::with_collector(Arc::clone(&collector));
        let b = Obs::with_collector(Arc::clone(&collector));
        a.add("x", 1);
        b.add("x", 10);
        {
            let _ga = a.span("a");
        }
        {
            let _gb = b.span("b");
        }
        assert_eq!(a.snapshot().get("x"), Some(&MetricValue::Counter(1)));
        assert_eq!(b.snapshot().get("x"), Some(&MetricValue::Counter(10)));
        assert_eq!(collector.events().len(), 2, "one timeline for both");
    }

    #[test]
    fn obs_is_send_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        assert_send_sync::<FlightRecorder>();
    }

    #[test]
    fn flight_ring_mirrors_obs_activity() {
        let obs = Obs::enabled();
        {
            let _g = obs.span("phase");
            obs.add("n", 2);
            obs.gauge_set("g", 0.5);
            obs.record("h", 8);
            obs.instant("tick", Vec::new());
        }
        let evs = obs.flight_events();
        let kinds: Vec<FlightKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlightKind::Span,
                FlightKind::Counter,
                FlightKind::Gauge,
                FlightKind::Histogram,
                FlightKind::Instant,
            ]
        );
        // Sequence numbers are monotone and the payloads survive.
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(evs[1].value, Some(ArgValue::U64(2)));
        assert_eq!(evs[2].value, Some(ArgValue::F64(0.5)));
        // Disabled handles record nothing.
        let off = Obs::disabled();
        off.add("n", 1);
        assert!(off.flight_events().is_empty());
        assert!(off.flight().is_none());
    }

    #[test]
    fn child_shares_flight_ring_and_sink_but_not_registry() {
        let parent = Obs::enabled();
        parent.set_flight_sink(Some(std::path::PathBuf::from("/tmp/never-written.json")));
        let child = parent.child();
        child.add("x", 3);
        parent.add("y", 1);
        // One shared ring sees both, in order.
        let names: Vec<String> = parent.flight_events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(child.flight_sink(), parent.flight_sink());
        // Registries stay isolated.
        assert!(parent.snapshot().contains_key("y"));
        assert!(!parent.snapshot().contains_key("x"));
        assert!(child.snapshot().contains_key("x"));
        // Disabled parents produce disabled children.
        assert!(!Obs::disabled().child().is_enabled());
    }

    #[test]
    fn dump_flight_round_trips_through_the_json_parser() {
        let obs = Obs::enabled();
        obs.add("solver.nodes", 41);
        obs.record("trace.size", 64);
        let dump = obs.dump_flight();
        let v = serde::json::parse(&dump).expect("flight dump must be valid JSON");
        let events = v.get("events").and_then(|x| x.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(|x| x.as_str()),
            Some("solver.nodes")
        );
        // The registry snapshot rides along for post-mortem context.
        let metrics = v.get("metrics").and_then(|x| x.as_object()).unwrap();
        assert!(metrics.contains_key("solver.nodes"));
        // A disabled handle still dumps a valid (empty) document.
        let empty = serde::json::parse(&Obs::disabled().dump_flight()).unwrap();
        assert_eq!(
            empty
                .get("events")
                .and_then(|x| x.as_array())
                .map(<[_]>::len),
            Some(0)
        );
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
        // same sink from many threads; the dump lock serializes the
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
    fn annotate_buffers_a_note_without_dumping() {
        let obs = Obs::enabled();
        let sink =
            std::env::temp_dir().join(format!("casa_annotate_never_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&sink);
        obs.set_flight_sink(Some(sink.clone()));
        obs.annotate("server.request", "r000001");
        assert!(!sink.exists(), "annotate must not write the sink");
        let evs = obs.flight_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, FlightKind::Note);
        assert_eq!(evs[0].name, "server.request");
        assert_eq!(evs[0].value, Some(ArgValue::Str("r000001".to_string())));
        // Disabled handles stay inert.
        Obs::disabled().annotate("x", "y");
    }

    #[test]
    fn note_degradation_buffers_and_dumps_to_sink() {
        let obs = Obs::enabled();
        // Without a sink: buffered, no file written.
        assert_eq!(obs.note_degradation("engine.fallback", "no sink yet"), None);
        let path =
            std::env::temp_dir().join(format!("casa_flight_test_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        obs.set_flight_sink(Some(path.clone()));
        let written = obs
            .note_degradation("engine.fallback", "ilp solve failed: singular basis")
            .expect("sink configured");
        assert_eq!(written, path);
        let dump = std::fs::read_to_string(&path).unwrap();
        let v = serde::json::parse(&dump).unwrap();
        let events = v.get("events").and_then(|x| x.as_array()).unwrap();
        let notes: Vec<_> = events
            .iter()
            .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("note"))
            .collect();
        assert_eq!(notes.len(), 2, "both degradation notes buffered");
        assert_eq!(
            notes[1].get("value").and_then(|x| x.as_str()),
            Some("ilp solve failed: singular basis")
        );
        let _ = std::fs::remove_file(&path);
    }
}
