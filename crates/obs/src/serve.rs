//! Live telemetry service: a minimal std-only HTTP/1.1 server
//! exposing an enabled [`Obs`] handle while the instrumented program
//! runs.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition rendered from the
//!   current [`MetricsSnapshot`] ([`prometheus_text`]): counters and
//!   gauges as their native types, log₂ histograms as summaries with
//!   p50/p90/p99 quantile lines.
//! * `GET /snapshot.json` — the deterministic sorted-key JSON snapshot
//!   ([`crate::snapshot_to_json`]).
//! * `GET /flight.json` — a flight dump ([`Obs::dump_flight`]): the
//!   trace collector's newest events plus the metric snapshot.
//! * `GET /requests.json` — the bounded in-memory [`RequestJournal`]:
//!   the last `CASA_REQ_JOURNAL_CAP` finished requests with status,
//!   byte counts, handler wall time, and (for `/solve`) the
//!   [`SolveAttribution`] the router attached.
//! * `GET /healthz` — liveness (`ok`).
//! * `GET /events` — Server-Sent Events stream of span begin/end and
//!   instant events, tee'd from the [`TraceCollector`] through a
//!   bounded subscriber channel. Connecting replays the collector's
//!   retained events first (atomically, so nothing is missed or
//!   duplicated), then streams live.
//! * `GET|POST /quitquitquit` — requests a graceful quit; binaries
//!   lingering for a scraper ([`ServeHandle::wait_quit`]) exit early.
//!
//! # Request-scoped observability
//!
//! Every request carries a **correlation ID**: the client's
//! `X-Casa-Request-Id` header when it is well-formed (≤ 64 chars of
//! `[A-Za-z0-9._-]`), otherwise one minted from a deterministic
//! per-listener counter (`r000001`, `r000002`, ...). The ID is echoed
//! in an `X-Casa-Request-Id` response header on *every* response —
//! including read-error responses and the SSE stream — and is handed
//! to the [`Router`] via [`Request::req_id`] so the application can
//! thread it into worker pools and span trees. Each finished request
//! emits an `http.access` instant event, appends a [`JournalEntry`]
//! to the journal (and to the optional `CASA_ACCESS_LOG` file sink,
//! one JSON object per line), and records per-route latency
//! histograms plus per-status counters. Requests slower than
//! `CASA_SLOW_REQ_MS` — or whose solve attribution carries a
//! degradation reason — record a `serve.slow_request` instant whose
//! reason names the request ID and write a flight dump
//! ([`Obs::note_degradation`]). None of this touches
//! response *bodies*: the determinism contract (byte-identical
//! `/solve` replies with the journal on or off) is pinned by test.
//!
//! The server is deliberately boring: blocking `TcpListener`,
//! `Connection: close` on every response, and reused connection
//! threads. A thread parked in `accept()` serves the connection it
//! gets itself, first starting a replacement when no other thread is
//! parked, so concurrency is unbounded and a stalled client holds one
//! thread until its read deadline; done, it parks again unless three
//! threads already wait there, and exits otherwise. A request refused
//! before it was read in full gets a lingering close, so its reply is
//! not lost to a reset. The server never touches the instrumented
//! path — readers take the same locks any snapshot does, and SSE
//! subscribers are bounded channels that drop on overflow rather than
//! block a writer.
//!
//! The std-only HTTP *client* helpers ([`http_get`], [`collect_sse`])
//! and the exposition validator ([`validate_exposition`]) live here
//! too so `diag probe` and CI share one implementation.
//!
//! [`Obs`]: crate::Obs
//! [`Obs::dump_flight`]: crate::Obs::dump_flight
//! [`Obs::note_degradation`]: crate::Obs::note_degradation
//! [`TraceCollector`]: crate::TraceCollector
//! [`MetricsSnapshot`]: crate::MetricsSnapshot

use crate::export::{jnum, json_escape, snapshot_to_json};
use crate::metrics::{MetricValue, MetricsSnapshot};
use crate::span::{ArgValue, StreamEvent};
use crate::Obs;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Bound on each SSE subscriber's channel: a scraper that falls this
/// many events behind starts losing events instead of slowing the
/// instrumented program.
pub const SSE_SUBSCRIBER_CAPACITY: usize = 256;

/// Prefix every exported Prometheus family carries.
pub const PROMETHEUS_PREFIX: &str = "casa_";

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Map an internal metric name (dotted, free-form) to a Prometheus
/// family name: `casa_` prefix, every character outside
/// `[a-zA-Z0-9_:]` replaced by `_` (so `energy.total_uj` becomes
/// `casa_energy_total_uj`).
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(PROMETHEUS_PREFIX.len() + name.len());
    out.push_str(PROMETHEUS_PREFIX);
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Format an `f64` as a Prometheus sample value (`NaN` / `+Inf` /
/// `-Inf` spellings per the exposition format, shortest round-trip
/// otherwise).
pub fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4). Counters and gauges keep their type; log₂
/// histograms are rendered as `summary` families with quantile lines
/// (0.5 / 0.9 / 0.99 / 0.999, interpolated within buckets and clamped
/// to the exact observed extremes — present only when the histogram
/// has samples) plus `_sum` and `_count`, and `_min` / `_max` sibling
/// gauges carrying the exact observed extremes when known. Keys
/// iterate in sorted order;
/// if two internal names sanitize to the same family the first wins
/// and later ones are skipped (never a duplicate family).
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (name, value) in snap {
        let fam = prometheus_name(name);
        if !seen.insert(fam.clone()) {
            continue;
        }
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {fam} counter\n{fam} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {fam} gauge\n{fam} {}\n", prom_num(*v)));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {fam} summary\n"));
                if h.count > 0 {
                    for (q, v) in [
                        ("0.5", h.p50()),
                        ("0.9", h.p90()),
                        ("0.99", h.p99()),
                        ("0.999", h.quantile(0.999)),
                    ] {
                        if let Some(v) = v {
                            out.push_str(&format!("{fam}{{quantile=\"{q}\"}} {}\n", prom_num(v)));
                        }
                    }
                }
                out.push_str(&format!("{fam}_sum {}\n{fam}_count {}\n", h.sum, h.count));
                // The interpolated tail quantiles are clamped to the
                // observed extremes; export the extremes themselves as
                // sibling gauges so dashboards can show exact
                // best/worst samples per family.
                for (suffix, v) in [("min", h.min), ("max", h.max)] {
                    if let Some(v) = v {
                        let gauge = format!("{fam}_{suffix}");
                        if seen.insert(gauge.clone()) {
                            out.push_str(&format!("# TYPE {gauge} gauge\n{gauge} {v}\n"));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Summary statistics returned by [`validate_exposition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionStats {
    /// Distinct metric families declared with `# TYPE` lines.
    pub families: usize,
    /// Sample lines (family, `_sum`/`_count`, and quantile lines all
    /// count).
    pub samples: usize,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_sample_value(v: &str) -> bool {
    // Non-finite values are legal only in their canonical Prometheus
    // spellings. Rust's `f64` parser would happily accept `inf`,
    // `-infinity` or `nan` too, so the finite check below must not be
    // allowed to wave those through — a gauge rendered with `{}`
    // formatting (Rust's `inf`) is exactly the bug this validator
    // exists to catch.
    matches!(v, "NaN" | "+Inf" | "-Inf") || v.parse::<f64>().is_ok_and(|f| f.is_finite())
}

/// Validate Prometheus text exposition: every sample belongs to a
/// family declared by a preceding `# TYPE` line, no family is declared
/// twice, names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, and values parse.
/// Returns counts on success, a description of the first violation on
/// failure.
pub fn validate_exposition(text: &str) -> Result<ExpositionStats, String> {
    let mut families: BTreeSet<String> = BTreeSet::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, ty) = match (parts.next(), parts.next(), parts.next()) {
                (Some(n), Some(t), None) => (n, t),
                _ => return Err(format!("line {}: malformed TYPE line: {line}", lineno + 1)),
            };
            if !valid_metric_name(name) {
                return Err(format!("line {}: invalid family name {name:?}", lineno + 1));
            }
            if !matches!(
                ty,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return Err(format!("line {}: unknown metric type {ty:?}", lineno + 1));
            }
            if !families.insert(name.to_string()) {
                return Err(format!("line {}: duplicate family {name:?}", lineno + 1));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.find('{') {
            Some(brace) => {
                let close = line[brace..]
                    .find('}')
                    .map(|i| brace + i)
                    .ok_or_else(|| format!("line {}: unclosed label set: {line}", lineno + 1))?;
                (&line[..brace], line[close + 1..].trim())
            }
            None => {
                let mut it = line.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {}: empty sample", lineno + 1))?;
                (name, line[name.len()..].trim())
            }
        };
        let value = value_part
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("line {}: sample without value: {line}", lineno + 1))?;
        if !valid_metric_name(name_part) {
            return Err(format!(
                "line {}: invalid sample name {name_part:?}",
                lineno + 1
            ));
        }
        if !valid_sample_value(value) {
            return Err(format!(
                "line {}: unparsable sample value {value:?}",
                lineno + 1
            ));
        }
        let base = name_part
            .strip_suffix("_sum")
            .or_else(|| name_part.strip_suffix("_count"))
            .or_else(|| name_part.strip_suffix("_bucket"))
            .unwrap_or(name_part);
        if !families.contains(name_part) && !families.contains(base) {
            return Err(format!(
                "line {}: sample {name_part:?} has no preceding TYPE line",
                lineno + 1
            ));
        }
        samples += 1;
    }
    Ok(ExpositionStats {
        families: families.len(),
        samples,
    })
}

// ---------------------------------------------------------------------------
// SSE frame serialization
// ---------------------------------------------------------------------------

fn arg_json(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(n) => n.to_string(),
        ArgValue::F64(n) => crate::export::jnum(*n),
        ArgValue::Str(s) => format!("\"{}\"", json_escape(s)),
    }
}

/// Serialize one tee'd event as the single-line JSON document carried
/// in an SSE `data:` field.
pub fn stream_event_json(ev: &StreamEvent) -> String {
    let e = ev.event();
    let mut s = format!(
        "{{\"kind\":\"{}\",\"name\":\"{}\",\"tid\":{},\"ts_us\":{},\"dur_us\":{}",
        ev.kind_str(),
        json_escape(&e.name),
        e.tid,
        e.ts_us,
        e.dur_us
            .map_or_else(|| "null".to_string(), |d| d.to_string())
    );
    s.push_str(",\"args\":{");
    for (i, (k, v)) in e.args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{}", json_escape(k), arg_json(v)));
    }
    s.push_str("}}");
    s
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Header carrying the request correlation ID, both directions.
pub const REQUEST_ID_HEADER: &str = "X-Casa-Request-Id";

/// Whether a client-supplied correlation ID is acceptable: non-empty,
/// at most 64 characters, all in `[A-Za-z0-9._-]` (so an ID can be
/// embedded verbatim in headers, JSON, metrics notes, and file names
/// without escaping).
pub fn valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// One parsed HTTP request, as handed to a [`Router`].
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// Request path with any `?query` suffix stripped.
    pub path: String,
    /// Request body (empty unless the client sent `Content-Length`).
    pub body: Vec<u8>,
    /// Correlation ID: the client's `X-Casa-Request-Id` when valid
    /// ([`valid_request_id`]), else minted from the listener's
    /// deterministic counter before the router runs. Echoed in every
    /// response.
    pub req_id: String,
    /// Request bytes consumed (head + framed body).
    pub bytes_in: u64,
}

/// Per-request solve attribution: what the allocation service did for
/// one `/solve` request, recorded in the journal and access log but
/// **never** in the response body (which must stay byte-identical
/// across cache and observability configurations).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveAttribution {
    /// Cache disposition: `hit` (exact replay), `warm` (warm-started
    /// solve), or `miss` (cold solve).
    pub cache: String,
    /// Allocation status: `optimal`, `feasible`, or `fallback`.
    pub status: String,
    /// Proven optimality gap (0 when optimal, `None` for fallback).
    pub gap: Option<f64>,
    /// Branch-and-bound nodes expanded for this request (0 on an
    /// exact cache hit — no search ran).
    pub nodes: u64,
    /// Which budget stopped the search early, if any
    /// (`nodes` / `deadline` / `cancelled`).
    pub stopped_by: Option<String>,
    /// Degradation reason when the engine fell back.
    pub reason: Option<String>,
    /// Time the job waited in the admission queue before a worker
    /// picked it up, microseconds.
    pub queue_wait_us: u64,
    /// Worker shard that solved the job.
    pub worker: u64,
}

impl SolveAttribution {
    /// Deterministic-field-order JSON object (run-dependent values
    /// like `queue_wait_us` are fine here — this never enters a
    /// response body).
    pub fn to_json(&self) -> String {
        let os = |v: &Option<String>| {
            v.as_ref()
                .map_or_else(|| "null".to_string(), |s| format!("\"{}\"", json_escape(s)))
        };
        format!(
            "{{\"cache\":\"{}\",\"status\":\"{}\",\"gap\":{},\"nodes\":{},\"stopped_by\":{},\"reason\":{},\"queue_wait_us\":{},\"worker\":{}}}",
            json_escape(&self.cache),
            json_escape(&self.status),
            self.gap.map_or_else(|| "null".to_string(), jnum),
            self.nodes,
            os(&self.stopped_by),
            os(&self.reason),
            self.queue_wait_us,
            self.worker,
        )
    }
}

/// A response a [`Router`] hands back to the connection handler.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (200, 400, 429, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Extra headers appended verbatim (name, value).
    pub headers: Vec<(String, String)>,
    /// Solve attribution for the journal / access log; not serialized
    /// into the response.
    pub solve: Option<SolveAttribution>,
}

impl Response {
    /// A `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json".to_string(),
            body: body.into(),
            headers: Vec::new(),
            solve: None,
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain".to_string(),
            body: body.into(),
            headers: Vec::new(),
            solve: None,
        }
    }

    /// Append an extra header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Attach solve attribution for the request journal.
    pub fn with_solve(mut self, solve: SolveAttribution) -> Self {
        self.solve = Some(solve);
        self
    }
}

/// The canonical reason phrase for a status code (only the codes this
/// stack emits; anything else renders as `Status`).
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// One finished request as recorded in the [`RequestJournal`] and the
/// access-log sink.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Monotone sequence number assigned at journal insertion.
    pub seq: u64,
    /// Correlation ID ([`Request::req_id`]).
    pub id: String,
    /// Request method (`-` when the request never parsed).
    pub method: String,
    /// Request path (`-` when the request never parsed).
    pub path: String,
    /// Response status written.
    pub status: u16,
    /// Request bytes consumed.
    pub bytes_in: u64,
    /// Response bytes written (head + body; 0 if the write failed).
    pub bytes_out: u64,
    /// Handler wall time, microseconds (read through write).
    pub handler_us: u64,
    /// Solve attribution, when the router attached one.
    pub solve: Option<SolveAttribution>,
}

impl JournalEntry {
    /// Deterministic-field-order JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"id\":\"{}\",\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\"bytes_in\":{},\"bytes_out\":{},\"handler_us\":{},\"solve\":{}}}",
            self.seq,
            json_escape(&self.id),
            json_escape(&self.method),
            json_escape(&self.path),
            self.status,
            self.bytes_in,
            self.bytes_out,
            self.handler_us,
            self.solve
                .as_ref()
                .map_or_else(|| "null".to_string(), SolveAttribution::to_json),
        )
    }
}

#[derive(Debug, Default)]
struct JournalInner {
    seq: u64,
    dropped: u64,
    entries: VecDeque<JournalEntry>,
}

/// Bounded in-memory ring of finished requests, served at
/// `/requests.json`. Capacity 0 disables recording entirely (entries
/// are dropped on arrival, `dropped` still counts them).
#[derive(Debug)]
pub struct RequestJournal {
    cap: usize,
    inner: Mutex<JournalInner>,
}

impl RequestJournal {
    /// A journal holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        RequestJournal {
            cap,
            inner: Mutex::new(JournalInner::default()),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Append one finished request, assigning its sequence number
    /// (written back into `entry` so the access-log line carries the
    /// same `seq`) and evicting the oldest entry when full.
    pub fn push(&self, entry: &mut JournalEntry) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.seq += 1;
        entry.seq = inner.seq;
        if self.cap == 0 {
            inner.dropped += 1;
            return;
        }
        while inner.entries.len() >= self.cap {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(entry.clone());
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
    }

    /// Whether the journal holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `/requests.json` document:
    /// `{"cap":..,"dropped":..,"entries":[..]}` with entries oldest
    /// first.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut s = format!(
            "{{\"cap\":{},\"dropped\":{},\"entries\":[",
            self.cap, inner.dropped
        );
        for (i, e) in inner.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&e.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// Application hook: inspects a request before the built-in telemetry
/// routes; returning `Some` sends that response, `None` falls through
/// to `/metrics`, `/events`, etc. This is how `casa-server` mounts
/// `POST /solve` on the telemetry stack without duplicating the HTTP
/// plumbing.
pub type Router = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// Limits and deadlines for the connection handlers.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Total wall-clock allowance for reading one request — head *and*
    /// body. This is a deadline, not a per-read timeout: a client that
    /// drips one byte per second cannot pin a handler thread past it
    /// (the slowloris defence).
    pub read_deadline: Duration,
    /// Maximum request-line + header bytes.
    pub max_head_bytes: usize,
    /// Maximum request body bytes (`Content-Length` above this is
    /// rejected with 413 before reading the body).
    pub max_body_bytes: usize,
    /// How long [`ServeHandle::shutdown`] waits for in-flight
    /// connection handlers to finish before giving up on them.
    pub drain_timeout: Duration,
    /// Request-journal capacity; 0 disables recording. The default
    /// reads `CASA_REQ_JOURNAL_CAP` (256 when unset).
    pub journal_cap: usize,
    /// Requests whose handler wall time reaches this many
    /// milliseconds record a degradation note naming the request ID
    /// and write a flight dump. The default reads `CASA_SLOW_REQ_MS`
    /// (off when unset).
    pub slow_req_ms: Option<u64>,
    /// Optional access-log sink: one [`JournalEntry`] JSON object per
    /// line, appended. The default reads `CASA_ACCESS_LOG` (off when
    /// unset).
    pub access_log: Option<PathBuf>,
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl Default for ServeOptions {
    /// Connection limits are fixed; the request-observability knobs
    /// (`journal_cap`, `slow_req_ms`, `access_log`) are read from the
    /// environment so a binary gets them without new flags. Set the
    /// fields explicitly to ignore the environment.
    fn default() -> Self {
        ServeOptions {
            read_deadline: Duration::from_secs(5),
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            drain_timeout: Duration::from_secs(10),
            journal_cap: env_u64("CASA_REQ_JOURNAL_CAP").map_or(256, |v| v as usize),
            slow_req_ms: env_u64("CASA_SLOW_REQ_MS"),
            access_log: std::env::var("CASA_ACCESS_LOG")
                .ok()
                .filter(|s| !s.is_empty())
                .map(PathBuf::from),
        }
    }
}

/// Threads a listener keeps parked in `accept()` between connections.
/// A thread that finishes its connection while this many already wait
/// there exits instead of parking; each parked thread costs a stack.
/// With three, two closed-loop clients (serve-mix, ci's loadgen) never
/// start or retire a thread after warm-up; with two, a thread retired
/// whenever one finished while the other client was between requests,
/// and serve-mix started one for about a quarter of its connections.
const IDLE_THREADS: usize = 3;

/// How long a refused request's connection lingers after its reply
/// ([`linger_close`]).
const LINGER: Duration = Duration::from_millis(500);

/// Most bytes a lingering close reads and discards.
const LINGER_BYTES: usize = 64 * 1024;

/// Count of live connection threads, waitable for shutdown draining.
#[derive(Debug, Default)]
struct Drain {
    active: Mutex<usize>,
    changed: Condvar,
}

impl Drain {
    fn enter(self: &Arc<Self>) -> DrainGuard {
        let mut n = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        *n += 1;
        DrainGuard(Arc::clone(self))
    }

    /// Wait until no thread is left; returns whether the pool drained
    /// within `timeout`.
    fn wait_empty(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut n = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        while *n > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(n, left)
                .unwrap_or_else(PoisonError::into_inner);
            n = guard;
        }
        true
    }
}

struct DrainGuard(Arc<Drain>);

impl Drop for DrainGuard {
    fn drop(&mut self) {
        let mut n = self.0.active.lock().unwrap_or_else(PoisonError::into_inner);
        *n = n.saturating_sub(1);
        self.0.changed.notify_all();
    }
}

/// What the connection threads of one listener share. The listener
/// itself is not here: only the threads hold it, so the port closes
/// when the last of them exits.
struct Pool {
    obs: Obs,
    opts: ServeOptions,
    router: Option<Router>,
    /// The deterministic ID mint: the last minted number.
    next_id: AtomicU64,
    /// Backing store of the `serve.inflight` gauge.
    inflight: AtomicU64,
    journal: RequestJournal,
    shutdown: AtomicBool,
    quit: AtomicBool,
    /// Threads registered as parked in `accept()`.
    parked: AtomicUsize,
    /// Live threads; [`ServeHandle::shutdown`] waits for none.
    drain: Arc<Drain>,
}

impl Pool {
    fn mint_id(&self) -> String {
        format!("r{:06}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Register the calling thread as parked in `accept()`, unless
    /// [`IDLE_THREADS`] already are or the listener is shutting down.
    /// The thread registers before it reads the shutdown flag, and
    /// `shutdown()` sets the flag before it counts the parked threads,
    /// so a thread either sees the flag or is counted and woken.
    fn park(&self) -> bool {
        let mut n = self.parked.load(Ordering::SeqCst);
        loop {
            if n >= IDLE_THREADS {
                return false;
            }
            match self
                .parked
                .compare_exchange_weak(n, n + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(now) => n = now,
            }
        }
        if self.shutdown.load(Ordering::SeqCst) {
            self.parked.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }
}

/// Start one connection thread. Its live count is taken here, on the
/// spawning thread, so `shutdown()` cannot miss a thread that has not
/// started yet.
fn spawn_thread(listener: &Arc<TcpListener>, pool: &Arc<Pool>) -> io::Result<()> {
    let live = pool.drain.enter();
    let listener = Arc::clone(listener);
    let pool = Arc::clone(pool);
    thread::Builder::new()
        .name("casa-serve-conn".to_string())
        .spawn(move || {
            serve_connections(listener, &pool);
            drop(live);
        })
        .map(drop)
}

/// A connection thread's life: park in `accept()`, serve the
/// connection it gets itself, park again. When it takes the last
/// parked slot it first starts a replacement, so a slow client never
/// holds the port and concurrency stays unbounded; it exits when
/// enough others are parked or the listener shuts down. Its handle on
/// the listener drops before its live count does.
fn serve_connections(listener: Arc<TcpListener>, pool: &Arc<Pool>) {
    let mut parked = pool.park();
    while parked {
        let accepted = listener.accept();
        let others = pool.parked.fetch_sub(1, Ordering::SeqCst) - 1;
        if pool.shutdown.load(Ordering::SeqCst) {
            return; // a wake-up from shutdown(), or too late to serve
        }
        let Ok((mut stream, _)) = accepted else {
            parked = pool.park();
            continue;
        };
        if others == 0 {
            let _ = spawn_thread(&listener, pool);
        }
        let _ = handle_connection(pool, &mut stream);
        // Park before closing: a client's next request follows the
        // close, and must find this thread counted, or its accept
        // starts a spare thread.
        parked = pool.park();
        drop(stream);
    }
}

/// Handle to a running telemetry server; shuts down (and drains the
/// connection threads) on drop.
pub struct ServeHandle {
    addr: SocketAddr,
    pool: Arc<Pool>,
}

impl fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// The address actually bound (port resolved when the request was
    /// `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client has requested `/quitquitquit`.
    pub fn quit_requested(&self) -> bool {
        self.pool.quit.load(Ordering::SeqCst)
    }

    /// Block until a client requests `/quitquitquit` or `timeout`
    /// elapses; returns whether quit was requested. Lets a binary
    /// linger for a scraper after its work is done without an
    /// unconditional sleep.
    pub fn wait_quit(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.quit_requested() {
                return true;
            }
            thread::sleep(Duration::from_millis(20));
        }
        self.quit_requested()
    }

    /// Stop accepting connections, wake every thread parked in
    /// `accept()`, then **drain**: wait (up to the configured drain
    /// timeout) for every in-flight connection handler to finish
    /// writing its response. Without the drain, a quit landing
    /// concurrently with a `/metrics` scrape could tear the process
    /// down mid-response. Once it has drained the port is closed.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.pool.shutdown.store(true, Ordering::SeqCst);
        // One throwaway connection per parked thread; a thread that
        // parks from here on sees the flag instead.
        for _ in 0..self.pool.parked.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        }
        self.pool.drain.wait_empty(self.pool.opts.drain_timeout);
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the telemetry server for an enabled handle. `addr` is any
/// `host:port` string (`127.0.0.1:0` picks a free port — read it back
/// from [`ServeHandle::local_addr`]). A disabled handle is an
/// [`io::ErrorKind::Unsupported`] error: there is nothing to serve.
pub fn start(obs: &Obs, addr: &str) -> io::Result<ServeHandle> {
    start_with(obs, addr, ServeOptions::default(), None)
}

/// Like [`start`], with explicit [`ServeOptions`] and an optional
/// application [`Router`] consulted before the built-in telemetry
/// routes. This is the full-control entry point `casa-server` uses to
/// mount `POST /solve` on the same listener that serves `/metrics`.
pub fn start_with(
    obs: &Obs,
    addr: &str,
    opts: ServeOptions,
    router: Option<Router>,
) -> io::Result<ServeHandle> {
    if !obs.is_enabled() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "telemetry server needs an enabled Obs handle (set CASA_TRACE=1)",
        ));
    }
    let listener = Arc::new(TcpListener::bind(addr)?);
    let local = listener.local_addr()?;
    let pool = Arc::new(Pool {
        obs: obs.clone(),
        next_id: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        journal: RequestJournal::new(opts.journal_cap),
        opts,
        router,
        shutdown: AtomicBool::new(false),
        quit: AtomicBool::new(false),
        parked: AtomicUsize::new(0),
        drain: Arc::new(Drain::default()),
    });
    spawn_thread(&listener, &pool)?;
    Ok(ServeHandle { addr: local, pool })
}

/// Why a request could not be read; each maps to an HTTP status.
#[derive(Debug)]
enum ReadError {
    /// The read deadline expired before the request arrived.
    Timeout,
    /// Request line + headers exceeded the configured bound.
    HeadTooLarge,
    /// Declared `Content-Length` exceeded the configured bound.
    BodyTooLarge,
    /// Structurally invalid request.
    Malformed(&'static str),
    /// The socket failed outright; nothing can be written back. The
    /// payload exists for `Debug` rendering only.
    Io(#[allow(dead_code)] io::Error),
}

impl ReadError {
    fn response(&self) -> Option<(u16, String)> {
        match self {
            ReadError::Timeout => Some((408, "request read deadline exceeded\n".to_string())),
            ReadError::HeadTooLarge => Some((413, "request head too large\n".to_string())),
            ReadError::BodyTooLarge => Some((413, "request body too large\n".to_string())),
            ReadError::Malformed(why) => Some((400, format!("{why}\n"))),
            ReadError::Io(_) => None,
        }
    }
}

/// One `read` bounded by an absolute deadline rather than a per-call
/// timeout: re-arming the socket timeout with the *remaining* time is
/// what closes the slowloris hole — a client feeding one byte per
/// second used to reset the old 5 s per-read timeout indefinitely.
fn read_with_deadline(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, ReadError> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ReadError::Timeout);
        }
        stream.set_read_timeout(Some(left)).map_err(ReadError::Io)?;
        match stream.read(chunk) {
            Ok(n) => return Ok(n),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue; // deadline re-checked at the top
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Read one full request — head and (`Content-Length`-framed) body —
/// under `opts`'s size and deadline bounds. Repeated `Content-Length`
/// headers must agree; differing ones are refused.
fn read_request(stream: &mut TcpStream, opts: &ServeOptions) -> Result<Request, ReadError> {
    let deadline = Instant::now() + opts.read_deadline;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let head_len = loop {
        if let Some(pos) = head_end(&buf) {
            break pos;
        }
        if buf.len() > opts.max_head_bytes {
            return Err(ReadError::HeadTooLarge);
        }
        let n = read_with_deadline(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed before request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
    let first = head.lines().next().unwrap_or("");
    let mut parts = first.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Err(ReadError::Malformed("malformed request line")),
    };
    let mut content_length: Option<usize> = None;
    let mut req_id = String::new();
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let n = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Malformed("unparsable Content-Length"))?;
                // RFC 9112 §6.3: differing lengths leave the body's
                // framing undefined, so refuse rather than pick one.
                if content_length.is_some_and(|c| c != n) {
                    return Err(ReadError::Malformed("differing Content-Length headers"));
                }
                content_length = Some(n);
            } else if name.trim().eq_ignore_ascii_case(REQUEST_ID_HEADER) {
                let id = value.trim();
                // A malformed ID is treated as absent (minted instead),
                // not an error: correlation is best-effort.
                if valid_request_id(id) {
                    req_id = id.to_string();
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > opts.max_body_bytes {
        return Err(ReadError::BodyTooLarge);
    }
    let mut body = buf[head_len + 4..].to_vec();
    while body.len() < content_length {
        let n = read_with_deadline(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let path = path.split('?').next().unwrap_or("").to_string();
    let bytes_in = (head_len + 4 + content_length) as u64;
    Ok(Request {
        method,
        path,
        body,
        req_id,
        bytes_in,
    })
}

/// Write `resp` with the correlation ID echoed (unless the router
/// already set one); returns bytes written (head + body).
fn write_response_with_id(
    stream: &mut TcpStream,
    resp: &Response,
    req_id: &str,
) -> io::Result<u64> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if !resp
        .headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case(REQUEST_ID_HEADER))
    {
        head.push_str(&format!("{REQUEST_ID_HEADER}: {req_id}\r\n"));
    }
    for (name, value) in &resp.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()?;
    Ok((head.len() + resp.body.len()) as u64)
}

/// Normalize a path to a bounded per-route label so latency
/// histograms cannot explode on attacker-chosen paths.
fn route_label(path: &str) -> &'static str {
    match path {
        "/" => "root",
        "/solve" => "solve",
        "/metrics" => "metrics",
        "/snapshot.json" => "snapshot",
        "/flight.json" => "flight",
        "/healthz" => "healthz",
        "/events" => "events",
        "/requests.json" => "requests",
        "/quitquitquit" => "quit",
        _ => "other",
    }
}

/// The methods a built-in route accepts, `None` for unknown paths.
fn builtin_methods(path: &str) -> Option<&'static [&'static str]> {
    match path {
        "/metrics" | "/snapshot.json" | "/flight.json" | "/healthz" | "/events"
        | "/requests.json" => Some(&["GET"]),
        "/quitquitquit" => Some(&["GET", "POST"]),
        _ => None,
    }
}

/// Post-response bookkeeping for one finished request: counters,
/// per-route latency, the `http.access` instant event, the journal,
/// the optional access-log sink, and the slow/degraded note and
/// flight dump. Runs after the response bytes are on the wire, so none of
/// it can perturb response content.
#[allow(clippy::too_many_arguments)]
fn finish_request(
    pool: &Pool,
    began: Instant,
    req_id: &str,
    method: &str,
    path: &str,
    status: u16,
    bytes_in: u64,
    bytes_out: u64,
    solve: Option<SolveAttribution>,
) {
    let (obs, opts) = (&pool.obs, &pool.opts);
    let handler_us = u64::try_from(began.elapsed().as_micros()).unwrap_or(u64::MAX);
    obs.add("serve.requests_total", 1);
    obs.add(&format!("serve.responses.{status}_total"), 1);
    obs.record(
        &format!("serve.latency_us.{}", route_label(path)),
        handler_us,
    );
    obs.add("serve.bytes_in_total", bytes_in);
    obs.add("serve.bytes_out_total", bytes_out);
    if let Some(s) = &solve {
        obs.record("serve.queue_wait_us", s.queue_wait_us);
    }
    obs.instant(
        "http.access",
        vec![
            ("id".to_string(), ArgValue::Str(req_id.to_string())),
            ("method".to_string(), ArgValue::Str(method.to_string())),
            ("path".to_string(), ArgValue::Str(path.to_string())),
            ("status".to_string(), ArgValue::U64(u64::from(status))),
            ("bytes_in".to_string(), ArgValue::U64(bytes_in)),
            ("bytes_out".to_string(), ArgValue::U64(bytes_out)),
            ("dur_us".to_string(), ArgValue::U64(handler_us)),
        ],
    );
    let degraded = solve.as_ref().is_some_and(|s| s.reason.is_some());
    let mut entry = JournalEntry {
        seq: 0,
        id: req_id.to_string(),
        method: method.to_string(),
        path: path.to_string(),
        status,
        bytes_in,
        bytes_out,
        handler_us,
        solve,
    };
    // The journal assigns the sequence number even when it retains
    // nothing (cap 0), so the access-log line below shares it.
    pool.journal.push(&mut entry);
    if let Some(sink) = &opts.access_log {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(sink)
        {
            let _ = f.write_all(format!("{}\n", entry.to_json()).as_bytes());
        }
    }
    let slow = opts
        .slow_req_ms
        .is_some_and(|ms| handler_us >= ms.saturating_mul(1000));
    if slow || degraded {
        obs.note_degradation(
            "serve.slow_request",
            &format!("id={req_id} path={path} status={status} dur_us={handler_us}"),
        );
    }
}

fn handle_connection(pool: &Pool, stream: &mut TcpStream) -> io::Result<()> {
    let began = Instant::now();
    let inflight = pool.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    pool.obs.gauge_set("serve.inflight", inflight as f64);
    let out = serve_one(pool, stream, began);
    let inflight = pool.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
    pool.obs.gauge_set("serve.inflight", inflight as f64);
    out
}

/// Close a connection whose request was refused before it was read in
/// full: half-close the write side, then read and discard what the
/// client still sends until it closes, for at most [`LINGER`] and
/// [`LINGER_BYTES`]. Closing with unread bytes queued makes the kernel
/// send a reset, and a reset can destroy the reply before the client
/// reads it.
fn linger_close(stream: &mut TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + LINGER;
    let mut chunk = [0u8; 4096];
    let mut budget = LINGER_BYTES;
    while budget > 0 {
        match read_with_deadline(stream, &mut chunk, deadline) {
            Ok(0) | Err(_) => return,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

fn serve_one(pool: &Pool, stream: &mut TcpStream, began: Instant) -> io::Result<()> {
    let obs = &pool.obs;
    let mut req = match read_request(stream, &pool.opts) {
        Ok(req) => req,
        Err(e) => {
            // Even a request that never parsed gets an ID, an echo,
            // and a journal entry — "-" marks the unparsed fields.
            let req_id = pool.mint_id();
            let Some((status, body)) = e.response() else {
                return Ok(()); // socket error: nothing to write to
            };
            let resp = Response::text(status, body);
            let write_res = write_response_with_id(stream, &resp, &req_id);
            let bytes_out = *write_res.as_ref().unwrap_or(&0);
            // Counted before the lingering close, so a client that
            // reads the reply to its end already sees it counted.
            finish_request(pool, began, &req_id, "-", "-", status, 0, bytes_out, None);
            if write_res.is_ok() {
                linger_close(stream);
            }
            return write_res.map(|_| ());
        }
    };
    if req.req_id.is_empty() {
        req.req_id = pool.mint_id();
    }
    // A panicking handler answers 500 like any other failure, so the
    // client gets a reply and the request is journaled and counted.
    let routed = pool.router.as_ref().and_then(|r| {
        panic::catch_unwind(AssertUnwindSafe(|| r(&req)))
            .unwrap_or_else(|_| Some(Response::text(500, "internal error: handler panicked\n")))
    });
    let resp = match routed {
        Some(resp) => resp,
        None => match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/metrics") => Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8".to_string(),
                body: prometheus_text(&obs.snapshot()),
                headers: Vec::new(),
                solve: None,
            },
            ("GET", "/snapshot.json") => Response::json(200, snapshot_to_json(&obs.snapshot())),
            ("GET", "/flight.json") => Response::json(200, obs.dump_flight()),
            ("GET", "/requests.json") => Response::json(200, pool.journal.to_json()),
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET" | "POST", "/quitquitquit") => {
                pool.quit.store(true, Ordering::SeqCst);
                Response::text(200, "bye\n")
            }
            ("GET", "/events") => {
                let out = serve_events(obs, stream, &pool.shutdown, &req.req_id);
                finish_request(
                    pool,
                    began,
                    &req.req_id,
                    &req.method,
                    &req.path,
                    200,
                    req.bytes_in,
                    0,
                    None,
                );
                return out;
            }
            (_, path) if builtin_methods(path).is_some() => {
                Response::text(405, "method not allowed\n")
            }
            _ => Response::text(404, "not found\n"),
        },
    };
    let write_res = write_response_with_id(stream, &resp, &req.req_id);
    let bytes_out = *write_res.as_ref().unwrap_or(&0);
    finish_request(
        pool,
        began,
        &req.req_id,
        &req.method,
        &req.path,
        resp.status,
        req.bytes_in,
        bytes_out,
        resp.solve,
    );
    write_res.map(|_| ())
}

/// Unsubscribes its collector tee on drop, so *every* exit from the
/// SSE loop — client disconnect, shutdown, write error — releases the
/// subscription immediately instead of leaking it until the next
/// event happens to flow.
struct SseGuard {
    collector: Arc<crate::TraceCollector>,
    id: crate::span::SubscriberId,
}

impl Drop for SseGuard {
    fn drop(&mut self) {
        self.collector.unsubscribe(self.id);
    }
}

fn serve_events(
    obs: &Obs,
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    req_id: &str,
) -> io::Result<()> {
    let Some(collector) = obs.collector().cloned() else {
        let resp = Response::text(503, "off\n");
        return write_response_with_id(stream, &resp, req_id).map(|_| ());
    };
    stream.write_all(
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\n{REQUEST_ID_HEADER}: {req_id}\r\nConnection: close\r\n\r\n"
        )
        .as_bytes(),
    )?;
    let (replay, rx, id) = collector.subscribe_tracked(SSE_SUBSCRIBER_CAPACITY);
    let _guard = SseGuard {
        collector: Arc::clone(&collector),
        id,
    };
    for ev in &replay {
        write_sse_frame(stream, ev)?;
    }
    stream.flush()?;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(ev) => {
                write_sse_frame(stream, &ev)?;
                stream.flush()?;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // Comment ping: keeps intermediaries from timing the
                // stream out and lets us notice a dead client.
                stream.write_all(b": keep-alive\n\n")?;
                stream.flush()?;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

fn write_sse_frame(stream: &mut TcpStream, ev: &StreamEvent) -> io::Result<()> {
    let frame = format!(
        "event: {}\ndata: {}\n\n",
        ev.kind_str(),
        stream_event_json(ev)
    );
    stream.write_all(frame.as_bytes())
}

// ---------------------------------------------------------------------------
// Std-only HTTP client (shared by `diag probe` and tests)
// ---------------------------------------------------------------------------

/// `(status, response headers, body)` of one [`http_request`]
/// exchange.
pub type HttpExchange = (u16, Vec<(String, String)>, String);

/// One full HTTP exchange: returns
/// `(status, response_headers, body)`. `headers` are extra request
/// headers (e.g. `X-Casa-Request-Id`); `body` is
/// `(content_type, payload)` for methods that carry one. Plain
/// HTTP/1.1, `Connection: close`, bounded by `timeout` for connect
/// and for each read. This is the one client implementation `diag`,
/// `casa-loadgen`, CI, and the tests share.
pub fn http_request(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<(&str, &str)>,
    timeout: Duration,
) -> io::Result<HttpExchange> {
    let mut stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some((content_type, payload)) = body {
        head.push_str(&format!(
            "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
            payload.len()
        ));
    }
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some((_, payload)) = body {
        stream.write_all(payload.as_bytes())?;
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let (resp_head, resp_body) = raw
        .split_once("\r\n\r\n")
        .map_or((raw.as_str(), ""), |(h, b)| (h, b));
    let resp_headers = resp_head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Ok((status, resp_headers, resp_body.to_string()))
}

/// Case-insensitive response-header lookup for [`http_request`]
/// results.
pub fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Fetch `path` from a telemetry server: returns `(status, body)`.
/// Plain HTTP/1.1, `Connection: close`, bounded by `timeout` for
/// connect and for each read.
pub fn http_get(addr: &SocketAddr, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let (status, _, body) = http_request(addr, "GET", path, &[], None, timeout)?;
    Ok((status, body))
}

/// POST `body` to `path` on a telemetry server: returns
/// `(status, body)`. Plain HTTP/1.1, `Connection: close`, bounded by
/// `timeout` for connect and for each read.
pub fn http_post(
    addr: &SocketAddr,
    path: &str,
    content_type: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<(u16, String)> {
    let (status, _, body) =
        http_request(addr, "POST", path, &[], Some((content_type, body)), timeout)?;
    Ok((status, body))
}

/// Collect SSE frames from `path` until `max_frames` events have
/// arrived or `window` elapses. Returns the `(event, data)` pairs plus
/// the number of comment (`:` keep-alive) lines seen.
pub fn collect_sse(
    addr: &SocketAddr,
    path: &str,
    window: Duration,
    max_frames: usize,
) -> io::Result<(Vec<(String, String)>, usize)> {
    let mut stream = TcpStream::connect_timeout(addr, window)?;
    stream.set_write_timeout(Some(window))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let deadline = Instant::now() + window;
    let mut raw: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(remaining.min(Duration::from_millis(100))))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if parse_sse_body(&raw).0.len() >= max_frames {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    drop(stream);
    Ok(parse_sse_body(&raw))
}

/// Split a raw SSE response into `(event, data)` frames and a count of
/// comment lines; tolerates the HTTP head still being attached.
fn parse_sse_body(raw: &[u8]) -> (Vec<(String, String)>, usize) {
    let text = String::from_utf8_lossy(raw);
    let body = text
        .split_once("\r\n\r\n")
        .map_or_else(|| text.to_string(), |(_, b)| b.to_string());
    let mut frames = Vec::new();
    let mut comments = 0usize;
    let mut event = String::new();
    let mut data = String::new();
    for line in body.lines() {
        if line.is_empty() {
            if !event.is_empty() || !data.is_empty() {
                frames.push((std::mem::take(&mut event), std::mem::take(&mut data)));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("event:") {
            event = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("data:") {
            data = rest.trim().to_string();
        } else if line.starts_with(':') {
            comments += 1;
        }
    }
    (frames, comments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn names_sanitize_with_prefix() {
        assert_eq!(prometheus_name("energy.total_uj"), "casa_energy_total_uj");
        assert_eq!(prometheus_name("sweep.cells-done"), "casa_sweep_cells_done");
        assert_eq!(prometheus_name("a:b"), "casa_a:b");
    }

    #[test]
    fn prom_num_spells_non_finite() {
        assert_eq!(prom_num(1.5), "1.5");
        assert_eq!(prom_num(f64::NAN), "NaN");
        assert_eq!(prom_num(f64::INFINITY), "+Inf");
        assert_eq!(prom_num(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn non_finite_samples_survive_the_full_exposition_path() {
        // A NaN/±Inf gauge must come out in the Prometheus-legal
        // spellings — never Rust's `inf` / `-inf` / debug forms — and
        // the rendered document must still validate end to end.
        let obs = Obs::enabled();
        obs.gauge_set("gap.unproven", f64::NAN);
        obs.gauge_set("bound.upper", f64::INFINITY);
        obs.gauge_set("bound.lower", f64::NEG_INFINITY);
        obs.gauge_set("bound.finite", 2.5);
        let text = prometheus_text(&obs.snapshot());
        assert!(text.contains("casa_gap_unproven NaN\n"), "{text}");
        assert!(text.contains("casa_bound_upper +Inf\n"), "{text}");
        assert!(text.contains("casa_bound_lower -Inf\n"), "{text}");
        for rust_form in ["inf\n", "-inf\n", "infinity", "nan\n"] {
            assert!(
                !text.contains(rust_form),
                "Rust float spelling {rust_form:?} leaked into the exposition:\n{text}"
            );
        }
        let stats = validate_exposition(&text).expect("non-finite samples are legal exposition");
        assert_eq!(stats.families, 4);
    }

    #[test]
    fn validator_rejects_rust_spelled_non_finite_values() {
        // `f64::from_str` accepts all of these, so a validator that
        // only tries `parse::<f64>()` would wave them through.
        for bad in ["inf", "-inf", "+inf", "infinity", "-Infinity", "nan", "NAN"] {
            let doc = format!("# TYPE x gauge\nx {bad}\n");
            assert!(
                validate_exposition(&doc)
                    .unwrap_err()
                    .contains("unparsable"),
                "{bad:?} must be rejected"
            );
        }
        for good in ["NaN", "+Inf", "-Inf", "1.5", "-0.25", "3e8"] {
            let doc = format!("# TYPE x gauge\nx {good}\n");
            assert!(validate_exposition(&doc).is_ok(), "{good:?} must be legal");
        }
    }

    #[test]
    fn exposition_renders_and_validates() {
        let obs = Obs::enabled();
        obs.add("solver.nodes", 41);
        obs.gauge_set("energy.total_uj", 12.5);
        obs.record("conflict.row_degree", 4);
        obs.record("conflict.row_degree", 16);
        let text = prometheus_text(&obs.snapshot());
        assert!(text.contains("# TYPE casa_solver_nodes counter\ncasa_solver_nodes 41\n"));
        assert!(text.contains("# TYPE casa_energy_total_uj gauge\ncasa_energy_total_uj 12.5\n"));
        assert!(text.contains("# TYPE casa_conflict_row_degree summary\n"));
        // Samples {4, 16}: the median target lands on the [4,7]
        // bucket's cumulative boundary, so interpolation reports its
        // upper edge; p90/p99 clamp to the exact max.
        assert!(text.contains("casa_conflict_row_degree{quantile=\"0.5\"} 7\n"));
        assert!(text.contains("casa_conflict_row_degree{quantile=\"0.99\"} 16\n"));
        assert!(text.contains("casa_conflict_row_degree{quantile=\"0.999\"} 16\n"));
        assert!(text.contains("casa_conflict_row_degree_sum 20\n"));
        assert!(text.contains("casa_conflict_row_degree_count 2\n"));
        // Exact observed extremes ride along as sibling gauges.
        assert!(text.contains("# TYPE casa_conflict_row_degree_min gauge\n"));
        assert!(text.contains("casa_conflict_row_degree_min 4\n"));
        assert!(text.contains("casa_conflict_row_degree_max 16\n"));
        let stats = validate_exposition(&text).expect("valid exposition");
        assert_eq!(stats.families, 5);
        assert_eq!(stats.samples, 10);
    }

    #[test]
    fn colliding_sanitized_names_keep_first_family() {
        let obs = Obs::enabled();
        obs.add("a.b", 1);
        obs.add("a-b", 2);
        let text = prometheus_text(&obs.snapshot());
        assert_eq!(text.matches("# TYPE casa_a_b counter").count(), 1);
        assert!(validate_exposition(&text).is_ok());
    }

    #[test]
    fn validator_rejects_duplicates_and_bad_names() {
        assert!(
            validate_exposition("# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n")
                .unwrap_err()
                .contains("duplicate")
        );
        assert!(validate_exposition("# TYPE 9bad counter\n")
            .unwrap_err()
            .contains("invalid"));
        assert!(validate_exposition("orphan 1\n")
            .unwrap_err()
            .contains("no preceding TYPE"));
        assert!(validate_exposition("# TYPE x gauge\nx notanumber\n")
            .unwrap_err()
            .contains("unparsable"));
        let ok =
            validate_exposition("# TYPE x summary\nx{quantile=\"0.5\"} 2\nx_sum 2\nx_count 1\n")
                .unwrap();
        assert_eq!(
            ok,
            ExpositionStats {
                families: 1,
                samples: 3
            }
        );
    }

    #[test]
    fn journal_ring_wrap_keeps_order_and_request_attribution() {
        // `diag tail` contract: after CASA_REQ_JOURNAL_CAP overflow the
        // journal must list exactly the newest `cap` requests, oldest
        // first, with contiguous sequence numbers and the correlation
        // IDs of the requests that actually survived — no duplicates,
        // no ghosts of evicted entries.
        let obs = Obs::enabled();
        let opts = ServeOptions {
            journal_cap: 3,
            ..ServeOptions::default()
        };
        let mut handle = start_with(&obs, "127.0.0.1:0", opts, None).expect("bind");
        let addr = handle.local_addr();
        let t = Duration::from_secs(5);
        for i in 1..=5 {
            let id = format!("wrap-{i:02}");
            let (code, _, _) = http_request(
                &addr,
                "GET",
                "/healthz",
                &[(REQUEST_ID_HEADER, &id)],
                None,
                t,
            )
            .unwrap();
            assert_eq!(code, 200);
        }
        let (st, body) = http_get(&addr, "/requests.json", t).unwrap();
        assert_eq!(st, 200);
        let v = serde::json::parse(&body).expect("journal is valid JSON");
        assert_eq!(v.get("cap").and_then(|x| x.as_f64()), Some(3.0));
        assert_eq!(
            v.get("dropped").and_then(|x| x.as_f64()),
            Some(2.0),
            "two evictions past the cap: {body}"
        );
        let entries = v.get("entries").and_then(|x| x.as_array()).unwrap();
        let seqs: Vec<u64> = entries
            .iter()
            .map(|e| e.get("seq").and_then(|x| x.as_f64()).unwrap() as u64)
            .collect();
        assert_eq!(seqs, vec![3, 4, 5], "oldest-first, contiguous: {body}");
        let ids: Vec<&str> = entries
            .iter()
            .map(|e| e.get("id").and_then(|x| x.as_str()).unwrap())
            .collect();
        assert_eq!(
            ids,
            vec!["wrap-03", "wrap-04", "wrap-05"],
            "the three newest requests, correctly attributed: {body}"
        );
        handle.shutdown();
    }

    #[test]
    fn stream_event_json_is_parsable() {
        let obs = Obs::enabled();
        obs.instant("tick", vec![("n".to_string(), ArgValue::U64(3))]);
        let collector = obs.collector().unwrap();
        let (replay, _rx) = collector.subscribe(4);
        let json = stream_event_json(&replay[0]);
        let v = serde::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("kind").and_then(|x| x.as_str()), Some("instant"));
        assert_eq!(v.get("name").and_then(|x| x.as_str()), Some("tick"));
        assert_eq!(
            v.get("args")
                .and_then(|a| a.get("n"))
                .and_then(|x| x.as_f64()),
            Some(3.0)
        );
    }

    #[test]
    fn server_serves_all_endpoints() {
        let obs = Obs::enabled();
        obs.add("solver.nodes", 7);
        obs.gauge_set("energy.total_uj", 1.25);
        {
            let _g = obs.span("phase");
        }
        let mut handle = start(&obs, "127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();
        let t = Duration::from_secs(5);

        let (st, body) = http_get(&addr, "/healthz", t).unwrap();
        assert_eq!((st, body.as_str()), (200, "ok\n"));

        let (st, metrics) = http_get(&addr, "/metrics", t).unwrap();
        assert_eq!(st, 200);
        validate_exposition(&metrics).expect("valid exposition over HTTP");
        assert!(metrics.contains("casa_solver_nodes 7"));
        // Request-scoped serve metrics ride along in the exposition.
        assert!(metrics.contains("# TYPE casa_serve_requests_total counter"));
        assert!(metrics.contains("# TYPE casa_serve_inflight gauge"));

        let (st, snap) = http_get(&addr, "/snapshot.json", t).unwrap();
        assert_eq!(st, 200);
        let v = serde::json::parse(&snap).expect("snapshot is valid JSON");
        assert_eq!(v.get("solver.nodes").and_then(|x| x.as_f64()), Some(7.0));
        assert!(
            snap.contains("\"serve.latency_us.healthz\""),
            "per-route latency family missing: {snap}"
        );

        let (st, flight) = http_get(&addr, "/flight.json", t).unwrap();
        assert_eq!(st, 200);
        assert!(serde::json::parse(&flight).is_ok());

        let (st, journal) = http_get(&addr, "/requests.json", t).unwrap();
        assert_eq!(st, 200);
        let v = serde::json::parse(&journal).expect("journal is valid JSON");
        let entries = v.get("entries").and_then(|x| x.as_array()).unwrap();
        assert!(
            !entries.is_empty(),
            "earlier requests should be journaled: {journal}"
        );
        let first = &entries[0];
        assert_eq!(first.get("path").and_then(|x| x.as_str()), Some("/healthz"));
        assert_eq!(first.get("status").and_then(|x| x.as_f64()), Some(200.0));
        assert!(first.get("id").and_then(|x| x.as_str()).is_some());

        let (st, _) = http_get(&addr, "/nope", t).unwrap();
        assert_eq!(st, 404);

        assert!(!handle.quit_requested());
        let (st, body) = http_get(&addr, "/quitquitquit", t).unwrap();
        assert_eq!((st, body.as_str()), (200, "bye\n"));
        assert!(handle.wait_quit(Duration::from_secs(1)));

        handle.shutdown();
        // After shutdown the port is closed.
        assert!(http_get(&addr, "/healthz", Duration::from_millis(300)).is_err());
    }

    #[test]
    fn sse_streams_replay_and_live_events() {
        let obs = Obs::enabled();
        {
            let _g = obs.span("history");
        }
        let handle = start(&obs, "127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();
        // Live events emitted while the subscriber is attached.
        let live = {
            let obs = obs.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(150));
                let _g = obs.span("live");
                obs.instant("tick", Vec::new());
            })
        };
        let (frames, _comments) =
            collect_sse(&addr, "/events", Duration::from_secs(5), 4).expect("sse");
        live.join().unwrap();
        let kinds: Vec<&str> = frames.iter().map(|(e, _)| e.as_str()).collect();
        assert_eq!(kinds, vec!["span_end", "span_begin", "instant", "span_end"]);
        let names: Vec<String> = frames
            .iter()
            .map(|(_, d)| {
                serde::json::parse(d)
                    .unwrap()
                    .get("name")
                    .and_then(|x| x.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, vec!["history", "live", "tick", "live"]);
    }

    #[test]
    fn disabled_handle_refuses_to_serve() {
        let err = start(&Obs::disabled(), "127.0.0.1:0").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    /// Regression (slowloris): a client that connects and then hangs —
    /// or drips bytes slower than the deadline — must be cut off at
    /// the *total* read deadline, not kept alive by per-read timeouts.
    #[test]
    fn stalled_client_is_cut_off_at_the_read_deadline() {
        let obs = Obs::enabled();
        let opts = ServeOptions {
            read_deadline: Duration::from_millis(300),
            ..ServeOptions::default()
        };
        let mut handle = start_with(&obs, "127.0.0.1:0", opts, None).expect("bind");
        let addr = handle.local_addr();

        // Connect-then-hang: send half a request line, never finish.
        let began = Instant::now();
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        stream.write_all(b"GET /heal").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("server closes");
        assert!(
            raw.starts_with("HTTP/1.1 408"),
            "expected 408 on stall, got {raw:?}"
        );
        assert!(
            began.elapsed() < Duration::from_secs(3),
            "handler pinned for {:?}",
            began.elapsed()
        );

        // Drip-feed: one byte per 100 ms outruns any per-read timeout
        // but not the absolute deadline.
        let began = Instant::now();
        let mut drip = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        let mut dripped = Vec::new();
        for b in b"GET /healthz HTTP/1.1\r\n\r\n" {
            if drip.write_all(&[*b]).is_err() {
                break; // server already gave up on us — the point
            }
            dripped.push(*b);
            thread::sleep(Duration::from_millis(100));
            if began.elapsed() > Duration::from_secs(2) {
                panic!("drip client still being read after {:?}", began.elapsed());
            }
        }
        drip.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut raw = String::new();
        let _ = drip.read_to_string(&mut raw);
        assert!(
            raw.is_empty() || raw.starts_with("HTTP/1.1 408"),
            "drip client should see a timeout or a reset, got {raw:?}"
        );

        // The server is still healthy for well-behaved clients.
        let (st, body) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!((st, body.as_str()), (200, "ok\n"));
        handle.shutdown();
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let obs = Obs::enabled();
        let opts = ServeOptions {
            max_head_bytes: 256,
            max_body_bytes: 64,
            ..ServeOptions::default()
        };
        let mut handle = start_with(&obs, "127.0.0.1:0", opts, None).expect("bind");
        let addr = handle.local_addr();

        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(4096));
        let _ = stream.write_all(huge.as_bytes());
        let mut raw = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 413"), "got {raw:?}");

        let big_body = "y".repeat(128);
        let (st, _) = http_post(
            &addr,
            "/solve",
            "application/json",
            &big_body,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(st, 413);
        handle.shutdown();
    }

    /// Regression (SSE leak): subscribers whose clients disconnect
    /// must be pruned even when no further event ever flows through
    /// the collector.
    #[test]
    fn sse_disconnects_leave_zero_subscribers() {
        let obs = Obs::enabled();
        obs.instant("seed", Vec::new());
        let collector = Arc::clone(obs.collector().expect("enabled"));
        let mut handle = start(&obs, "127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();
        for _ in 0..4 {
            // Connect, read the replay, then vanish without a trace.
            let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
            stream
                .write_all(b"GET /events HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut chunk = [0u8; 1024];
            let _ = stream.read(&mut chunk);
            drop(stream);
        }
        // No event is emitted here — pruning must not depend on one.
        // The handlers notice the dead socket on a keep-alive ping
        // (≤ ~200 ms) and unsubscribe on exit.
        let deadline = Instant::now() + Duration::from_secs(5);
        while collector.subscriber_count() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(
            collector.subscriber_count(),
            0,
            "disconnected SSE clients left subscribers registered"
        );
        handle.shutdown();
    }

    /// A router whose `/slow` route counts its calls, sleeps 250 ms,
    /// notes when it finished and answers `slow-done`.
    fn slow_router() -> (Router, Arc<AtomicUsize>, Arc<Mutex<Option<Instant>>>) {
        let started = Arc::new(AtomicUsize::new(0));
        let handler_done: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
        let (count, done) = (Arc::clone(&started), Arc::clone(&handler_done));
        let router: Router = Arc::new(move |req: &Request| {
            if req.path == "/slow" {
                count.fetch_add(1, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(250));
                *done.lock().unwrap() = Some(Instant::now());
                Some(Response::text(200, "slow-done"))
            } else {
                None
            }
        });
        (router, started, handler_done)
    }

    /// Live connection threads of a running listener.
    fn live_threads(handle: &ServeHandle) -> usize {
        *handle.pool.drain.active.lock().unwrap()
    }

    /// Regression (shutdown race): `shutdown()` must drain in-flight
    /// handlers, so a response that started before shutdown completes
    /// in full and the handler finishes before `shutdown()` returns.
    #[test]
    fn shutdown_drains_inflight_handlers() {
        let obs = Obs::enabled();
        let (router, _, handler_done) = slow_router();
        let mut handle =
            start_with(&obs, "127.0.0.1:0", ServeOptions::default(), Some(router)).expect("bind");
        let addr = handle.local_addr();
        let client = thread::spawn(move || http_get(&addr, "/slow", Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(50)); // let the request land
        handle.shutdown();
        let returned = Instant::now();
        let finished = handler_done
            .lock()
            .unwrap()
            .expect("shutdown returned before the in-flight handler finished");
        assert!(finished <= returned);
        let (st, body) = client.join().unwrap().expect("response completes");
        assert_eq!((st, body.as_str()), (200, "slow-done"));
    }

    /// Threads that finish their connections after shutdown began must
    /// not park in `accept()` again unseen: every reply of a burst
    /// completes, `shutdown()` returns inside the drain timeout with no
    /// thread left, and the port is closed.
    #[test]
    fn shutdown_after_a_burst_drains_every_reply_and_closes_the_port() {
        const BURST: usize = 8;
        let obs = Obs::enabled();
        let (router, started, _) = slow_router();
        let opts = ServeOptions::default();
        let drain_timeout = opts.drain_timeout;
        let mut handle = start_with(&obs, "127.0.0.1:0", opts, Some(router)).expect("bind");
        let addr = handle.local_addr();
        let clients: Vec<_> = (0..BURST)
            .map(|_| thread::spawn(move || http_get(&addr, "/slow", Duration::from_secs(5))))
            .collect();
        // Shut down once every request is inside its handler.
        let until = Instant::now() + Duration::from_secs(5);
        while started.load(Ordering::SeqCst) < BURST && Instant::now() < until {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(started.load(Ordering::SeqCst), BURST);
        let began = Instant::now();
        handle.shutdown();
        assert!(
            began.elapsed() < drain_timeout,
            "shutdown took {:?}",
            began.elapsed()
        );
        assert_eq!(live_threads(&handle), 0, "a thread outlived shutdown");
        for c in clients {
            let (st, body) = c.join().unwrap().expect("reply completes");
            assert_eq!((st, body.as_str()), (200, "slow-done"));
        }
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
            "the port still accepts after shutdown"
        );
    }

    /// More stalled clients than the pool keeps parked: each holds one
    /// thread until the read deadline, the port keeps answering, and
    /// once the stalls are cut off with 408 the pool shrinks back to
    /// its parked threads.
    #[test]
    fn stalled_clients_cannot_starve_the_pool() {
        let obs = Obs::enabled();
        let opts = ServeOptions {
            read_deadline: Duration::from_secs(1),
            ..ServeOptions::default()
        };
        let deadline = opts.read_deadline;
        let mut handle = start_with(&obs, "127.0.0.1:0", opts, None).expect("bind");
        let addr = handle.local_addr();
        let stalls: Vec<TcpStream> = (0..3 * IDLE_THREADS)
            .map(|_| {
                let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
                s.write_all(b"GET /heal").unwrap();
                s
            })
            .collect();
        let began = Instant::now();
        let (st, body) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!((st, body.as_str()), (200, "ok\n"));
        assert!(
            began.elapsed() < deadline / 2,
            "healthz waited {:?} behind the stalls",
            began.elapsed()
        );
        for mut s in stalls {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut raw = String::new();
            s.read_to_string(&mut raw).expect("server closes");
            assert!(raw.starts_with("HTTP/1.1 408"), "got {raw:?}");
        }
        let until = Instant::now() + Duration::from_secs(5);
        while live_threads(&handle) > IDLE_THREADS && Instant::now() < until {
            thread::sleep(Duration::from_millis(20));
        }
        assert!(
            live_threads(&handle) <= IDLE_THREADS,
            "{} threads live after the stalls",
            live_threads(&handle)
        );
        handle.shutdown();
        assert_eq!(live_threads(&handle), 0);
    }

    /// The satellite's scenario verbatim: quit lands concurrently with
    /// `/metrics` scrapes; every scrape that got through must carry a
    /// complete, valid exposition.
    #[test]
    fn quit_concurrent_with_metrics_scrape_is_clean() {
        let obs = Obs::enabled();
        obs.add("solver.nodes", 3);
        let mut handle = start(&obs, "127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                thread::spawn(move || {
                    let mut bodies = Vec::new();
                    for _ in 0..10 {
                        if let Ok((200, body)) = http_get(&addr, "/metrics", Duration::from_secs(5))
                        {
                            bodies.push(body);
                        }
                    }
                    bodies
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        let _ = http_get(&addr, "/quitquitquit", Duration::from_secs(5));
        assert!(handle.wait_quit(Duration::from_secs(5)));
        handle.shutdown();
        let mut seen = 0usize;
        for s in scrapers {
            for body in s.join().unwrap() {
                validate_exposition(&body).expect("every completed scrape is a full exposition");
                assert!(body.contains("casa_solver_nodes 3"));
                seen += 1;
            }
        }
        assert!(seen > 0, "no scrape completed at all");
    }

    #[test]
    fn router_mounts_post_routes_and_falls_through() {
        let obs = Obs::enabled();
        let router: Router = Arc::new(|req: &Request| {
            if req.method == "POST" && req.path == "/echo" {
                Some(
                    Response::json(200, String::from_utf8_lossy(&req.body).into_owned())
                        .with_header("X-Casa-Cache", "miss"),
                )
            } else {
                None
            }
        });
        let mut handle =
            start_with(&obs, "127.0.0.1:0", ServeOptions::default(), Some(router)).expect("bind");
        let addr = handle.local_addr();
        let (st, body) = http_post(
            &addr,
            "/echo",
            "application/json",
            "{\"x\":1}",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!((st, body.as_str()), (200, "{\"x\":1}"));
        // Built-in routes still work under a router.
        let (st, body) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!((st, body.as_str()), (200, "ok\n"));
        let (st, _) = http_get(&addr, "/nope", Duration::from_secs(5)).unwrap();
        assert_eq!(st, 404);
        handle.shutdown();
    }

    #[test]
    fn request_id_validation_rules() {
        assert!(valid_request_id("r000001"));
        assert!(valid_request_id("abc-123.x_Y"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("semi;colon"));
        assert!(!valid_request_id(&"x".repeat(65)));
        assert!(valid_request_id(&"x".repeat(64)));
    }

    #[test]
    fn journal_entry_json_round_trips() {
        let e = JournalEntry {
            seq: 3,
            id: "ci-req-42".to_string(),
            method: "POST".to_string(),
            path: "/solve".to_string(),
            status: 200,
            bytes_in: 120,
            bytes_out: 256,
            handler_us: 1500,
            solve: Some(SolveAttribution {
                cache: "warm".to_string(),
                status: "feasible".to_string(),
                gap: Some(0.125),
                nodes: 42,
                stopped_by: Some("nodes".to_string()),
                reason: None,
                queue_wait_us: 7,
                worker: 1,
            }),
        };
        let json = e.to_json();
        let v = serde::json::parse(&json).expect("entry JSON parses");
        assert_eq!(v.get("id").and_then(|x| x.as_str()), Some("ci-req-42"));
        assert_eq!(v.get("status").and_then(|x| x.as_f64()), Some(200.0));
        let solve = v.get("solve").expect("solve object");
        assert_eq!(solve.get("cache").and_then(|x| x.as_str()), Some("warm"));
        assert_eq!(solve.get("gap").and_then(|x| x.as_f64()), Some(0.125));
        assert_eq!(solve.get("nodes").and_then(|x| x.as_f64()), Some(42.0));
        assert_eq!(
            solve.get("stopped_by").and_then(|x| x.as_str()),
            Some("nodes")
        );
    }

    /// Satellite: the four router edge cases pin their status codes
    /// AND that each increments exactly its own per-status counter.
    #[test]
    fn router_edge_cases_pin_codes_and_counters() {
        let obs = Obs::enabled();
        let router: Router = Arc::new(|req: &Request| {
            (req.method == "POST" && req.path == "/echo")
                .then(|| Response::json(200, String::from_utf8_lossy(&req.body).into_owned()))
        });
        let opts = ServeOptions {
            max_body_bytes: 64,
            ..ServeOptions::default()
        };
        let mut handle = start_with(&obs, "127.0.0.1:0", opts, Some(router)).expect("bind");
        let addr = handle.local_addr();
        let t = Duration::from_secs(5);

        // Unknown route -> 404.
        let (st, _) = http_get(&addr, "/definitely-not-mounted", t).unwrap();
        assert_eq!(st, 404);
        // Wrong method on a mounted route -> 405.
        let (st, _, _) =
            http_request(&addr, "POST", "/metrics", &[], Some(("text/plain", "x")), t).unwrap();
        assert_eq!(st, 405);
        // Body over the configured cap -> 413.
        let big = "y".repeat(128);
        let (st, _) = http_post(&addr, "/echo", "application/json", &big, t).unwrap();
        assert_eq!(st, 413);
        // Malformed request line -> 400, and even that echoes an ID.
        let mut stream = TcpStream::connect_timeout(&addr, t).unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        stream.set_read_timeout(Some(t)).unwrap();
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 400"), "got {raw:?}");
        assert!(
            raw.contains("X-Casa-Request-Id:"),
            "read-error responses still echo an ID: {raw:?}"
        );
        drop(stream);

        let snap = obs.snapshot();
        let get = |name: &str| match snap.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        assert_eq!(get("serve.responses.404_total"), 1, "{snap:?}");
        assert_eq!(get("serve.responses.405_total"), 1, "{snap:?}");
        assert_eq!(get("serve.responses.413_total"), 1, "{snap:?}");
        assert_eq!(get("serve.responses.400_total"), 1, "{snap:?}");
        assert_eq!(get("serve.responses.200_total"), 0, "{snap:?}");
        assert_eq!(get("serve.requests_total"), 4, "{snap:?}");
        handle.shutdown();
    }

    /// A panicking route handler answers 500 instead of dropping the
    /// connection: the ID is echoed, the request is journaled and
    /// counted, the in-flight gauge returns to 0, and the listener
    /// keeps serving.
    #[test]
    fn panicking_handler_answers_500_and_is_journaled() {
        let obs = Obs::enabled();
        let router: Router = Arc::new(|req: &Request| {
            if req.path == "/boom" {
                panic!("route handler panicked on purpose");
            }
            None
        });
        let mut handle =
            start_with(&obs, "127.0.0.1:0", ServeOptions::default(), Some(router)).expect("bind");
        let addr = handle.local_addr();
        let t = Duration::from_secs(5);
        let (st, headers, _) = http_request(
            &addr,
            "GET",
            "/boom",
            &[(REQUEST_ID_HEADER, "boom-1")],
            None,
            t,
        )
        .expect("a panicking handler still answers");
        assert_eq!(st, 500);
        assert_eq!(header_value(&headers, REQUEST_ID_HEADER), Some("boom-1"));
        let (st, body) = http_get(&addr, "/healthz", t).unwrap();
        assert_eq!(
            (st, body.as_str()),
            (200, "ok\n"),
            "the listener keeps serving"
        );
        // The journal entry lands just after the reply is written, so
        // poll briefly rather than race it.
        let mut journaled = None;
        for _ in 0..100 {
            let (_, journal) = http_get(&addr, "/requests.json", t).unwrap();
            let v = serde::json::parse(&journal).expect("journal JSON");
            let entries = v.get("entries").and_then(|x| x.as_array()).unwrap();
            journaled = entries
                .iter()
                .find(|e| e.get("id").and_then(|x| x.as_str()) == Some("boom-1"))
                .and_then(|e| e.get("status").and_then(|x| x.as_f64()));
            if journaled.is_some() {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(journaled, Some(500.0));
        // After the drain every handler has finished its bookkeeping.
        handle.shutdown();
        let snap = obs.snapshot();
        assert_eq!(
            snap.get("serve.responses.500_total"),
            Some(&MetricValue::Counter(1)),
            "{snap:?}"
        );
        assert_eq!(
            snap.get("serve.inflight"),
            Some(&MetricValue::Gauge(0.0)),
            "{snap:?}"
        );
    }

    #[test]
    fn every_response_carries_a_request_id() {
        let obs = Obs::enabled();
        let mut handle = start(&obs, "127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();
        let t = Duration::from_secs(5);
        // No header -> minted from the deterministic counter.
        let (st, headers, _) = http_request(&addr, "GET", "/healthz", &[], None, t).unwrap();
        assert_eq!(st, 200);
        assert_eq!(header_value(&headers, REQUEST_ID_HEADER), Some("r000001"));
        // Client-supplied ID -> echoed verbatim, counter untouched.
        let (_, headers, _) = http_request(
            &addr,
            "GET",
            "/healthz",
            &[(REQUEST_ID_HEADER, "abc-123.x_Y")],
            None,
            t,
        )
        .unwrap();
        assert_eq!(
            header_value(&headers, REQUEST_ID_HEADER),
            Some("abc-123.x_Y")
        );
        // Malformed ID -> minted instead (next counter value).
        let (_, headers, _) = http_request(
            &addr,
            "GET",
            "/healthz",
            &[(REQUEST_ID_HEADER, "bad id!")],
            None,
            t,
        )
        .unwrap();
        assert_eq!(header_value(&headers, REQUEST_ID_HEADER), Some("r000002"));
        handle.shutdown();
    }

    #[test]
    fn journal_rings_and_drops_oldest() {
        let obs = Obs::enabled();
        let opts = ServeOptions {
            journal_cap: 2,
            ..ServeOptions::default()
        };
        let mut handle = start_with(&obs, "127.0.0.1:0", opts, None).expect("bind");
        let addr = handle.local_addr();
        let t = Duration::from_secs(5);
        for _ in 0..3 {
            let (st, _) = http_get(&addr, "/healthz", t).unwrap();
            assert_eq!(st, 200);
        }
        let (st, journal) = http_get(&addr, "/requests.json", t).unwrap();
        assert_eq!(st, 200);
        let v = serde::json::parse(&journal).expect("journal JSON");
        assert_eq!(v.get("cap").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(v.get("dropped").and_then(|x| x.as_f64()), Some(1.0));
        let entries = v.get("entries").and_then(|x| x.as_array()).unwrap();
        assert_eq!(entries.len(), 2);
        // FIFO eviction: the survivors are requests 2 and 3.
        assert_eq!(entries[0].get("seq").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(entries[1].get("seq").and_then(|x| x.as_f64()), Some(3.0));
        handle.shutdown();
    }

    /// The determinism contract, pinned: `/solve` response bytes are
    /// identical with the journal/access machinery on or off, and the
    /// attribution lands in the journal (never the body).
    #[test]
    fn solve_bytes_identical_with_journal_on_and_off() {
        fn solve_router() -> Router {
            Arc::new(|req: &Request| {
                (req.method == "POST" && req.path == "/solve").then(|| {
                    Response::json(200, "{\"gap\":0,\"status\":\"optimal\"}")
                        .with_header("X-Casa-Cache", "warm")
                        .with_solve(SolveAttribution {
                            cache: "warm".to_string(),
                            status: "optimal".to_string(),
                            gap: Some(0.0),
                            nodes: 42,
                            stopped_by: None,
                            reason: None,
                            queue_wait_us: 7,
                            worker: 0,
                        })
                })
            })
        }
        let t = Duration::from_secs(5);
        let body = ("application/json", "{\"capacity\":64}");
        let hdrs = [(REQUEST_ID_HEADER, "det-check-1")];

        let obs_on = Obs::enabled();
        let on_opts = ServeOptions {
            journal_cap: 256,
            slow_req_ms: Some(0), // everything is "slow": exercise the capture path
            ..ServeOptions::default()
        };
        let mut on = start_with(&obs_on, "127.0.0.1:0", on_opts, Some(solve_router())).unwrap();
        let (st_on, h_on, b_on) =
            http_request(&on.local_addr(), "POST", "/solve", &hdrs, Some(body), t).unwrap();

        let obs_off = Obs::enabled();
        let off_opts = ServeOptions {
            journal_cap: 0,
            ..ServeOptions::default()
        };
        let mut off = start_with(&obs_off, "127.0.0.1:0", off_opts, Some(solve_router())).unwrap();
        let (st_off, h_off, b_off) =
            http_request(&off.local_addr(), "POST", "/solve", &hdrs, Some(body), t).unwrap();

        assert_eq!((st_on, st_off), (200, 200));
        assert_eq!(b_on, b_off, "journal on/off must not change response bytes");
        assert_eq!(
            header_value(&h_on, REQUEST_ID_HEADER),
            Some("det-check-1"),
            "explicit ID echoed"
        );
        assert_eq!(
            header_value(&h_on, REQUEST_ID_HEADER),
            header_value(&h_off, REQUEST_ID_HEADER),
        );

        // Journal-on server recorded the attribution alongside.
        let (st, journal) = http_get(&on.local_addr(), "/requests.json", t).unwrap();
        assert_eq!(st, 200);
        let v = serde::json::parse(&journal).expect("journal JSON");
        let entries = v.get("entries").and_then(|x| x.as_array()).unwrap();
        let e = entries
            .iter()
            .find(|e| e.get("id").and_then(|x| x.as_str()) == Some("det-check-1"))
            .expect("solve request journaled by its ID");
        let solve = e.get("solve").expect("attribution recorded");
        assert_eq!(solve.get("cache").and_then(|x| x.as_str()), Some("warm"));
        assert_eq!(solve.get("gap").and_then(|x| x.as_f64()), Some(0.0));
        assert_eq!(solve.get("nodes").and_then(|x| x.as_f64()), Some(42.0));

        // Journal-off server serves an empty journal.
        let (st, journal) = http_get(&off.local_addr(), "/requests.json", t).unwrap();
        assert_eq!(st, 200);
        let v = serde::json::parse(&journal).expect("journal JSON");
        assert_eq!(v.get("cap").and_then(|x| x.as_f64()), Some(0.0));
        assert_eq!(
            v.get("entries").and_then(|x| x.as_array()).map(<[_]>::len),
            Some(0)
        );
        on.shutdown();
        off.shutdown();
    }
}
