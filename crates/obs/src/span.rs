//! Hierarchical spans with monotonic timings.
//!
//! A [`TraceCollector`] accumulates span and instant events from any
//! number of threads; timestamps are microseconds since the
//! collector's epoch, measured with [`std::time::Instant`] (monotonic,
//! immune to wall-clock steps). Spans are RAII guards ([`Span`]):
//! opening one records a begin event and pushes it on the current
//! thread's span stack, dropping it fills in the duration. Parent
//! links are recorded explicitly at begin time, so tree reconstruction
//! does not depend on timestamp resolution.
//!
//! The collector keeps at most [`TRACE_CAPACITY`] events: past that,
//! the oldest event is dropped and counted
//! ([`TraceCollector::dropped`]), so a long-lived server holds its
//! newest events instead of its whole history. A span whose begin
//! event was dropped closes without a trace, and a child whose parent
//! was dropped is exported as a root.
//!
//! Events re-imported from an exported Chrome trace lose the explicit
//! parent links; [`span_tree`] falls back to timestamp-containment
//! nesting in that case.
//!
//! Live consumers (the `/events` SSE endpoint of [`crate::serve`])
//! attach through [`TraceCollector::subscribe`]: a **bounded** channel
//! that tees every span begin/end and instant event as a
//! [`StreamEvent`]. Subscribers never slow the instrumented path — a
//! full channel drops the event (counted in
//! [`TraceCollector::subscriber_dropped`]) and a disconnected
//! subscriber is pruned on the next notification.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Events a [`TraceCollector`] retains before it drops the oldest. A
/// traced full Table-1 sweep records ~450 events, so no batch run
/// comes near it; a long-lived server, which records two or more
/// events per request, keeps its newest ones.
pub const TRACE_CAPACITY: usize = 8192;

/// Threads a collector tracks at once. Past this, threads with no open
/// span are forgotten, so a server whose connection threads come and
/// go keeps a bounded table.
const MAX_TRACKS: usize = 256;

/// One recording thread: its track ordinal and open-span stack.
#[derive(Debug)]
struct Track {
    thread: ThreadId,
    tid: u32,
    stack: Vec<usize>,
}

/// A typed argument attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

/// What kind of event a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (Chrome phase `X`).
    Span,
    /// A point event (Chrome phase `i`).
    Instant,
}

impl EventKind {
    /// Stable lowercase tag (`span` / `instant`), as flight dumps
    /// write it.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name.
    pub name: String,
    /// Span or instant.
    pub kind: EventKind,
    /// Track ordinal: threads are numbered in first-event order (a
    /// thread the collector forgot gets a fresh number).
    pub tid: u32,
    /// Index of the enclosing span in the event list, if known.
    pub parent: Option<usize>,
    /// Microseconds since the collector epoch.
    pub ts_us: u64,
    /// Span duration in microseconds; `None` while still open (or for
    /// instant events).
    pub dur_us: Option<u64>,
    /// Attached arguments, in insertion order.
    pub args: Vec<(String, ArgValue)>,
}

/// One live notification tee'd to a subscriber: the collector's view
/// of a span opening, a span closing (duration filled in), or an
/// instant event firing.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A span just opened; `dur_us` is `None`.
    SpanBegin(TraceEvent),
    /// A span just closed; `dur_us` is filled in.
    SpanEnd(TraceEvent),
    /// An instant event fired.
    Instant(TraceEvent),
}

impl StreamEvent {
    /// Stable lowercase tag (the SSE `event:` field).
    pub fn kind_str(&self) -> &'static str {
        match self {
            StreamEvent::SpanBegin(_) => "span_begin",
            StreamEvent::SpanEnd(_) => "span_end",
            StreamEvent::Instant(_) => "instant",
        }
    }

    /// The carried event.
    pub fn event(&self) -> &TraceEvent {
        match self {
            StreamEvent::SpanBegin(e) | StreamEvent::SpanEnd(e) | StreamEvent::Instant(e) => e,
        }
    }
}

#[derive(Debug, Default)]
struct CollectorState {
    /// Retained events, oldest first: `events[k]` is event number
    /// `dropped + k`, the index spans and parent links refer to.
    events: VecDeque<TraceEvent>,
    /// Events evicted from the front to hold [`TRACE_CAPACITY`].
    dropped: usize,
    /// Recording threads, in first-event order.
    tracks: Vec<Track>,
    /// Ordinal handed to the next new track.
    next_tid: u32,
    /// Live subscribers (bounded channels) with their registration
    /// ids; pruned when disconnected or explicitly unsubscribed.
    subscribers: Vec<(SubscriberId, SyncSender<StreamEvent>)>,
    /// Registration id handed to the next subscriber.
    next_sub_id: u64,
    /// Events dropped because a subscriber's channel was full.
    sub_dropped: u64,
}

impl CollectorState {
    /// The current thread's track, registered on first use. A full
    /// table first forgets the threads with no open span.
    fn track(&mut self) -> usize {
        let id = std::thread::current().id();
        if let Some(k) = self.tracks.iter().position(|t| t.thread == id) {
            return k;
        }
        if self.tracks.len() >= MAX_TRACKS {
            self.tracks.retain(|t| !t.stack.is_empty());
        }
        self.tracks.push(Track {
            thread: id,
            tid: self.next_tid,
            stack: Vec::new(),
        });
        self.next_tid += 1;
        self.tracks.len() - 1
    }

    /// Append `ev`, evicting the oldest event when `cap` are held;
    /// returns the new event's number.
    fn push(&mut self, ev: TraceEvent, cap: usize) -> usize {
        if self.events.len() >= cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
        self.dropped + self.events.len() - 1
    }

    /// Event number `idx` as exported: its parent link rebased onto
    /// the retained events, `None` when the parent was evicted.
    fn view(&self, idx: usize) -> TraceEvent {
        let mut e = self.events[idx - self.dropped].clone();
        e.parent = e.parent.and_then(|p| p.checked_sub(self.dropped));
        e
    }

    /// Every retained event as exported, oldest first.
    fn retained(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        (self.dropped..self.dropped + self.events.len()).map(|idx| self.view(idx))
    }

    /// Fan event number `idx`, wrapped by `kind`, out to every
    /// subscriber without ever blocking: a full channel drops the event
    /// (counted), a dead one is pruned. The last subscriber takes the
    /// event itself and the others a copy; with no subscriber attached
    /// the event is not built at all.
    fn tee(&mut self, idx: usize, kind: fn(TraceEvent) -> StreamEvent) {
        let mut next = (!self.subscribers.is_empty()).then(|| kind(self.view(idx)));
        let mut i = 0;
        while let Some(ev) = next.take() {
            if i + 1 < self.subscribers.len() {
                next = Some(ev.clone());
            }
            match self.subscribers[i].1.try_send(ev) {
                Ok(()) => i += 1,
                Err(TrySendError::Full(_)) => {
                    self.sub_dropped += 1;
                    i += 1;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.subscribers.swap_remove(i);
                }
            }
        }
    }
}

/// Opaque handle identifying one live subscription, returned by
/// [`TraceCollector::subscribe_tracked`] and accepted by
/// [`TraceCollector::unsubscribe`]. Send-failure pruning inside
/// `tee` still works without it; the id exists so a serving loop
/// can drop its tee **immediately** when the client goes away instead
/// of waiting for the next event to flow (which, on an idle
/// collector, never comes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberId(u64);

/// Thread-safe accumulator of span / instant events, bounded at
/// [`TRACE_CAPACITY`].
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    cap: usize,
    state: Mutex<CollectorState>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A fresh collector; its epoch is `now`.
    pub fn new() -> Self {
        TraceCollector::with_capacity(TRACE_CAPACITY)
    }

    fn with_capacity(cap: usize) -> Self {
        TraceCollector {
            epoch: Instant::now(),
            cap: cap.max(1),
            state: Mutex::new(CollectorState::default()),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span; the returned guard closes it on drop.
    pub fn begin_span(
        self: &Arc<Self>,
        name: impl Into<String>,
        args: Vec<(String, ArgValue)>,
    ) -> Span {
        let ts = self.now_us();
        let mut st = self.state.lock().unwrap();
        let track = st.track();
        let tid = st.tracks[track].tid;
        let parent = st.tracks[track].stack.last().copied();
        let ev = TraceEvent {
            name: name.into(),
            kind: EventKind::Span,
            tid,
            parent,
            ts_us: ts,
            dur_us: None,
            args,
        };
        let idx = st.push(ev, self.cap);
        st.tracks[track].stack.push(idx);
        st.tee(idx, StreamEvent::SpanBegin);
        Span {
            inner: Some((Arc::clone(self), idx)),
        }
    }

    fn end_span(&self, idx: usize) {
        let ts = self.now_us();
        let mut st = self.state.lock().unwrap();
        let Some(k) = idx.checked_sub(st.dropped) else {
            // The begin event was evicted: only its stack entry is
            // left to clear.
            for t in &mut st.tracks {
                t.stack.retain(|&i| i != idx);
            }
            return;
        };
        let ev = &mut st.events[k];
        ev.dur_us = Some(ts.saturating_sub(ev.ts_us));
        let tid = ev.tid;
        // Guards drop LIFO per thread in normal use; `retain` keeps
        // the stack sane even if one escapes its scope out of order.
        // A track with an open span is never forgotten.
        if let Some(t) = st.tracks.iter_mut().find(|t| t.tid == tid) {
            t.stack.retain(|&i| i != idx);
        }
        st.tee(idx, StreamEvent::SpanEnd);
    }

    /// Record a point event on the current thread.
    pub fn instant(&self, name: impl Into<String>, args: Vec<(String, ArgValue)>) {
        let ts = self.now_us();
        let mut st = self.state.lock().unwrap();
        let track = st.track();
        let tid = st.tracks[track].tid;
        let parent = st.tracks[track].stack.last().copied();
        let ev = TraceEvent {
            name: name.into(),
            kind: EventKind::Instant,
            tid,
            parent,
            ts_us: ts,
            dur_us: None,
            args,
        };
        let idx = st.push(ev, self.cap);
        st.tee(idx, StreamEvent::Instant);
    }

    /// Attach a live subscriber: returns a **replay** of every
    /// retained event (closed spans as [`StreamEvent::SpanEnd`], still
    /// open ones as [`StreamEvent::SpanBegin`]) plus a bounded channel
    /// that receives every subsequent event. Replay and registration
    /// happen under one lock, so no event is missed or duplicated
    /// between them. A subscriber that falls `capacity` events behind
    /// loses events (see [`Self::subscriber_dropped`]); one that is
    /// dropped is pruned on the next notification.
    pub fn subscribe(&self, capacity: usize) -> (Vec<StreamEvent>, Receiver<StreamEvent>) {
        let (replay, rx, _id) = self.subscribe_tracked(capacity);
        (replay, rx)
    }

    /// Like [`Self::subscribe`], but also returns a [`SubscriberId`]
    /// the caller passes to [`Self::unsubscribe`] the moment it stops
    /// reading. Long-lived serving loops must use this form: relying
    /// on send-failure pruning alone leaks the channel (and its
    /// buffered events) until the *next* notification, which on an
    /// idle collector is forever.
    pub fn subscribe_tracked(
        &self,
        capacity: usize,
    ) -> (Vec<StreamEvent>, Receiver<StreamEvent>, SubscriberId) {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity.max(1));
        let mut st = self.state.lock().unwrap();
        let replay = st
            .retained()
            .map(|e| match (e.kind, e.dur_us) {
                (EventKind::Span, Some(_)) => StreamEvent::SpanEnd(e),
                (EventKind::Span, None) => StreamEvent::SpanBegin(e),
                (EventKind::Instant, _) => StreamEvent::Instant(e),
            })
            .collect();
        let id = SubscriberId(st.next_sub_id);
        st.next_sub_id += 1;
        st.subscribers.push((id, tx));
        (replay, rx, id)
    }

    /// Drop the subscription registered under `id`; returns whether it
    /// was still present (false when send-failure pruning already
    /// removed it, or on a double unsubscribe). Idempotent.
    pub fn unsubscribe(&self, id: SubscriberId) -> bool {
        let mut st = self.state.lock().unwrap();
        let before = st.subscribers.len();
        st.subscribers.retain(|(sid, _)| *sid != id);
        st.subscribers.len() != before
    }

    /// Live subscribers currently attached (dead ones may linger until
    /// the next notification prunes them).
    pub fn subscriber_count(&self) -> usize {
        self.state.lock().unwrap().subscribers.len()
    }

    /// Events dropped across all subscribers because a bounded channel
    /// was full.
    pub fn subscriber_dropped(&self) -> u64 {
        self.state.lock().unwrap().sub_dropped
    }

    /// Snapshot the retained events. Spans still open are reported
    /// with their duration so far; `parent` indexes the returned list.
    pub fn events(&self) -> Vec<TraceEvent> {
        let now = self.now_us();
        let st = self.state.lock().unwrap();
        st.retained()
            .map(|mut e| {
                if e.kind == EventKind::Span && e.dur_us.is_none() {
                    e.dur_us = Some(now.saturating_sub(e.ts_us));
                }
                e
            })
            .collect()
    }

    /// The newest `n` retained events as recorded, each with its event
    /// number, plus the drop count, read under one lock. A span still
    /// open has `dur_us: None`; `parent` indexes the retained events,
    /// as in [`Self::events`]. Event numbers count every event the
    /// collector recorded, so an event keeps its number while older
    /// ones are dropped.
    pub fn newest(&self, n: usize) -> (Vec<(u64, TraceEvent)>, u64) {
        let st = self.state.lock().unwrap();
        let end = st.dropped + st.events.len();
        let events = (end - n.min(st.events.len())..end)
            .map(|idx| (idx as u64, st.view(idx)))
            .collect();
        (events, st.dropped as u64)
    }

    /// Number of events retained.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().events.len()
    }

    /// Events dropped, oldest first, to hold [`TRACE_CAPACITY`].
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap().dropped as u64
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII guard for an open span; ends the span when dropped. A no-op
/// guard ([`Span::noop`]) is free.
#[must_use = "a span measures the scope it is alive in"]
#[derive(Debug)]
pub struct Span {
    inner: Option<(Arc<TraceCollector>, usize)>,
}

impl Span {
    /// A guard that records nothing.
    pub fn noop() -> Span {
        Span { inner: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((collector, idx)) = self.inner.take() {
            collector.end_span(idx);
        }
    }
}

/// One row of an aggregated span tree: siblings with the same name are
/// merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Span name.
    pub name: String,
    /// Number of merged spans.
    pub count: u64,
    /// Total duration, microseconds.
    pub total_us: u64,
    /// Duration not covered by child spans, microseconds.
    pub self_us: u64,
}

/// Nesting fallback for events without parent links (e.g. re-imported
/// Chrome traces): a span's parent is the most recent earlier span on
/// the same track that contains it.
fn containment_parents(events: &[TraceEvent]) -> Vec<Option<usize>> {
    let mut parents = vec![None; events.len()];
    let mut stacks: Vec<Vec<usize>> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let tid = e.tid as usize;
        if stacks.len() <= tid {
            stacks.resize(tid + 1, Vec::new());
        }
        let end = e.ts_us + e.dur_us.unwrap_or(0);
        let stack = &mut stacks[tid];
        while let Some(&top) = stack.last() {
            let t = &events[top];
            let t_end = t.ts_us + t.dur_us.unwrap_or(0);
            // Pop spans that closed strictly before this one starts;
            // on equal boundaries insertion order decides (earlier
            // event = outer scope).
            if t.ts_us <= e.ts_us && end <= t_end {
                break;
            }
            stack.pop();
        }
        parents[i] = stack.last().copied();
        if e.kind == EventKind::Span {
            stack.push(i);
        }
    }
    parents
}

/// Aggregate spans into a tree, merging same-name siblings; rows come
/// out in depth-first order (children ordered by first occurrence).
pub fn span_tree(events: &[TraceEvent]) -> Vec<SpanSummary> {
    let parents: Vec<Option<usize>> = if events.iter().any(|e| e.parent.is_some()) {
        events.iter().map(|e| e.parent).collect()
    } else {
        containment_parents(events)
    };
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.kind != EventKind::Span {
            continue;
        }
        match parents[i] {
            Some(p) if events[p].kind == EventKind::Span => children[p].push(i),
            _ => roots.push(i),
        }
    }

    fn emit(
        events: &[TraceEvent],
        children: &[Vec<usize>],
        group: &[usize],
        depth: usize,
        out: &mut Vec<SpanSummary>,
    ) {
        // Merge same-name spans in this sibling group, keeping first
        // occurrence order.
        let mut names: Vec<&str> = Vec::new();
        for &i in group {
            if !names.contains(&events[i].name.as_str()) {
                names.push(&events[i].name);
            }
        }
        for name in names {
            let members: Vec<usize> = group
                .iter()
                .copied()
                .filter(|&i| events[i].name == name)
                .collect();
            let total: u64 = members.iter().map(|&i| events[i].dur_us.unwrap_or(0)).sum();
            let child_total: u64 = members
                .iter()
                .flat_map(|&i| &children[i])
                .map(|&c| events[c].dur_us.unwrap_or(0))
                .sum();
            let row = SpanSummary {
                depth,
                name: name.to_string(),
                count: members.len() as u64,
                total_us: total,
                self_us: total.saturating_sub(child_total),
            };
            out.push(row);
            let grand: Vec<usize> = members
                .iter()
                .flat_map(|&i| children[i].iter().copied())
                .collect();
            if !grand.is_empty() {
                emit(events, children, &grand, depth + 1, out);
            }
        }
    }

    let mut out = Vec::new();
    emit(events, &children, &roots, 0, &mut out);
    out
}

/// Render [`span_tree`] as a fixed-width table.
pub fn render_span_table(events: &[TraceEvent]) -> String {
    let rows = span_tree(events);
    let mut s = String::new();
    s.push_str(&format!(
        "{:<44} {:>7} {:>12} {:>12}\n",
        "span", "calls", "total ms", "self ms"
    ));
    for r in &rows {
        let name = format!("{}{}", "  ".repeat(r.depth), r.name);
        s.push_str(&format!(
            "{:<44} {:>7} {:>12.3} {:>12.3}\n",
            name,
            r.count,
            r.total_us as f64 / 1000.0,
            r.self_us as f64 / 1000.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u32, parent: Option<usize>, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            kind: EventKind::Span,
            tid,
            parent,
            ts_us: ts,
            dur_us: Some(dur),
            args: Vec::new(),
        }
    }

    #[test]
    fn guards_nest_and_time() {
        let c = Arc::new(TraceCollector::new());
        {
            let _outer = c.begin_span("outer", Vec::new());
            {
                let _inner = c.begin_span("inner", Vec::new());
                c.instant("tick", vec![("n".to_string(), ArgValue::U64(1))]);
            }
        }
        let events = c.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].parent, Some(0), "inner nests under outer");
        assert_eq!(events[2].parent, Some(1), "instant nests under inner");
        assert!(events[0].dur_us.unwrap() >= events[1].dur_us.unwrap());
    }

    #[test]
    fn tree_merges_same_name_siblings() {
        let events = vec![
            ev("run", 0, None, 0, 100),
            ev("cell", 0, Some(0), 0, 40),
            ev("solve", 0, Some(1), 10, 20),
            ev("cell", 0, Some(0), 40, 40),
            ev("solve", 0, Some(3), 50, 30),
        ];
        let rows = span_tree(&events);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].name.as_str(), rows[0].count), ("run", 1));
        assert_eq!((rows[1].name.as_str(), rows[1].count), ("cell", 2));
        assert_eq!(rows[1].total_us, 80);
        assert_eq!(rows[1].self_us, 80 - 50);
        assert_eq!((rows[2].name.as_str(), rows[2].count), ("solve", 2));
        assert_eq!(rows[2].depth, 2);
    }

    #[test]
    fn containment_fallback_reconstructs_nesting() {
        let mut events = vec![
            ev("root", 0, None, 0, 100),
            ev("child", 0, None, 10, 20),
            ev("sibling", 0, None, 40, 10),
            ev("other-thread", 1, None, 0, 50),
        ];
        for e in &mut events {
            e.parent = None;
        }
        let rows = span_tree(&events);
        let root = rows.iter().find(|r| r.name == "root").unwrap();
        assert_eq!(root.depth, 0);
        assert_eq!(rows.iter().find(|r| r.name == "child").unwrap().depth, 1);
        assert_eq!(rows.iter().find(|r| r.name == "sibling").unwrap().depth, 1);
        assert_eq!(
            rows.iter()
                .find(|r| r.name == "other-thread")
                .unwrap()
                .depth,
            0,
            "tracks do not nest across threads"
        );
        assert_eq!(root.self_us, 100 - 30);
    }

    #[test]
    fn render_produces_indented_rows() {
        let events = vec![ev("a", 0, None, 0, 1000), ev("b", 0, Some(0), 0, 500)];
        let table = render_span_table(&events);
        assert!(table.contains("a "));
        assert!(table.contains("  b"));
        assert!(table.contains("1.000"));
    }

    #[test]
    fn open_spans_report_partial_duration() {
        let c = Arc::new(TraceCollector::new());
        let _open = c.begin_span("open", Vec::new());
        let events = c.events();
        assert_eq!(events.len(), 1);
        assert!(events[0].dur_us.is_some(), "open span gets duration-so-far");
    }

    #[test]
    fn bounded_collector_drops_oldest_and_orphans_become_roots() {
        let c = Arc::new(TraceCollector::with_capacity(3));
        let outer = c.begin_span("outer", Vec::new());
        let mid = c.begin_span("mid", Vec::new());
        {
            let _leaf = c.begin_span("leaf", Vec::new());
        }
        // The fourth event evicts `outer`: `mid` loses its parent.
        c.instant("tick", Vec::new());
        assert_eq!(c.dropped(), 1);
        let events = c.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["mid", "leaf", "tick"]);
        assert_eq!(events[0].parent, None, "evicted parent: `mid` is a root");
        assert_eq!(events[1].parent, Some(0));
        assert_eq!(events[2].parent, Some(0));
        let rows = span_tree(&events);
        assert_eq!((rows[0].name.as_str(), rows[0].depth), ("mid", 0));
        assert_eq!((rows[1].name.as_str(), rows[1].depth), ("leaf", 1));
        // Evict `mid` while it is still open: its children are roots.
        c.instant("tock", Vec::new());
        let events = c.events();
        assert!(events.iter().all(|e| e.parent.is_none()));
        assert_eq!(span_tree(&events)[0].name, "leaf");
        // Closing spans whose begin events are gone neither panics nor
        // touches a retained event, and leaves no stale parent behind.
        drop(mid);
        drop(outer);
        assert_eq!(c.events(), events);
        assert_eq!(c.dropped(), 2);
        {
            let _after = c.begin_span("after", Vec::new());
        }
        let events = c.events();
        assert_eq!(events.len(), 3);
        assert_eq!(c.dropped(), 3);
        let last = events.last().unwrap();
        assert_eq!((last.name.as_str(), last.parent), ("after", None));
        assert!(last.dur_us.is_some());
        // Subscribers replay exactly the retained events.
        let (replay, _rx) = c.subscribe(4);
        let replayed: Vec<TraceEvent> = replay.iter().map(|e| e.event().clone()).collect();
        assert_eq!(replayed, events);
    }

    #[test]
    fn thread_table_forgets_idle_threads_but_keeps_open_spans() {
        let c = Arc::new(TraceCollector::new());
        let open = c.begin_span("open", Vec::new());
        // One short-lived thread per event, like a server's
        // connection threads coming and going, run one at a time.
        for _ in 0..2 * MAX_TRACKS {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.instant("conn", Vec::new()))
                .join()
                .unwrap();
        }
        assert!(c.state.lock().unwrap().tracks.len() <= MAX_TRACKS);
        // Every thread got its own track, numbered in first-event
        // order, and the thread holding an open span kept its track.
        let events = c.events();
        let tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, (0..=2 * MAX_TRACKS as u32).collect::<Vec<_>>());
        c.instant("after", Vec::new());
        drop(open);
        let events = c.events();
        let last = events.last().unwrap();
        assert_eq!((last.tid, last.parent), (0, Some(0)));
        assert!(events[0].dur_us.is_some());
        assert!(c.state.lock().unwrap().tracks[0].stack.is_empty());
    }

    #[test]
    fn collector_is_send_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceCollector>();
    }

    #[test]
    fn subscribers_get_replay_then_live_events() {
        let c = Arc::new(TraceCollector::new());
        {
            let _g = c.begin_span("history", Vec::new());
        }
        let (replay, rx) = c.subscribe(16);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].kind_str(), "span_end");
        assert_eq!(replay[0].event().name, "history");
        {
            let _g = c.begin_span("live", Vec::new());
            c.instant("tick", Vec::new());
        }
        let kinds: Vec<&str> = rx.try_iter().map(|e| e.kind_str()).collect();
        assert_eq!(kinds, vec!["span_begin", "instant", "span_end"]);
        assert_eq!(c.subscriber_count(), 1);
    }

    #[test]
    fn open_spans_replay_as_begin() {
        let c = Arc::new(TraceCollector::new());
        let _open = c.begin_span("still-open", Vec::new());
        let (replay, _rx) = c.subscribe(4);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].kind_str(), "span_begin");
        assert_eq!(replay[0].event().dur_us, None);
    }

    #[test]
    fn full_subscriber_drops_events_without_blocking() {
        let c = Arc::new(TraceCollector::new());
        let (_replay, rx) = c.subscribe(2);
        for i in 0..5 {
            c.instant(format!("e{i}"), Vec::new());
        }
        // Channel holds the first two; the rest were dropped, counted,
        // and the instrumented path never blocked.
        assert_eq!(rx.try_iter().count(), 2);
        assert_eq!(c.subscriber_dropped(), 3);
    }

    #[test]
    fn disconnected_subscribers_are_pruned() {
        let c = Arc::new(TraceCollector::new());
        let (_replay, rx) = c.subscribe(4);
        assert_eq!(c.subscriber_count(), 1);
        drop(rx);
        c.instant("after-drop", Vec::new());
        assert_eq!(c.subscriber_count(), 0);
        // Disconnection is not a drop: nothing was lost to a full
        // buffer.
        assert_eq!(c.subscriber_dropped(), 0);
    }

    #[test]
    fn tracked_unsubscribe_removes_without_any_notification() {
        // The regression scenario: a subscriber goes away while the
        // collector is idle. Send-failure pruning never fires (no
        // events flow), so only an explicit unsubscribe can clean up.
        let c = Arc::new(TraceCollector::new());
        let (_replay, rx, id) = c.subscribe_tracked(4);
        assert_eq!(c.subscriber_count(), 1);
        drop(rx);
        assert!(c.unsubscribe(id));
        assert_eq!(c.subscriber_count(), 0);
        // Idempotent: a second unsubscribe is a no-op.
        assert!(!c.unsubscribe(id));
    }

    #[test]
    fn unsubscribe_targets_only_its_own_subscription() {
        let c = Arc::new(TraceCollector::new());
        let (_r1, rx1, id1) = c.subscribe_tracked(4);
        let (_r2, _rx2, _id2) = c.subscribe_tracked(4);
        assert_eq!(c.subscriber_count(), 2);
        drop(rx1);
        assert!(c.unsubscribe(id1));
        assert_eq!(c.subscriber_count(), 1);
        // The surviving subscription still receives events.
        c.instant("still-live", Vec::new());
        assert_eq!(c.subscriber_count(), 1);
    }
}
