//! Heap allocations of recording an event, counted by a global
//! allocator: with no `/events` subscriber attached, an instant or a
//! span costs only the allocations of its name and arguments, and the
//! trace collector copies an event for the tee only when someone
//! subscribes. A test binary of its own, because the counting
//! allocator replaces the global one.

use casa_obs::{ArgValue, Obs, TRACE_CAPACITY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One string argument, as `server.request` and `http.access` carry:
/// three allocations (the vector, the key, the value).
fn args() -> Vec<(String, ArgValue)> {
    vec![("id".to_string(), ArgValue::Str("r000001".to_string()))]
}

#[test]
fn events_are_copied_only_for_a_subscriber() {
    let obs = Obs::enabled();
    // Fill the ring, so each later event evicts one and nothing grows;
    // the span gives this thread's span stack its buffer.
    drop(obs.span("warm-up"));
    for _ in 0..TRACE_CAPACITY {
        obs.instant("warm-up", Vec::new());
    }
    assert_eq!(allocs(|| drop(args())), 3);
    // Name plus arguments, and nothing for the tee.
    assert_eq!(allocs(|| obs.instant("http.access", args())), 4);
    assert_eq!(
        allocs(|| drop(obs.span_with("server.request", args()))),
        4,
        "a span's begin and end"
    );

    let collector = obs.collector().expect("enabled");
    let (_replay, rx) = collector.subscribe(16);
    let instant = allocs(|| obs.instant("http.access", args()));
    let span = allocs(|| drop(obs.span_with("server.request", args())));
    assert!(
        instant > 4,
        "a subscriber's instant was not copied: {instant}"
    );
    assert!(span > instant, "a subscriber's span was not copied: {span}");
    let kinds: Vec<&str> = rx.try_iter().map(|e| e.kind_str()).collect();
    assert_eq!(kinds, ["instant", "span_begin", "span_end"]);
}
