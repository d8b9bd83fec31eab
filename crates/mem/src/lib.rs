//! # casa-mem — instruction memory-hierarchy simulator
//!
//! Substitute for the authors' `memsim` (paper §5): simulates the
//! instruction side of the paper's architecture (fig. 1) at
//! instruction-fetch granularity:
//!
//! * a set-associative L1 **I-cache** ([`cache`]) with LRU / FIFO /
//!   round-robin / random replacement,
//! * a non-cacheable **scratchpad** region ([`scratchpad`]),
//! * a **preloaded loop cache** controller ([`loop_cache`]) holding a
//!   bounded number of address ranges (fig. 1(b)),
//! * off-chip **main memory** supplying cache line fills,
//! * a **fetch engine** ([`fetch`]) replaying a dynamic basic-block
//!   sequence against a [`casa_trace::Layout`], and
//! * a **conflict recorder** ([`conflict`]) attributing every conflict
//!   miss of memory object `x_i` to the object `x_j` that evicted its
//!   line — the raw material of the paper's conflict graph (§3.3). It
//!   is a [`Recorder`], and only the replays whose outcome becomes a
//!   conflict graph take one (see below).
//!
//! The fetch engine guarantees the paper's eq. (4): for every memory
//! object, `fetches == hits + misses` regardless of hierarchy, which
//! the property tests assert.
//!
//! ## The line stream
//!
//! The engine does not step once per instruction, and it walks the
//! block sequence once per trace set, not once per simulation.
//! [`LineStream::compile`] walks the execution against the *initial*
//! image of a [`casa_trace::TraceSet`] and records the I-cache lines
//! (more generally *units*, see below) its fetches touch, in fetch
//! order, consecutive repeats merged, plus the totals that do not
//! depend on history: per-unit and per-object fetches, the highest
//! offset each object fetches, and base cycles. Line ids are `u16`
//! when the image has fewer than 65,536 of them. A replay
//! ([`Replayer::replay_stream`], [`simulate_stream`]) maps each unit
//! through one table built for the layout and runs one flat loop of
//! lookups; [`simulate`] and [`Replayer::replay`] compile a stream for
//! their one replay. The result is identical, counter for counter, to
//! one fetch at a time under every replacement policy:
//!
//! * *same offsets in every layout:* every main-memory trace slot
//!   starts on a multiple of the trace padding, and a trace keeps its
//!   blocks' and glue jump's offsets in its slot under copy, move and
//!   reordered layouts. So the `k`-th line of object `o` in layout `L`
//!   is `base_L(o) + k`, and the table holds `line₀ − base₀(o) +
//!   base_L(o)` per initial-image line, or "skip" when `o` sits on a
//!   scratchpad or the line in a loop-cache range. A unit is a line,
//!   or a smaller power of two when a loop-cache range starts or ends
//!   inside a line, so that every unit is fetched one way; such a
//!   system compiles its own stream;
//! * *merging repeats changes nothing:* a lookup of the line just
//!   looked up hits the slot it left first in its set and changes no
//!   state under any policy, and skipping one object's lookups leaves
//!   every other lookup in the same order. The run filter of
//!   [`LineStream::compile`] drops more such first-slot hits;
//! * *counts come from the fold:* scratchpad and loop-cache service
//!   depends only on the address and the system, never on history, so
//!   their counters, `trace_spm`, `trace_lc`, `trace_fetches` and
//!   `base_cycles` are the stream's totals mapped through the layout;
//!   eq. (4) gives an object's I-cache hits as its I-cache fetches
//!   minus its misses, which the loop counts one by one, and a set's
//!   hits for [`SetStatsRecorder`] likewise; every counter is exact
//!   when the call returns;
//! * *one cache model:* the loop compares the set's first slot inline.
//!   A direct-mapped set has one; LRU and FIFO sets keep their ways in
//!   recency or fill order (each slot carrying its physical way), and
//!   an LRU lookup that misses the first slot reorders the set with
//!   selects rather than branches. Round-robin and `Random(seed)` keep
//!   physical order, so their victims and RNG draws are the per-fetch
//!   ones. [`Cache::access`] is the one-fetch case of the same lookup;
//! * *misses finish in the loop where they can:* without an L2, a
//!   direct-mapped miss replaces the set's one slot and an LRU lookup
//!   that fails the first slot reorders the set through the same
//!   [`Cache`] code a per-fetch access runs, so both finish inside the
//!   loop; FIFO, round-robin and random scans, a `Random(seed)`
//!   direct-mapped fill (which draws) and every lookup of a system with
//!   an L2 leave it. Either way a miss then runs the same accounting:
//!   the object's miss, the miss counters and the main-memory or L2
//!   line fill, and the recorder's fill, eviction, L2 and miss events,
//!   in order.
//!
//! ## Which replays attribute
//!
//! The paper builds its conflict graph from one profiling run; pricing
//! an allocation needs only hit and miss counts (eqs. 1–6). So a replay
//! attributes misses to conflict edges only when it is handed a
//! [`ConflictRecorder`]: [`simulate`], [`simulate_stream`] and
//! [`Replayer::attributing`] do, and fill [`SimOutcome::conflicts`];
//! [`Replayer::new`], [`simulate_observed`] and
//! [`simulate_stream_observed`] with any other recorder only count,
//! and leave it empty. The flow's profiling runs and the overlay's
//! per-window profiles attribute; its final simulations count.
//!
//! A stream is compiled for one trace set and refuses a layout of
//! another ([`StreamError`]). A [`Replayer`] layout switch between
//! segments compiles the next segment and keeps the cache state.
//! Scratchpad banks are checked when the fold charges an object with
//! fetches: a layout that puts a trace that never executes in a missing
//! bank replays cleanly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod conflict;
pub mod data;
pub mod fetch;
pub mod hierarchy;
pub mod loop_cache;
pub mod recorder;
pub mod scratchpad;
pub mod stats;
pub mod stream;

pub use cache::{Cache, CacheConfig, ReplacementPolicy};
pub use conflict::ConflictRecorder;
pub use data::{simulate_data, DataAccess, DataSimOutcome, DataTrace};
pub use fetch::{
    simulate, simulate_observed, simulate_stream, simulate_stream_observed, ExecutionTrace,
    Replayer, SimError, SimOutcome,
};
pub use hierarchy::{HierarchyConfig, InstMemorySystem};
pub use loop_cache::LoopCacheController;
pub use recorder::{NullRecorder, Recorder, SetStatsRecorder};
pub use scratchpad::Scratchpad;
pub use stats::{FetchCounters, FetchStats};
pub use stream::{LineStream, StreamError};

// The sweep engine in casa-bench shares simulators and their outputs
// across worker threads; keep that property compile-time checked here
// where the types live (note `Cache` holds its own RNG — `Sync` holds
// because all mutation goes through `&mut self`).
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Cache>();
    _assert_send_sync::<CacheConfig>();
    _assert_send_sync::<ExecutionTrace>();
    _assert_send_sync::<SimOutcome>();
    _assert_send_sync::<LineStream>();
    _assert_send_sync::<InstMemorySystem>();
    _assert_send_sync::<FetchStats>();
};
