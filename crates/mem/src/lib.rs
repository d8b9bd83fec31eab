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
//!   line — the raw material of the paper's conflict graph (§3.3).
//!
//! The fetch engine guarantees the paper's eq. (4): for every memory
//! object, `fetches == hits + misses` regardless of hierarchy, which
//! the property tests assert.
//!
//! ## Block plans
//!
//! The engine does not step once per instruction. Each
//! [`Replayer::replay`] call first resolves every static block against
//! the layout and the memory system into a *block plan*: its memory
//! object, fetch count and base cycles, its scratchpad and loop-cache
//! fetches, its I-cache *line runs* (the consecutive fetches of one
//! line, split where a loop-cache preload range starts or ends inside
//! it) and its trace-exit glue jump. The loop over the execution keeps
//! only the work that depends on history: one execution count per
//! block, one cache lookup per I-cache run and the glue-jump check. It
//! reads one compact entry per executed block (the object, the run
//! range and the glue successor); only the fold reads the rest of the
//! plan, and set scans and misses run out of line. Everything else is
//! folded in from the block counts before the call returns. The result
//! is identical, counter for counter, to one fetch at a time under
//! every replacement policy:
//!
//! * scratchpad and loop-cache service depends only on the address and
//!   the system, never on history, so their counters, `trace_spm`,
//!   `trace_lc`, `trace_fetches` and `base_cycles` are block counts
//!   times per-block constants;
//! * eq. (4) gives an object's I-cache hits as its I-cache fetches
//!   minus its misses, and the loop counts the misses one by one; the
//!   lookup counts no hits, and the fold charges the call's hit total
//!   to the counters and to [`Cache::hits`], so every counter is exact
//!   when the call returns;
//! * in a run only the first fetch can miss: the trailing `n − 1` hit
//!   the line it left resident, since nothing else touches the cache in
//!   between;
//! * a direct-mapped lookup compares and replaces its set's one tag and
//!   keeps no clock: a one-way set never reads a stamp;
//! * a set-associative lookup checks the set's most-recently-used way
//!   first, and a hit there touches nothing: under LRU that way already
//!   holds the set's newest stamp, and FIFO stamps only fills, so the
//!   order within the set is what a fresh stamp would leave. Any other
//!   lookup scans the set, stamps a scan hit (LRU) or a fill with the
//!   next value of a count of such stamps, and records that way as the
//!   most recently used. Stamps are only compared within a set, so
//!   their order is the one per-fetch clocks leave;
//! * FIFO, round-robin and `Random(seed)` change state (fill stamp,
//!   victim counter, RNG draw) only on misses, as before; the
//!   direct-mapped lookup still asks the victim picker under `Random`,
//!   so the RNG draws exactly as before;
//! * the L2, the main-memory line fills, the conflict recorder and the
//!   per-set fill and eviction tallies see only misses, and
//!   [`Recorder::cache_access`] takes the run length as a count.
//!
//! A plan holds one layout, so a [`Replayer`] layout switch between
//! segments takes effect at the next call. Scratchpad banks are checked
//! when the fold charges an executed block: a layout that puts a block
//! that never executes in a missing bank replays cleanly.
//! [`InstMemorySystem::fetch`] and [`Cache::access`] are the one-fetch
//! case of the same lookup.

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

pub use cache::{Cache, CacheConfig, ReplacementPolicy};
pub use conflict::ConflictRecorder;
pub use data::{simulate_data, DataAccess, DataSimOutcome, DataTrace};
pub use fetch::{simulate, simulate_observed, ExecutionTrace, Replayer, SimOutcome};
pub use hierarchy::{HierarchyConfig, InstMemorySystem};
pub use loop_cache::LoopCacheController;
pub use recorder::{NullRecorder, Recorder, SetStatsRecorder};
pub use scratchpad::Scratchpad;
pub use stats::{FetchCounters, FetchStats};

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
    _assert_send_sync::<InstMemorySystem>();
    _assert_send_sync::<FetchStats>();
};
