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
//! ## Line runs
//!
//! The engine does not step once per instruction. Within each
//! executed block it groups the consecutive fetches served by one
//! place — one scratchpad bank, one loop-cache preload range (split
//! where the range ends), or one I-cache line (split where a preload
//! range starts or ends inside it) — and charges each group with one
//! memory-system call that counts its `n` fetches. Only the first
//! fetch of a group can miss. The result is identical, counter for
//! counter, to `n` single fetches under every replacement policy:
//!
//! * the trailing `n − 1` fetches hit the line the first one left
//!   resident, since nothing else touches the cache in between;
//! * **LRU**: the line's stamp ends at the last fetch's clock, so the
//!   order within its set is what `n` single fetches leave;
//! * **FIFO**, **round-robin** and **`Random(seed)`** change state
//!   (fill stamp, victim counter, RNG draw) only on misses, so the
//!   trailing hits leave them untouched;
//! * the L2, the main-memory line fills, the conflict recorder and the
//!   per-set fill and eviction tallies see only misses, and the
//!   [`Recorder`] hooks take the run length as a count.
//!
//! Runs never cross a block, so a [`Replayer`] layout switch between
//! segments never splits one. [`InstMemorySystem::fetch`] and
//! [`Cache::access`] are the one-fetch case of the same path.

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
