//! Preloaded loop cache controller (Ross / Gordon-Ross & Vahid,
//! IEEE Computer Architecture Letters 2002).
//!
//! The controller stores the start and end addresses of a small number
//! of preloaded memory objects (typically 2–6; the paper's experiments
//! use 4). On every instruction fetch it compares the address against
//! each stored range: inside → the fetch is served by the loop-cache
//! SRAM; outside → it goes to the L1 I-cache. Keeping the comparator
//! count low is exactly why only a handful of objects can be preloaded
//! — the architectural limitation CASA's scratchpad does not share.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned when preloading violates the controller's limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreloadError {
    /// More ranges than the controller has comparator slots.
    TooManyObjects {
        /// Slots available.
        max: usize,
    },
    /// Total preloaded bytes exceed the loop-cache SRAM.
    CapacityExceeded {
        /// Bytes requested.
        requested: u32,
        /// SRAM capacity.
        capacity: u32,
    },
    /// A range is empty or inverted.
    BadRange {
        /// Offending start address.
        start: u32,
        /// Offending end address.
        end: u32,
    },
}

impl fmt::Display for PreloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreloadError::TooManyObjects { max } => {
                write!(f, "loop cache supports at most {max} preloaded objects")
            }
            PreloadError::CapacityExceeded {
                requested,
                capacity,
            } => write!(
                f,
                "preload of {requested} bytes exceeds loop cache capacity of {capacity}"
            ),
            PreloadError::BadRange { start, end } => {
                write!(f, "invalid preload range {start}..{end}")
            }
        }
    }
}

impl Error for PreloadError {}

/// The loop-cache controller plus SRAM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopCacheController {
    capacity: u32,
    max_objects: usize,
    ranges: Vec<(u32, u32)>,
    accesses: u64,
}

impl LoopCacheController {
    /// A loop cache of `capacity` bytes with `max_objects` comparator
    /// slots (the paper assumes 4).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `max_objects` is zero.
    pub fn new(capacity: u32, max_objects: usize) -> Self {
        assert!(capacity > 0, "loop cache capacity must be non-zero");
        assert!(max_objects > 0, "need at least one comparator slot");
        LoopCacheController {
            capacity,
            max_objects,
            ranges: Vec::new(),
            accesses: 0,
        }
    }

    /// SRAM capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Comparator slots.
    pub fn max_objects(&self) -> usize {
        self.max_objects
    }

    /// Currently preloaded `[start, end)` main-memory ranges.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Statically preload the given `[start, end)` main-memory address
    /// ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] if there are more ranges than
    /// comparator slots, their total size exceeds the SRAM capacity,
    /// or any range is empty/inverted. On error the controller is
    /// left unchanged.
    pub fn preload(&mut self, ranges: &[(u32, u32)]) -> Result<(), PreloadError> {
        if ranges.len() > self.max_objects {
            return Err(PreloadError::TooManyObjects {
                max: self.max_objects,
            });
        }
        let mut total = 0u32;
        for &(start, end) in ranges {
            if end <= start {
                return Err(PreloadError::BadRange { start, end });
            }
            total += end - start;
        }
        if total > self.capacity {
            return Err(PreloadError::CapacityExceeded {
                requested: total,
                capacity: self.capacity,
            });
        }
        self.ranges = ranges.to_vec();
        Ok(())
    }

    /// Whether a fetch of main-memory address `addr` is served by the
    /// loop cache (read-only check, no counter update).
    pub fn contains(&self, addr: u32) -> bool {
        self.ranges.iter().any(|&(s, e)| addr >= s && addr < e)
    }

    /// Fetch at `addr`: returns `true` and counts the access if served
    /// by the loop cache.
    pub fn access(&mut self, addr: u32) -> bool {
        self.access_run(addr, 1)
    }

    /// Fetch `n` instructions starting at `addr`, all on the same side
    /// of every range bound (see [`LoopCacheController::run_end`]):
    /// returns `true` and counts `n` accesses if `addr` is served by
    /// the loop cache.
    #[inline]
    pub(crate) fn access_run(&mut self, addr: u32, n: u64) -> bool {
        if self.contains(addr) {
            self.accesses += n;
            true
        } else {
            false
        }
    }

    /// The first address past `addr` whose fetch may be served
    /// differently: the end of the range holding `addr`, or else the
    /// nearest range start above `addr`, capped at `cap`.
    #[inline]
    pub(crate) fn run_end(&self, addr: u32, cap: u32) -> u32 {
        let mut end = cap;
        for &(s, e) in &self.ranges {
            if addr >= s && addr < e {
                return e;
            }
            if s > addr {
                end = end.min(s);
            }
        }
        end
    }

    /// Loop-cache accesses recorded so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_and_hit() {
        let mut lc = LoopCacheController::new(256, 4);
        lc.preload(&[(0, 64), (128, 192)]).unwrap();
        assert!(lc.access(0));
        assert!(lc.access(63));
        assert!(!lc.access(64));
        assert!(lc.access(128));
        assert!(!lc.access(192));
        assert_eq!(lc.accesses(), 3);
    }

    #[test]
    fn object_limit_enforced() {
        let mut lc = LoopCacheController::new(1024, 2);
        let err = lc.preload(&[(0, 8), (16, 24), (32, 40)]).unwrap_err();
        assert_eq!(err, PreloadError::TooManyObjects { max: 2 });
        assert!(lc.ranges().is_empty(), "controller unchanged on error");
    }

    #[test]
    fn capacity_enforced() {
        let mut lc = LoopCacheController::new(100, 4);
        let err = lc.preload(&[(0, 60), (100, 160)]).unwrap_err();
        assert_eq!(
            err,
            PreloadError::CapacityExceeded {
                requested: 120,
                capacity: 100
            }
        );
    }

    #[test]
    fn bad_range_rejected() {
        let mut lc = LoopCacheController::new(100, 4);
        assert!(matches!(
            lc.preload(&[(10, 10)]),
            Err(PreloadError::BadRange { .. })
        ));
        assert!(matches!(
            lc.preload(&[(20, 10)]),
            Err(PreloadError::BadRange { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = PreloadError::TooManyObjects { max: 4 };
        assert!(e.to_string().contains('4'));
    }
}
