//! Scratchpad memory: a software-managed on-chip SRAM region.
//!
//! The scratchpad has no tags and no controller logic — an access
//! either falls inside the region (and costs one SPM access) or it is
//! a programming error. Allocation decisions are made entirely at
//! compile time by the allocators in `casa-core`.

use serde::{Deserialize, Serialize};

/// One scratchpad bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scratchpad {
    size: u32,
    accesses: u64,
}

impl Scratchpad {
    /// A scratchpad of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u32) -> Self {
        assert!(size > 0, "scratchpad size must be non-zero");
        Scratchpad { size, accesses: 0 }
    }

    /// Capacity in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Fetch one instruction at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies outside the scratchpad — the layout
    /// engine guarantees in-range addresses, so an out-of-range access
    /// is a bug, not a runtime condition.
    pub fn access(&mut self, addr: u32) {
        self.access_run(addr, 1);
    }

    /// Fetch `n` instructions at ascending addresses ending at `last`.
    ///
    /// # Panics
    ///
    /// Panics if `last` lies outside the scratchpad, as
    /// [`Scratchpad::access`] does.
    #[inline]
    pub(crate) fn access_run(&mut self, last: u32, n: u64) {
        assert!(
            last < self.size,
            "scratchpad access at {last} outside region of {} bytes",
            self.size
        );
        self.accesses += n;
    }

    /// Accesses recorded so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accesses() {
        let mut s = Scratchpad::new(128);
        s.access(0);
        s.access(127);
        assert_eq!(s.accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn out_of_range_panics() {
        let mut s = Scratchpad::new(128);
        s.access(128);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_panics() {
        Scratchpad::new(0);
    }
}
