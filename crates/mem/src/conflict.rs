//! Conflict-miss attribution (paper §3.3).
//!
//! The conflict graph's edge weight `m_ij` counts the misses of memory
//! object `x_i` that occur *because* `x_j` replaced one of `x_i`'s
//! cache lines. The recorder tracks, per line (dense id
//! `addr / line_size`, which names a `(set, tag)` pair one to one),
//! which memory object most recently evicted it; when that line is
//! re-fetched and misses, the miss is charged to the recorded evictor.
//! Misses on lines that were never evicted are *cold* (compulsory)
//! misses and carry no conflict edge.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Raw conflict data produced by one simulation run, at memory-object
/// (trace) granularity. Indices are [`casa_trace::TraceId::index`]
/// values.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawConflicts {
    /// `m_ij`: conflict misses of object `i` caused by object `j`.
    pub misses_between: HashMap<(usize, usize), u64>,
    /// Cold (compulsory) misses per object.
    pub cold_misses: Vec<u64>,
}

impl RawConflicts {
    /// Total conflict misses of object `i` (the paper's eq. 3 sum).
    pub fn conflict_misses_of(&self, i: usize) -> u64 {
        self.misses_between
            .iter()
            .filter(|((vi, _), _)| *vi == i)
            .map(|(_, &m)| m)
            .sum()
    }

    /// Total misses of object `i` including cold misses.
    pub fn total_misses_of(&self, i: usize) -> u64 {
        self.conflict_misses_of(i) + self.cold_misses.get(i).copied().unwrap_or(0)
    }
}

/// Tracks eviction causality during a simulation run.
#[derive(Debug, Clone)]
pub struct ConflictRecorder {
    /// Indexed by line id: the object that most recently evicted the
    /// line, `NONE` if no record stands. Grows on demand.
    evicted_by: Vec<u32>,
    /// `m_ij` keyed by `(i << 32) | j`; becomes
    /// [`RawConflicts::misses_between`] when recording ends.
    misses_between: HashMap<u64, u64, BuildHasherDefault<PairHasher>>,
    cold_misses: Vec<u64>,
}

/// The `evicted_by` entry of a line without a standing eviction.
const NONE: u32 = u32::MAX;

/// One multiply per key: conflict misses are a few percent of all
/// fetches, and a SipHash round on each costs more than the cache
/// lookup that finds them. The keys are object indices the simulator
/// assigns, never outside input, so collision resistance buys nothing.
#[derive(Debug, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    /// Never reached for the `u64` keys hashed here; folds bytewise.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl ConflictRecorder {
    /// A recorder for `n_objects` memory objects.
    ///
    /// # Panics
    ///
    /// Panics if `n_objects` does not fit below `u32::MAX`.
    pub fn new(n_objects: usize) -> Self {
        assert!(n_objects < NONE as usize, "too many memory objects");
        ConflictRecorder {
            evicted_by: Vec::new(),
            misses_between: HashMap::default(),
            cold_misses: vec![0; n_objects],
        }
    }

    /// Record a cache miss of object `missed` on line id `line`
    /// (`addr / line_size`); if the miss replaced a valid line,
    /// `evicted_line` is that line's id.
    ///
    /// # Panics
    ///
    /// Panics if `missed` is out of range.
    pub fn on_miss(&mut self, missed: usize, line: u32, evicted_line: Option<u32>) {
        assert!(missed < self.cold_misses.len(), "object index out of range");
        // Charge the miss: conflict if this line was evicted before.
        // Our own line is now resident, so the record is cleared: a
        // later self-re-fetch after *another* eviction is charged to
        // the right causer.
        match self.evicted_by.get_mut(line as usize) {
            Some(slot) if *slot != NONE => {
                let evictor = std::mem::replace(slot, NONE);
                let key = (missed as u64) << 32 | u64::from(evictor);
                *self.misses_between.entry(key).or_insert(0) += 1;
            }
            _ => self.cold_misses[missed] += 1,
        }
        // Record the eviction we caused, for the victim's future miss.
        if let Some(victim) = evicted_line {
            let v = victim as usize;
            if v >= self.evicted_by.len() {
                self.evicted_by.resize(v + 1, NONE);
            }
            self.evicted_by[v] = missed as u32;
        }
    }

    /// Finish recording and return the collected conflicts.
    pub fn into_conflicts(self) -> RawConflicts {
        RawConflicts {
            misses_between: self
                .misses_between
                .into_iter()
                .map(|(key, m)| (((key >> 32) as usize, key as u32 as usize), m))
                .collect(),
            cold_misses: self.cold_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_has_no_edge() {
        let mut r = ConflictRecorder::new(2);
        r.on_miss(0, 0, None);
        let c = r.into_conflicts();
        assert_eq!(c.cold_misses[0], 1);
        assert!(c.misses_between.is_empty());
    }

    #[test]
    fn thrash_creates_mutual_edges() {
        // Objects 0 and 1 alternate on the same set/line:
        // 0 cold-misses (evicts nothing), 1 misses evicting 0's tag,
        // 0 re-misses (charged to 1), 1 re-misses (charged to 0)...
        let mut r = ConflictRecorder::new(2);
        r.on_miss(0, 10, None); // cold
        r.on_miss(1, 11, Some(10)); // cold for 1; evicts 0's line
        r.on_miss(0, 10, Some(11)); // conflict: caused by 1
        r.on_miss(1, 11, Some(10)); // conflict: caused by 0
        let c = r.into_conflicts();
        assert_eq!(c.cold_misses, vec![1, 1]);
        assert_eq!(c.misses_between[&(0, 1)], 1);
        assert_eq!(c.misses_between[&(1, 0)], 1);
        assert_eq!(c.conflict_misses_of(0), 1);
        assert_eq!(c.total_misses_of(0), 2);
    }

    #[test]
    fn re_eviction_charges_latest_evictor() {
        let mut r = ConflictRecorder::new(3);
        r.on_miss(0, 10, None); // 0 resident
        r.on_miss(1, 11, Some(10)); // 1 evicts 0
        r.on_miss(2, 12, Some(11)); // 2 evicts 1
        r.on_miss(0, 10, Some(12)); // 0 returns: charge 1, who evicted it, not 2
        let c = r.into_conflicts();
        assert_eq!(c.misses_between[&(0, 1)], 1);
        assert!(!c.misses_between.contains_key(&(0, 2)));
    }

    #[test]
    fn self_conflict_possible() {
        // An object larger than the cache evicts its own lines.
        let mut r = ConflictRecorder::new(1);
        r.on_miss(0, 1, None);
        r.on_miss(0, 2, Some(1)); // evicts own line
        r.on_miss(0, 1, Some(2)); // self-conflict
        let c = r.into_conflicts();
        assert_eq!(c.misses_between[&(0, 0)], 1);
    }

    #[test]
    fn stale_record_cleared_on_refill() {
        let mut r = ConflictRecorder::new(2);
        r.on_miss(0, 10, None);
        r.on_miss(1, 11, Some(10)); // 1 evicts 0
        r.on_miss(0, 10, Some(11)); // 0 back, charged to 1; record cleared
        r.on_miss(1, 11, Some(10)); // 1 back, charged to 0
        r.on_miss(0, 10, Some(11)); // 0 back again: charged to 1 (fresh record)
        let c = r.into_conflicts();
        assert_eq!(c.misses_between[&(0, 1)], 2);
        assert_eq!(c.misses_between[&(1, 0)], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let mut r = ConflictRecorder::new(1);
        r.on_miss(1, 0, None);
    }
}
