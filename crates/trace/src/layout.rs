//! Code layout: assigning addresses to traces in main memory and in
//! scratchpad banks.
//!
//! Two placement semantics are modeled, because the difference is the
//! second imprecision the paper identifies in Steinke's allocator
//! (§2): CASA **copies** memory objects to the scratchpad — the main
//! memory image and therefore the cache mapping of every remaining
//! trace is untouched — while Steinke's approach **moves** them,
//! compacting the remaining code so previously non-conflicting traces
//! may suddenly share cache lines.

use crate::trace::{TraceId, TraceSet};
use casa_ir::{BlockId, Program};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A memory region instructions can be fetched from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Cacheable off-chip main memory.
    Main,
    /// Non-cacheable on-chip scratchpad bank (bank 0 unless the
    /// multi-scratchpad extension is used).
    Spm(u8),
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Main => write!(f, "main"),
            Region::Spm(b) => write!(f, "spm{b}"),
        }
    }
}

/// A concrete location: region plus byte address within that region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// The region.
    pub region: Region,
    /// Byte address within the region's address space.
    pub addr: u32,
}

/// How scratchpad-resident traces relate to the main-memory image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementSemantics {
    /// CASA semantics: traces are *copied*; the main-memory image
    /// keeps every trace at its original address.
    Copy,
    /// Steinke semantics: traces are *moved*; remaining traces are
    /// compacted, changing their addresses and cache mapping.
    Move,
}

/// A fully resolved code layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    trace_loc: Vec<Location>,
    block_addr: Vec<u32>,
    glue_addr: Vec<Option<u32>>,
    main_image_size: u32,
    spm_used: Vec<u32>,
    line_size: u32,
    semantics: PlacementSemantics,
}

impl Layout {
    /// Layout with every trace in main memory (the pre-allocation
    /// profiling layout of the paper's fig. 3 workflow).
    pub fn initial(program: &Program, traces: &TraceSet) -> Self {
        Self::with_placement(
            program,
            traces,
            &vec![None; traces.len()],
            PlacementSemantics::Copy,
        )
    }

    /// Layout realizing a scratchpad `placement`.
    ///
    /// `placement[i]` is the scratchpad bank for trace `i`, or `None`
    /// to leave it in main memory. Under [`PlacementSemantics::Copy`]
    /// main-memory addresses are identical to [`Layout::initial`];
    /// under [`PlacementSemantics::Move`] remaining traces are
    /// compacted in trace order at cache-line boundaries.
    ///
    /// Scratchpad copies are packed without NOP padding (the paper
    /// strips padding before allocation), so a bank holds exactly the
    /// sum of allocated [`crate::trace::Trace::code_size`]s.
    ///
    /// # Panics
    ///
    /// Panics if `placement.len() != traces.len()`.
    pub fn with_placement(
        program: &Program,
        traces: &TraceSet,
        placement: &[Option<u8>],
        semantics: PlacementSemantics,
    ) -> Self {
        let order: Vec<TraceId> = traces.traces().iter().map(|t| t.id()).collect();
        Self::with_order(program, traces, &order, placement, semantics)
    }

    /// Layout realizing a scratchpad `placement` with traces laid out
    /// in main memory in the given `order` instead of program order.
    ///
    /// This is the primitive behind code-placement optimizers
    /// (Pettis & Hansen; Tomiyama & Yasuura): reordering traces
    /// changes which cache sets they map to and therefore which
    /// traces conflict.
    ///
    /// # Panics
    ///
    /// Panics if `placement.len() != traces.len()`, or `order` is not
    /// a permutation of all trace ids.
    pub fn with_order(
        program: &Program,
        traces: &TraceSet,
        order: &[TraceId],
        placement: &[Option<u8>],
        semantics: PlacementSemantics,
    ) -> Self {
        assert_eq!(
            placement.len(),
            traces.len(),
            "placement must cover every trace"
        );
        assert_eq!(order.len(), traces.len(), "order must cover every trace");
        {
            let mut seen = vec![false; traces.len()];
            for t in order {
                assert!(!seen[t.index()], "duplicate trace {t} in order");
                seen[t.index()] = true;
            }
        }
        let line = traces.line_size();
        let n_banks = placement
            .iter()
            .flatten()
            .map(|&b| b as usize + 1)
            .max()
            .unwrap_or(1);
        let mut spm_cursor = vec![0u32; n_banks];
        let mut main_cursor = 0u32;
        let mut trace_loc = vec![
            Location {
                region: Region::Main,
                addr: 0
            };
            traces.len()
        ];
        let mut block_addr = vec![0u32; program.blocks().len()];
        let mut glue_addr = vec![None; traces.len()];

        for &tid in order {
            let trace = traces.trace(tid);
            let i = trace.id().index();
            let bank = placement[i];
            // Fetch location of the trace's instructions.
            let loc = match bank {
                Some(b) => {
                    let addr = spm_cursor[b as usize];
                    spm_cursor[b as usize] += trace.code_size();
                    Location {
                        region: Region::Spm(b),
                        addr,
                    }
                }
                None => {
                    let addr = main_cursor;
                    main_cursor += trace.padded_size(line);
                    Location {
                        region: Region::Main,
                        addr,
                    }
                }
            };
            // Under copy semantics an SPM trace still occupies its
            // main-memory slot, keeping every other address fixed.
            if bank.is_some() && semantics == PlacementSemantics::Copy {
                main_cursor += trace.padded_size(line);
            }
            trace_loc[i] = loc;
            let mut off = loc.addr;
            for &b in trace.blocks() {
                block_addr[b.index()] = off;
                off += program.block(b).size();
            }
            if trace.glue_jump_size().is_some() {
                glue_addr[i] = Some(off);
            }
        }

        Layout {
            trace_loc,
            block_addr,
            glue_addr,
            main_image_size: main_cursor,
            spm_used: spm_cursor,
            line_size: line,
            semantics,
        }
    }

    /// Where a trace's code is fetched from.
    pub fn trace_location(&self, trace: TraceId) -> Location {
        self.trace_loc[trace.index()]
    }

    /// Where `block`'s first instruction is fetched from. The block's
    /// region is its trace's region.
    pub fn block_location(&self, traces: &TraceSet, block: BlockId) -> Location {
        let region = self.trace_loc[traces.trace_of(block).index()].region;
        Location {
            region,
            addr: self.block_addr[block.index()],
        }
    }

    /// Location of a trace's appended glue jump, if it has one.
    pub fn glue_location(&self, trace: TraceId) -> Option<Location> {
        let region = self.trace_loc[trace.index()].region;
        self.glue_addr[trace.index()].map(|addr| Location { region, addr })
    }

    /// Addresses of every instruction of `block`, in fetch order.
    pub fn inst_locations<'a>(
        &'a self,
        program: &'a Program,
        traces: &TraceSet,
        block: BlockId,
    ) -> impl Iterator<Item = (Location, u32)> + 'a {
        let start = self.block_location(traces, block);
        program
            .block(block)
            .insts()
            .iter()
            .scan(start.addr, move |addr, inst| {
                let loc = Location {
                    region: start.region,
                    addr: *addr,
                };
                *addr += inst.size();
                Some((loc, inst.size()))
            })
    }

    /// Total bytes of the main-memory code image (padded).
    pub fn main_image_size(&self) -> u32 {
        self.main_image_size
    }

    /// Bytes used in each scratchpad bank.
    pub fn spm_used(&self) -> &[u32] {
        &self.spm_used
    }

    /// The placement semantics this layout was built with.
    pub fn semantics(&self) -> PlacementSemantics {
        self.semantics
    }

    /// Cache line size the layout was padded for.
    pub fn line_size(&self) -> u32 {
        self.line_size
    }
}

/// Check that a placement fits the given bank capacities, returning
/// the per-bank usage.
///
/// # Errors
///
/// Returns `Err((bank, used, capacity))` for the first overflowing
/// bank.
pub fn check_capacity(
    traces: &TraceSet,
    placement: &[Option<u8>],
    capacities: &[u32],
) -> Result<Vec<u32>, (u8, u32, u32)> {
    let mut used = vec![0u32; capacities.len()];
    for t in traces.traces() {
        if let Some(b) = placement[t.id().index()] {
            used[b as usize] += t.code_size();
        }
    }
    for (b, (&u, &cap)) in used.iter().zip(capacities).enumerate() {
        if u > cap {
            return Err((b as u8, u, cap));
        }
    }
    Ok(used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{form_traces, TraceConfig};
    use casa_ir::inst::{InstKind, IsaMode};
    use casa_ir::{Profile, ProgramBuilder};

    /// Two traces: t0 = {a (3 alu, jump)}, t1 = {b (2 alu, exit)}.
    fn two_trace_setup() -> (Program, TraceSet, BlockId, BlockId) {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let a = bld.block(f);
        let b = bld.block(f);
        bld.push_n(a, InstKind::Alu, 3);
        bld.jump(a, b);
        bld.push_n(b, InstKind::Alu, 2);
        bld.exit(b);
        let p = bld.finish().unwrap();
        let prof = Profile::new();
        let ts = form_traces(
            &p,
            &prof,
            TraceConfig::new(256, 16),
            &casa_obs::Obs::disabled(),
        );
        (p, ts, a, b)
    }

    #[test]
    fn initial_layout_is_aligned_and_sequential() {
        let (p, ts, a, b) = two_trace_setup();
        let l = Layout::initial(&p, &ts);
        // t0: 4 insts = 16B -> padded 16. t1: 2 insts = 8 -> padded 16.
        let la = l.block_location(&ts, a);
        let lb = l.block_location(&ts, b);
        assert_eq!(
            la,
            Location {
                region: Region::Main,
                addr: 0
            }
        );
        assert_eq!(
            lb,
            Location {
                region: Region::Main,
                addr: 16
            }
        );
        assert_eq!(l.main_image_size(), 32);
        assert_eq!(l.spm_used(), &[0]);
    }

    #[test]
    fn copy_semantics_keeps_main_addresses() {
        let (p, ts, a, b) = two_trace_setup();
        let t0 = ts.trace_of(a);
        let placement = {
            let mut v = vec![None; ts.len()];
            v[t0.index()] = Some(0);
            v
        };
        let l = Layout::with_placement(&p, &ts, &placement, PlacementSemantics::Copy);
        // t0 fetched from SPM at 0.
        assert_eq!(
            l.block_location(&ts, a),
            Location {
                region: Region::Spm(0),
                addr: 0
            }
        );
        // t1 keeps its original main address 16 (slot for t0 intact).
        assert_eq!(
            l.block_location(&ts, b),
            Location {
                region: Region::Main,
                addr: 16
            }
        );
        assert_eq!(l.spm_used(), &[16]);
        assert_eq!(l.main_image_size(), 32);
    }

    #[test]
    fn move_semantics_compacts_main_memory() {
        let (p, ts, a, b) = two_trace_setup();
        let t0 = ts.trace_of(a);
        let placement = {
            let mut v = vec![None; ts.len()];
            v[t0.index()] = Some(0);
            v
        };
        let l = Layout::with_placement(&p, &ts, &placement, PlacementSemantics::Move);
        // t1 moves down to address 0: the hole left by t0 is closed.
        assert_eq!(
            l.block_location(&ts, b),
            Location {
                region: Region::Main,
                addr: 0
            }
        );
        assert_eq!(l.main_image_size(), 16);
    }

    #[test]
    fn glue_jump_gets_address_after_blocks() {
        // One block falling through to another with a tight cap, so
        // the first trace carries a glue jump.
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let a = bld.block(f);
        let b = bld.block(f);
        bld.push_n(a, InstKind::Alu, 2);
        bld.fall_through(a, b);
        bld.push(b, InstKind::Alu);
        bld.exit(b);
        let p = bld.finish().unwrap();
        let prof = Profile::new();
        let ts = form_traces(
            &p,
            &prof,
            TraceConfig::new(12, 4),
            &casa_obs::Obs::disabled(),
        );
        let ta = ts.trace_of(a);
        assert_eq!(ts.trace(ta).glue_jump_size(), Some(4));
        let l = Layout::initial(&p, &ts);
        let glue = l.glue_location(ta).expect("glue jump placed");
        // Block a spans [0, 8); glue jump at 8.
        assert_eq!(glue.addr, 8);
        assert_eq!(glue.region, Region::Main);
    }

    #[test]
    fn inst_locations_walk_the_block() {
        let (p, ts, a, _) = two_trace_setup();
        let l = Layout::initial(&p, &ts);
        let addrs: Vec<u32> = l
            .inst_locations(&p, &ts, a)
            .map(|(loc, _)| loc.addr)
            .collect();
        assert_eq!(addrs, vec![0, 4, 8, 12]);
    }

    #[test]
    fn capacity_check_flags_overflow() {
        let (_, ts, a, b) = two_trace_setup();
        let mut placement = vec![None; ts.len()];
        placement[ts.trace_of(a).index()] = Some(0);
        placement[ts.trace_of(b).index()] = Some(0);
        // t0 code 16 + t1 code 8 = 24 > 20.
        let err = check_capacity(&ts, &placement, &[20]).unwrap_err();
        assert_eq!(err, (0, 24, 20));
        let ok = check_capacity(&ts, &placement, &[24]).unwrap();
        assert_eq!(ok, vec![24]);
    }

    #[test]
    fn with_order_reverses_addresses() {
        let (p, ts, a, b) = two_trace_setup();
        let t0 = ts.trace_of(a);
        let t1 = ts.trace_of(b);
        let order = vec![t1, t0];
        let l = Layout::with_order(
            &p,
            &ts,
            &order,
            &vec![None; ts.len()],
            PlacementSemantics::Move,
        );
        // t1 (8 B code, padded 16) first, then t0.
        assert_eq!(l.trace_location(t1).addr, 0);
        assert_eq!(l.trace_location(t0).addr, 16);
        assert_eq!(l.block_location(&ts, b).addr, 0);
        assert_eq!(l.block_location(&ts, a).addr, 16);
    }

    #[test]
    #[should_panic(expected = "duplicate trace")]
    fn with_order_rejects_duplicates() {
        let (p, ts, a, _) = two_trace_setup();
        let t0 = ts.trace_of(a);
        let _ = Layout::with_order(
            &p,
            &ts,
            &[t0, t0],
            &vec![None; ts.len()],
            PlacementSemantics::Copy,
        );
    }

    #[test]
    #[should_panic(expected = "placement must cover")]
    fn wrong_placement_length_panics() {
        let (p, ts, _, _) = two_trace_setup();
        let _ = Layout::with_placement(&p, &ts, &[None], PlacementSemantics::Copy);
    }
}
