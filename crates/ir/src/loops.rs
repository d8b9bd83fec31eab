//! Natural-loop detection.
//!
//! The preloaded-loop-cache baseline (Ross / Gordon-Ross & Vahid,
//! IEEE CAL 2002) preloads *loops and functions*; this module finds
//! the loops. A natural loop is identified by a back edge `n -> h`
//! where `h` dominates `n`; its body is every block that can reach `n`
//! without passing through `h`, plus `h` itself.

use crate::cfg::{self, Predecessors};
use crate::ids::{BlockId, FunctionId};
use crate::program::Program;
use serde::{Deserialize, Serialize};

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the body).
    pub header: BlockId,
    /// The source of the back edge that defines this loop.
    pub back_edge_source: BlockId,
    /// All blocks in the loop body, header first, rest in id order.
    pub body: Vec<BlockId>,
    /// The function containing the loop.
    pub function: FunctionId,
}

impl NaturalLoop {
    /// Total size of the loop body in bytes.
    pub fn size(&self, program: &Program) -> u32 {
        self.body.iter().map(|&b| program.block(b).size()).sum()
    }

    /// Whether `block` belongs to this loop.
    pub fn contains(&self, block: BlockId) -> bool {
        self.body.contains(&block)
    }

    /// Number of blocks in the body.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty (never true for a real loop).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

/// Find all natural loops of `function`.
///
/// Loops sharing a header (multiple back edges to the same block) are
/// merged into one loop whose body is the union, matching the usual
/// compiler treatment.
pub fn natural_loops(program: &Program, function: FunctionId) -> Vec<NaturalLoop> {
    natural_loops_with(program, function, &Predecessors::compute(program))
}

/// Find all natural loops of every function in the program.
pub fn all_natural_loops(program: &Program) -> Vec<NaturalLoop> {
    let preds = Predecessors::compute(program);
    program
        .functions()
        .iter()
        .flat_map(|f| natural_loops_with(program, f.id(), &preds))
        .collect()
}

/// [`natural_loops`] over precomputed whole-program `preds`, shared by
/// the dominator pass and the body walks.
fn natural_loops_with(
    program: &Program,
    function: FunctionId,
    preds: &Predecessors,
) -> Vec<NaturalLoop> {
    let idom = cfg::immediate_dominators_with(program, function, preds);
    // Body membership of the walk in progress, by block index; reset
    // after each walk.
    let mut in_body = vec![false; program.blocks().len()];
    let mut by_header: Vec<(BlockId, BlockId, Vec<BlockId>)> = Vec::new();

    for &n in program.function(function).blocks() {
        for h in program.block(n).terminator().successors() {
            if program.block(h).function() != function {
                continue;
            }
            if cfg::dominates(&idom, h, n) {
                // Back edge n -> h. Collect body by reverse walk from n.
                let mut body = vec![h];
                in_body[h.index()] = true;
                let mut stack = vec![n];
                while let Some(b) = stack.pop() {
                    if in_body[b.index()] {
                        continue;
                    }
                    in_body[b.index()] = true;
                    body.push(b);
                    for &p in preds.of(b) {
                        if program.block(p).function() == function {
                            stack.push(p);
                        }
                    }
                }
                for &b in &body {
                    in_body[b.index()] = false;
                }
                // A header's bodies are unioned; duplicates go with the
                // sort below.
                if let Some(entry) = by_header.iter_mut().find(|(hh, _, _)| *hh == h) {
                    entry.2.extend(body);
                } else {
                    by_header.push((h, n, body));
                }
            }
        }
    }

    by_header
        .into_iter()
        .map(|(header, back_edge_source, mut body)| {
            body.retain(|&b| b != header);
            body.sort_unstable();
            body.dedup();
            body.insert(0, header);
            NaturalLoop {
                header,
                back_edge_source,
                body,
                function,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{InstKind, IsaMode};

    /// pre -> head -> body -> head (loop), head -> exit.
    fn simple_loop() -> (Program, [BlockId; 4]) {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let pre = bld.block(f);
        let head = bld.block(f);
        let body = bld.block(f);
        let ex = bld.block(f);
        bld.push(pre, InstKind::Alu);
        bld.fall_through(pre, head);
        bld.push(head, InstKind::Alu);
        bld.branch(head, ex, body); // exit when taken, else loop body
        bld.push_n(body, InstKind::Alu, 3);
        bld.jump(body, head);
        bld.push(ex, InstKind::Alu);
        bld.exit(ex);
        (bld.finish().unwrap(), [pre, head, body, ex])
    }

    #[test]
    fn finds_single_loop() {
        let (p, [_, head, body, _]) = simple_loop();
        let loops = natural_loops(&p, p.entry());
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, head);
        assert_eq!(l.back_edge_source, body);
        assert!(l.contains(head));
        assert!(l.contains(body));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn loop_size_sums_blocks() {
        let (p, _) = simple_loop();
        let loops = natural_loops(&p, p.entry());
        let l = &loops[0];
        // head: alu + branch = 2 insts; body: 3 alu + jump = 4 insts.
        assert_eq!(l.size(&p), (2 + 4) * 4);
    }

    #[test]
    fn nested_loops_found_separately() {
        // outer_head -> inner_head -> inner_body -> inner_head
        //            inner_head -> latch -> outer_head, latch -> exit
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let oh = bld.block(f);
        let ih = bld.block(f);
        let ib = bld.block(f);
        let latch = bld.block(f);
        let ex = bld.block(f);
        bld.push(oh, InstKind::Alu);
        bld.fall_through(oh, ih);
        bld.push(ih, InstKind::Alu);
        bld.branch(ih, latch, ib);
        bld.push(ib, InstKind::Alu);
        bld.jump(ib, ih);
        bld.push(latch, InstKind::Alu);
        bld.branch(latch, oh, ex);
        bld.push(ex, InstKind::Alu);
        bld.exit(ex);
        let p = bld.finish().unwrap();
        let mut loops = natural_loops(&p, f);
        loops.sort_by_key(|l| l.body.len());
        assert_eq!(loops.len(), 2);
        // Inner loop: {ih, ib}.
        assert_eq!(loops[0].header, ih);
        assert_eq!(loops[0].len(), 2);
        // Outer loop: {oh, ih, ib, latch}.
        assert_eq!(loops[1].header, oh);
        assert_eq!(loops[1].len(), 4);
        assert!(loops[1].contains(ib));
    }

    #[test]
    fn back_edges_to_one_header_merge_into_one_loop() {
        // pre -> head; head -> a | b; a -> head; b -> head | ex.
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let pre = bld.block(f);
        let head = bld.block(f);
        let a = bld.block(f);
        let b = bld.block(f);
        let ex = bld.block(f);
        bld.push(pre, InstKind::Alu);
        bld.fall_through(pre, head);
        bld.push(head, InstKind::Alu);
        bld.branch(head, b, a);
        bld.push(a, InstKind::Alu);
        bld.jump(a, head);
        bld.push(b, InstKind::Alu);
        bld.branch(b, head, ex);
        bld.push(ex, InstKind::Alu);
        bld.exit(ex);
        let p = bld.finish().unwrap();
        let loops = natural_loops(&p, f);
        assert_eq!(loops.len(), 1, "{loops:?}");
        let l = &loops[0];
        assert_eq!(l.header, head);
        // The first back edge in block order defines the loop.
        assert_eq!(l.back_edge_source, a);
        // Header first, then the union of both bodies in id order,
        // each block once.
        assert_eq!(l.body, vec![head, a, b]);
        assert_eq!(all_natural_loops(&p), loops);
    }

    #[test]
    fn no_loops_in_dag() {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let a = bld.block(f);
        let b = bld.block(f);
        bld.push(a, InstKind::Alu);
        bld.fall_through(a, b);
        bld.push(b, InstKind::Alu);
        bld.exit(b);
        let p = bld.finish().unwrap();
        assert!(natural_loops(&p, f).is_empty());
    }

    #[test]
    fn all_natural_loops_spans_functions() {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let g = bld.function("g");
        // f: self-loop block.
        let fb = bld.block(f);
        bld.push(fb, InstKind::Alu);
        bld.branch(fb, fb, fb);
        // g: straight line.
        let gb = bld.block(g);
        bld.push(gb, InstKind::Alu);
        bld.ret(gb);
        let p = bld.finish().unwrap();
        let loops = all_natural_loops(&p);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].function, f);
        assert_eq!(loops[0].header, fb);
    }
}
