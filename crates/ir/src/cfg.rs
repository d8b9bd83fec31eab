//! Control-flow-graph utilities over a [`Program`].
//!
//! All analyses here are *intra-procedural*: call edges contribute the
//! return-to successor (the block that executes next inside the same
//! function) but not an edge into the callee.

use crate::ids::{BlockId, FunctionId};
use crate::program::Program;
use std::collections::VecDeque;

/// Predecessor lists for every block of a program.
#[derive(Debug, Clone)]
pub struct Predecessors {
    preds: Vec<Vec<BlockId>>,
}

impl Predecessors {
    /// Compute predecessors for all blocks.
    pub fn compute(program: &Program) -> Self {
        let mut preds = vec![Vec::new(); program.blocks().len()];
        for block in program.blocks() {
            for succ in block.terminator().successors() {
                preds[succ.index()].push(block.id());
            }
        }
        Predecessors { preds }
    }

    /// The predecessors of `block`.
    pub fn of(&self, block: BlockId) -> &[BlockId] {
        &self.preds[block.index()]
    }
}

/// Blocks of `function` in reverse post-order from its entry.
///
/// Unreachable blocks of the function are appended after the reachable
/// ones, in id order, so the result always covers every owned block.
pub fn reverse_post_order(program: &Program, function: FunctionId) -> Vec<BlockId> {
    let func = program.function(function);
    let entry = func.entry();
    let mut state = vec![Visit::Unseen; program.blocks().len()];
    let mut post = Vec::new();
    // Iterative DFS computing post-order.
    let mut stack = vec![(entry, 0usize)];
    state[entry.index()] = Visit::Open;
    while let Some(&mut (block, ref mut next)) = stack.last_mut() {
        let succs = program.block(block).terminator().successors();
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            if state[s.index()] == Visit::Unseen && program.block(s).function() == function {
                state[s.index()] = Visit::Open;
                stack.push((s, 0));
            }
        } else {
            state[block.index()] = Visit::Done;
            post.push(block);
            stack.pop();
        }
    }
    post.reverse();
    for &b in func.blocks() {
        if state[b.index()] == Visit::Unseen {
            post.push(b);
        }
    }
    post
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    Unseen,
    Open,
    Done,
}

/// Blocks reachable from the entry of `function` (intra-procedural).
pub fn reachable(program: &Program, function: FunctionId) -> Vec<BlockId> {
    let func = program.function(function);
    let entry = func.entry();
    let mut seen = vec![false; program.blocks().len()];
    let mut queue = VecDeque::from([entry]);
    seen[entry.index()] = true;
    let mut out = Vec::new();
    while let Some(b) = queue.pop_front() {
        out.push(b);
        for s in program.block(b).terminator().successors() {
            if !seen[s.index()] && program.block(s).function() == function {
                seen[s.index()] = true;
                queue.push_back(s);
            }
        }
    }
    out
}

/// Immediate dominators for one function, using the Cooper–Harvey–
/// Kennedy iterative algorithm over reverse post-order.
///
/// Returns a map indexed by [`BlockId::index`]; entries for blocks
/// outside `function` (or unreachable within it) are `None`. The entry
/// block dominates itself.
pub fn immediate_dominators(program: &Program, function: FunctionId) -> Vec<Option<BlockId>> {
    immediate_dominators_with(program, function, &Predecessors::compute(program))
}

/// [`immediate_dominators`] over precomputed whole-program `preds`, so
/// a caller analysing every function computes them once.
pub(crate) fn immediate_dominators_with(
    program: &Program,
    function: FunctionId,
    preds: &Predecessors,
) -> Vec<Option<BlockId>> {
    let rpo = reverse_post_order(program, function);
    let entry = program.function(function).entry();
    let mut rpo_index = vec![usize::MAX; program.blocks().len()];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b.index()] = i;
    }
    let mut idom: Vec<Option<BlockId>> = vec![None; program.blocks().len()];
    idom[entry.index()] = Some(entry);

    let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
        while a != b {
            while rpo_index[a.index()] > rpo_index[b.index()] {
                a = idom[a.index()].expect("processed");
            }
            while rpo_index[b.index()] > rpo_index[a.index()] {
                b = idom[b.index()].expect("processed");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip_while(|&&b| b != entry).skip(1) {
            if rpo_index[b.index()] == usize::MAX {
                continue;
            }
            let mut new_idom: Option<BlockId> = None;
            for &p in preds.of(b) {
                if program.block(p).function() != function {
                    continue;
                }
                if idom[p.index()].is_some() {
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
            }
            if let Some(ni) = new_idom {
                if idom[b.index()] != Some(ni) {
                    idom[b.index()] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom
}

/// Whether `a` dominates `b` given an `idom` table from
/// [`immediate_dominators`]. A block dominates itself.
pub fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.index()] {
            Some(parent) if parent != cur => cur = parent,
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{InstKind, IsaMode};

    /// Diamond: e -> a, e -> b, a -> m, b -> m.
    fn diamond() -> (Program, [BlockId; 4]) {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let e = bld.block(f);
        let a = bld.block(f);
        let b = bld.block(f);
        let m = bld.block(f);
        bld.push(e, InstKind::Alu);
        bld.branch(e, a, b);
        bld.push(a, InstKind::Alu);
        bld.jump(a, m);
        bld.push(b, InstKind::Alu);
        bld.fall_through(b, m);
        bld.push(m, InstKind::Alu);
        bld.exit(m);
        (bld.finish().unwrap(), [e, a, b, m])
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let (p, [e, ..]) = diamond();
        let rpo = reverse_post_order(&p, p.entry());
        assert_eq!(rpo[0], e);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn predecessors_of_merge() {
        let (p, [_, a, b, m]) = diamond();
        let preds = Predecessors::compute(&p);
        let mut pm = preds.of(m).to_vec();
        pm.sort();
        assert_eq!(pm, vec![a, b]);
    }

    #[test]
    fn dominators_of_diamond() {
        let (p, [e, a, b, m]) = diamond();
        let idom = immediate_dominators(&p, p.entry());
        assert_eq!(idom[e.index()], Some(e));
        assert_eq!(idom[a.index()], Some(e));
        assert_eq!(idom[b.index()], Some(e));
        assert_eq!(idom[m.index()], Some(e));
        assert!(dominates(&idom, e, m));
        assert!(!dominates(&idom, a, m));
        assert!(dominates(&idom, m, m));
    }

    #[test]
    fn reachable_skips_other_functions() {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let g = bld.function("g");
        let fb = bld.block(f);
        let gb = bld.block(g);
        bld.push(fb, InstKind::Alu);
        bld.call(fb, g, fb); // self-loop through call's return edge
        bld.push(gb, InstKind::Alu);
        bld.ret(gb);
        // The call terminator would retry fb forever semantically, but
        // structurally this is fine for reachability.
        let p = bld.finish().unwrap();
        let r = reachable(&p, f);
        assert_eq!(r, vec![fb]);
    }

    #[test]
    fn linear_chain_dominators() {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let x = bld.block(f);
        let y = bld.block(f);
        let z = bld.block(f);
        bld.push(x, InstKind::Alu);
        bld.fall_through(x, y);
        bld.push(y, InstKind::Alu);
        bld.fall_through(y, z);
        bld.push(z, InstKind::Alu);
        bld.exit(z);
        let p = bld.finish().unwrap();
        let idom = immediate_dominators(&p, f);
        assert_eq!(idom[y.index()], Some(x));
        assert_eq!(idom[z.index()], Some(y));
        assert!(dominates(&idom, x, z));
    }
}
