//! Execution profiles: block and edge execution counts.
//!
//! The CASA workflow (paper fig. 3) profiles the application once; the
//! conflict graph's vertex weights `f_i` (instruction fetches) and the
//! trace-formation heuristic both derive from these counts.

use crate::ids::BlockId;
use crate::program::Program;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Block and edge execution counts for one program run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    block_counts: BTreeMap<BlockId, u64>,
    edge_counts: BTreeMap<(BlockId, BlockId), u64>,
}

/// A flow-conservation violation detected by [`Profile::check_flow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowError {
    /// The block whose counts are inconsistent.
    pub block: BlockId,
    /// The block's execution count.
    pub count: u64,
    /// The sum of its outgoing edge counts.
    pub out_sum: u64,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block {} executed {} times but outgoing edges sum to {}",
            self.block, self.count, self.out_sum
        )
    }
}

impl Error for FlowError {}

impl Profile {
    /// An empty profile (all counts zero).
    pub fn new() -> Self {
        Profile::default()
    }

    /// Record `n` additional executions of `block`.
    #[inline]
    pub fn add_block(&mut self, block: BlockId, n: u64) {
        *self.block_counts.entry(block).or_insert(0) += n;
    }

    /// Record `n` additional traversals of the edge `from -> to`.
    #[inline]
    pub fn add_edge(&mut self, from: BlockId, to: BlockId, n: u64) {
        *self.edge_counts.entry((from, to)).or_insert(0) += n;
    }

    /// Execution count of `block`.
    pub fn block_count(&self, block: BlockId) -> u64 {
        self.block_counts.get(&block).copied().unwrap_or(0)
    }

    /// Traversal count of the edge `from -> to`.
    pub fn edge_count(&self, from: BlockId, to: BlockId) -> u64 {
        self.edge_counts.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Iterate over `(block, count)` pairs with non-zero counts.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, u64)> + '_ {
        self.block_counts.iter().map(|(&b, &c)| (b, c))
    }

    /// Iterate over `((from, to), count)` pairs with non-zero counts.
    pub fn edges(&self) -> impl Iterator<Item = ((BlockId, BlockId), u64)> + '_ {
        self.edge_counts.iter().map(|(&e, &c)| (e, c))
    }

    /// Instruction fetches attributable to `block` in `program`:
    /// `block executions × instructions per execution`.
    pub fn fetches(&self, program: &Program, block: BlockId) -> u64 {
        self.block_count(block) * program.block(block).len() as u64
    }

    /// Total instruction fetches over the whole program.
    pub fn total_fetches(&self, program: &Program) -> u64 {
        self.blocks()
            .map(|(b, c)| c * program.block(b).len() as u64)
            .sum()
    }

    /// Check flow conservation: for every block with successors, the
    /// sum of outgoing edge counts must equal the block count (one
    /// outgoing traversal per execution). Blocks ending in `Return`
    /// or `Exit` are exempt.
    ///
    /// # Errors
    ///
    /// Returns the first violating block.
    pub fn check_flow(&self, program: &Program) -> Result<(), FlowError> {
        for (&block, &count) in &self.block_counts {
            let succs = program.block(block).terminator().successors();
            if succs.is_empty() {
                continue;
            }
            let out_sum: u64 = succs.iter().map(|&s| self.edge_count(block, s)).sum();
            if out_sum != count {
                return Err(FlowError {
                    block,
                    count,
                    out_sum,
                });
            }
        }
        Ok(())
    }

    /// Whether no counts were recorded.
    pub fn is_empty(&self) -> bool {
        self.block_counts.is_empty() && self.edge_counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{InstKind, IsaMode};

    fn loop_program() -> (Program, BlockId, BlockId, BlockId) {
        let mut bld = ProgramBuilder::new(IsaMode::Arm);
        let f = bld.function("f");
        let head = bld.block(f);
        let body = bld.block(f);
        let ex = bld.block(f);
        bld.push(head, InstKind::Alu);
        bld.branch(head, ex, body);
        bld.push_n(body, InstKind::Alu, 2);
        bld.jump(body, head);
        bld.push(ex, InstKind::Alu);
        bld.exit(ex);
        let p = bld.finish().unwrap();
        (p, head, body, ex)
    }

    #[test]
    fn counts_accumulate() {
        let mut prof = Profile::new();
        let b = BlockId::from_raw(0);
        prof.add_block(b, 3);
        prof.add_block(b, 2);
        assert_eq!(prof.block_count(b), 5);
        assert_eq!(prof.block_count(BlockId::from_raw(1)), 0);
    }

    #[test]
    fn fetches_multiply_by_block_len() {
        let (p, head, body, _) = loop_program();
        let mut prof = Profile::new();
        prof.add_block(head, 10);
        prof.add_block(body, 9);
        // head has 2 insts (alu + branch), body has 3 (2 alu + jump).
        assert_eq!(prof.fetches(&p, head), 20);
        assert_eq!(prof.fetches(&p, body), 27);
        assert_eq!(prof.total_fetches(&p), 47);
    }

    #[test]
    fn flow_check_accepts_consistent() {
        let (p, head, body, ex) = loop_program();
        let mut prof = Profile::new();
        // Loop iterates 9 times: head runs 10x, body 9x, ex 1x.
        prof.add_block(head, 10);
        prof.add_block(body, 9);
        prof.add_block(ex, 1);
        prof.add_edge(head, body, 9);
        prof.add_edge(head, ex, 1);
        prof.add_edge(body, head, 9);
        assert!(prof.check_flow(&p).is_ok());
    }

    #[test]
    fn flow_check_rejects_inconsistent() {
        let (p, head, body, ex) = loop_program();
        let mut prof = Profile::new();
        prof.add_block(head, 10);
        prof.add_edge(head, body, 5);
        prof.add_edge(head, ex, 1);
        let err = prof.check_flow(&p).unwrap_err();
        assert_eq!(err.block, head);
        assert_eq!(err.count, 10);
        assert_eq!(err.out_sum, 6);
        assert!(err.to_string().contains("10"));
    }

    #[test]
    fn exit_blocks_exempt_from_flow() {
        let (p, _, _, ex) = loop_program();
        let mut prof = Profile::new();
        prof.add_block(ex, 7);
        assert!(prof.check_flow(&p).is_ok());
    }
}
