//! Control-flow graph: cached predecessor/successor lists and traversal
//! orders.
//!
//! Edge lists are stored in compressed sparse-row form (one flat edge array
//! plus per-block offsets, per direction), so recomputing the CFG into
//! recycled storage performs no per-block allocation: the four backing
//! vectors amortize to the corpus high-water mark.

use crate::dominance::DominatorTree;
use crate::entity::{Block, EntityRef, EntitySet};
use crate::function::Function;

/// Compressed sparse-row adjacency: `edges[offsets[b] .. offsets[b + 1]]`
/// are the neighbours of block `b`.
#[derive(Clone, Debug, Default)]
struct Adjacency {
    offsets: Vec<u32>,
    edges: Vec<Block>,
}

impl Adjacency {
    #[inline]
    fn of(&self, block: Block) -> &[Block] {
        let i = block.index();
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.edges[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Cached predecessor and successor lists of a function's CFG, plus reverse
/// post-order.
#[derive(Clone, Debug, Default)]
pub struct ControlFlowGraph {
    succs: Adjacency,
    preds: Adjacency,
    rpo: Vec<Block>,
    /// Position of each reachable block in `rpo` (`u32::MAX` for
    /// unreachable blocks), for O(1) retreating-edge classification.
    rpo_number: Vec<u32>,
    reachable: EntitySet<Block>,
    /// DFS scratch of the traversal-order computation.
    stack: Vec<(Block, u32)>,
}

impl ControlFlowGraph {
    /// Computes the CFG of `func`.
    pub fn compute(func: &Function) -> Self {
        let mut this = Self::default();
        this.recompute(func);
        this
    }

    /// Recomputes the CFG of `func` in place, reusing the edge storage and
    /// the traversal order of a previous computation (possibly of a
    /// *different* function). The result is indistinguishable from
    /// [`ControlFlowGraph::compute`]; only the heap traffic differs — this
    /// is what lets an analysis cache recycle its storage across the
    /// functions of a corpus.
    pub fn recompute(&mut self, func: &Function) {
        let num_blocks = func.num_blocks();

        // Successor CSR: blocks emit their (at most two) successors in
        // index order, so one forward pass fills both arrays.
        self.succs.offsets.clear();
        self.succs.edges.clear();
        self.succs.offsets.reserve(num_blocks + 1);
        self.succs.offsets.push(0);
        for bi in 0..num_blocks {
            let block = Block::new(bi);
            for succ in func.successors_iter(block) {
                self.succs.edges.push(succ);
            }
            self.succs.offsets.push(self.succs.edges.len() as u32);
        }

        // Predecessor CSR: count → prefix-sum → cursor fill → shift, the
        // same in-offsets discipline as the use-site index.
        let offsets = &mut self.preds.offsets;
        offsets.clear();
        offsets.resize(num_blocks + 1, 0);
        for &succ in &self.succs.edges {
            offsets[succ.index() + 1] += 1;
        }
        for i in 0..num_blocks {
            offsets[i + 1] += offsets[i];
        }
        let total = offsets[num_blocks] as usize;
        self.preds.edges.clear();
        self.preds.edges.resize(total, Block::new(0));
        for bi in 0..num_blocks {
            let block = Block::new(bi);
            let (lo, hi) = (self.succs.offsets[bi] as usize, self.succs.offsets[bi + 1] as usize);
            for &succ in &self.succs.edges[lo..hi] {
                let slot = offsets[succ.index()];
                offsets[succ.index()] += 1;
                self.preds.edges[slot as usize] = block;
            }
        }
        for i in (1..=num_blocks).rev() {
            offsets[i] = offsets[i - 1];
        }
        offsets[0] = 0;

        // Post-order DFS from the entry block, accumulated into `rpo` and
        // reversed in place.
        self.rpo.clear();
        self.rpo.reserve(num_blocks);
        self.reachable.reset();
        if func.has_entry() {
            let entry = func.entry();
            // Iterative DFS with an explicit stack of (block, next-successor).
            self.stack.clear();
            self.stack.push((entry, 0));
            self.reachable.insert(entry);
            while let Some(&mut (block, ref mut next)) = self.stack.last_mut() {
                let succs = self.succs.of(block);
                if (*next as usize) < succs.len() {
                    let succ = succs[*next as usize];
                    *next += 1;
                    if self.reachable.insert(succ) {
                        self.stack.push((succ, 0));
                    }
                } else {
                    self.rpo.push(block);
                    self.stack.pop();
                }
            }
        }
        self.rpo.reverse();

        // Invert the order into per-block positions, into recycled storage.
        self.rpo_number.clear();
        self.rpo_number.resize(num_blocks, u32::MAX);
        for (i, &block) in self.rpo.iter().enumerate() {
            self.rpo_number[block.index()] = i as u32;
        }
    }

    /// Successors of `block`.
    #[inline]
    pub fn succs(&self, block: Block) -> &[Block] {
        self.succs.of(block)
    }

    /// Predecessors of `block`.
    #[inline]
    pub fn preds(&self, block: Block) -> &[Block] {
        self.preds.of(block)
    }

    /// Blocks reachable from the entry, in reverse post-order.
    pub fn reverse_post_order(&self) -> &[Block] {
        &self.rpo
    }

    /// Blocks reachable from the entry, in post-order.
    pub fn post_order(&self) -> impl Iterator<Item = Block> + '_ {
        self.rpo.iter().rev().copied()
    }

    /// Returns `true` if `block` is reachable from the entry block.
    pub fn is_reachable(&self, block: Block) -> bool {
        self.reachable.contains(block)
    }

    /// Number of reachable blocks.
    pub fn num_reachable(&self) -> usize {
        self.rpo.len()
    }

    /// Iterates over all edges `(pred, succ)` of reachable blocks.
    pub fn edges(&self) -> impl Iterator<Item = (Block, Block)> + '_ {
        self.rpo.iter().flat_map(move |&b| self.succs(b).iter().map(move |&s| (b, s)))
    }

    /// Position of `block` in the reverse post-order, or `None` if it is
    /// unreachable.
    #[inline]
    pub fn rpo_number(&self, block: Block) -> Option<u32> {
        match self.rpo_number.get(block.index()) {
            Some(&n) if n != u32::MAX => Some(n),
            _ => None,
        }
    }

    /// Returns `true` if the reachable CFG is reducible: every *retreating*
    /// edge `s -> t` (one going against the reverse post-order, i.e.
    /// `rpo_number(t) <= rpo_number(s)`) is a genuine *back* edge whose
    /// target dominates its source. On a reducible CFG the two notions
    /// coincide; a retreating edge into a multi-entry cycle — whose target
    /// does *not* dominate its source — is exactly what breaks the acyclic
    /// "reduced graph" assumption of the fast liveness checker, so callers
    /// use this test to fall back to the data-flow liveness sets.
    ///
    /// Runs in O(edges) with no allocation (`DominatorTree::dominates` is
    /// O(1)); `domtree` must belong to the same CFG.
    pub fn is_reducible(&self, domtree: &DominatorTree) -> bool {
        self.edges().all(|(s, t)| {
            self.rpo_number[t.index()] > self.rpo_number[s.index()] || domtree.dominates(t, s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instruction::CmpOp;

    /// entry -> {then, else} -> join -> exit ; plus an unreachable block.
    fn diamond() -> (Function, Vec<Block>) {
        let mut b = FunctionBuilder::new("diamond", 1);
        let entry = b.create_block();
        let then_bb = b.create_block();
        let else_bb = b.create_block();
        let join = b.create_block();
        let dead = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        b.branch(c, then_bb, else_bb);
        b.switch_to_block(then_bb);
        b.jump(join);
        b.switch_to_block(else_bb);
        b.jump(join);
        b.switch_to_block(join);
        b.ret(None);
        b.switch_to_block(dead);
        b.ret(None);
        (b.finish(), vec![entry, then_bb, else_bb, join, dead])
    }

    #[test]
    fn preds_and_succs() {
        let (f, blocks) = diamond();
        let cfg = ControlFlowGraph::compute(&f);
        assert_eq!(cfg.succs(blocks[0]), &[blocks[1], blocks[2]]);
        assert_eq!(cfg.preds(blocks[3]), &[blocks[1], blocks[2]]);
        assert!(cfg.preds(blocks[0]).is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_skips_unreachable() {
        let (f, blocks) = diamond();
        let cfg = ControlFlowGraph::compute(&f);
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], blocks[0]);
        assert_eq!(rpo.len(), 4);
        assert!(!rpo.contains(&blocks[4]));
        assert!(cfg.is_reachable(blocks[3]));
        assert!(!cfg.is_reachable(blocks[4]));
        // RPO property: every block appears after at least one predecessor
        // (except the entry and loop headers; there are no loops here).
        for (i, &b) in rpo.iter().enumerate().skip(1) {
            assert!(cfg.preds(b).iter().any(|p| rpo[..i].contains(p)));
        }
    }

    #[test]
    fn edges_iterator_counts() {
        let (f, _) = diamond();
        let cfg = ControlFlowGraph::compute(&f);
        assert_eq!(cfg.edges().count(), 4);
    }

    #[test]
    fn rpo_numbers_invert_the_order() {
        let (f, blocks) = diamond();
        let cfg = ControlFlowGraph::compute(&f);
        for (i, &b) in cfg.reverse_post_order().iter().enumerate() {
            assert_eq!(cfg.rpo_number(b), Some(i as u32));
        }
        assert_eq!(cfg.rpo_number(blocks[4]), None);
    }

    #[test]
    fn reducible_shapes_are_detected() {
        // A diamond (acyclic) and a natural loop are both reducible.
        let (f, _) = diamond();
        let cfg = ControlFlowGraph::compute(&f);
        let domtree = DominatorTree::compute(&f, &cfg);
        assert!(cfg.is_reducible(&domtree));

        let mut b = FunctionBuilder::new("loop", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        b.jump(header);
        b.switch_to_block(header);
        b.branch(n, body, exit);
        b.switch_to_block(body);
        b.jump(header);
        b.switch_to_block(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = ControlFlowGraph::compute(&f);
        let domtree = DominatorTree::compute(&f, &cfg);
        assert!(cfg.is_reducible(&domtree));
    }

    #[test]
    fn multi_entry_cycle_is_irreducible() {
        // entry branches into both halves of the cycle a <-> b: whichever of
        // the two the DFS visits second is the target of a retreating edge
        // whose source it does not dominate.
        let mut bld = FunctionBuilder::new("irred", 1);
        let entry = bld.create_block();
        let a = bld.create_block();
        let b = bld.create_block();
        bld.set_entry(entry);
        bld.switch_to_block(entry);
        let x = bld.param(0);
        bld.branch(x, a, b);
        bld.switch_to_block(a);
        bld.jump(b);
        bld.switch_to_block(b);
        bld.jump(a);
        let f = bld.finish();
        let cfg = ControlFlowGraph::compute(&f);
        let domtree = DominatorTree::compute(&f, &cfg);
        assert!(!cfg.is_reducible(&domtree));
    }

    #[test]
    fn loop_rpo_contains_all_blocks_once() {
        let mut b = FunctionBuilder::new("loop", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        b.jump(header);
        b.switch_to_block(header);
        b.branch(n, body, exit);
        b.switch_to_block(body);
        b.jump(header);
        b.switch_to_block(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = ControlFlowGraph::compute(&f);
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], entry);
        let mut sorted: Vec<_> = rpo.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }
}
