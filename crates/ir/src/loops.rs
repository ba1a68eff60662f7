//! Natural-loop analysis and static block-frequency estimation.
//!
//! The out-of-SSA coalescer of the paper weighs copies by the execution
//! frequency of the block they would be placed in ("we use classic profile
//! information to get basic block frequencies", Section III-B). Without a
//! profile, the standard static estimate is used: a block nested in `d`
//! loops gets weight `LOOP_WEIGHT^d`.

use crate::cfg::ControlFlowGraph;
use crate::dominance::DominatorTree;
use crate::entity::{Block, EntitySet, SecondaryMap};
use crate::function::Function;

/// Multiplicative weight given to each level of loop nesting when estimating
/// block frequencies statically.
pub const LOOP_WEIGHT: f64 = 10.0;

/// Natural loops of a function, discovered from back edges
/// (`latch -> header` where `header` dominates `latch`).
#[derive(Clone, Debug, Default)]
pub struct LoopAnalysis {
    /// Loop nesting depth of each block (0 = not in any loop).
    depth: SecondaryMap<Block, u32>,
    /// Header blocks of discovered loops, deduplicated.
    headers: Vec<Block>,
    /// Blocks belonging to each loop, parallel to `headers`.
    bodies: Vec<EntitySet<Block>>,
    /// Retired body sets, recycled by the next recomputation.
    spare_bodies: Vec<EntitySet<Block>>,
    /// Backward-walk scratch of the body collection.
    stack: Vec<Block>,
}

/// Collects the body of the natural loop with header `header` and latch
/// `latch` into `body` (classic backward walk from the latch). Collecting
/// into an already-populated body merges loops sharing a header: a block
/// already in the body stops the walk exactly where the earlier walk
/// continued it.
fn collect_loop_body(
    body: &mut EntitySet<Block>,
    cfg: &ControlFlowGraph,
    header: Block,
    latch: Block,
    stack: &mut Vec<Block>,
) {
    body.insert(header);
    stack.clear();
    stack.push(latch);
    while let Some(block) = stack.pop() {
        if body.insert(block) {
            for &pred in cfg.preds(block) {
                stack.push(pred);
            }
        }
    }
}

impl LoopAnalysis {
    /// Discovers natural loops and nesting depths.
    pub fn compute(func: &Function, cfg: &ControlFlowGraph, domtree: &DominatorTree) -> Self {
        let mut this = Self::default();
        this.recompute(func, cfg, domtree);
        this
    }

    /// Recomputes the analysis in place, reusing the per-block depth map and
    /// the loop body sets of a previous computation (possibly of a different
    /// function). Behaviourally identical to [`LoopAnalysis::compute`]; only
    /// the heap traffic differs — this is what lets an analysis cache
    /// recycle the analysis across the functions of a corpus like every
    /// other CFG-level analysis.
    pub fn recompute(&mut self, func: &Function, cfg: &ControlFlowGraph, domtree: &DominatorTree) {
        while let Some(mut body) = self.bodies.pop() {
            body.reset();
            self.spare_bodies.push(body);
        }
        self.headers.clear();

        for &block in cfg.reverse_post_order() {
            for &succ in cfg.succs(block) {
                if domtree.dominates(succ, block) {
                    // Back edge block -> succ; succ is a loop header.
                    match self.headers.iter().position(|&h| h == succ) {
                        Some(idx) => collect_loop_body(
                            &mut self.bodies[idx],
                            cfg,
                            succ,
                            block,
                            &mut self.stack,
                        ),
                        None => {
                            let mut body = self.spare_bodies.pop().unwrap_or_default();
                            collect_loop_body(&mut body, cfg, succ, block, &mut self.stack);
                            self.headers.push(succ);
                            self.bodies.push(body);
                        }
                    }
                }
            }
        }

        self.depth.truncate(func.num_blocks());
        for slot in self.depth.values_mut() {
            *slot = 0;
        }
        self.depth.resize(func.num_blocks());
        for body in &self.bodies {
            for block in body.iter() {
                self.depth[block] += 1;
            }
        }
    }

    /// Loop nesting depth of `block` (0 when outside all loops).
    pub fn depth(&self, block: Block) -> u32 {
        self.depth[block]
    }

    /// Number of distinct loop headers found.
    pub fn num_loops(&self) -> usize {
        self.headers.len()
    }

    /// Returns `true` if `block` is a loop header.
    pub fn is_header(&self, block: Block) -> bool {
        self.headers.contains(&block)
    }

    /// Returns `true` if `block` belongs to the loop with header `header`.
    pub fn loop_contains(&self, header: Block, block: Block) -> bool {
        self.headers
            .iter()
            .position(|&h| h == header)
            .is_some_and(|idx| self.bodies[idx].contains(block))
    }
}

/// Static block-frequency estimate used as copy weights by the coalescer.
#[derive(Clone, Debug)]
pub struct BlockFrequencies {
    freq: SecondaryMap<Block, f64>,
}

impl Default for BlockFrequencies {
    fn default() -> Self {
        Self { freq: SecondaryMap::with_default(1.0) }
    }
}

impl BlockFrequencies {
    /// Estimates frequencies from loop nesting depth: `LOOP_WEIGHT^depth`.
    pub fn from_loop_depths(func: &Function, loops: &LoopAnalysis) -> Self {
        let mut this = Self::default();
        this.recompute_from_loop_depths(func, loops);
        this
    }

    /// Recomputes the estimate in place, reusing the per-block map of a
    /// previous (possibly different) function — identical to
    /// [`BlockFrequencies::from_loop_depths`] except for the heap traffic.
    pub fn recompute_from_loop_depths(&mut self, func: &Function, loops: &LoopAnalysis) {
        self.freq.truncate(func.num_blocks());
        for slot in self.freq.values_mut() {
            *slot = 1.0;
        }
        self.freq.resize(func.num_blocks());
        for block in func.blocks() {
            self.freq[block] = LOOP_WEIGHT.powi(loops.depth(block) as i32);
        }
    }

    /// Computes loop analysis and frequencies for `func` in one call.
    pub fn compute(func: &Function) -> Self {
        let cfg = ControlFlowGraph::compute(func);
        let domtree = DominatorTree::compute(func, &cfg);
        let loops = LoopAnalysis::compute(func, &cfg, &domtree);
        Self::from_loop_depths(func, &loops)
    }

    /// Estimated execution frequency of `block`.
    pub fn frequency(&self, block: Block) -> f64 {
        self.freq[block]
    }

    /// A small integer that orders blocks exactly as their frequencies do,
    /// so the coalescer can counting-sort its affinities on it.
    pub fn weight_rank(&self, block: Block) -> u32 {
        weight_rank_of(self.freq[block])
    }
}

/// The binary exponent of `freq` above that of 1. Every frequency is
/// `LOOP_WEIGHT^depth` with a weight of at least 2, so each loop level
/// raises the exponent and the exponents order frequencies exactly; the
/// infinity of a depth past `f64`'s range has the largest one.
fn weight_rank_of(freq: f64) -> u32 {
    debug_assert!(freq >= 1.0, "block frequencies are at least 1");
    ((freq.to_bits() >> 52) as u32).saturating_sub(1023)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    /// entry -> outer_header -> inner_header -> inner_body -> inner_header
    ///          outer_header <- outer_latch <- inner_header ; exit
    fn nested_loops() -> (Function, Vec<Block>) {
        let mut b = FunctionBuilder::new("nested", 1);
        let entry = b.create_block();
        let outer = b.create_block();
        let inner = b.create_block();
        let inner_body = b.create_block();
        let outer_latch = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        b.jump(outer);
        b.switch_to_block(outer);
        b.branch(x, inner, exit);
        b.switch_to_block(inner);
        b.branch(x, inner_body, outer_latch);
        b.switch_to_block(inner_body);
        b.jump(inner);
        b.switch_to_block(outer_latch);
        b.jump(outer);
        b.switch_to_block(exit);
        b.ret(None);
        (b.finish(), vec![entry, outer, inner, inner_body, outer_latch, exit])
    }

    fn run(f: &Function) -> (ControlFlowGraph, DominatorTree, LoopAnalysis) {
        let cfg = ControlFlowGraph::compute(f);
        let dom = DominatorTree::compute(f, &cfg);
        let loops = LoopAnalysis::compute(f, &cfg, &dom);
        (cfg, dom, loops)
    }

    #[test]
    fn loop_depths_of_nested_loops() {
        let (f, blocks) = nested_loops();
        let (_, _, loops) = run(&f);
        let [entry, outer, inner, inner_body, outer_latch, exit] = blocks[..] else { panic!() };
        assert_eq!(loops.depth(entry), 0);
        assert_eq!(loops.depth(exit), 0);
        assert_eq!(loops.depth(outer), 1);
        assert_eq!(loops.depth(outer_latch), 1);
        assert_eq!(loops.depth(inner), 2);
        assert_eq!(loops.depth(inner_body), 2);
        assert_eq!(loops.num_loops(), 2);
        assert!(loops.is_header(outer));
        assert!(loops.is_header(inner));
        assert!(!loops.is_header(inner_body));
    }

    #[test]
    fn loop_membership() {
        let (f, blocks) = nested_loops();
        let (_, _, loops) = run(&f);
        let [_, outer, inner, inner_body, outer_latch, exit] = blocks[..] else { panic!() };
        assert!(loops.loop_contains(outer, inner));
        assert!(loops.loop_contains(outer, outer_latch));
        assert!(loops.loop_contains(inner, inner_body));
        assert!(!loops.loop_contains(inner, outer_latch));
        assert!(!loops.loop_contains(outer, exit));
    }

    #[test]
    fn frequencies_follow_nesting() {
        let (f, blocks) = nested_loops();
        let freqs = BlockFrequencies::compute(&f);
        let [entry, outer, inner, ..] = blocks[..] else { panic!() };
        assert_eq!(freqs.frequency(entry), 1.0);
        assert_eq!(freqs.frequency(outer), LOOP_WEIGHT);
        assert_eq!(freqs.frequency(inner), LOOP_WEIGHT * LOOP_WEIGHT);
    }

    #[test]
    fn weight_ranks_order_blocks_as_frequencies_do() {
        // Every depth up to twice the one whose frequency overflows.
        let freq = |depth: u32| LOOP_WEIGHT.powi(depth as i32);
        assert!(freq(400).is_infinite());
        for a in 0..800u32 {
            for b in [a.saturating_sub(1), a, a + 1] {
                let (fa, fb) = (freq(a), freq(b));
                let ranks = weight_rank_of(fa).cmp(&weight_rank_of(fb));
                assert_eq!(ranks, fa.total_cmp(&fb), "depths {a}, {b}");
            }
        }
        let (f, blocks) = nested_loops();
        let freqs = BlockFrequencies::compute(&f);
        let ranks: Vec<u32> = blocks.iter().map(|&b| freqs.weight_rank(b)).collect();
        assert_eq!(ranks[0], 0, "a block outside loops");
        assert!(ranks[0] < ranks[1] && ranks[1] < ranks[2], "entry, outer, inner: {ranks:?}");
        assert_eq!((ranks[1], ranks[2]), (ranks[4], ranks[3]), "same depth, same rank");
    }

    #[test]
    fn function_without_loops_has_unit_frequencies() {
        let mut b = FunctionBuilder::new("flat", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        b.ret(None);
        let f = b.finish();
        let (_, _, loops) = run(&f);
        assert_eq!(loops.num_loops(), 0);
        let freqs = BlockFrequencies::compute(&f);
        assert_eq!(freqs.frequency(entry), 1.0);
    }

    #[test]
    fn self_loop_is_detected() {
        let mut b = FunctionBuilder::new("selfloop", 1);
        let entry = b.create_block();
        let looping = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        b.jump(looping);
        b.switch_to_block(looping);
        b.branch(x, looping, exit);
        b.switch_to_block(exit);
        b.ret(None);
        let f = b.finish();
        let (_, _, loops) = run(&f);
        assert_eq!(loops.depth(looping), 1);
        assert_eq!(loops.depth(entry), 0);
        assert!(loops.is_header(looping));
    }
}
