//! Fast liveness *checking* without liveness sets.
//!
//! This is the reproduction of the query-based liveness of Boissinot et al.,
//! "Fast Liveness Checking for SSA-Form Programs" (CGO 2008), which the
//! out-of-SSA paper uses as its `LiveCheck` option. The pre-computed data
//! depends only on the control-flow graph (two bit-sets per basic block), so
//! it stays valid while instructions are inserted or removed — exactly the
//! property the out-of-SSA translation needs when it inserts copies. The
//! per-value part of a query (definition site, use sites) is *not* stored
//! here: it is read from a shared [`LiveRangeInfo`], which the analysis
//! manager invalidates independently when instructions change.
//!
//! The query `is_live_in(q, a)` is answered from two bit-sets per block:
//!
//! * `reduced_reach[q]` — blocks reachable from `q` using only *forward*
//!   edges (back edges, whose target dominates their source, are removed),
//! * `back_targets[q]` — the headers of the natural loops that contain `q`
//!   (its enclosing loop headers).
//!
//! `a` is live-in at `q` iff the definition of `a` strictly dominates `q`
//! (SSA live ranges live in the dominance region of their definition) and
//! some use of `a` lies in the reduced reach of one block: the outermost
//! header in `back_targets[q]` that the definition strictly dominates, or
//! `q` itself when there is none. φ uses count at the end of their
//! predecessor block.
//!
//! A query probes that one block. The enclosing headers of `q` form a
//! dominance chain, and on a reducible CFG a block's reduced reach covers
//! every block it dominates. A path from `q` that avoids the definition can
//! only climb back edges to headers of loops containing `q` inside the
//! definition's region, and all of those lie in the reduced reach of the
//! outermost one. This is the loop-nesting-forest view of SSA liveness
//! (Boissinot et al., "A Non-iterative Data-Flow Algorithm for Computing
//! Liveness Sets in Strict SSA Programs", APLAS 2011).
//!
//! The precomputation does not iterate. Reduced reachability is one pass in
//! post-order, since the reduced graph is acyclic. The enclosing headers
//! come from one backward walk per back edge `s → t`: from `s` over
//! predecessors inside `t`'s dominance region until `t`, inserting `t` into
//! the set of every block visited. That set is the walk's visited mark.
//!
//! The construction assumes a *reducible* CFG (every retreating edge has a
//! target that dominates its source). The synthetic workloads of
//! `ossa-cfggen` and all hand-written tests are reducible; the data-flow
//! [`crate::sets::LivenessSets`] remains available for arbitrary graphs.

use ossa_ir::entity::{Block, EntitySet, SecondaryMap, Value};
use ossa_ir::{ControlFlowGraph, DominatorTree, Function};

use crate::intersect::LiveRangeInfo;
use crate::uses::UseSite;
use crate::BlockLiveness;

/// Query-based liveness checker (the paper's `LiveCheck`).
///
/// Holds only the CFG-dependent precomputation; per-value definition and use
/// information comes from the [`LiveRangeInfo`] passed to each query.
#[derive(Clone, Debug, Default)]
pub struct FastLiveness {
    /// Reachability over forward (non-back) edges, including the block itself.
    reduced_reach: SecondaryMap<Block, EntitySet<Block>>,
    /// Headers of the natural loops containing each block.
    back_targets: SecondaryMap<Block, EntitySet<Block>>,
    num_blocks: usize,
    /// Working storage, kept so a recycled checker
    /// ([`FastLiveness::recompute`]) performs no allocation; never read
    /// after the computation finishes.
    scratch: CheckScratch,
}

/// The recycled working storage of one checker computation.
#[derive(Clone, Debug, Default)]
struct CheckScratch {
    /// The reduced reach under construction.
    set: EntitySet<Block>,
    /// Blocks of the natural loop walk whose predecessors are unvisited.
    walk: Vec<Block>,
}

impl FastLiveness {
    /// Builds the checker from the CFG and dominator tree alone.
    pub fn compute(func: &Function, cfg: &ControlFlowGraph, domtree: &DominatorTree) -> Self {
        let mut this = Self::default();
        this.recompute(func, cfg, domtree);
        this
    }

    /// Recomputes the checker in place, reusing the per-block bit-sets and
    /// working storage of a previous computation (possibly of a different
    /// function). The result — including the reported
    /// [`FastLiveness::footprint_bytes`] — is indistinguishable from
    /// [`FastLiveness::compute`]; only the heap traffic differs.
    pub fn recompute(&mut self, func: &Function, cfg: &ControlFlowGraph, domtree: &DominatorTree) {
        let num_blocks = func.num_blocks();
        // Reset every materialized slot but keep its word buffer (the reset
        // is O(1)); a later, larger function reuses the retained bit-sets.
        for set in self.reduced_reach.values_mut() {
            set.reset();
        }
        for set in self.back_targets.values_mut() {
            set.reset();
        }
        self.reduced_reach.resize(num_blocks);
        self.back_targets.resize(num_blocks);
        self.num_blocks = num_blocks;

        // Post-order, so forward successors are final first: the reduced
        // graph is acyclic for reducible CFGs. An edge s -> t is a back edge
        // when t dominates s; each one marks its natural loop instead.
        let Self { reduced_reach, back_targets, scratch, .. } = self;
        let CheckScratch { set, walk } = scratch;
        set.reset();
        for block in cfg.post_order() {
            set.clear();
            set.insert(block);
            for &succ in cfg.succs(block) {
                if domtree.dominates(succ, block) {
                    mark_natural_loop(cfg, domtree, back_targets, walk, block, succ);
                } else {
                    set.insert(succ);
                    set.union_with(&reduced_reach[succ]);
                }
            }
            reduced_reach[block].clone_from_set(set);
        }
    }

    /// Builds the checker, computing CFG and dominator tree internally.
    pub fn of(func: &Function) -> Self {
        let cfg = ControlFlowGraph::compute(func);
        let domtree = DominatorTree::compute(func, &cfg);
        Self::compute(func, &cfg, &domtree)
    }

    fn use_reachable_from(
        &self,
        domtree: &DominatorTree,
        q: Block,
        def_pre: u32,
        uses: &[UseSite],
    ) -> bool {
        // The definition and every enclosing header of q dominate q, so they
        // lie on one dominator-tree path: a header is strictly dominated by
        // the definition iff its preorder number is larger. The outermost
        // such header has the smallest number.
        let (mut source, mut source_pre) = (q, u32::MAX);
        for t in self.back_targets[q].iter() {
            let pre = domtree.preorder_number(t);
            if pre > def_pre && pre < source_pre {
                (source, source_pre) = (t, pre);
            }
        }
        let reach = &self.reduced_reach[source];
        uses.iter().any(|site| reach.contains(site.block))
    }

    /// Returns `true` if `value` is live at the entry of `block`, reading the
    /// definition and use sites from `info`.
    pub fn is_live_in_query(
        &self,
        domtree: &DominatorTree,
        info: &LiveRangeInfo,
        block: Block,
        value: Value,
    ) -> bool {
        let Some(def) = info.def(value) else { return false };
        let uses = info.uses().uses_of(value);
        domtree.strictly_dominates(def.block, block)
            && !uses.is_empty()
            && self.use_reachable_from(domtree, block, domtree.preorder_number(def.block), uses)
    }

    /// Returns `true` if `value` is live at the exit of `block`.
    pub fn is_live_out_query(
        &self,
        cfg: &ControlFlowGraph,
        domtree: &DominatorTree,
        info: &LiveRangeInfo,
        block: Block,
        value: Value,
    ) -> bool {
        // φ uses on outgoing edges make the value live-out directly; the use
        // index records them at the end of the predecessor block, so no walk
        // over the successors' φs (and no per-query allocation) is needed.
        let uses = info.uses().uses_of(value);
        if uses.iter().any(|s| s.block == block && s.is_phi_edge_use()) {
            return true;
        }
        let Some(def) = info.def(value) else { return false };
        self.is_live_in_at_a_successor(cfg, domtree, block, def.block, uses)
    }

    /// Returns `true` if a value defined in `def_block` and used at `uses`
    /// is live at the entry of some successor of `block`: the live-out
    /// query past the φ-edge uses, which callers holding the definition and
    /// the use slice ask directly ([`BlockLiveness::is_live_out_past_uses`]).
    fn is_live_in_at_a_successor(
        &self,
        cfg: &ControlFlowGraph,
        domtree: &DominatorTree,
        block: Block,
        def_block: Block,
        uses: &[UseSite],
    ) -> bool {
        if uses.is_empty() {
            return false;
        }
        let def_pre = domtree.preorder_number(def_block);
        cfg.succs(block).iter().any(|&succ| {
            domtree.strictly_dominates(def_block, succ)
                && self.use_reachable_from(domtree, succ, def_pre, uses)
        })
    }

    /// Bundles this checker with the analyses its queries need, yielding a
    /// [`BlockLiveness`] oracle.
    pub fn query<'a>(
        &'a self,
        cfg: &'a ControlFlowGraph,
        domtree: &'a DominatorTree,
        info: &'a LiveRangeInfo,
    ) -> FastLivenessQuery<'a> {
        FastLivenessQuery { cfg, domtree, info, checker: self }
    }

    /// Number of blocks covered by the precomputation.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Bytes used by the two per-block bit-sets (the measured footprint of
    /// the `LiveCheck` structures in Figure 7).
    pub fn footprint_bytes(&self) -> usize {
        (0..self.num_blocks)
            .map(Block::from_index)
            .map(|b| {
                self.reduced_reach[b].footprint_bytes() + self.back_targets[b].footprint_bytes()
            })
            .sum()
    }
}

/// Inserts `header` into the enclosing-header set of every block of the
/// natural loop of the back edge `latch -> header`: a walk backward over
/// predecessors from `latch`, inside `header`'s dominance region, that stops
/// at `header`. Blocks already holding `header` (from another back edge to
/// it) are not walked again.
fn mark_natural_loop(
    cfg: &ControlFlowGraph,
    domtree: &DominatorTree,
    back_targets: &mut SecondaryMap<Block, EntitySet<Block>>,
    walk: &mut Vec<Block>,
    latch: Block,
    header: Block,
) {
    back_targets[header].insert(header);
    if back_targets[latch].insert(header) {
        walk.push(latch);
    }
    while let Some(block) = walk.pop() {
        for &pred in cfg.preds(block) {
            if domtree.dominates(header, pred) && back_targets[pred].insert(header) {
                walk.push(pred);
            }
        }
    }
}

/// A [`BlockLiveness`] adaptor bundling a [`FastLiveness`] checker with the
/// function and analyses it needs for queries. Created by
/// [`FastLiveness::query`].
#[derive(Clone, Debug)]
pub struct FastLivenessQuery<'a> {
    cfg: &'a ControlFlowGraph,
    domtree: &'a DominatorTree,
    info: &'a LiveRangeInfo,
    checker: &'a FastLiveness,
}

impl<'a> FastLivenessQuery<'a> {
    /// Access to the underlying checker (e.g. for footprint statistics).
    pub fn checker(&self) -> &FastLiveness {
        self.checker
    }
}

impl BlockLiveness for FastLivenessQuery<'_> {
    #[inline]
    fn is_live_in(&self, block: Block, value: Value) -> bool {
        self.checker.is_live_in_query(self.domtree, self.info, block, value)
    }

    #[inline]
    fn is_live_out(&self, block: Block, value: Value) -> bool {
        self.checker.is_live_out_query(self.cfg, self.domtree, self.info, block, value)
    }

    #[inline]
    fn is_live_out_past_uses(
        &self,
        block: Block,
        _value: Value,
        def_block: Block,
        uses: &[UseSite],
    ) -> bool {
        self.checker.is_live_in_at_a_successor(self.cfg, self.domtree, block, def_block, uses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::LivenessSets;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, CmpOp};

    fn check_agreement(func: &Function) {
        let cfg = ControlFlowGraph::compute(func);
        let domtree = DominatorTree::compute(func, &cfg);
        let sets = LivenessSets::compute(func, &cfg);
        let info = LiveRangeInfo::compute(func);
        let checker = FastLiveness::compute(func, &cfg, &domtree);
        let fast = checker.query(&cfg, &domtree, &info);
        for block in cfg.reverse_post_order() {
            for value in func.values() {
                assert_eq!(
                    sets.is_live_in(*block, value),
                    fast.is_live_in(*block, value),
                    "live-in mismatch for {value} at {block} in {}",
                    func.name
                );
                assert_eq!(
                    sets.is_live_out(*block, value),
                    fast.is_live_out(*block, value),
                    "live-out mismatch for {value} at {block} in {}",
                    func.name
                );
            }
        }
    }

    #[test]
    fn agrees_with_dataflow_on_diamond() {
        let mut b = FunctionBuilder::new("diamond", 1);
        let entry = b.create_block();
        let t = b.create_block();
        let e = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        b.branch(c, t, e);
        b.switch_to_block(t);
        let a = b.binary(BinaryOp::Add, x, x);
        b.jump(join);
        b.switch_to_block(e);
        let s = b.binary(BinaryOp::Sub, x, zero);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(t, a), (e, s)]);
        let r = b.binary(BinaryOp::Add, m, x);
        b.ret(Some(r));
        check_agreement(&b.finish());
    }

    #[test]
    fn agrees_with_dataflow_on_loop() {
        let mut b = FunctionBuilder::new("loop", 2);
        let entry = b.create_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        let start = b.param(1);
        b.jump(header);
        b.switch_to_block(header);
        let i_next = b.declare_value();
        let i = b.phi(vec![(entry, start), (body, i_next)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        let one = b.iconst(1);
        b.func_mut().append_inst(
            body,
            ossa_ir::InstData::Binary { op: BinaryOp::Add, dst: i_next, args: [i, one] },
        );
        b.jump(header);
        b.switch_to_block(exit);
        b.ret(Some(i));
        check_agreement(&b.finish());
    }

    #[test]
    fn agrees_with_dataflow_on_nested_loops() {
        let mut b = FunctionBuilder::new("nested", 1);
        let entry = b.create_block();
        let outer = b.create_block();
        let inner = b.create_block();
        let inner_body = b.create_block();
        let outer_latch = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        let zero = b.iconst(0);
        b.jump(outer);
        b.switch_to_block(outer);
        let acc_outer_next = b.declare_value();
        let acc_outer = b.phi(vec![(entry, zero), (outer_latch, acc_outer_next)]);
        let c1 = b.cmp(CmpOp::Lt, acc_outer, n);
        b.branch(c1, inner, exit);
        b.switch_to_block(inner);
        let acc_inner_next = b.declare_value();
        let acc_inner = b.phi(vec![(outer, acc_outer), (inner_body, acc_inner_next)]);
        let c2 = b.cmp(CmpOp::Lt, acc_inner, n);
        b.branch(c2, inner_body, outer_latch);
        b.switch_to_block(inner_body);
        let one = b.iconst(1);
        b.func_mut().append_inst(
            inner_body,
            ossa_ir::InstData::Binary {
                op: BinaryOp::Add,
                dst: acc_inner_next,
                args: [acc_inner, one],
            },
        );
        b.jump(inner);
        b.switch_to_block(outer_latch);
        let two = b.iconst(2);
        b.func_mut().append_inst(
            outer_latch,
            ossa_ir::InstData::Binary {
                op: BinaryOp::Add,
                dst: acc_outer_next,
                args: [acc_inner, two],
            },
        );
        b.jump(outer);
        b.switch_to_block(exit);
        b.ret(Some(acc_outer));
        check_agreement(&b.finish());
    }

    #[test]
    fn a_sibling_loop_the_definition_dominates_is_not_reached_from_outside() {
        // An outer loop H whose body defines `a` in D, then runs an inner
        // loop L that uses `a`, then reaches the latch M. From M, every path
        // to L passes through D, so `a` is dead at M, although M reaches
        // the back edge to H and H reaches L by forward edges.
        let mut b = FunctionBuilder::new("siblings", 1);
        let entry = b.create_block();
        let h = b.create_block();
        let d = b.create_block();
        let l = b.create_block();
        let body = b.create_block();
        let m = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        let zero = b.iconst(0);
        b.jump(h);
        b.switch_to_block(h);
        let i_next = b.declare_value();
        let i = b.phi(vec![(entry, zero), (m, i_next)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, d, exit);
        b.switch_to_block(d);
        let a = b.binary(BinaryOp::Add, i, n);
        b.jump(l);
        b.switch_to_block(l);
        let j_next = b.declare_value();
        let j = b.phi(vec![(d, zero), (body, j_next)]);
        let c2 = b.cmp(CmpOp::Lt, j, a);
        b.branch(c2, body, m);
        b.switch_to_block(body);
        b.binary_to(BinaryOp::Add, j_next, j, n);
        b.jump(l);
        b.switch_to_block(m);
        b.binary_to(BinaryOp::Add, i_next, i, n);
        b.jump(h);
        b.switch_to_block(exit);
        b.ret(Some(i));
        let f = b.finish();
        check_agreement(&f);
        let fast = FastLiveness::of(&f);
        let cfg = ControlFlowGraph::compute(&f);
        let domtree = DominatorTree::compute(&f, &cfg);
        let info = LiveRangeInfo::compute(&f);
        assert!(!fast.is_live_in_query(&domtree, &info, m, a));
        assert!(fast.is_live_in_query(&domtree, &info, body, a));
    }

    #[test]
    fn unused_and_unreachable_values_are_not_live() {
        let mut b = FunctionBuilder::new("dead", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let dead = b.iconst(1);
        b.ret(None);
        let f = b.finish();
        let cfg = ControlFlowGraph::compute(&f);
        let domtree = DominatorTree::compute(&f, &cfg);
        let info = LiveRangeInfo::compute(&f);
        let checker = FastLiveness::compute(&f, &cfg, &domtree);
        let fast = checker.query(&cfg, &domtree, &info);
        assert!(!fast.is_live_in(entry, dead));
        assert!(!fast.is_live_out(entry, dead));
    }

    #[test]
    fn precomputation_survives_instruction_mutation() {
        // The CFG-only precomputation stays valid while instructions are
        // inserted, as long as the block structure is unchanged — the
        // property the out-of-SSA translation exploits.
        let mut b = FunctionBuilder::new("mutate", 1);
        let entry = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        b.jump(exit);
        b.switch_to_block(exit);
        b.ret(Some(x));
        let mut f = b.finish();
        let cfg = ControlFlowGraph::compute(&f);
        let domtree = DominatorTree::compute(&f, &cfg);
        let checker = FastLiveness::compute(&f, &cfg, &domtree);

        // Insert a copy in `exit`; only LiveRangeInfo needs recomputing.
        let clone = f.new_value();
        f.insert_inst(exit, 0, ossa_ir::InstData::Copy { dst: clone, src: x });
        let info = LiveRangeInfo::compute(&f);
        let fast = checker.query(&cfg, &domtree, &info);
        assert!(fast.is_live_in(exit, x));
        assert!(!fast.is_live_out(exit, clone));
    }

    #[test]
    fn footprint_is_reported() {
        let mut b = FunctionBuilder::new("fp", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        b.ret(None);
        let f = b.finish();
        let fast = FastLiveness::of(&f);
        assert!(fast.footprint_bytes() > 0);
        assert_eq!(fast.num_blocks(), 1);
    }
}
