//! Classic per-block liveness sets computed by backward data-flow analysis.
//!
//! φ-functions follow their parallel-copy semantics: a φ argument is live-out
//! of the corresponding predecessor block (not live-in of the φ's block), and
//! a φ result is not live-in of its block.

use ossa_ir::entity::{Block, EntitySet, SecondaryMap, Value};
use ossa_ir::{ControlFlowGraph, Function};

use crate::BlockLiveness;

/// Live-in and live-out sets for every reachable block of a function.
#[derive(Clone, Debug, Default)]
pub struct LivenessSets {
    live_in: SecondaryMap<Block, EntitySet<Value>>,
    live_out: SecondaryMap<Block, EntitySet<Value>>,
    num_values: usize,
    num_blocks: usize,
    /// Transfer-function storage and fixpoint scratch, kept so a recycled
    /// instance ([`LivenessSets::compute_into`]) performs no per-block
    /// allocation; never read after the computation finishes.
    scratch: SetsScratch,
}

/// The recycled working storage of one liveness computation: the per-block
/// transfer functions (`gen`/`kill`/`edge_phi_uses`) and the fixpoint
/// temporaries.
#[derive(Clone, Debug, Default)]
struct SetsScratch {
    gen: SecondaryMap<Block, EntitySet<Value>>,
    kill: SecondaryMap<Block, EntitySet<Value>>,
    edge_phi_uses: SecondaryMap<Block, Vec<Value>>,
    out: EntitySet<Value>,
    post_order: Vec<Block>,
}

/// Empties every bit-set slot of a recycled per-block map and sizes it for
/// `num_blocks`, keeping the word-vector capacities (also beyond
/// `num_blocks`: the per-slot reset is O(1), and retaining the buffers lets
/// a later, larger function reuse them instead of reallocating).
fn reset_block_sets(map: &mut SecondaryMap<Block, EntitySet<Value>>, num_blocks: usize) {
    for set in map.values_mut() {
        set.reset();
    }
    map.resize(num_blocks);
}

impl LivenessSets {
    /// Computes liveness sets for `func` using `cfg`.
    pub fn compute(func: &Function, cfg: &ControlFlowGraph) -> Self {
        let mut this = Self::default();
        this.compute_into(func, cfg);
        this
    }

    /// Recomputes the sets for `func` in place, reusing the per-block
    /// bit-sets and fixpoint scratch of a previous (possibly different)
    /// function. The resulting sets are identical to a fresh
    /// [`LivenessSets::compute`]; only the heap traffic differs — which is
    /// what lets [`crate::FunctionAnalyses`] recycle the analysis across
    /// instruction versions instead of reallocating it per invalidation.
    pub fn compute_into(&mut self, func: &Function, cfg: &ControlFlowGraph) {
        let num_blocks = func.num_blocks();
        let num_values = func.num_values();
        self.num_values = num_values;
        self.num_blocks = num_blocks;

        // Per-block upward-exposed uses and kills, in one walk with the φ
        // uses. φ handling matches the paper's semantics: a φ use belongs to
        // the end of its predecessor (collected once instead of re-walking
        // every successor's φ group per fixpoint pass) and the φ def kills
        // the value locally (it is not upward exposed).
        let SetsScratch { gen, kill, edge_phi_uses, out: scratch_out, post_order } =
            &mut self.scratch;
        reset_block_sets(gen, num_blocks);
        reset_block_sets(kill, num_blocks);
        for list in edge_phi_uses.values_mut() {
            list.clear();
        }
        edge_phi_uses.resize(num_blocks);
        for &block in cfg.reverse_post_order() {
            let (gen_set, kill_set) = (&mut gen[block], &mut kill[block]);
            for &inst in func.block_insts(block) {
                let data = func.inst(inst);
                match data.phi_args(func.pools()) {
                    Some(args) => {
                        for arg in args {
                            edge_phi_uses[arg.block].push(arg.value);
                        }
                    }
                    None => data.for_each_use(func.pools(), |u| {
                        if !kill_set.contains(u) {
                            gen_set.insert(u);
                        }
                    }),
                }
                data.for_each_def(func.pools(), |d| {
                    kill_set.insert(d);
                });
            }
        }

        reset_block_sets(&mut self.live_in, num_blocks);
        reset_block_sets(&mut self.live_out, num_blocks);

        // Backward fixpoint over the post-order, in place: the stored sets
        // only ever grow, so the transfer can union directly into them —
        // gen/kill are the precomputed per-block transfer functions and the
        // `live_in ∪= live_out \ kill` step is a single word-level pass. The
        // only scratch is one reusable bit-set for the successor union.
        // Growing finite sets bound the pass count; each pass checks the
        // request deadline first.
        post_order.clear();
        post_order.extend(cfg.post_order());
        scratch_out.reset();
        for &block in cfg.reverse_post_order() {
            self.live_in[block].union_with(&gen[block]);
        }
        let mut changed = true;
        while changed {
            crate::deadline::cancel_tick();
            changed = false;
            for &block in &*post_order {
                // live_out(B) ∪= ∪_succ S (live_in(S) \ phi_defs(S)) ∪ phi_uses_from(B in S)
                scratch_out.clear();
                for &succ in cfg.succs(block) {
                    // live_in(S) already excludes φ defs of S by construction.
                    scratch_out.union_with(&self.live_in[succ]);
                }
                for &value in &edge_phi_uses[block] {
                    scratch_out.insert(value);
                }
                let out_grew = self.live_out[block].union_with(scratch_out);
                // live_in(B) = gen(B) ∪ (live_out(B) \ kill(B)); gen was
                // seeded above, so only the data-flow part remains.
                if out_grew {
                    self.live_in[block].union_with_andnot(scratch_out, &kill[block]);
                    changed = true;
                }
            }
        }
    }

    /// Computes liveness sets, building the CFG internally.
    pub fn of(func: &Function) -> Self {
        let cfg = ControlFlowGraph::compute(func);
        Self::compute(func, &cfg)
    }

    /// The live-in set of `block`.
    pub fn live_in(&self, block: Block) -> &EntitySet<Value> {
        &self.live_in[block]
    }

    /// The live-out set of `block`.
    pub fn live_out(&self, block: Block) -> &EntitySet<Value> {
        &self.live_out[block]
    }

    /// Live-in set as a sorted vector (the "ordered set" representation whose
    /// footprint Figure 7 compares against bit-sets).
    pub fn ordered_live_in(&self, block: Block) -> Vec<Value> {
        self.live_in[block].iter().collect()
    }

    /// Live-out set as a sorted vector.
    pub fn ordered_live_out(&self, block: Block) -> Vec<Value> {
        self.live_out[block].iter().collect()
    }

    /// Number of values the analysis was computed over.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Number of blocks the analysis was computed over.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Total number of `(block, value)` membership entries across all live-in
    /// and live-out sets — the size driver for the ordered-set footprint.
    pub fn total_entries(&self) -> usize {
        (0..self.num_blocks)
            .map(Block::from_index)
            .map(|b| self.live_in[b].len() + self.live_out[b].len())
            .sum()
    }
}

impl BlockLiveness for LivenessSets {
    #[inline]
    fn is_live_in(&self, block: Block, value: Value) -> bool {
        self.live_in[block].contains(value)
    }

    #[inline]
    fn is_live_out(&self, block: Block, value: Value) -> bool {
        self.live_out[block].contains(value)
    }
}

/// Reference live-in sets by explicit path search, with no data flow: a
/// value is live-in at a reachable block when some path from the block's
/// start reaches a use of the value without passing its definition. A φ use
/// counts as a use at the end of the φ argument's predecessor. The workspace
/// tests check [`LivenessSets`] against it on generated functions, and
/// [`crate::check::FastLiveness`] against the sets.
///
/// One instruction walk records each value's definition site and seeds the
/// blocks a use is reached in before the definition: the block of each
/// non-φ use (in the definition block, only a use at or before the
/// definition), and the predecessor of each φ use unless the value is
/// defined there. A backward walk over predecessors then marks every block
/// from which a seed is reachable without entering the definition block,
/// where the path would pass the definition. Unreachable blocks are never
/// live-in, and a value without a definition is live-in nowhere.
pub fn live_in_by_search(
    func: &Function,
    cfg: &ControlFlowGraph,
) -> SecondaryMap<Value, EntitySet<Block>> {
    let defs = func.def_sites();
    let mut live_in: SecondaryMap<Value, EntitySet<Block>> =
        SecondaryMap::with_capacity(func.num_values());
    let mut worklist: Vec<(Value, Block)> = Vec::new();
    let mut seed = |value: Value, block: Block| {
        if cfg.is_reachable(block) && live_in[value].insert(block) {
            worklist.push((value, block));
        }
    };
    for block in func.blocks().filter(|&block| cfg.is_reachable(block)) {
        for (pos, &inst) in func.block_insts(block).iter().enumerate() {
            if let Some(args) = func.inst_phi_args(inst) {
                for arg in args {
                    if defs[arg.value].is_some_and(|def| def.block != arg.block) {
                        seed(arg.value, arg.block);
                    }
                }
                continue;
            }
            func.for_each_inst_use(inst, |value| {
                if defs[value].is_some_and(|def| def.block != block || pos <= def.pos) {
                    seed(value, block);
                }
            });
        }
    }
    while let Some((value, block)) = worklist.pop() {
        let def_block = defs[value].expect("only defined values are seeded").block;
        for &pred in cfg.preds(block) {
            if pred != def_block && cfg.is_reachable(pred) && live_in[value].insert(pred) {
                worklist.push((value, pred));
            }
        }
    }
    live_in
}

/// One query of [`live_in_by_search`]: is `value` live-in at `block`?
/// Computes the whole map, so a caller with many queries computes the map
/// once instead.
pub fn is_live_in_by_search(
    func: &Function,
    cfg: &ControlFlowGraph,
    block: Block,
    value: Value,
) -> bool {
    live_in_by_search(func, cfg)[value].contains(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, InstData};

    /// Lost-copy-like loop:
    /// entry: x1 = const 1; jump header
    /// header: x2 = phi [(entry,x1),(body,x3)]; x3 = x2+1; br p, body, exit
    /// body: jump header
    /// exit: return x2
    fn lost_copy() -> (Function, Vec<Block>, Vec<Value>) {
        let mut b = FunctionBuilder::new("lostcopy", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x1 = b.iconst(1);
        b.jump(header);
        b.switch_to_block(header);
        let x3 = b.declare_value();
        let one = b.declare_value();
        let x2 = b.phi(vec![(entry, x1), (body, x3)]);
        b.func_mut().append_inst(header, InstData::Const { dst: one, imm: 1 });
        b.func_mut()
            .append_inst(header, InstData::Binary { op: BinaryOp::Add, dst: x3, args: [x2, one] });
        b.branch(p, body, exit);
        b.switch_to_block(body);
        b.jump(header);
        b.switch_to_block(exit);
        b.ret(Some(x2));
        (b.finish(), vec![entry, header, body, exit], vec![p, x1, x2, x3])
    }

    #[test]
    fn liveness_of_lost_copy_loop() {
        let (f, blocks, values) = lost_copy();
        let [entry, header, body, exit] = blocks[..] else { panic!() };
        let [p, x1, x2, x3] = values[..] else { panic!() };
        let live = LivenessSets::of(&f);

        // x1 flows only on the edge entry->header (φ use).
        assert!(live.is_live_out(entry, x1));
        assert!(!live.is_live_in(header, x1));
        // x2 (φ def) is not live-in of header but is live-out (used in exit).
        assert!(!live.is_live_in(header, x2));
        assert!(live.is_live_out(header, x2));
        assert!(live.is_live_in(exit, x2));
        // x3 is live-out of header only towards body (φ use on body->header).
        assert!(live.is_live_out(body, x3));
        assert!(live.is_live_in(body, x3));
        assert!(!live.is_live_in(exit, x3));
        // The branch condition p is live throughout the loop.
        assert!(live.is_live_in(header, p));
        assert!(live.is_live_out(entry, p));
        assert!(!live.is_live_out(exit, p));
    }

    #[test]
    fn phi_def_not_live_in_and_args_live_out_of_preds() {
        let mut b = FunctionBuilder::new("phi", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let right = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let c = b.param(0);
        let a = b.iconst(1);
        b.branch(c, left, right);
        b.switch_to_block(left);
        let l = b.iconst(10);
        b.jump(join);
        b.switch_to_block(right);
        let r = b.iconst(20);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(left, l), (right, r)]);
        b.ret(Some(m));
        let f = b.finish();
        let live = LivenessSets::of(&f);
        assert!(live.is_live_out(left, l));
        assert!(live.is_live_out(right, r));
        assert!(!live.is_live_in(join, l));
        assert!(!live.is_live_in(join, r));
        assert!(!live.is_live_in(join, m));
        assert!(!live.is_live_out(entry, a));
    }

    #[test]
    fn straightline_liveness_is_empty_at_boundaries() {
        let mut b = FunctionBuilder::new("line", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.iconst(3);
        let y = b.binary(BinaryOp::Add, x, x);
        b.ret(Some(y));
        let f = b.finish();
        let live = LivenessSets::of(&f);
        assert_eq!(live.live_in(entry).len(), 0);
        assert_eq!(live.live_out(entry).len(), 0);
        assert_eq!(live.total_entries(), 0);
    }

    #[test]
    fn dataflow_agrees_with_path_search() {
        let (f, blocks, values) = lost_copy();
        let cfg = ControlFlowGraph::compute(&f);
        let live = LivenessSets::compute(&f, &cfg);
        for &b in &blocks {
            for &v in &values {
                assert_eq!(
                    live.is_live_in(b, v),
                    is_live_in_by_search(&f, &cfg, b, v),
                    "live-in mismatch for {v} at {b}"
                );
            }
        }
    }

    #[test]
    fn ordered_sets_are_sorted() {
        let (f, blocks, _) = lost_copy();
        let live = LivenessSets::of(&f);
        for &b in &blocks {
            let ordered = live.ordered_live_in(b);
            let mut sorted = ordered.clone();
            sorted.sort();
            assert_eq!(ordered, sorted);
        }
    }
}
