//! The analysis cache of the out-of-SSA pipeline.
//!
//! Every phase of the pipeline — SSA construction, the SSA optimizations,
//! the CSSA check, the translation itself and register allocation — needs
//! some subset of the same analyses. Recomputing them per phase is exactly
//! the engineering cost the paper's Section IV is about avoiding, so
//! [`FunctionAnalyses`] computes each analysis lazily, caches it, and hands
//! out shared references until the caller declares a mutation.
//!
//! Invalidation has two tiers, mirroring the key observation of the fast
//! liveness checker (Boissinot et al., CGO 2008) that some precomputations
//! depend only on the CFG:
//!
//! * [`FunctionAnalyses::invalidate_instructions`] — instructions were
//!   inserted, removed or rewritten inside existing blocks (copy insertion,
//!   renaming, sequentialization). The liveness sets and the def/use index
//!   are dropped, but the CFG, dominator tree, dominance frontiers, loops,
//!   block frequencies *and the fast liveness precomputation* survive — the
//!   latter is the central engineering point of the `LiveCheck` option;
//! * [`FunctionAnalyses::invalidate_cfg`] — the block structure changed
//!   (edge splitting, new blocks), or the cache moves on to another
//!   function: everything is dropped.
//!
//! Invalidated analyses are not deallocated: each analysis keeps the
//! storage of its last invalidated result, and the next computation
//! rebuilds *into* it (its `recompute`), so a caller that reuses one cache
//! across thousands of functions performs almost no per-function heap
//! allocation for its analyses.
//!
//! The cache also counts how many times each analysis was actually computed
//! and how many versions it has seen ([`FunctionAnalyses::counts`]), which is
//! what lets the test suite *prove* the compute-once claim: over a whole
//! pipeline, no analysis runs twice for the same version.

use std::cell::{Cell, OnceCell};
use std::fmt;

use ossa_ir::{
    Block, BlockFrequencies, ControlFlowGraph, DominanceFrontiers, DominatorTree, Function,
    LoopAnalysis,
};

use crate::check::FastLiveness;
use crate::intersect::LiveRangeInfo;
use crate::sets::LivenessSets;

/// Compute counters of the CFG-level analyses of one [`FunctionAnalyses`].
///
/// `cfg_versions` counts the CFG versions the cache has seen (1 for a fresh
/// cache, +1 per [`FunctionAnalyses::invalidate_cfg`]); the other fields
/// count actual computations of each analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrAnalysisCounts {
    /// Number of [`ControlFlowGraph`] computations.
    pub cfg: u64,
    /// Number of [`DominatorTree`] computations.
    pub domtree: u64,
    /// Number of [`DominanceFrontiers`] computations.
    pub frontiers: u64,
    /// Number of [`LoopAnalysis`] computations.
    pub loops: u64,
    /// Number of [`BlockFrequencies`] computations.
    pub frequencies: u64,
    /// Number of CFG versions seen (1 + number of CFG invalidations).
    pub cfg_versions: u64,
}

/// Cumulative compute counters of one [`FunctionAnalyses`].
///
/// A correctly threaded pipeline maintains, for the *same* function:
///
/// * every counter of `ir`, and `fast_liveness`, `<= ir.cfg_versions` — these
///   analyses only depend on the CFG, so each is computed at most once per
///   CFG version;
/// * `liveness_sets <= inst_versions` and `live_range_info <= inst_versions`
///   — the instruction-dependent analyses are computed at most once per
///   instruction version.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisCounts {
    /// Counters of the CFG-level analyses.
    pub ir: IrAnalysisCounts,
    /// Number of [`LivenessSets`] computations.
    pub liveness_sets: u64,
    /// Number of [`FastLiveness`] computations.
    pub fast_liveness: u64,
    /// Number of [`LiveRangeInfo`] computations.
    pub live_range_info: u64,
    /// Number of instruction versions seen (1 + number of instruction-level
    /// invalidations; CFG invalidations count too, since they imply one).
    pub inst_versions: u64,
    /// Always 0: liveness is never repaired per block, only recomputed
    /// whole-function. Kept because the benchmark still reports it.
    pub liveness_incremental_repairs: u64,
    /// Always 0, like [`AnalysisCounts::liveness_incremental_repairs`].
    pub liveness_block_recomputes: u64,
}

/// One cached analysis: the current result, the storage of the last
/// invalidated one (which the next computation rebuilds into) and the
/// number of computations.
struct Slot<T> {
    value: OnceCell<T>,
    spare: Cell<Option<T>>,
    computes: Cell<u64>,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Self { value: OnceCell::new(), spare: Cell::new(None), computes: Cell::new(0) }
    }
}

impl<T: fmt::Debug> fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The spare is write-only storage behind a `Cell`.
        f.debug_struct("Slot")
            .field("value", &self.value)
            .field("computes", &self.computes.get())
            .finish_non_exhaustive()
    }
}

impl<T> Slot<T> {
    /// The cached result. On a miss, the spare storage is rebuilt by
    /// `recompute`, or a fresh result is built by `compute` if there is no
    /// spare.
    fn get(&self, compute: impl FnOnce() -> T, recompute: impl FnOnce(&mut T)) -> &T {
        self.value.get_or_init(|| {
            self.computes.set(self.computes.get() + 1);
            match self.spare.take() {
                Some(mut spare) => {
                    recompute(&mut spare);
                    spare
                }
                None => compute(),
            }
        })
    }

    /// Drops the result, keeping its storage for the next computation.
    fn invalidate(&mut self) {
        if let Some(value) = self.value.take() {
            *self.spare.get_mut() = Some(value);
        }
    }
}

/// Lazy cache of every analysis the out-of-SSA pipeline consumes for one
/// function, from the CFG up to liveness.
///
/// The cache does not borrow the function; each accessor takes it as an
/// argument and the caller is responsible for invalidating after mutations
/// (the pass pipeline does this at its phase boundaries).
///
/// # Examples
///
/// ```
/// use ossa_ir::builder::FunctionBuilder;
/// use ossa_liveness::{BlockLiveness, FunctionAnalyses};
///
/// let mut b = FunctionBuilder::new("f", 1);
/// let entry = b.create_block();
/// b.set_entry(entry);
/// b.switch_to_block(entry);
/// let x = b.param(0);
/// let y = b.binary(ossa_ir::BinaryOp::Add, x, x);
/// b.ret(Some(y));
/// let func = b.finish();
///
/// let analyses = FunctionAnalyses::new();
/// assert!(!analyses.liveness_sets(&func).is_live_out(entry, y));
/// assert_eq!(analyses.domtree(&func).root(), entry);
/// // The CFG was computed once and then served from the cache.
/// assert_eq!(analyses.counts().ir.cfg, 1);
/// ```
#[derive(Debug, Default)]
pub struct FunctionAnalyses {
    cfg: Slot<ControlFlowGraph>,
    domtree: Slot<DominatorTree>,
    frontiers: Slot<DominanceFrontiers>,
    loops: Slot<LoopAnalysis>,
    frequencies: Slot<BlockFrequencies>,
    /// The fast liveness checker reads only the CFG, so it lives in the CFG
    /// tier; its per-block bit-sets are the largest allocation of the
    /// default translation configuration.
    fast: Slot<FastLiveness>,
    liveness: Slot<LivenessSets>,
    info: Slot<LiveRangeInfo>,
    /// Cached reducibility verdict of the current CFG version — one O(edges)
    /// scan per CFG, shared by every consumer that must decide between the
    /// fast liveness checker and the data-flow sets.
    reducible: Cell<Option<bool>>,
    cfg_invalidations: u64,
    inst_invalidations: u64,
    /// Shape of the function the CFG caches were computed for — block count,
    /// entry block, and a hash of the CFG edges (stable under
    /// instruction-only mutation) — to catch, in debug builds, a cache being
    /// reused for a *different* function without invalidation, which would
    /// silently return the wrong analyses.
    stamp: Cell<Option<(usize, Block, u64)>>,
    /// Instruction-level shape (instruction and value counts) the
    /// instruction-dependent caches were computed for; cleared by
    /// [`FunctionAnalyses::invalidate_instructions`].
    inst_stamp: Cell<Option<(usize, usize)>>,
}

impl FunctionAnalyses {
    /// Creates an empty cache; nothing is computed until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cumulative compute counters (see [`AnalysisCounts`]).
    pub fn counts(&self) -> AnalysisCounts {
        AnalysisCounts {
            ir: IrAnalysisCounts {
                cfg: self.cfg.computes.get(),
                domtree: self.domtree.computes.get(),
                frontiers: self.frontiers.computes.get(),
                loops: self.loops.computes.get(),
                frequencies: self.frequencies.computes.get(),
                cfg_versions: self.cfg_invalidations + 1,
            },
            liveness_sets: self.liveness.computes.get(),
            fast_liveness: self.fast.computes.get(),
            live_range_info: self.info.computes.get(),
            inst_versions: self.inst_invalidations + 1,
            liveness_incremental_repairs: 0,
            liveness_block_recomputes: 0,
        }
    }

    #[cfg(debug_assertions)]
    fn check_stamp(&self, func: &Function) {
        // FNV-style fold of the edge list; blocks and terminator targets do
        // not change under instruction-only mutation, so the stamp stays
        // valid exactly as long as the CFG-level caches do.
        let mut edges = 0xcbf2_9ce4_8422_2325u64;
        for block in func.blocks() {
            edges = (edges ^ block.index() as u64).wrapping_mul(0x1000_0000_01b3);
            for succ in func.successors(block) {
                edges = (edges ^ succ.index() as u64).wrapping_mul(0x1000_0000_01b3);
            }
        }
        let shape = (func.num_blocks(), func.entry(), edges);
        match self.stamp.get() {
            None => self.stamp.set(Some(shape)),
            Some(stamp) => debug_assert_eq!(
                stamp, shape,
                "FunctionAnalyses reused for a different function without invalidate_cfg()"
            ),
        }
    }

    #[cfg(not(debug_assertions))]
    fn check_stamp(&self, _func: &Function) {}

    #[cfg(debug_assertions)]
    fn check_inst_stamp(&self, func: &Function) {
        let shape = (func.num_insts(), func.num_values());
        match self.inst_stamp.get() {
            None => self.inst_stamp.set(Some(shape)),
            Some(stamp) => debug_assert_eq!(
                stamp, shape,
                "instructions changed without invalidate_instructions(); liveness and the \
                 def/use index are stale"
            ),
        }
    }

    #[cfg(not(debug_assertions))]
    fn check_inst_stamp(&self, _func: &Function) {}

    /// The control-flow graph, computed on first use.
    pub fn cfg(&self, func: &Function) -> &ControlFlowGraph {
        self.check_stamp(func);
        self.cfg.get(|| ControlFlowGraph::compute(func), |cfg| cfg.recompute(func))
    }

    /// The dominator tree, computed on first use.
    pub fn domtree(&self, func: &Function) -> &DominatorTree {
        let cfg = self.cfg(func);
        self.domtree.get(|| DominatorTree::compute(func, cfg), |tree| tree.recompute(func, cfg))
    }

    /// The dominance frontiers, computed on first use.
    pub fn frontiers(&self, func: &Function) -> &DominanceFrontiers {
        let (cfg, domtree) = (self.cfg(func), self.domtree(func));
        self.frontiers.get(
            || DominanceFrontiers::compute(func, cfg, domtree),
            |frontiers| frontiers.recompute(func, cfg, domtree),
        )
    }

    /// The natural-loop analysis, computed on first use.
    pub fn loops(&self, func: &Function) -> &LoopAnalysis {
        let (cfg, domtree) = (self.cfg(func), self.domtree(func));
        self.loops.get(
            || LoopAnalysis::compute(func, cfg, domtree),
            |loops| loops.recompute(func, cfg, domtree),
        )
    }

    /// The static block-frequency estimate, computed on first use.
    pub fn frequencies(&self, func: &Function) -> &BlockFrequencies {
        let loops = self.loops(func);
        self.frequencies.get(
            || BlockFrequencies::from_loop_depths(func, loops),
            |freqs| freqs.recompute_from_loop_depths(func, loops),
        )
    }

    /// Returns `true` if the function's reachable CFG is reducible (every
    /// retreating edge's target dominates its source). Computed on first use
    /// per CFG version and cached — the translation and the CSSA check
    /// consult this before querying `FastLiveness`, since the fast checker's
    /// reduced graph is only acyclic (hence only *sound*) on reducible CFGs.
    pub fn is_reducible(&self, func: &Function) -> bool {
        if let Some(verdict) = self.reducible.get() {
            return verdict;
        }
        let verdict = self.cfg(func).is_reducible(self.domtree(func));
        self.reducible.set(Some(verdict));
        verdict
    }

    /// The CFG-only fast liveness checker, computed on first use.
    pub fn fast_liveness(&self, func: &Function) -> &FastLiveness {
        let (cfg, domtree) = (self.cfg(func), self.domtree(func));
        self.fast.get(
            || FastLiveness::compute(func, cfg, domtree),
            |fast| fast.recompute(func, cfg, domtree),
        )
    }

    /// Data-flow liveness sets, computed on first use.
    pub fn liveness_sets(&self, func: &Function) -> &LivenessSets {
        self.check_inst_stamp(func);
        let cfg = self.cfg(func);
        self.liveness.get(|| LivenessSets::compute(func, cfg), |sets| sets.compute_into(func, cfg))
    }

    /// The per-value definition and use index, computed on first use.
    pub fn live_range_info(&self, func: &Function) -> &LiveRangeInfo {
        self.check_inst_stamp(func);
        self.check_stamp(func);
        self.info.get(|| LiveRangeInfo::compute(func), |info| info.recompute(func))
    }

    /// Drops the caches that depend on the instruction stream (liveness sets
    /// and the def/use index). Must be called after any instruction-only
    /// mutation. The CFG analyses and the fast liveness precomputation stay
    /// valid: they only read block structure. The dropped analyses' storage
    /// is recycled by the next computation, so a pipeline that invalidates
    /// per phase does not reallocate them per instruction version.
    pub fn invalidate_instructions(&mut self) {
        self.liveness.invalidate();
        self.info.invalidate();
        *self.inst_stamp.get_mut() = None;
        self.inst_invalidations += 1;
    }

    /// Drops every cached analysis. Must be called after mutations that
    /// change the block structure (edge splitting, new blocks) and before
    /// reusing the cache for a different function.
    ///
    /// The dropped analyses' storage is recycled by the next computation, so
    /// one cache can serve the functions of a corpus without re-allocating
    /// per function.
    pub fn invalidate_cfg(&mut self) {
        self.cfg.invalidate();
        self.domtree.invalidate();
        self.frontiers.invalidate();
        self.loops.invalidate();
        self.frequencies.invalidate();
        self.fast.invalidate();
        *self.reducible.get_mut() = None;
        *self.stamp.get_mut() = None;
        self.cfg_invalidations += 1;
        self.invalidate_instructions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockLiveness;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, InstData};

    fn simple_function() -> Function {
        let mut b = FunctionBuilder::new("simple", 1);
        let entry = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.binary(BinaryOp::Add, x, x);
        b.jump(exit);
        b.switch_to_block(exit);
        b.ret(Some(y));
        b.finish()
    }

    fn loop_function() -> Function {
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
        b.ret(Some(n));
        b.finish()
    }

    #[test]
    fn analyses_are_computed_lazily_and_cached() {
        let func = simple_function();
        let analyses = FunctionAnalyses::new();
        assert_eq!(analyses.counts().ir.cfg, 0);
        let freqs = analyses.frequencies(&func);
        assert_eq!(freqs.frequency(func.entry()), 1.0);
        // Cached results are stable across calls.
        let cfg = analyses.cfg(&func) as *const ControlFlowGraph;
        assert_eq!(cfg, analyses.cfg(&func) as *const ControlFlowGraph);
        let sets = analyses.liveness_sets(&func) as *const LivenessSets;
        assert_eq!(sets, analyses.liveness_sets(&func) as *const LivenessSets);
        let info = analyses.live_range_info(&func) as *const LiveRangeInfo;
        assert_eq!(info, analyses.live_range_info(&func) as *const LiveRangeInfo);
        // Each analysis was computed exactly once; the unused ones never.
        let counts = analyses.counts();
        assert_eq!(counts.ir.cfg, 1);
        assert_eq!(counts.ir.domtree, 1);
        assert_eq!(counts.ir.frontiers, 0);
        assert_eq!(counts.ir.loops, 1);
        assert_eq!(counts.ir.frequencies, 1);
        assert_eq!(counts.ir.cfg_versions, 1);
        assert_eq!(counts.liveness_sets, 1);
        assert_eq!(counts.live_range_info, 1);
        assert_eq!(counts.fast_liveness, 0);
    }

    #[test]
    fn invalidation_recomputes_for_the_mutated_function() {
        let mut func = simple_function();
        let mut analyses = FunctionAnalyses::new();
        assert_eq!(analyses.cfg(&func).num_reachable(), 2);
        // Add a block and re-point the entry jump at it.
        let extra = func.add_block();
        let entry = func.entry();
        let term = func.terminator(entry).expect("terminator");
        *func.inst_mut(term) = InstData::Jump { dest: extra };
        func.append_inst(extra, InstData::Return { value: None });
        analyses.invalidate_cfg();
        assert_eq!(analyses.cfg(&func).num_reachable(), 2);
        assert!(analyses.cfg(&func).is_reachable(extra));
        let counts = analyses.counts();
        assert_eq!(counts.ir.cfg, 2);
        assert_eq!(counts.ir.cfg_versions, 2);
    }

    #[test]
    fn domtree_and_loops_share_the_cached_cfg() {
        let func = loop_function();
        let analyses = FunctionAnalyses::new();
        let header = func.blocks().nth(1).unwrap();
        assert!(analyses.domtree(&func).dominates(func.entry(), header));
        assert_eq!(analyses.loops(&func).num_loops(), 1);
        assert_eq!(analyses.counts().ir.cfg, 1);
        assert_eq!(analyses.counts().ir.domtree, 1);
    }

    #[test]
    fn recycled_analyses_match_fresh_computations() {
        // Run one cache over different functions with an invalidation in
        // between (the streaming engine's per-worker pattern): each round
        // reuses the previous round's storage and must be indistinguishable
        // from a fresh computation, the fast checker's queries and reported
        // footprint included.
        let looped = loop_function();
        let simple = simple_function();
        let mut analyses = FunctionAnalyses::new();
        for func in [&looped, &simple, &looped] {
            analyses.invalidate_cfg();
            let fresh_cfg = ControlFlowGraph::compute(func);
            let fresh_dom = DominatorTree::compute(func, &fresh_cfg);
            let fresh_front = DominanceFrontiers::compute(func, &fresh_cfg, &fresh_dom);
            let fresh_fast = FastLiveness::of(func);
            let cfg = analyses.cfg(func);
            let domtree = analyses.domtree(func);
            let fast = analyses.fast_liveness(func);
            let info = LiveRangeInfo::compute(func);
            assert_eq!(cfg.reverse_post_order(), fresh_cfg.reverse_post_order());
            assert_eq!(domtree.preorder(), fresh_dom.preorder());
            assert_eq!(fast.footprint_bytes(), fresh_fast.footprint_bytes());
            for block in func.blocks() {
                assert_eq!(cfg.succs(block), fresh_cfg.succs(block));
                assert_eq!(cfg.preds(block), fresh_cfg.preds(block));
                assert_eq!(cfg.is_reachable(block), fresh_cfg.is_reachable(block));
                assert_eq!(domtree.idom(block), fresh_dom.idom(block));
                assert_eq!(domtree.children(block), fresh_dom.children(block));
                assert_eq!(analyses.frontiers(func).frontier(block), fresh_front.frontier(block));
                for value in func.values() {
                    assert_eq!(
                        fast.is_live_in_query(domtree, &info, block, value),
                        fresh_fast.is_live_in_query(domtree, &info, block, value),
                        "live-in mismatch for {value} at {block}"
                    );
                    assert_eq!(
                        fast.is_live_out_query(cfg, domtree, &info, block, value),
                        fresh_fast.is_live_out_query(cfg, domtree, &info, block, value),
                        "live-out mismatch for {value} at {block}"
                    );
                }
            }
        }
    }

    #[test]
    fn instruction_invalidation_keeps_fast_liveness() {
        let mut func = simple_function();
        let mut analyses = FunctionAnalyses::new();
        let before = analyses.fast_liveness(&func) as *const FastLiveness;
        let _ = analyses.liveness_sets(&func);

        // Insert a copy: instruction-level mutation only.
        let entry = func.entry();
        let x = func.values().next().unwrap();
        let clone = func.new_value();
        func.insert_inst(entry, 1, InstData::Copy { dst: clone, src: x });
        analyses.invalidate_instructions();

        // The fast checker is the same cached object; liveness sets and the
        // def/use index are recomputed and see the new instruction.
        assert_eq!(before, analyses.fast_liveness(&func) as *const FastLiveness);
        assert!(analyses.live_range_info(&func).def(clone).is_some());
        assert!(analyses.live_range_info(&func).uses().is_used(x));
        let exit = func.blocks().nth(1).unwrap();
        let y = Function::values(&func).nth(1).unwrap();
        assert!(analyses.liveness_sets(&func).is_live_in(exit, y));
    }

    #[test]
    fn compute_counters_track_versions() {
        let mut func = simple_function();
        let mut analyses = FunctionAnalyses::new();
        let counts = analyses.counts();
        assert_eq!(counts.ir.cfg_versions, 1);
        assert_eq!(counts.inst_versions, 1);
        assert_eq!(counts.liveness_sets, 0);

        let _ = analyses.liveness_sets(&func);
        let _ = analyses.liveness_sets(&func);
        let _ = analyses.fast_liveness(&func);
        assert_eq!(analyses.counts().liveness_sets, 1);
        assert_eq!(analyses.counts().fast_liveness, 1);

        // Instruction-only mutation: new instruction version, CFG version
        // unchanged, the fast checker is *not* recomputed.
        let entry = func.entry();
        let x = func.values().next().unwrap();
        let clone = func.new_value();
        func.insert_inst(entry, 1, InstData::Copy { dst: clone, src: x });
        analyses.invalidate_instructions();
        let _ = analyses.liveness_sets(&func);
        let _ = analyses.fast_liveness(&func);
        let counts = analyses.counts();
        assert_eq!(counts.inst_versions, 2);
        assert_eq!(counts.ir.cfg_versions, 1);
        assert_eq!(counts.liveness_sets, 2);
        assert_eq!(counts.fast_liveness, 1);

        // CFG invalidation: everything recomputes exactly once more.
        analyses.invalidate_cfg();
        let _ = analyses.fast_liveness(&func);
        let counts = analyses.counts();
        assert_eq!(counts.ir.cfg_versions, 2);
        assert_eq!(counts.inst_versions, 3);
        assert_eq!(counts.fast_liveness, 2);
        assert_eq!(counts.ir.cfg, 2);
        assert_eq!(counts.ir.domtree, 2);
    }
}
