//! Liveness-level analysis caching on top of [`ossa_ir::AnalysisManager`].
//!
//! [`FunctionAnalyses`] extends the CFG-level manager with the caches the
//! out-of-SSA translation and the register allocator consume: data-flow
//! liveness sets, the fast liveness checker and the per-value
//! definition/use index. Invalidation is two-level:
//!
//! * [`FunctionAnalyses::invalidate_instructions`] — instructions were
//!   inserted, removed or rewritten inside existing blocks. The liveness
//!   sets and the def/use index are dropped, but the CFG analyses *and the
//!   fast liveness precomputation* survive — the latter is the central
//!   engineering point of the `LiveCheck` option (its precomputation depends
//!   only on the CFG);
//! * [`FunctionAnalyses::invalidate_cfg`] — the block structure changed
//!   (edge splitting): everything is dropped.

use std::cell::{Cell, OnceCell};

use ossa_ir::analysis::{AnalysisManager, IrAnalysisCounts};
use ossa_ir::{
    BlockFrequencies, ControlFlowGraph, DominanceFrontiers, DominatorTree, Function, LoopAnalysis,
};

use crate::check::FastLiveness;
use crate::intersect::LiveRangeInfo;
use crate::sets::LivenessSets;

/// Cumulative compute counters of one [`FunctionAnalyses`]: the CFG-level
/// counters of the underlying [`AnalysisManager`] plus the liveness-level
/// analyses and the number of instruction versions seen.
///
/// A correctly threaded pipeline maintains, for the *same* function:
///
/// * `fast_liveness <= ir.cfg_versions` — the fast checker's precomputation
///   only depends on the CFG, so it is computed at most once per CFG
///   version;
/// * `liveness_sets <= inst_versions` and `live_range_info <= inst_versions`
///   — the instruction-dependent analyses are computed at most once per
///   instruction version.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisCounts {
    /// CFG-level counters of the underlying manager.
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
    /// Number of incremental per-block liveness repairs performed
    /// ([`FunctionAnalyses::invalidate_instructions_in_blocks`] with cached
    /// sets): instruction versions whose liveness was repaired rather than
    /// recomputed whole-function.
    pub liveness_incremental_repairs: u64,
    /// Total number of blocks recomputed across all incremental repairs
    /// (the sum of the repair-region sizes). `liveness_block_recomputes /
    /// liveness_incremental_repairs` being well below the function's block
    /// count is the proof that a single-block copy insertion no longer pays
    /// a whole-function liveness recompute.
    pub liveness_block_recomputes: u64,
}

/// Internal mutable half of [`AnalysisCounts`]: the liveness-level compute
/// counters, bumped behind a `Cell` from the `&self` accessors.
#[derive(Clone, Copy, Debug, Default)]
struct LivenessCounts {
    liveness_sets: u64,
    fast_liveness: u64,
    live_range_info: u64,
    inst_invalidations: u64,
    liveness_incremental_repairs: u64,
    liveness_block_recomputes: u64,
}

/// Lazy cache of every analysis the out-of-SSA pipeline consumes for one
/// function, from the CFG up to liveness.
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
/// // Dominator tree and CFG were computed once and are now cached.
/// assert!(analyses.ir().is_cfg_cached());
/// ```
#[derive(Default)]
pub struct FunctionAnalyses {
    ir: AnalysisManager,
    liveness: OnceCell<LivenessSets>,
    fast: OnceCell<FastLiveness>,
    info: OnceCell<LiveRangeInfo>,
    /// Storage of an invalidated fast-liveness checker, recycled by the next
    /// computation (the checker's per-block bit-sets are the largest
    /// allocation of the default translation configuration).
    spare_fast: Cell<Option<FastLiveness>>,
    /// Storage of invalidated liveness sets, recycled by the next
    /// computation. Liveness sets are dropped on *every* instruction
    /// version, so without this slot the Graph/InterCheck engine variants
    /// reallocate two bit-sets per block per version.
    spare_liveness: Cell<Option<LivenessSets>>,
    /// Storage of an invalidated def/use index, recycled likewise (the index
    /// is recomputed on every instruction version in all configurations).
    spare_info: Cell<Option<LiveRangeInfo>>,
    /// Cached reducibility verdict of the current CFG version — one O(edges)
    /// scan per CFG, shared by every consumer that must decide between the
    /// fast liveness checker and the data-flow sets.
    reducible: Cell<Option<bool>>,
    /// Liveness-level compute counters; the CFG-level ones live in `ir`.
    counts: Cell<LivenessCounts>,
    /// Shape of the function the CFG caches were computed for — block count,
    /// entry block, and a hash of the CFG edges (stable under
    /// instruction-only mutation) — to catch, in debug builds, a cache being
    /// reused for a *different* function without invalidation, which would
    /// silently return the wrong analyses.
    stamp: std::cell::Cell<Option<(usize, ossa_ir::Block, u64)>>,
    /// Instruction-level shape (instruction and value counts) the
    /// instruction-dependent caches were computed for; cleared by
    /// [`FunctionAnalyses::invalidate_instructions`].
    inst_stamp: std::cell::Cell<Option<(usize, usize)>>,
}

impl std::fmt::Debug for FunctionAnalyses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionAnalyses")
            .field("ir", &self.ir)
            .field("liveness", &self.liveness)
            .field("fast", &self.fast)
            .field("info", &self.info)
            .field("counts", &self.counts.get())
            .finish_non_exhaustive()
    }
}

impl FunctionAnalyses {
    /// Creates an empty cache; nothing is computed until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying CFG-level manager.
    pub fn ir(&self) -> &AnalysisManager {
        &self.ir
    }

    /// The cumulative compute counters, CFG-level and liveness-level (see
    /// [`AnalysisCounts`]).
    pub fn counts(&self) -> AnalysisCounts {
        let counts = self.counts.get();
        AnalysisCounts {
            ir: self.ir.counts(),
            liveness_sets: counts.liveness_sets,
            fast_liveness: counts.fast_liveness,
            live_range_info: counts.live_range_info,
            inst_versions: counts.inst_invalidations + 1,
            liveness_incremental_repairs: counts.liveness_incremental_repairs,
            liveness_block_recomputes: counts.liveness_block_recomputes,
        }
    }

    fn bump(&self, f: impl FnOnce(&mut LivenessCounts)) {
        let mut counts = self.counts.get();
        f(&mut counts);
        self.counts.set(counts);
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
        self.ir.cfg(func)
    }

    /// The dominator tree, computed on first use.
    pub fn domtree(&self, func: &Function) -> &DominatorTree {
        self.check_stamp(func);
        self.ir.domtree(func)
    }

    /// The dominance frontiers, computed on first use.
    pub fn frontiers(&self, func: &Function) -> &DominanceFrontiers {
        self.check_stamp(func);
        self.ir.frontiers(func)
    }

    /// The natural-loop analysis, computed on first use.
    pub fn loops(&self, func: &Function) -> &LoopAnalysis {
        self.check_stamp(func);
        self.ir.loops(func)
    }

    /// The static block-frequency estimate, computed on first use.
    pub fn frequencies(&self, func: &Function) -> &BlockFrequencies {
        self.check_stamp(func);
        self.ir.frequencies(func)
    }

    /// Data-flow liveness sets, computed on first use, recycling the storage
    /// of a previously invalidated computation when available.
    pub fn liveness_sets(&self, func: &Function) -> &LivenessSets {
        self.check_inst_stamp(func);
        self.cfg(func);
        self.liveness.get_or_init(|| {
            self.bump(|c| c.liveness_sets += 1);
            let cfg = self.ir.cfg(func);
            match self.spare_liveness.take() {
                Some(mut sets) => {
                    sets.compute_into(func, cfg);
                    sets
                }
                None => LivenessSets::compute(func, cfg),
            }
        })
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

    /// The CFG-only fast liveness checker, computed on first use, recycling
    /// the storage of a previously invalidated checker when available.
    pub fn fast_liveness(&self, func: &Function) -> &FastLiveness {
        self.domtree(func);
        self.fast.get_or_init(|| {
            self.bump(|c| c.fast_liveness += 1);
            let cfg = self.ir.cfg(func);
            let domtree = self.ir.domtree(func);
            match self.spare_fast.take() {
                Some(mut fast) => {
                    fast.recompute(func, cfg, domtree);
                    fast
                }
                None => FastLiveness::compute(func, cfg, domtree),
            }
        })
    }

    /// The per-value definition and use index, computed on first use,
    /// recycling the storage of a previously invalidated index when
    /// available.
    pub fn live_range_info(&self, func: &Function) -> &LiveRangeInfo {
        self.check_inst_stamp(func);
        self.check_stamp(func);
        self.info.get_or_init(|| {
            self.bump(|c| c.live_range_info += 1);
            match self.spare_info.take() {
                Some(mut info) => {
                    info.recompute(func);
                    info
                }
                None => LiveRangeInfo::compute(func),
            }
        })
    }

    /// Drops the caches that depend on the instruction stream (liveness sets
    /// and the def/use index). The CFG analyses and the fast liveness
    /// precomputation stay valid: they only read block structure. The
    /// dropped analyses' storage moves into spare slots and is recycled by
    /// the next computation, so a translation pipeline that invalidates per
    /// phase does not reallocate them per instruction version.
    pub fn invalidate_instructions(&mut self) {
        if let Some(sets) = self.liveness.take() {
            self.spare_liveness.set(Some(sets));
        }
        if let Some(info) = self.info.take() {
            self.spare_info.set(Some(info));
        }
        self.inst_stamp.set(None);
        self.bump(|c| c.inst_invalidations += 1);
    }

    /// Declares instruction-only mutations confined to the listed blocks —
    /// the per-block half of the instruction-version invalidation contract.
    ///
    /// The def/use index is dropped (and recycled) like under
    /// [`FunctionAnalyses::invalidate_instructions`], but cached liveness
    /// sets are *repaired in place* by [`LivenessSets::update_blocks`]
    /// instead of being recomputed whole-function: only the dirty blocks'
    /// transfer functions are rebuilt and only the blocks whose live-in can
    /// transitively change (the dirty blocks' predecessor closure) are
    /// re-solved. The repaired sets are bit-identical to a full recompute.
    ///
    /// `blocks` must list every block whose instruction stream changed since
    /// the sets were (re)computed; the block structure must be unchanged
    /// (otherwise call [`FunctionAnalyses::invalidate_cfg`]). `func` is the
    /// already-mutated function.
    pub fn invalidate_instructions_in_blocks(
        &mut self,
        func: &Function,
        blocks: &[ossa_ir::Block],
    ) {
        if let Some(mut sets) = self.liveness.take() {
            let cfg = self.ir.cfg(func);
            let region = sets.update_blocks(func, cfg, blocks);
            self.bump(|c| {
                c.liveness_incremental_repairs += 1;
                c.liveness_block_recomputes += region as u64;
            });
            // Not `get_or_init`: the cell was just emptied by `take`.
            let _ = self.liveness.set(sets);
        }
        if let Some(info) = self.info.take() {
            self.spare_info.set(Some(info));
        }
        self.inst_stamp.set(None);
        self.bump(|c| c.inst_invalidations += 1);
    }

    /// Drops every cached analysis. Must be called after mutations that
    /// change the block structure (edge splitting, new blocks) and before
    /// reusing the cache for a different function.
    ///
    /// The storage of the dropped CFG-level analyses and of the fast
    /// liveness checker is kept and recycled by the next computation, so a
    /// corpus driver can reuse one cache across many functions without
    /// re-allocating per function.
    pub fn invalidate_cfg(&mut self) {
        self.ir.invalidate_cfg();
        if let Some(fast) = self.fast.take() {
            self.spare_fast.set(Some(fast));
        }
        self.reducible.set(None);
        self.stamp.set(None);
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

    #[test]
    fn caches_are_shared_and_lazily_built() {
        let func = simple_function();
        let analyses = FunctionAnalyses::new();
        let sets = analyses.liveness_sets(&func) as *const LivenessSets;
        assert_eq!(sets, analyses.liveness_sets(&func) as *const LivenessSets);
        let info = analyses.live_range_info(&func) as *const LiveRangeInfo;
        assert_eq!(info, analyses.live_range_info(&func) as *const LiveRangeInfo);
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
    fn cfg_invalidation_drops_everything() {
        let func = simple_function();
        let mut analyses = FunctionAnalyses::new();
        let _ = analyses.fast_liveness(&func);
        assert!(analyses.ir().is_cfg_cached());
        analyses.invalidate_cfg();
        assert!(!analyses.ir().is_cfg_cached());
    }

    #[test]
    fn recycled_fast_liveness_matches_fresh_computation() {
        // Reusing one cache across two different functions (the streaming
        // engine's per-worker pattern) recycles the checker storage; queries
        // and the reported footprint must match a fresh computation exactly.
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
        let looped = b.finish();
        let simple = simple_function();

        let mut analyses = FunctionAnalyses::new();
        for func in [&looped, &simple, &looped] {
            analyses.invalidate_cfg();
            let fresh = FastLiveness::of(func);
            let cached = analyses.fast_liveness(func);
            assert_eq!(cached.footprint_bytes(), fresh.footprint_bytes());
            let info = LiveRangeInfo::compute(func);
            let cfg = analyses.ir().cfg(func);
            let domtree = analyses.ir().domtree(func);
            for block in func.blocks() {
                for value in func.values() {
                    assert_eq!(
                        cached.is_live_in_query(domtree, &info, block, value),
                        fresh.is_live_in_query(domtree, &info, block, value),
                        "live-in mismatch for {value} at {block}"
                    );
                    assert_eq!(
                        cached.is_live_out_query(cfg, domtree, &info, block, value),
                        fresh.is_live_out_query(cfg, domtree, &info, block, value),
                        "live-out mismatch for {value} at {block}"
                    );
                }
            }
        }
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
        assert_eq!(counts.fast_liveness, 2);
        assert_eq!(counts.ir.cfg, 2);
        assert_eq!(counts.ir.domtree, 2);
    }
}
