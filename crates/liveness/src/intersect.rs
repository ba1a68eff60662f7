//! Live-range intersection tests.
//!
//! Section IV-A of the paper surveys ways to decide whether the live ranges
//! of two SSA variables intersect. This module implements the
//! dominance-based test of Budimlić et al. on top of any per-block liveness
//! oracle (data-flow sets or the fast liveness checker): the variable whose
//! definition dominates the definition of the other intersects it iff it is
//! live *just after* that second definition point.

use ossa_ir::entity::{Block, SecondaryMap, Value};
use ossa_ir::{DefSite, DominatorTree, Function, InstData};

use crate::uses::{UseSite, UseSites};
use crate::BlockLiveness;

/// Pre-computed per-value information needed by intersection queries.
#[derive(Clone, Debug, Default)]
pub struct LiveRangeInfo {
    defs: SecondaryMap<Value, Option<DefSite>>,
    uses: UseSites,
}

impl LiveRangeInfo {
    /// Builds the per-value definition and use index of `func`.
    pub fn compute(func: &Function) -> Self {
        let mut this = Self::default();
        this.recompute(func);
        this
    }

    /// Rebuilds the index for `func` in place, reusing the storage of a
    /// previous (possibly different) function — identical to
    /// [`LiveRangeInfo::compute`] except for the heap traffic. This is what
    /// lets [`crate::FunctionAnalyses`] recycle the index across instruction
    /// versions instead of reallocating it after every invalidation.
    ///
    /// One walk over the instructions in layout order records each value's
    /// first definition site and lists every use, a φ argument at the end
    /// of its predecessor (`usize::MAX`); [`UseSites`] then sorts the uses
    /// by value.
    pub fn recompute(&mut self, func: &Function) {
        let defs = &mut self.defs;
        defs.truncate(0);
        defs.resize(func.num_values());
        self.uses.rebuild(func.num_values(), |uses| {
            // Most instructions use at most two values; a φ-heavy or
            // call-heavy function grows the buffer once more.
            uses.reserve(2 * func.num_insts());
            for block in func.blocks() {
                for (pos, &inst) in func.block_insts(block).iter().enumerate() {
                    let data = func.inst(inst);
                    data.for_each_def(func.pools(), |value| {
                        defs[value].get_or_insert(DefSite { block, inst, pos });
                    });
                    match data.phi_args(func.pools()) {
                        Some(args) => {
                            uses.extend(args.iter().map(|arg| {
                                (arg.value, UseSite { block: arg.block, pos: usize::MAX })
                            }))
                        }
                        None => data.for_each_use(func.pools(), |value| {
                            uses.push((value, UseSite { block, pos }));
                        }),
                    }
                }
            }
        });
    }

    /// Definition site of `value`, if it has one.
    #[inline]
    pub fn def(&self, value: Value) -> Option<DefSite> {
        self.defs[value]
    }

    /// Use index.
    #[inline]
    pub fn uses(&self) -> &UseSites {
        &self.uses
    }

    /// Returns `true` if `value` has no use at all (its live range is a
    /// single point and never intersects anything).
    pub fn is_dead(&self, value: Value) -> bool {
        !self.uses.is_used(value)
    }
}

/// Live-range intersection oracle parameterized by a per-block liveness
/// backend `L` (either [`crate::sets::LivenessSets`] — the paper's
/// `InterCheck` — or [`crate::check::FastLivenessQuery`] — `InterCheck +
/// LiveCheck`).
#[derive(Clone, Debug)]
pub struct IntersectionTest<'a, L> {
    func: &'a Function,
    domtree: &'a DominatorTree,
    liveness: &'a L,
    info: &'a LiveRangeInfo,
}

impl<'a, L: BlockLiveness> IntersectionTest<'a, L> {
    /// Creates the oracle.
    pub fn new(
        func: &'a Function,
        domtree: &'a DominatorTree,
        liveness: &'a L,
        info: &'a LiveRangeInfo,
    ) -> Self {
        Self { func, domtree, liveness, info }
    }

    /// Returns `true` if `value` is live just after the program point
    /// `(block, pos)` (i.e. live-out of the instruction at that position).
    ///
    /// This sits in the innermost loops of the sharing rule and of
    /// `virtual_copy_conflict`, so the block-local position test is inlined
    /// (one comparison instead of a dominance-point call) and the whole
    /// query reduces to one use-site scan plus the successor part of the
    /// live-out query, which reuses the definition and uses read here.
    #[inline]
    pub fn is_live_after(&self, block: Block, pos: usize, value: Value) -> bool {
        debug_assert!(pos < usize::MAX, "a program point, not the φ-edge position");
        let Some(def) = self.info.def(value) else { return false };
        // Not yet defined at this point: definitely not live (SSA dominance).
        if def.block == block {
            if def.pos > pos {
                return false;
            }
        } else if !self.domtree.strictly_dominates(def.block, block) {
            return false;
        }
        // Used later in the same block (φ edge-uses count as "end of block")?
        let uses = self.info.uses().uses_of(value);
        if uses.iter().any(|site| site.block == block && site.pos > pos) {
            return true;
        }
        self.liveness.is_live_out_past_uses(block, value, def.block, uses)
    }

    /// Returns `true` if the live ranges of `a` and `b` intersect
    /// (Budimlić-style dominance test).
    #[inline]
    pub fn intersect(&self, a: Value, b: Value) -> bool {
        if a == b {
            return true;
        }
        let (Some(def_a), Some(def_b)) = (self.info.def(a), self.info.def(b)) else {
            return false;
        };
        // Values without any use have an empty live range and intersect nothing.
        if self.info.is_dead(a) || self.info.is_dead(b) {
            return false;
        }
        // Two live values defined by the very same instruction (e.g. the same
        // parallel copy) are simultaneously live right after it.
        if def_a.block == def_b.block && def_a.pos == def_b.pos {
            return true;
        }
        let a_dominates_b =
            self.domtree.dominates_point((def_a.block, def_a.pos), (def_b.block, def_b.pos));
        let (dominating, dominated, dominated_def) = if a_dominates_b {
            (a, b, def_b)
        } else if self.domtree.dominates_point((def_b.block, def_b.pos), (def_a.block, def_a.pos)) {
            (b, a, def_a)
        } else {
            // Neither definition dominates the other: in SSA (with the
            // dominance property) the live ranges cannot intersect.
            return false;
        };
        let _ = dominated;
        // They intersect iff the dominating value is live just after the
        // definition point of the dominated one.
        self.is_live_after(dominated_def.block, dominated_def.pos, dominating)
    }

    /// Like [`IntersectionTest::intersect`] for a pair with a known
    /// dominance orientation — the definition point of `dominating`
    /// dominates that of `dominated` (as e.g. the dominance-stack invariant
    /// of the linear class-interference walk guarantees). Skips the two
    /// dominance-point probes of the symmetric entry and the redundant
    /// definition guard inside the liveness query; the verdict is identical
    /// to `intersect(dominated, dominating)`.
    #[inline]
    pub fn intersect_dominating(&self, dominating: Value, dominated: Value) -> bool {
        if dominating == dominated {
            return true;
        }
        let (Some(def_a), Some(def_b)) = (self.info.def(dominating), self.info.def(dominated))
        else {
            return false;
        };
        // The dead checks and the used-after scan share the dominating
        // value's use slice, so it is loaded once.
        let uses_a = self.info.uses().uses_of(dominating);
        if uses_a.is_empty() || self.info.is_dead(dominated) {
            return false;
        }
        if def_a.block == def_b.block && def_a.pos == def_b.pos {
            return true;
        }
        debug_assert!(self
            .domtree
            .dominates_point((def_a.block, def_a.pos), (def_b.block, def_b.pos)));
        // `is_live_after(def_b.block, def_b.pos, dominating)` with the
        // defined-before guard already discharged by the dominance premise.
        if uses_a.iter().any(|site| site.block == def_b.block && site.pos > def_b.pos) {
            return true;
        }
        self.liveness.is_live_out_past_uses(def_b.block, dominating, def_a.block, uses_a)
    }

    /// Chaitin-style conservative interference: `a` and `b` interfere if one
    /// is live at the definition point of the other and that definition is
    /// not a copy between the two (Section III-A).
    pub fn chaitin_interfere(&self, a: Value, b: Value) -> bool {
        if a == b {
            return false;
        }
        let (Some(def_a), Some(def_b)) = (self.info.def(a), self.info.def(b)) else {
            return false;
        };
        // `defined = other` must be the very copy performed by the defining
        // instruction for Chaitin's exemption to apply.
        let copy_between = |def: DefSite, defined: Value, other: Value| -> bool {
            match self.func.inst(def.inst) {
                InstData::Copy { dst, src } => *dst == defined && *src == other,
                InstData::ParallelCopy { copies } => {
                    self.func.copy_list(*copies).iter().any(|c| c.dst == defined && c.src == other)
                }
                _ => false,
            }
        };
        // b live at def(a), and def(a) is not a copy a = b.
        if self.is_live_after(def_a.block, def_a.pos, b) && !copy_between(def_a, a, b) {
            return true;
        }
        if self.is_live_after(def_b.block, def_b.pos, a) && !copy_between(def_b, b, a) {
            return true;
        }
        false
    }

    /// Returns `true` if the definition point of `x` dominates the
    /// definition point of `y` (false when either has no definition). The
    /// interference-graph build pops its dominance stack with it; the class
    /// tests decide dominance from cached definition keys instead.
    #[inline]
    pub fn def_dominates(&self, x: Value, y: Value) -> bool {
        match (self.info.def(x), self.info.def(y)) {
            (Some(dx), Some(dy)) => {
                self.domtree.dominates_point((dx.block, dx.pos), (dy.block, dy.pos))
            }
            _ => false,
        }
    }

    /// Access to the per-value info (definition sites, uses).
    pub fn info(&self) -> &LiveRangeInfo {
        self.info
    }

    /// Access to the dominator tree used by the oracle.
    pub fn domtree(&self) -> &DominatorTree {
        self.domtree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::LivenessSets;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, ControlFlowGraph};

    struct Fixture {
        func: Function,
        domtree: DominatorTree,
        liveness: LivenessSets,
        info: LiveRangeInfo,
    }

    impl Fixture {
        fn new(func: Function) -> Self {
            let cfg = ControlFlowGraph::compute(&func);
            let domtree = DominatorTree::compute(&func, &cfg);
            let liveness = LivenessSets::compute(&func, &cfg);
            let info = LiveRangeInfo::compute(&func);
            Self { func, domtree, liveness, info }
        }

        fn test(&self) -> IntersectionTest<'_, LivenessSets> {
            IntersectionTest::new(&self.func, &self.domtree, &self.liveness, &self.info)
        }
    }

    /// entry: a = 1; b = copy a; c = copy a; use = a+b; ret use
    /// a, b intersect (b defined while a live); b, c intersect; etc.
    fn copies_function() -> (Function, Vec<Value>) {
        let mut b = FunctionBuilder::new("copies", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.iconst(1);
        let b1 = b.copy(a);
        let c1 = b.copy(a);
        let s = b.binary(BinaryOp::Add, a, b1);
        let t = b.binary(BinaryOp::Add, s, c1);
        b.ret(Some(t));
        (b.finish(), vec![a, b1, c1, s, t])
    }

    #[test]
    fn straightline_intersections() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let it = fx.test();
        let [a, b1, c1, s, t] = vals[..] else { panic!() };
        // a is used at the add after both copies: intersects both copies.
        assert!(it.intersect(a, b1));
        assert!(it.intersect(a, c1));
        // b and c: b is live at def of c (used later by the add chain).
        assert!(it.intersect(b1, c1));
        // s and t: s dies at the def of t... s is used exactly by t's def, so
        // s is not live *after* t's def point: no intersection.
        assert!(!it.intersect(s, t));
        // Symmetry.
        assert_eq!(it.intersect(b1, a), it.intersect(a, b1));
        assert_eq!(it.intersect(c1, b1), it.intersect(b1, c1));
        // Reflexive by convention.
        assert!(it.intersect(a, a));
    }

    #[test]
    fn chaitin_ignores_copy_definitions() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let it = fx.test();
        let [a, b1, c1, ..] = vals[..] else { panic!() };
        // live ranges of a and b intersect, but b's def is the copy b = a:
        // Chaitin does not consider them interfering.
        assert!(it.intersect(a, b1));
        assert!(!it.chaitin_interfere(a, b1));
        assert!(!it.chaitin_interfere(a, c1));
        // b and c both copies of a, but their defs are copies of a (not of
        // each other), so Chaitin says they interfere.
        assert!(it.chaitin_interfere(b1, c1));
    }

    #[test]
    fn disjoint_branches_do_not_intersect() {
        let mut b = FunctionBuilder::new("branches", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let right = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        b.branch(p, left, right);
        b.switch_to_block(left);
        let x = b.iconst(1);
        b.jump(join);
        b.switch_to_block(right);
        let y = b.iconst(2);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(left, x), (right, y)]);
        b.ret(Some(m));
        let f = b.finish();
        let fx = Fixture::new(f);
        let it = fx.test();
        // x and y live on disjoint paths.
        assert!(!it.intersect(x, y));
        // Neither intersects the φ result (they die at the end of their blocks).
        assert!(!it.intersect(x, m));
        assert!(!it.intersect(y, m));
        // p intersects x: p dies at the branch... actually p's last use is the
        // branch in entry, and x is defined in left: no intersection.
        assert!(!it.intersect(p, x));
    }

    #[test]
    fn live_after_queries() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let it = fx.test();
        let entry = fx.func.entry();
        let [a, b1, _c1, s, t] = vals[..] else { panic!() };
        // After inst 0 (def of a): a live (used later), b not yet defined.
        assert!(it.is_live_after(entry, 0, a));
        assert!(!it.is_live_after(entry, 0, b1));
        // After inst 3 (s = a + b): a dead, s live.
        assert!(!it.is_live_after(entry, 3, a));
        assert!(it.is_live_after(entry, 3, s));
        // After the return nothing is live.
        assert!(!it.is_live_after(entry, 5, t));
    }

    #[test]
    fn values_defined_by_same_parallel_copy_conflict() {
        let mut b = FunctionBuilder::new("parcopy", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.iconst(1);
        let c = b.iconst(2);
        let x = b.declare_value();
        let y = b.declare_value();
        b.parallel_copy(vec![
            ossa_ir::CopyPair { dst: x, src: a },
            ossa_ir::CopyPair { dst: y, src: c },
        ]);
        let s = b.binary(BinaryOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let fx = Fixture::new(f);
        let it = fx.test();
        assert!(it.intersect(x, y));
    }

    #[test]
    fn dead_value_does_not_intersect() {
        let mut b = FunctionBuilder::new("dead", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let live = b.iconst(1);
        let dead = b.iconst(2);
        let r = b.binary(BinaryOp::Add, live, live);
        b.ret(Some(r));
        let f = b.finish();
        let fx = Fixture::new(f);
        let it = fx.test();
        assert!(fx.info.is_dead(dead));
        assert!(!it.intersect(dead, live));
        assert!(!it.intersect(live, dead));
    }
}
