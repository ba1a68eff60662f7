//! Conventional-SSA (CSSA) property checker.
//!
//! SSA form is *conventional* when all variables transitively connected by
//! φ-functions (the φ congruence classes of Sreedhar et al.) can be replaced
//! by a single name without changing the program semantics — i.e. when no
//! two variables of the same class have intersecting live ranges. Code just
//! out of SSA construction is conventional; copy propagation and other SSA
//! optimizations may break the property, and the out-of-SSA translation's
//! first phase (copy insertion) restores it.

use std::ops::ControlFlow;

use ossa_ir::entity::{SecondaryMap, Value};
use ossa_ir::{Function, InstData};
use ossa_liveness::{BlockLiveness, FunctionAnalyses, IntersectionTest};

use crate::scratch::SsaScratch;

/// A pair of values from the same φ congruence class whose live ranges
/// intersect — a witness that the function is not in CSSA form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CssaViolation {
    /// First value of the intersecting pair.
    pub a: Value,
    /// Second value of the intersecting pair.
    pub b: Value,
}

/// φ congruence classes: the partition of values induced by "appears in the
/// same φ-function", closed transitively.
///
/// A dense union-find over value indices. Each class's root is its smallest
/// member, so sorting `(root, member)` pairs lists the classes in the order
/// of their smallest members.
#[derive(Clone, Debug, Default)]
pub struct PhiCongruence {
    /// Union-find parent of each value seen in a φ-function (a root is its
    /// own parent); `None` for the other values.
    parent: SecondaryMap<Value, Option<Value>>,
}

impl PhiCongruence {
    /// Builds the φ congruence classes of `func`.
    pub fn compute(func: &Function) -> Self {
        let mut this = Self::default();
        this.compute_into(func);
        this
    }

    /// Rebuilds the classes for `func` in place, keeping the storage.
    fn compute_into(&mut self, func: &Function) {
        self.parent.truncate(0);
        self.parent.resize(func.num_values());
        for &block in func.layout() {
            // φ-functions are a prefix of the block.
            for &inst in func.block_insts(block) {
                let data = func.inst(inst);
                let InstData::Phi { dst, .. } = *data else { break };
                for arg in data.phi_args(func.pools()).expect("phi") {
                    self.union(dst, arg.value);
                }
            }
        }
    }

    /// The root of `v`'s class (`v` itself for a value in no φ-function),
    /// compressing the path to it.
    fn find(&mut self, v: Value) -> Value {
        let mut root = v;
        while let Some(parent) = self.parent[root].filter(|&parent| parent != root) {
            root = parent;
        }
        let mut at = v;
        while at != root {
            let next = self.parent[at].expect("a non-root has a parent");
            self.parent[at] = Some(root);
            at = next;
        }
        root
    }

    fn union(&mut self, a: Value, b: Value) {
        self.parent[a].get_or_insert(a);
        self.parent[b].get_or_insert(b);
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra.max(rb)] = Some(ra.min(rb));
    }

    /// Returns `true` if `a` and `b` are in the same φ congruence class.
    pub fn same_class(&mut self, a: Value, b: Value) -> bool {
        self.find(a) == self.find(b)
    }

    /// Refills `grouped` with every value seen in a φ-function as a
    /// `(class root, value)` pair, sorted: class by class in the order of
    /// their smallest members, each class in increasing value order.
    fn grouped_members_into(&mut self, grouped: &mut Vec<(Value, Value)>) {
        grouped.clear();
        // Reserved up front, so that a fresh list allocates once.
        grouped.reserve(self.parent.len());
        for index in 0..self.parent.len() {
            let v = Value::from_index(index);
            if self.parent[v].is_some() {
                grouped.push((self.find(v), v));
            }
        }
        grouped.sort_unstable();
    }

    /// Groups all values seen in φ-functions by class, each class sorted,
    /// the classes ordered by their smallest members.
    pub fn classes(&mut self) -> Vec<Vec<Value>> {
        let mut grouped = Vec::new();
        self.grouped_members_into(&mut grouped);
        grouped
            .chunk_by(|x, y| x.0 == y.0)
            .map(|class| class.iter().map(|&(_, v)| v).collect())
            .collect()
    }
}

/// Checks whether `func` (in SSA form) is conventional, reading the
/// dominator tree, liveness and def/use index from a shared analysis cache.
/// Returns the list of intersecting same-class pairs; an empty list means
/// the function is CSSA. The check is read-only: nothing is invalidated,
/// and whatever it computes stays cached for the next pass.
///
/// On a reducible CFG the intersection tests query the fast liveness
/// checker, which depends only on the CFG and so survives later
/// instruction-only invalidations; an irreducible CFG uses the liveness
/// sets, as the translation does.
pub fn cssa_violations_cached(func: &Function, analyses: &FunctionAnalyses) -> Vec<CssaViolation> {
    let mut violations = Vec::new();
    let _ = scan_violations(func, analyses, &mut SsaScratch::new(), |violation| {
        violations.push(violation);
        ControlFlow::<()>::Continue(())
    });
    violations
}

/// Tests every pair of values of every φ congruence class for intersection
/// — class by class in the order of [`PhiCongruence::classes`], pairs in
/// member order — passing each intersecting pair to `on_violation` until it
/// breaks. The classes are built in `scratch`.
fn scan_violations<B>(
    func: &Function,
    analyses: &FunctionAnalyses,
    scratch: &mut SsaScratch,
    on_violation: impl FnMut(CssaViolation) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let domtree = analyses.domtree(func);
    let info = analyses.live_range_info(func);
    let SsaScratch { congruence, phi_members: grouped, .. } = scratch;
    congruence.compute_into(func);
    congruence.grouped_members_into(grouped);
    if analyses.is_reducible(func) {
        let fast = analyses.fast_liveness(func).query(analyses.cfg(func), domtree, info);
        scan_classes(grouped, &IntersectionTest::new(func, domtree, &fast, info), on_violation)
    } else {
        let liveness = analyses.liveness_sets(func);
        scan_classes(grouped, &IntersectionTest::new(func, domtree, liveness, info), on_violation)
    }
}

/// The pair scan of [`scan_violations`] over `(class root, member)` pairs
/// sorted by class.
fn scan_classes<L: BlockLiveness, B>(
    grouped: &[(Value, Value)],
    intersect: &IntersectionTest<'_, L>,
    mut on_violation: impl FnMut(CssaViolation) -> ControlFlow<B>,
) -> ControlFlow<B> {
    for class in grouped.chunk_by(|x, y| x.0 == y.0) {
        for (i, &(_, a)) in class.iter().enumerate() {
            for &(_, b) in &class[i + 1..] {
                if intersect.intersect(a, b) {
                    on_violation(CssaViolation { a, b })?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Returns `true` if `func` is in conventional SSA form.
pub fn is_conventional(func: &Function) -> bool {
    is_conventional_cached(func, &FunctionAnalyses::new())
}

/// Like [`is_conventional`], reading analyses from a shared cache. Stops at
/// the first intersecting pair.
///
/// Working storage comes from a fresh [`SsaScratch`] per call; a caller
/// checking many functions keeps one scratch and calls
/// [`is_conventional_scratch`] instead.
pub fn is_conventional_cached(func: &Function, analyses: &FunctionAnalyses) -> bool {
    is_conventional_scratch(func, analyses, &mut SsaScratch::new())
}

/// Like [`is_conventional_cached`], building the φ congruence classes in
/// `scratch`'s recycled storage: once warm, the check allocates nothing.
pub fn is_conventional_scratch(
    func: &Function,
    analyses: &FunctionAnalyses,
    scratch: &mut SsaScratch,
) -> bool {
    scan_violations(func, analyses, scratch, ControlFlow::Break).is_continue()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copyprop::propagate_copies;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, InstData};

    /// Lost-copy shape. In the conventional variant the φ result is copied
    /// into a separate value before escaping the loop and the φ argument is
    /// fed through a dedicated copy; copy propagation removes both copies and
    /// produces the classic non-conventional form.
    fn lost_copy(conventional: bool) -> Function {
        let mut b = FunctionBuilder::new("lost-copy", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x1 = b.iconst(1);
        b.jump(header);
        b.switch_to_block(header);
        let x3 = b.declare_value();
        let x2 = b.phi(vec![(entry, x1), (header, x3)]);
        let escaped = b.copy(x2);
        let one = b.iconst(1);
        let sum = b.binary(BinaryOp::Add, x2, one);
        b.func_mut().append_inst(header, InstData::Copy { dst: x3, src: sum });
        b.branch(p, header, exit);
        b.switch_to_block(exit);
        b.ret(Some(escaped));
        let mut f = b.finish();
        if !conventional {
            propagate_copies(&mut f);
        }
        f
    }

    #[test]
    fn freshly_built_phi_web_is_conventional() {
        let f = lost_copy(true);
        assert!(is_conventional(&f));
        assert!(cssa_violations_cached(&f, &FunctionAnalyses::new()).is_empty());
    }

    #[test]
    fn copy_propagation_breaks_conventionality() {
        let f = lost_copy(false);
        let violations = cssa_violations_cached(&f, &FunctionAnalyses::new());
        assert!(!violations.is_empty());
        assert!(!is_conventional(&f));
    }

    #[test]
    fn congruence_classes_are_transitive() {
        // Two φs chained: u = φ(a, b); w = φ(u, c) — all five in one class.
        let mut b = FunctionBuilder::new("chain", 1);
        let entry = b.create_block();
        let l1 = b.create_block();
        let j1 = b.create_block();
        let l2 = b.create_block();
        let j2 = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let a = b.iconst(1);
        b.branch(p, l1, j1);
        b.switch_to_block(l1);
        let c1 = b.iconst(2);
        b.jump(j1);
        b.switch_to_block(j1);
        let u = b.phi(vec![(entry, a), (l1, c1)]);
        b.branch(p, l2, j2);
        b.switch_to_block(l2);
        let c2 = b.iconst(3);
        b.jump(j2);
        b.switch_to_block(j2);
        let w = b.phi(vec![(j1, u), (l2, c2)]);
        b.ret(Some(w));
        let f = b.finish();
        let mut congruence = PhiCongruence::compute(&f);
        assert!(congruence.same_class(a, w));
        assert!(congruence.same_class(c1, c2));
        assert!(congruence.same_class(u, w));
        let classes = congruence.classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].len(), 5);
    }

    #[test]
    fn unrelated_phis_form_separate_classes() {
        let mut b = FunctionBuilder::new("two-phis", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let a1 = b.iconst(1);
        let b1 = b.iconst(10);
        b.branch(p, left, join);
        b.switch_to_block(left);
        let a2 = b.iconst(2);
        let b2 = b.iconst(20);
        b.jump(join);
        b.switch_to_block(join);
        let pa = b.phi(vec![(entry, a1), (left, a2)]);
        let pb = b.phi(vec![(entry, b1), (left, b2)]);
        let s = b.binary(BinaryOp::Add, pa, pb);
        b.ret(Some(s));
        let f = b.finish();
        let mut congruence = PhiCongruence::compute(&f);
        assert!(!congruence.same_class(pa, pb));
        assert_eq!(congruence.classes().len(), 2);
        // This one is conventional: the two webs do not internally intersect.
        assert!(is_conventional(&f));
    }

    #[test]
    fn swap_pattern_is_not_conventional() {
        // a2 = φ(a1, b2); b2 = φ(b1, a2) — the classic swap problem.
        let mut b = FunctionBuilder::new("swap", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let a1 = b.iconst(1);
        let b1 = b.iconst(2);
        b.jump(header);
        b.switch_to_block(header);
        let a2 = b.declare_value();
        let b2 = b.declare_value();
        b.phi_to(a2, vec![(entry, a1), (header, b2)]);
        b.phi_to(b2, vec![(entry, b1), (header, a2)]);
        b.branch(p, header, exit);
        b.switch_to_block(exit);
        let s = b.binary(BinaryOp::Add, a2, b2);
        b.ret(Some(s));
        let f = b.finish();
        ossa_ir::verify_ssa(&f).expect("valid SSA");
        assert!(!is_conventional(&f));
    }
}
