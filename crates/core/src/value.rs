//! The "SSA value" of variables (Section III-A of the paper).
//!
//! In SSA every variable has a single definition, so "has the same value" is
//! an equivalence relation that can be computed for free: walking the
//! dominator tree in pre-order, a copy `b = a` gives `V(b) = V(a)` and any
//! other definition gives `V(b) = b`. The representative of an equivalence
//! class is the variable whose definition dominates the definitions of all
//! other members.
//!
//! This is the ingredient that turns live-range *intersection* into the
//! paper's value-based *interference*: `a` and `b` interfere iff their live
//! ranges intersect **and** `V(a) ≠ V(b)`.

use ossa_ir::entity::{SecondaryMap, Value};
use ossa_ir::{ControlFlowGraph, DominatorTree, Function, InstData};

/// Table mapping each SSA variable to its value representative.
#[derive(Clone, Debug, Default)]
pub struct ValueTable {
    value_of: SecondaryMap<Value, Option<Value>>,
    /// Parallel-copy resolution scratch of [`ValueTable::compute_into`].
    resolved: Vec<(Value, Value)>,
}

impl ValueTable {
    /// Computes the value table of `func` (which must be in SSA form) by a
    /// pre-order traversal of the dominator tree.
    pub fn compute(func: &Function, domtree: &DominatorTree) -> Self {
        let mut this = Self::default();
        this.compute_into(func, domtree);
        this
    }

    /// Recomputes the table for `func` in place, reusing the dense map of a
    /// previous (possibly different) function. Identical to
    /// [`ValueTable::compute`] except for the heap traffic.
    pub fn compute_into(&mut self, func: &Function, domtree: &DominatorTree) {
        let Self { value_of, resolved } = self;
        value_of.truncate(func.num_values());
        for slot in value_of.values_mut() {
            *slot = None;
        }
        value_of.resize(func.num_values());
        // Only copy destinations need an entry: `value_of()` falls back to
        // the identity for an unset slot, which is exactly the answer for a
        // non-copy definition — so the catch-all def walk the table used to
        // perform wrote values that were never observably different.
        for &block in domtree.preorder() {
            for &inst in func.block_insts(block) {
                match func.inst(inst) {
                    InstData::Copy { dst, src } => {
                        value_of[*dst] = Some(value_of[*src].unwrap_or(*src));
                    }
                    InstData::ParallelCopy { copies } => {
                        // All sources are read before any destination is
                        // written, and in SSA a destination cannot shadow a
                        // source of the same parallel copy, so resolving
                        // sources first (into a reusable scratch) is sound.
                        resolved.clear();
                        resolved.extend(
                            func.copy_list(*copies)
                                .iter()
                                .map(|c| (c.dst, value_of[c.src].unwrap_or(c.src))),
                        );
                        for &(dst, value) in resolved.iter() {
                            value_of[dst] = Some(value);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Computes the value table, building the analyses internally.
    pub fn of(func: &Function) -> Self {
        let cfg = ControlFlowGraph::compute(func);
        let domtree = DominatorTree::compute(func, &cfg);
        Self::compute(func, &domtree)
    }

    /// The value representative of `v` (itself if `v` is not a copy).
    pub fn value_of(&self, v: Value) -> Value {
        self.value_of[v].unwrap_or(v)
    }

    /// Returns `true` if `a` and `b` are known to carry the same value.
    pub fn same_value(&self, a: Value, b: Value) -> bool {
        self.value_of(a) == self.value_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, CopyPair};

    #[test]
    fn copies_share_the_value_of_their_root() {
        let mut b = FunctionBuilder::new("copies", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let a = b.copy(x);
        let c = b.copy(a);
        let other = b.iconst(1);
        let sum = b.binary(BinaryOp::Add, c, other);
        b.ret(Some(sum));
        let f = b.finish();
        let values = ValueTable::of(&f);
        assert_eq!(values.value_of(a), x);
        assert_eq!(values.value_of(c), x);
        assert!(values.same_value(a, c));
        assert!(values.same_value(x, c));
        assert!(!values.same_value(x, other));
        assert_eq!(values.value_of(sum), sum);
    }

    #[test]
    fn parallel_copies_propagate_values() {
        let mut b = FunctionBuilder::new("parcopy", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.iconst(1);
        let c = b.iconst(2);
        let x = b.declare_value();
        let y = b.declare_value();
        b.parallel_copy(vec![CopyPair { dst: x, src: a }, CopyPair { dst: y, src: c }]);
        let s = b.binary(BinaryOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let values = ValueTable::of(&f);
        assert_eq!(values.value_of(x), a);
        assert_eq!(values.value_of(y), c);
        assert!(!values.same_value(x, y));
    }

    #[test]
    fn phi_defines_a_new_value() {
        let mut b = FunctionBuilder::new("phi", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x = b.iconst(1);
        b.branch(p, left, join);
        b.switch_to_block(left);
        let y = b.copy(x);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(entry, x), (left, y)]);
        b.ret(Some(m));
        let f = b.finish();
        let values = ValueTable::of(&f);
        // Even though both φ inputs carry V(x), the φ result is a fresh value
        // (the paper deliberately does not propagate through φs).
        assert_eq!(values.value_of(m), m);
        assert_eq!(values.value_of(y), x);
    }
}
