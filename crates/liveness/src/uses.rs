//! Use-site index: for every value, where it is used.
//!
//! φ uses are attributed to the *end of the predecessor block* (position
//! `usize::MAX`), matching the parallel-copy semantics of φ-functions used
//! throughout the paper.
//!
//! The index is stored densely (one slot per value) because every
//! live-range intersection query scans a value's [`UseSites::uses_of`]
//! slice ([`crate::IntersectionTest::is_live_after`] and
//! [`crate::IntersectionTest::intersect_dominating`]). It is built by
//! [`crate::LiveRangeInfo::recompute`], in the same instruction walk that
//! records the definition sites.

use ossa_ir::entity::{group_by_entity, Block, Value};

/// A single use of a value.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct UseSite {
    /// Block containing the use (for φ arguments, the predecessor block).
    pub block: Block,
    /// Position within the block; `usize::MAX` denotes a φ use at the end of
    /// the predecessor block.
    pub pos: usize,
}

impl UseSite {
    /// Returns `true` if this is a φ use placed at the end of a predecessor.
    pub fn is_phi_edge_use(&self) -> bool {
        self.pos == usize::MAX
    }
}

/// Index of all uses of every value in a function, stored in compressed
/// sparse-row form: one flat site array plus per-value offsets, instead of
/// one `Vec` per used value.
#[derive(Clone, Debug, Default)]
pub struct UseSites {
    /// `offsets[v.index()] .. offsets[v.index() + 1]` indexes `sites`.
    offsets: Vec<u32>,
    /// All use sites, grouped by value, in block-traversal order per value.
    sites: Vec<UseSite>,
    /// Every use as a `(value, site)` pair in block-traversal order: the
    /// input of the counting sort in [`UseSites::rebuild`], kept so a
    /// recycled rebuild performs no allocation at all.
    pairs: Vec<(Value, UseSite)>,
}

impl UseSites {
    /// Rebuilds the index over `num_values` values, reusing the arrays of
    /// a previous (possibly different) function. `walk` pushes every use as
    /// a `(value, site)` pair, in block-traversal order, into the cleared
    /// pair buffer; a stable counting sort by value then fills the offsets
    /// and sites, so each value's sites keep the order `walk` pushed them in.
    pub(crate) fn rebuild(
        &mut self,
        num_values: usize,
        walk: impl FnOnce(&mut Vec<(Value, UseSite)>),
    ) {
        self.pairs.clear();
        walk(&mut self.pairs);
        group_by_entity(&self.pairs, num_values, &mut self.offsets, &mut self.sites);
    }

    /// All uses of `value` (empty slice if never used).
    #[inline]
    pub fn uses_of(&self, value: Value) -> &[UseSite] {
        let i = value.index();
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.sites[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Returns `true` if `value` has at least one use.
    pub fn is_used(&self, value: Value) -> bool {
        !self.uses_of(value).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::LiveRangeInfo;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::BinaryOp;

    #[test]
    fn use_sites_record_positions_and_phi_edges() {
        let mut b = FunctionBuilder::new("uses", 1);
        let entry = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0); // pos 0
        let y = b.binary(BinaryOp::Add, x, x); // pos 1, uses x twice
        b.jump(join); // pos 2
        b.switch_to_block(join);
        let p = b.phi(vec![(entry, y)]);
        b.ret(Some(p));
        let f = b.finish();
        let info = LiveRangeInfo::compute(&f);
        let uses = info.uses();

        let x_uses = uses.uses_of(x);
        assert_eq!(x_uses.len(), 2);
        assert!(x_uses.iter().all(|s| s.block == entry && s.pos == 1));

        let y_uses = uses.uses_of(y);
        assert_eq!(y_uses.len(), 1);
        assert!(y_uses[0].is_phi_edge_use());
        assert_eq!(y_uses[0].block, entry);

        assert!(uses.is_used(p));
    }

    #[test]
    fn unused_value_has_no_sites() {
        let mut b = FunctionBuilder::new("unused", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let dead = b.iconst(1);
        b.ret(None);
        let f = b.finish();
        let info = LiveRangeInfo::compute(&f);
        let uses = info.uses();
        assert!(!uses.is_used(dead));
        assert!(uses.uses_of(dead).is_empty());
    }
}
