//! Critical-edge splitting.
//!
//! A CFG edge is *critical* when its source has several successors and its
//! destination has several predecessors. Copies emulating φ-functions cannot
//! be placed on such an edge without affecting other paths, so most
//! out-of-SSA schemes either split these edges or (as the paper's approach
//! does) handle them with the extra φ-entry copy of Sreedhar's Method I.
//! Edge splitting is still needed for the branch-with-decrement corner case
//! (Figure 2), so this module provides a single-edge splitter.

use ossa_ir::entity::Block;
use ossa_ir::{Function, InstData};

/// Splits the edge `pred -> succ` by inserting a fresh block containing a
/// single jump to `succ`. φ-functions of `succ` are redirected to the new
/// block. Returns the new block.
///
/// # Panics
/// Panics if there is no edge from `pred` to `succ`.
pub fn split_edge(func: &mut Function, pred: Block, succ: Block) -> Block {
    let term = func.terminator(pred).expect("predecessor must have a terminator");
    assert!(func.inst(term).successors_iter().any(|s| s == succ), "no edge from {pred} to {succ}");
    let middle = func.add_block();
    func.inst_mut(term).replace_successor(succ, middle);
    func.append_inst(middle, InstData::Jump { dest: succ });
    func.redirect_phi_inputs(succ, pred, middle);
    middle
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::verify_ssa;

    /// entry branches to {left, join}; left jumps to join: entry->join is
    /// critical.
    fn critical_cfg() -> (Function, Block, Block, Block) {
        let mut b = FunctionBuilder::new("crit", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let one = b.iconst(1);
        b.branch(p, left, join);
        b.switch_to_block(left);
        let two = b.iconst(2);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(entry, one), (left, two)]);
        b.ret(Some(m));
        (b.finish(), entry, left, join)
    }

    #[test]
    fn split_edge_redirects_phi_and_branch() {
        let (mut f, entry, left, join) = critical_cfg();
        let middle = split_edge(&mut f, entry, join);
        verify_ssa(&f).expect("still valid SSA");
        assert_eq!(f.successors(entry), vec![left, middle]);
        assert_eq!(f.successors(middle), vec![join]);
        // The φ argument previously coming from entry now comes from middle.
        assert!(f.phi_inputs_from(join, entry).is_empty());
        assert_eq!(f.phi_inputs_from(join, middle).len(), 1);
    }

    #[test]
    #[should_panic(expected = "no edge")]
    fn splitting_a_missing_edge_panics() {
        let (mut f, _, left, _) = critical_cfg();
        let ghost = f.add_block();
        f.append_inst(ghost, InstData::Return { value: None });
        split_edge(&mut f, left, ghost);
    }
}
