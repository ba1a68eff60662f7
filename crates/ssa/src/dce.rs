//! Dead-code elimination on SSA form.
//!
//! Cytron et al. already observed that the naive φ replacement should be
//! preceded by dead-code elimination. This pass removes value-producing
//! instructions (including φ-functions and copies) whose results are never
//! used, iterating until a fixpoint since removing one instruction can make
//! another dead.

use ossa_ir::Function;
use ossa_liveness::FunctionAnalyses;

use crate::scratch::SsaScratch;

/// Statistics of a DCE run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadCodeElimination {
    /// Number of instructions removed.
    pub insts_removed: usize,
    /// Number of fixpoint iterations performed.
    pub iterations: usize,
}

/// Like [`eliminate_dead_code`], declaring its invalidation against a shared
/// analysis cache: DCE removes instructions inside existing blocks, so the
/// CFG-level analyses stay valid and only the instruction-dependent caches
/// are dropped — and only when an instruction was actually removed. It works
/// in a fresh [`SsaScratch`]; a caller running many functions keeps one
/// scratch, calls [`eliminate_dead_code_scratch`] and declares the same
/// invalidation.
pub fn eliminate_dead_code_cached(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
) -> DeadCodeElimination {
    let stats = eliminate_dead_code(func);
    if stats.insts_removed > 0 {
        analyses.invalidate_instructions();
    }
    stats
}

/// Removes side-effect-free instructions whose definitions are unused.
pub fn eliminate_dead_code(func: &mut Function) -> DeadCodeElimination {
    let mut scratch = SsaScratch::new();
    eliminate_dead_code_scratch(func, &mut scratch)
}

/// Like [`eliminate_dead_code`], with the working storage recycled from
/// `scratch` — the zero-steady-state-allocation form used by the pooled
/// streaming path. Removal order (and with it the final instruction stream)
/// is identical; only the working storage is reused.
pub fn eliminate_dead_code_scratch(
    func: &mut Function,
    scratch: &mut SsaScratch,
) -> DeadCodeElimination {
    let mut stats = DeadCodeElimination::default();
    loop {
        stats.iterations += 1;
        // Count uses of every value (φ arguments included).
        scratch.use_counts.truncate(0);
        scratch.use_counts.resize(func.num_values());
        for bi in 0..func.layout().len() {
            let block = func.layout()[bi];
            for ii in 0..func.block_len(block) {
                let inst = func.block_insts(block)[ii];
                scratch.def_tmp.clear();
                func.collect_inst_uses(inst, &mut scratch.def_tmp);
                for &v in &scratch.def_tmp {
                    scratch.use_counts[v] += 1;
                }
            }
        }

        // Walk each block by position, advancing only when the instruction
        // survives: equivalent to iterating a snapshot of the list (removing
        // an instruction never changes which *later* instructions exist).
        let mut removed_this_round = 0usize;
        for bi in 0..func.layout().len() {
            let block = func.layout()[bi];
            let mut pos = 0usize;
            while pos < func.block_len(block) {
                let inst = func.block_insts(block)[pos];
                if func.inst(inst).has_side_effects() {
                    pos += 1;
                    continue;
                }
                scratch.def_tmp.clear();
                func.collect_inst_defs(inst, &mut scratch.def_tmp);
                if scratch.def_tmp.is_empty() {
                    pos += 1;
                    continue;
                }
                if scratch.def_tmp.iter().all(|&d| scratch.use_counts[d] == 0) {
                    func.remove_inst(block, inst);
                    removed_this_round += 1;
                } else {
                    pos += 1;
                }
            }
        }
        stats.insts_removed += removed_this_round;
        if removed_this_round == 0 {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{verify_ssa, BinaryOp};

    #[test]
    fn removes_transitively_dead_chains() {
        let mut b = FunctionBuilder::new("dce", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let dead1 = b.iconst(1);
        let dead2 = b.binary(BinaryOp::Add, dead1, dead1);
        let _dead3 = b.binary(BinaryOp::Mul, dead2, dead2);
        let live = b.binary(BinaryOp::Add, x, x);
        b.ret(Some(live));
        let mut f = b.finish();
        let stats = eliminate_dead_code(&mut f);
        assert_eq!(stats.insts_removed, 3);
        assert!(stats.iterations >= 2);
        verify_ssa(&f).expect("still valid");
        assert_eq!(f.block_len(entry), 3); // param, add, return
    }

    #[test]
    fn keeps_side_effecting_instructions() {
        let mut b = FunctionBuilder::new("effects", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let _unused_call = b.call(1, vec![x]);
        b.store(x, x);
        b.ret(None);
        let mut f = b.finish();
        let stats = eliminate_dead_code(&mut f);
        assert_eq!(stats.insts_removed, 0);
        assert_eq!(f.block_len(entry), 4);
    }

    #[test]
    fn removes_dead_phis() {
        let mut b = FunctionBuilder::new("deadphi", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let right = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let a = b.iconst(1);
        let c = b.iconst(2);
        b.branch(p, left, right);
        b.switch_to_block(left);
        b.jump(join);
        b.switch_to_block(right);
        b.jump(join);
        b.switch_to_block(join);
        let _dead_phi = b.phi(vec![(left, a), (right, c)]);
        b.ret(None);
        let mut f = b.finish();
        let stats = eliminate_dead_code(&mut f);
        // The φ dies first, then both constants.
        assert_eq!(stats.insts_removed, 3);
        assert_eq!(f.count_phis(), 0);
        verify_ssa(&f).expect("still valid");
    }
}
