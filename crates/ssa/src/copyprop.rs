//! Copy propagation on SSA form.
//!
//! Copy propagation replaces every use of `b` by `a` when `b = a` is a copy,
//! following chains of copies to their root. It is one of the SSA
//! optimizations that *break conventionality*: after it runs, SSA variables
//! related by φ-functions may have overlapping live ranges (the swap and
//! lost-copy situations of the paper), which is exactly what the out-of-SSA
//! translation has to cope with.

use ossa_ir::entity::{SecondaryMap, Value};
use ossa_ir::{Function, InstData};
use ossa_liveness::FunctionAnalyses;

use crate::scratch::SsaScratch;

/// Statistics of a copy-propagation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopyPropagation {
    /// Number of copy instructions whose uses were rewritten and that were
    /// removed from the function.
    pub copies_removed: usize,
    /// Number of operand rewrites performed.
    pub uses_rewritten: usize,
}

/// Runs copy propagation on SSA `func` in place.
///
/// Only plain [`InstData::Copy`] definitions are folded; φ-functions and
/// parallel copies are left untouched (their treatment is precisely the
/// subject of the out-of-SSA translation). The folded copy instructions are
/// removed.
pub fn propagate_copies(func: &mut Function) -> CopyPropagation {
    propagate_copies_keeping(func, 0)
}

/// Cached-pipeline variant of [`propagate_copies_keeping`], invalidating a
/// shared analysis cache as [`propagate_copies_keeping_scratch`] does. Like
/// [`propagate_copies_keeping`], it works in a fresh [`SsaScratch`]; a
/// caller running many functions keeps one scratch and calls
/// [`propagate_copies_keeping_scratch`].
pub fn propagate_copies_keeping_cached(
    func: &mut Function,
    keep_every: usize,
    analyses: &mut FunctionAnalyses,
) -> CopyPropagation {
    propagate_copies_keeping_scratch(func, keep_every, analyses, &mut SsaScratch::new())
}

/// Like [`propagate_copies`], but keeps every `keep_every`-th copy
/// untouched (`0` keeps none). Real optimization pipelines rarely remove
/// every copy — some remain because of partial redundancy, rematerialization
/// heuristics or renaming constraints — and the remaining ones are exactly
/// where the coalescing strategies compared by the paper differ, so the
/// workload generator keeps a fraction of them.
pub fn propagate_copies_keeping(func: &mut Function, keep_every: usize) -> CopyPropagation {
    let (mut analyses, mut scratch) = (FunctionAnalyses::new(), SsaScratch::new());
    propagate_copies_keeping_scratch(func, keep_every, &mut analyses, &mut scratch)
}

/// Like [`propagate_copies_keeping`], with the working maps recycled from
/// `scratch` — the zero-steady-state-allocation form used by the pooled
/// streaming path. Computation (including the `keep_every` counting) is
/// identical; only the working storage is reused.
///
/// Copy propagation rewrites and removes instructions inside existing
/// blocks, so the CFG-level analyses in `analyses` stay valid and only the
/// instruction-dependent caches are dropped — and only when the pass
/// actually changed something.
pub fn propagate_copies_keeping_scratch(
    func: &mut Function,
    keep_every: usize,
    analyses: &mut FunctionAnalyses,
    scratch: &mut SsaScratch,
) -> CopyPropagation {
    // Map every copy destination to its source.
    scratch.copy_source.truncate(0);
    scratch.copy_source.resize(func.num_values());
    scratch.copy_insts.clear();
    let mut copy_index = 0usize;
    // The pass removes instructions only after all the walks below, so the
    // layout and per-block instruction lists can be walked by index.
    for bi in 0..func.layout().len() {
        let block = func.layout()[bi];
        for ii in 0..func.block_len(block) {
            let inst = func.block_insts(block)[ii];
            if let InstData::Copy { dst, src } = *func.inst(inst) {
                copy_index += 1;
                if keep_every != 0 && copy_index.is_multiple_of(keep_every) {
                    continue; // deliberately kept
                }
                scratch.copy_source[dst] = Some(src);
                scratch.copy_insts.push((block, inst, dst));
            }
        }
    }

    if scratch.copy_insts.is_empty() {
        return CopyPropagation::default();
    }

    // Resolve chains of copies (a <- b <- c) to the root definition.
    let resolve = |mut v: Value, map: &SecondaryMap<Value, Option<Value>>| -> Value {
        let mut hops = 0usize;
        while let Some(src) = map[v] {
            v = src;
            hops += 1;
            if hops > map.len() {
                break; // cycle guard; cannot happen in well-formed SSA
            }
        }
        v
    };

    scratch.roots.truncate(0);
    scratch.roots.resize(func.num_values());
    for value in func.values() {
        if scratch.copy_source[value].is_some() {
            scratch.roots[value] = Some(resolve(value, &scratch.copy_source));
        }
    }

    // Rewrite all uses (including φ arguments) to the roots.
    let mut uses_rewritten = 0usize;
    for bi in 0..func.layout().len() {
        let block = func.layout()[bi];
        for ii in 0..func.block_len(block) {
            let inst = func.block_insts(block)[ii];
            let roots = &scratch.roots;
            func.map_inst_uses(inst, |v| match roots[v] {
                Some(root) if root != v => {
                    uses_rewritten += 1;
                    root
                }
                _ => v,
            });
        }
    }

    // Remove the now-dead copy instructions.
    let mut copies_removed = 0usize;
    for ci in 0..scratch.copy_insts.len() {
        let (block, inst, _dst) = scratch.copy_insts[ci];
        if func.remove_inst(block, inst) {
            copies_removed += 1;
        }
    }

    let stats = CopyPropagation { copies_removed, uses_rewritten };
    if stats != CopyPropagation::default() {
        analyses.invalidate_instructions();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{verify_ssa, BinaryOp};

    #[test]
    fn chains_of_copies_are_folded_to_the_root() {
        let mut b = FunctionBuilder::new("chain", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let a = b.copy(x);
        let c = b.copy(a);
        let d = b.copy(c);
        let r = b.binary(BinaryOp::Add, d, a);
        b.ret(Some(r));
        let mut f = b.finish();
        let stats = propagate_copies(&mut f);
        assert_eq!(stats.copies_removed, 3);
        assert!(stats.uses_rewritten >= 2);
        verify_ssa(&f).expect("still valid SSA");
        // The add now reads x twice.
        let add = f
            .block_insts(entry)
            .iter()
            .copied()
            .find(|&i| matches!(f.inst(i), InstData::Binary { .. }));
        assert_eq!(f.inst(add.unwrap()).uses(f.pools()), vec![x, x]);
        assert_eq!(f.count_copies(), 0);
    }

    #[test]
    fn phi_arguments_are_rewritten() {
        let mut b = FunctionBuilder::new("phi-args", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let right = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x = b.iconst(1);
        b.branch(p, left, right);
        b.switch_to_block(left);
        let a = b.copy(x);
        b.jump(join);
        b.switch_to_block(right);
        let c = b.copy(x);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(left, a), (right, c)]);
        b.ret(Some(m));
        let mut f = b.finish();
        propagate_copies(&mut f);
        verify_ssa(&f).expect("still valid SSA");
        // Both φ arguments now reference x directly.
        assert_eq!(f.phi_inputs_from(join, left)[0].1, x);
        assert_eq!(f.phi_inputs_from(join, right)[0].1, x);
    }

    #[test]
    fn function_without_copies_is_untouched() {
        let mut b = FunctionBuilder::new("nocopy", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.binary(BinaryOp::Mul, x, x);
        b.ret(Some(y));
        let mut f = b.finish();
        let before = f.display().to_string();
        let stats = propagate_copies(&mut f);
        assert_eq!(stats, CopyPropagation::default());
        assert_eq!(f.display().to_string(), before);
    }

    #[test]
    fn propagation_can_break_conventionality() {
        // The lost-copy pattern: after propagating the copy feeding the φ,
        // the φ result stays live across the back edge together with the
        // next iteration's value.
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
        let one = b.iconst(1);
        let sum = b.binary(BinaryOp::Add, x2, one);
        // x3 = copy sum ; feeding the φ — conventional form.
        b.func_mut().append_inst(header, InstData::Copy { dst: x3, src: sum });
        b.branch(p, header, exit);
        b.switch_to_block(exit);
        b.ret(Some(x2));
        let mut f = b.finish();
        verify_ssa(&f).expect("valid before");
        let stats = propagate_copies(&mut f);
        assert_eq!(stats.copies_removed, 1);
        verify_ssa(&f).expect("valid after");
        // The φ now takes `sum` directly on the back edge.
        assert_eq!(f.phi_inputs_from(header, header)[0].1, sum);
    }
}
