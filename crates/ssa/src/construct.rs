//! SSA construction (Cytron et al.): pruned φ placement on iterated
//! dominance frontiers followed by dominance-tree renaming.
//!
//! The input is a function in "virtual register" form: values may be defined
//! several times and no φ-functions are present. The output is the same
//! function rewritten in SSA form with the dominance property. A map from
//! each new SSA value back to the original variable is left in the
//! [`SsaScratch`] ([`SsaScratch::origin`]) so that tests can relate the two
//! forms.

use ossa_ir::entity::{group_by_entity, Block, Value};
use ossa_ir::{ControlFlowGraph, DominatorTree, Function, InstData, PhiArg};
use ossa_liveness::FunctionAnalyses;

use crate::scratch::SsaScratch;

/// Result of SSA construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsaConstruction {
    /// Number of φ-functions inserted.
    pub phis_inserted: usize,
    /// Number of fresh SSA values created by renaming.
    pub values_created: usize,
}

/// Converts `func` (virtual-register form) into pruned SSA form in place,
/// owning a fresh analysis cache.
///
/// φ-functions are placed on the iterated dominance frontier of each
/// variable's definition blocks, restricted to blocks where the variable is
/// live-in (pruned SSA). Variables that may be used before being defined are
/// given an implicit `const 0` definition at the top of the entry block so
/// that the result always satisfies the SSA dominance property.
///
/// The entry block must have no predecessor, which [`ossa_ir::verify_cfg`]
/// checks: an entry definition runs on every pass through the entry block,
/// so a loop back to the entry would overwrite the value it carries.
pub fn construct_ssa(func: &mut Function) -> SsaConstruction {
    let mut analyses = FunctionAnalyses::new();
    construct_ssa_cached(func, &mut analyses)
}

/// Like [`construct_ssa`], sharing the analyses in `analyses`.
///
/// Construction only mutates the instruction stream (entry definitions,
/// φ-functions, renaming) — the block structure is untouched — so the
/// CFG-level analyses (CFG, dominator tree, dominance frontiers) are
/// computed at most once through the whole pass and *stay valid for the
/// caller*; only the instruction-dependent caches are invalidated. Liveness
/// is computed twice exactly when entry definitions had to be inserted (a
/// new instruction version).
///
/// Working storage comes from a fresh [`SsaScratch`] per call; a caller
/// converting many functions keeps one scratch and calls
/// [`construct_ssa_scratch`] instead.
pub fn construct_ssa_cached(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
) -> SsaConstruction {
    construct_ssa_scratch(func, analyses, &mut SsaScratch::new())
}

/// Like [`construct_ssa_cached`], with every working buffer recycled from
/// `scratch` — the zero-steady-state-allocation form used by the pooled
/// streaming path. The origin map is left in the scratch
/// ([`SsaScratch::origin`]).
///
/// The computation is identical to [`construct_ssa_cached`] — same φ order,
/// same value numbering, bit-identical output — only the working storage is
/// reused.
pub fn construct_ssa_scratch(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut SsaScratch,
) -> SsaConstruction {
    // Give an entry definition to every variable that is live-in at entry
    // (i.e. possibly used before defined on some path).
    let entry = func.entry();
    scratch.entry_live_in.clear();
    scratch.entry_live_in.extend(analyses.liveness_sets(func).live_in(entry).iter());
    for insert_at in 0..scratch.entry_live_in.len() {
        let variable = scratch.entry_live_in[insert_at];
        func.insert_inst(entry, insert_at, InstData::Const { dst: variable, imm: 0 });
    }
    if !scratch.entry_live_in.is_empty() {
        // A new instruction version: φ placement below reads liveness again.
        analyses.invalidate_instructions();
    }

    let num_values_before = func.num_values();
    let mut phis_inserted = 0usize;
    {
        let cfg = analyses.cfg(func);
        let domtree = analyses.domtree(func);
        let frontiers = analyses.frontiers(func);
        let liveness = analyses.liveness_sets(func);

        // Definition blocks per variable, in first-definition order, stored
        // densely so that φ placement below iterates variables in index
        // order — iterating a HashMap here made φ order (and with it all
        // downstream SSA value numbering) vary from run to run. The walk
        // visits each block once, so a variable's blocks repeat only back
        // to back; a stable counting sort by variable groups them.
        let SsaScratch { def_pairs, last_def_block, def_block_offsets, def_blocks, .. } =
            &mut *scratch;
        def_pairs.clear();
        last_def_block.truncate(0);
        last_def_block.resize(num_values_before);
        for &block in cfg.reverse_post_order() {
            for &inst in func.block_insts(block) {
                func.for_each_inst_def(inst, |v| {
                    if last_def_block[v].replace(block) != Some(block) {
                        def_pairs.push((v, block));
                    }
                });
            }
        }
        group_by_entity(def_pairs, num_values_before, def_block_offsets, def_blocks);

        // φ placement on iterated dominance frontiers (pruned with the
        // liveness computed above — φ insertion itself does not change what
        // the placement reads).
        scratch.has_phi.clear();
        scratch.has_phi.resize(func.num_blocks(), false);
        scratch.ever_on_worklist.clear();
        scratch.ever_on_worklist.resize(func.num_blocks(), false);
        for var_index in 0..num_values_before {
            let variable = Value::from_index(var_index);
            let (lo, hi) =
                (scratch.def_block_offsets[var_index], scratch.def_block_offsets[var_index + 1]);
            if lo == hi {
                continue;
            }
            scratch.worklist.clear();
            scratch.worklist.extend_from_slice(&scratch.def_blocks[lo as usize..hi as usize]);
            scratch.has_phi.iter_mut().for_each(|b| *b = false);
            scratch.ever_on_worklist.iter_mut().for_each(|b| *b = false);
            for &b in &scratch.worklist {
                scratch.ever_on_worklist[b.index()] = true;
            }
            while let Some(block) = scratch.worklist.pop() {
                for fi in 0..frontiers.frontier(block).len() {
                    let frontier_block = frontiers.frontier(block)[fi];
                    if scratch.has_phi[frontier_block.index()] {
                        continue;
                    }
                    if !liveness.live_in(frontier_block).contains(variable) {
                        continue; // pruned SSA: dead φ would be useless
                    }
                    scratch.has_phi[frontier_block.index()] = true;
                    scratch.phi_args.clear();
                    scratch.phi_args.extend(
                        cfg.preds(frontier_block)
                            .iter()
                            .map(|&pred| PhiArg { block: pred, value: variable }),
                    );
                    let args = func.make_phi_list(&scratch.phi_args);
                    func.insert_inst(frontier_block, 0, InstData::Phi { dst: variable, args });
                    phis_inserted += 1;
                    if !scratch.ever_on_worklist[frontier_block.index()] {
                        scratch.ever_on_worklist[frontier_block.index()] = true;
                        scratch.worklist.push(frontier_block);
                    }
                }
            }
        }

        // Renaming along the dominator tree.
        scratch.origin.truncate(0);
        scratch.origin.resize(func.num_values());
        for v in 0..num_values_before {
            let v = Value::from_index(v);
            scratch.origin[v] = Some(v);
        }

        scratch.stack_top.truncate(0);
        scratch.stack_top.resize(num_values_before);
        debug_assert!(scratch.versions.is_empty());
        rename_block(func, cfg, domtree, func.entry(), scratch);
    }
    // φ insertion and renaming are instruction-only mutations: the caller's
    // CFG-level caches stay valid, the instruction-dependent ones do not.
    analyses.invalidate_instructions();

    SsaConstruction { phis_inserted, values_created: func.num_values() - num_values_before }
}

fn rename_block(
    func: &mut Function,
    cfg: &ControlFlowGraph,
    domtree: &DominatorTree,
    block: Block,
    scratch: &mut SsaScratch,
) {
    // Remember how many versions this block pushes so it can pop them on
    // exit: each frame pops the shared version stack back to its entry
    // length.
    let pushed_start = scratch.versions.len();

    // Renaming rewrites operands in place but never adds or removes
    // instructions, so the block's instruction list can be walked by index.
    for ii in 0..func.block_len(block) {
        let inst = func.block_insts(block)[ii];
        let is_phi = func.inst(inst).is_phi();
        if !is_phi {
            // Rewrite uses with the current top-of-stack version.
            let mut missing: Vec<Value> = Vec::new();
            {
                let (tops, versions) = (&scratch.stack_top, &scratch.versions);
                func.map_inst_uses(inst, |v| match *tops.get(v) {
                    Some(top) => versions[top as usize].1,
                    None => {
                        missing.push(v);
                        v
                    }
                });
            }
            debug_assert!(
                missing.is_empty(),
                "SSA renaming found uses of {missing:?} with no reaching definition in {}",
                func.name
            );
        }
        // Rewrite definitions with fresh values. Creating a value mutates
        // `func`, so the definitions are listed first.
        scratch.def_tmp.clear();
        func.collect_inst_defs(inst, &mut scratch.def_tmp);
        if !scratch.def_tmp.is_empty() {
            scratch.def_repl.clear();
            for di in 0..scratch.def_tmp.len() {
                let old = scratch.def_tmp[di];
                let fresh = func.new_value();
                scratch.origin[fresh] = Some(scratch.origin[old].unwrap_or(old));
                if let Some(reg) = func.pinned_reg(old) {
                    func.pin_value(fresh, reg);
                }
                let below = scratch.stack_top[old].replace(scratch.versions.len() as u32);
                scratch.versions.push((old, fresh, below));
                scratch.def_repl.push((old, fresh));
            }
            let repl: &[(Value, Value)] = &scratch.def_repl;
            func.map_inst_defs(inst, |v| {
                repl.iter().find(|&&(old, _)| old == v).map_or(v, |&(_, fresh)| fresh)
            });
        }
    }

    // Fill in φ arguments of successors for the edges leaving this block.
    // φ-functions are a prefix of the block, so a by-index walk that stops
    // at the first non-φ visits exactly what `Function::phis` returns,
    // without materializing the list.
    for &succ in cfg.succs(block) {
        for pi in 0..func.block_len(succ) {
            let phi = func.block_insts(succ)[pi];
            if !func.inst(phi).is_phi() {
                break;
            }
            for arg in func.phi_args_mut(phi) {
                if arg.block == block {
                    // The argument still holds the original variable name
                    // (or was already rewritten if this edge was visited —
                    // each edge is visited exactly once).
                    if let Some(top) = *scratch.stack_top.get(arg.value) {
                        arg.value = scratch.versions[top as usize].1;
                    }
                }
            }
        }
    }

    // Recurse over dominator-tree children.
    for ci in 0..domtree.children(block).len() {
        let child = domtree.children(block)[ci];
        rename_block(func, cfg, domtree, child, scratch);
    }

    // Pop the versions pushed by this block (in reverse push order).
    while scratch.versions.len() > pushed_start {
        let (old, _, below) = scratch.versions.pop().expect("version stack underflow");
        scratch.stack_top[old] = below;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{verify_ssa, BinaryOp, CmpOp};

    /// Pre-SSA: x initialized, conditionally reassigned, then used.
    fn diamond_pre_ssa() -> (Function, Value) {
        let mut b = FunctionBuilder::new("pre", 1);
        let entry = b.create_block();
        let then_bb = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x = b.declare_value();
        b.iconst_to(x, 1);
        b.branch(p, then_bb, join);
        b.switch_to_block(then_bb);
        b.iconst_to(x, 2);
        b.jump(join);
        b.switch_to_block(join);
        let r = b.binary(BinaryOp::Add, x, x);
        b.ret(Some(r));
        (b.finish(), x)
    }

    #[test]
    fn diamond_gets_one_phi_and_verifies() {
        let (mut f, x) = diamond_pre_ssa();
        let mut scratch = SsaScratch::new();
        let result = construct_ssa_scratch(&mut f, &mut FunctionAnalyses::new(), &mut scratch);
        assert_eq!(result.phis_inserted, 1);
        verify_ssa(&f).expect("SSA verification");
        // The φ merges two versions of x.
        let join = f.blocks().nth(2).unwrap();
        let phis = f.phis(join);
        assert_eq!(phis.len(), 1);
        let phi_dst = f.inst(phis[0]).defs(f.pools())[0];
        assert_eq!(scratch.origin()[phi_dst], Some(x));
    }

    #[test]
    fn loop_variable_gets_phi_at_header() {
        // i = 0; while (i < n) { i = i + 1 } return i
        let mut b = FunctionBuilder::new("loop", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        let i = b.declare_value();
        b.iconst_to(i, 0);
        b.jump(header);
        b.switch_to_block(header);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        let one = b.iconst(1);
        b.binary_to(BinaryOp::Add, i, i, one);
        b.jump(header);
        b.switch_to_block(exit);
        b.ret(Some(i));
        let mut f = b.finish();

        let result = construct_ssa(&mut f);
        verify_ssa(&f).expect("SSA verification");
        assert_eq!(result.phis_inserted, 1);
        assert_eq!(f.phis(header).len(), 1);
        // No φ at exit (only one predecessor) or body.
        assert!(f.phis(exit).is_empty());
        assert!(f.phis(body).is_empty());
    }

    #[test]
    fn variable_used_before_definition_is_zero_initialized() {
        // Only one path defines x before its use.
        let mut b = FunctionBuilder::new("maybe-undef", 1);
        let entry = b.create_block();
        let def_bb = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x = b.declare_value();
        b.branch(p, def_bb, join);
        b.switch_to_block(def_bb);
        b.iconst_to(x, 7);
        b.jump(join);
        b.switch_to_block(join);
        b.ret(Some(x));
        let mut f = b.finish();
        construct_ssa(&mut f);
        verify_ssa(&f).expect("SSA verification with implicit zero init");
    }

    #[test]
    fn multiple_variables_are_renamed_independently() {
        let mut b = FunctionBuilder::new("two-vars", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let right = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x = b.declare_value();
        let y = b.declare_value();
        b.iconst_to(x, 1);
        b.iconst_to(y, 10);
        b.branch(p, left, right);
        b.switch_to_block(left);
        b.iconst_to(x, 2);
        b.jump(join);
        b.switch_to_block(right);
        b.iconst_to(y, 20);
        b.jump(join);
        b.switch_to_block(join);
        let s = b.binary(BinaryOp::Add, x, y);
        b.ret(Some(s));
        let mut f = b.finish();
        let result = construct_ssa(&mut f);
        verify_ssa(&f).expect("SSA verification");
        // Both x and y need a φ at the join.
        assert_eq!(result.phis_inserted, 2);
        assert_eq!(f.phis(join).len(), 2);
    }

    #[test]
    fn brdec_definition_reaches_phi() {
        // A hardware loop: the counter is decremented by the terminator.
        let mut b = FunctionBuilder::new("brdec", 1);
        let entry = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        let counter = b.declare_value();
        b.copy_to(counter, n);
        b.jump(body);
        b.switch_to_block(body);
        // body uses and the terminator redefines `counter`.
        let acc = b.binary(BinaryOp::Add, counter, counter);
        b.func_mut().append_inst(
            body,
            InstData::BrDec { counter, dec: counter, loop_dest: body, exit_dest: exit },
        );
        b.switch_to_block(exit);
        b.ret(Some(acc));
        let mut f = b.finish();
        let result = construct_ssa(&mut f);
        verify_ssa(&f).expect("SSA verification");
        // The loop header (body) needs a φ for the counter.
        assert!(result.phis_inserted >= 1);
        assert!(!f.phis(body).is_empty());
    }

    #[test]
    fn already_ssa_function_gets_no_phis() {
        let mut b = FunctionBuilder::new("already", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.binary(BinaryOp::Add, x, x);
        b.ret(Some(y));
        let mut f = b.finish();
        let before = f.display().to_string();
        let result = construct_ssa(&mut f);
        assert_eq!(result.phis_inserted, 0);
        verify_ssa(&f).expect("SSA verification");
        // Straight-line code is renamed but structurally unchanged.
        assert_eq!(f.num_blocks(), 1);
        assert_ne!(before, String::new());
    }

    #[test]
    fn pinned_registers_survive_renaming() {
        let mut b = FunctionBuilder::new("pinned", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.declare_value();
        b.iconst_to(x, 3);
        b.ret(Some(x));
        let mut f = b.finish();
        f.pin_value(x, 5);
        construct_ssa(&mut f);
        verify_ssa(&f).expect("SSA verification");
        // Some renamed version of x keeps the pin.
        let pinned_count = f.values().filter(|&v| f.pinned_reg(v) == Some(5)).count();
        assert!(pinned_count >= 1);
    }
}
