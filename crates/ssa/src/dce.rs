//! Dead-code elimination on SSA form.
//!
//! Cytron et al. already observed that the naive φ replacement should be
//! preceded by dead-code elimination. This pass removes value-producing
//! instructions (including φ-functions and copies) whose results are never
//! used. Removing one instruction can make another dead, so the pass counts
//! uses once and then runs a worklist: releasing a dead instruction's
//! operands may bring another definition's use count to zero. It reaches the
//! same fixpoint as rescanning the function until a round removes nothing.
//! Uses are counted rather than marked live from roots, so a dead φ cycle
//! (each φ using the other) survives.

use ossa_ir::entity::{Inst, SecondaryMap, Value};
use ossa_ir::Function;
use ossa_liveness::FunctionAnalyses;

use crate::scratch::SsaScratch;

/// Statistics of a DCE run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadCodeElimination {
    /// Number of instructions removed.
    pub insts_removed: usize,
}

/// Like [`eliminate_dead_code`], invalidating a shared analysis cache as
/// [`eliminate_dead_code_scratch`] does. It works in a fresh [`SsaScratch`];
/// a caller running many functions keeps one scratch and calls
/// [`eliminate_dead_code_scratch`].
pub fn eliminate_dead_code_cached(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
) -> DeadCodeElimination {
    eliminate_dead_code_scratch(func, analyses, &mut SsaScratch::new())
}

/// Removes side-effect-free instructions whose definitions are unused.
/// `func` must be in SSA form: each value has one defining instruction.
pub fn eliminate_dead_code(func: &mut Function) -> DeadCodeElimination {
    eliminate_dead_code_scratch(func, &mut FunctionAnalyses::new(), &mut SsaScratch::new())
}

/// Like [`eliminate_dead_code`], with the working storage recycled from
/// `scratch` — the zero-steady-state-allocation form used by the pooled
/// streaming path. The final instruction stream is identical; only the
/// working storage is reused.
///
/// DCE removes instructions inside existing blocks, so the CFG-level
/// analyses in `analyses` stay valid and only the instruction-dependent
/// caches are dropped — and only when an instruction was actually removed.
pub fn eliminate_dead_code_scratch(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut SsaScratch,
) -> DeadCodeElimination {
    let SsaScratch { use_counts, def_inst, dead, dead_worklist: worklist, .. } = scratch;
    // Count the uses of every value (φ arguments included) and record each
    // value's defining instruction.
    use_counts.truncate(0);
    use_counts.resize(func.num_values());
    def_inst.truncate(0);
    def_inst.resize(func.num_values());
    for &block in func.layout() {
        for &inst in func.block_insts(block) {
            func.for_each_inst_use(inst, |v| use_counts[v] += 1);
            func.for_each_inst_def(inst, |d| def_inst[d] = Some(inst));
        }
    }

    dead.reset();
    worklist.clear();
    for &block in func.layout() {
        for &inst in func.block_insts(block) {
            if is_removable(func, inst, use_counts) {
                dead.insert(inst);
                worklist.push(inst);
            }
        }
    }
    // Releasing a dead instruction's operands may leave a definition unused.
    while let Some(inst) = worklist.pop() {
        func.for_each_inst_use(inst, |v| {
            use_counts[v] -= 1;
            if use_counts[v] > 0 {
                return;
            }
            if let Some(def) = def_inst[v] {
                if !dead.contains(def) && is_removable(func, def, use_counts) {
                    dead.insert(def);
                    worklist.push(def);
                }
            }
        });
    }

    let mut stats = DeadCodeElimination::default();
    if !dead.is_empty() {
        for bi in 0..func.layout().len() {
            let block = func.layout()[bi];
            stats.insts_removed += func.retain_insts(block, |inst| !dead.contains(inst));
        }
    }
    if stats.insts_removed > 0 {
        analyses.invalidate_instructions();
    }
    stats
}

/// Returns `true` if `inst` has no side effects, defines at least one value
/// and none of its definitions is used.
fn is_removable(func: &Function, inst: Inst, use_counts: &SecondaryMap<Value, u32>) -> bool {
    if func.inst(inst).has_side_effects() {
        return false;
    }
    let (mut defines, mut all_unused) = (false, true);
    func.for_each_inst_def(inst, |d| {
        defines = true;
        all_unused &= use_counts[d] == 0;
    });
    defines && all_unused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{construct_ssa, propagate_copies_keeping};
    use ossa_cfggen::SPEC_BENCHMARKS;
    use ossa_cfggen::{generate_function, spec_config, spec_num_functions, GenConfig};
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{verify_ssa, BinaryOp};

    /// The rescan-until-stable loop the worklist replaced, kept as its
    /// oracle: recount every use, remove every removable instruction, and
    /// repeat until a round removes nothing. Returns the instructions
    /// removed.
    fn rescan_until_stable(func: &mut Function) -> usize {
        let (mut removed, mut tmp) = (0, Vec::new());
        loop {
            let mut use_counts = SecondaryMap::<Value, u32>::new();
            use_counts.resize(func.num_values());
            for &block in func.layout() {
                for &inst in func.block_insts(block) {
                    tmp.clear();
                    func.collect_inst_uses(inst, &mut tmp);
                    for &v in &tmp {
                        use_counts[v] += 1;
                    }
                }
            }
            let mut removed_this_round = 0;
            for bi in 0..func.layout().len() {
                let block = func.layout()[bi];
                let mut pos = 0;
                while pos < func.block_len(block) {
                    let inst = func.block_insts(block)[pos];
                    if is_removable(func, inst, &use_counts) {
                        func.remove_inst(block, inst);
                        removed_this_round += 1;
                    } else {
                        pos += 1;
                    }
                }
            }
            removed += removed_this_round;
            if removed_this_round == 0 {
                return removed;
            }
        }
    }

    #[test]
    fn worklist_matches_the_rescan_oracle() {
        // The spec corpus shapes at full scale, and the large-function shape
        // (400 statements, 24 variables, depth 5).
        let large =
            GenConfig { num_stmts: 400, num_vars: 24, max_depth: 5, ..GenConfig::default() };
        let mut inputs: Vec<Function> = SPEC_BENCHMARKS
            .iter()
            .flat_map(|spec| {
                let config = spec_config(spec, 1.0);
                (0..spec_num_functions(spec, 1.0))
                    .map(move |i| generate_function(spec.name, &config, spec.seed + i as u64))
            })
            .collect();
        inputs.extend((0..24).map(|seed| generate_function("large", &large, seed)));
        let mut removing = 0;
        for input in &inputs {
            for keep_every in [0, 3] {
                let mut func = input.clone();
                construct_ssa(&mut func);
                propagate_copies_keeping(&mut func, keep_every);
                let mut expected = func.clone();
                let expected_removed = rescan_until_stable(&mut expected);
                let stats = eliminate_dead_code(&mut func);
                assert_eq!(func, expected, "{} (keep every {keep_every})", input.name);
                assert_eq!(stats.insts_removed, expected_removed, "{}", input.name);
                removing += usize::from(expected_removed > 0);
            }
        }
        assert!(removing * 2 > inputs.len(), "only {removing} runs removed anything");
    }

    #[test]
    fn a_dead_phi_cycle_survives() {
        // header: a = φ(zero, b); b = φ(one, a) — each φ's only use is the
        // other, so neither use count reaches zero.
        let mut b = FunctionBuilder::new("cycle", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        b.jump(header);
        b.switch_to_block(header);
        let a = b.declare_value();
        let c = b.declare_value();
        b.phi_to(a, vec![(entry, zero), (header, c)]);
        b.phi_to(c, vec![(entry, one), (header, a)]);
        b.branch(p, header, exit);
        b.switch_to_block(exit);
        b.ret(None);
        let mut f = b.finish();
        let mut expected = f.clone();
        assert_eq!(rescan_until_stable(&mut expected), 0);
        let stats = eliminate_dead_code(&mut f);
        assert_eq!(stats.insts_removed, 0);
        assert_eq!(f.count_phis(), 2);
        assert_eq!(f, expected);
    }

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
