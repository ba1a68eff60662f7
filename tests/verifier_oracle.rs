//! The verifier against its reference implementation.
//!
//! The verifier reads its CFG and dominator tree from the caller's analysis
//! cache and works in recycled scratch. The reference below is the
//! implementation it replaced — its own CFG and dominator tree,
//! `Function::predecessors`, `def_counts` and `def_sites` — plus the
//! entry-block φ rule. Both must return the same `Result`, diagnostics in
//! the same order with the same messages, on valid functions and on seeded
//! mutations of them.

use std::collections::BTreeSet;

use out_of_ssa::cfggen::rng::SmallRng;
use out_of_ssa::cfggen::spec::{spec_config, spec_num_functions, SPEC_BENCHMARKS};
use out_of_ssa::cfggen::{generate_function, generate_ssa_function, GenConfig};
use out_of_ssa::ir::verify::{VerifierError, VerifierErrors};
use out_of_ssa::ir::{
    verify_cfg, verify_cfg_scratch, verify_ssa, verify_ssa_scratch, BinaryOp, Block,
    ControlFlowGraph, DominatorTree, Function, Inst, InstData, SecondaryMap, Value, VerifyScratch,
};
use out_of_ssa::liveness::FunctionAnalyses;
use out_of_ssa::ssa::construct_ssa;

mod reference {
    use super::*;

    fn report(
        errors: &mut Vec<VerifierError>,
        block: Option<Block>,
        inst: Option<Inst>,
        message: impl Into<String>,
    ) {
        errors.push(VerifierError { block, inst, message: message.into() });
    }

    fn into_result(errors: Vec<VerifierError>) -> Result<(), VerifierErrors> {
        if errors.is_empty() {
            Ok(())
        } else {
            Err(VerifierErrors(errors))
        }
    }

    pub fn verify_cfg(func: &Function) -> Result<(), VerifierErrors> {
        let mut errors = Vec::new();
        structural_checks(func, &mut errors);
        into_result(errors)
    }

    pub fn verify_ssa(func: &Function) -> Result<(), VerifierErrors> {
        let mut errors = Vec::new();
        structural_checks(func, &mut errors);
        if errors.is_empty() {
            ssa_checks(func, &mut errors);
        }
        into_result(errors)
    }

    fn structural_checks(func: &Function, errors: &mut Vec<VerifierError>) {
        if !func.has_entry() {
            report(errors, None, None, "function has no entry block");
            return;
        }

        let preds = func.predecessors();
        if !preds[func.entry()].is_empty() {
            report(errors, Some(func.entry()), None, "entry block has a predecessor");
        }
        let mut scratch: Vec<Value> = Vec::new();

        for block in func.blocks() {
            let insts = func.block_insts(block);
            if insts.is_empty() {
                report(errors, Some(block), None, "block is empty (no terminator)");
                continue;
            }
            let last = *insts.last().expect("non-empty");
            if !func.inst(last).is_terminator() {
                report(errors, Some(block), Some(last), "block does not end with a terminator");
            }
            for (pos, &inst) in insts.iter().enumerate() {
                let data = func.inst(inst);
                let here = (Some(block), Some(inst));
                if data.is_terminator() && pos + 1 != insts.len() {
                    report(errors, here.0, here.1, "terminator in the middle of a block");
                }
                if data.is_phi() && pos >= func.first_non_phi(block) {
                    report(errors, here.0, here.1, "phi instruction outside the leading phi group");
                }
                if data.is_phi() && block == func.entry() {
                    report(errors, here.0, here.1, "phi in the entry block");
                }
                if let InstData::Param { index, .. } = data {
                    if block != func.entry() {
                        report(
                            errors,
                            here.0,
                            here.1,
                            "parameter instruction outside the entry block",
                        );
                    }
                    if *index >= func.num_params {
                        report(
                            errors,
                            here.0,
                            here.1,
                            format!("parameter index {index} out of range"),
                        );
                    }
                }
                scratch.clear();
                data.collect_defs(func.pools(), &mut scratch);
                data.collect_uses(func.pools(), &mut scratch);
                for &value in &scratch {
                    if value.index() >= func.num_values() {
                        report(
                            errors,
                            here.0,
                            here.1,
                            format!("reference to unallocated value {value}"),
                        );
                    }
                }
                for succ in data.successors_iter() {
                    if succ.index() >= func.num_blocks() {
                        report(
                            errors,
                            here.0,
                            here.1,
                            format!("branch to unallocated block {succ}"),
                        );
                    }
                }
            }

            for inst in func.phis(block) {
                let Some(args) = func.inst_phi_args(inst) else { continue };
                let mut seen: Vec<Block> = Vec::new();
                for arg in args {
                    if seen.contains(&arg.block) {
                        report(
                            errors,
                            Some(block),
                            Some(inst),
                            format!("duplicate phi argument for predecessor {}", arg.block),
                        );
                    }
                    seen.push(arg.block);
                    if !preds[block].contains(&arg.block) {
                        report(
                            errors,
                            Some(block),
                            Some(inst),
                            format!("phi argument from non-predecessor {}", arg.block),
                        );
                    }
                }
                for &pred in &preds[block] {
                    if !seen.contains(&pred) {
                        report(
                            errors,
                            Some(block),
                            Some(inst),
                            format!("phi is missing an argument for predecessor {pred}"),
                        );
                    }
                }
            }
        }
    }

    fn ssa_checks(func: &Function, errors: &mut Vec<VerifierError>) {
        let cfg = ControlFlowGraph::compute(func);
        let domtree = DominatorTree::compute(func, &cfg);

        let counts = func.def_counts();
        for value in func.values() {
            if counts[value] > 1 {
                report(
                    errors,
                    None,
                    None,
                    format!("value {value} has {} definitions", counts[value]),
                );
            }
        }

        let defs = func.def_sites();
        let mut def_reachable: SecondaryMap<Value, bool> = SecondaryMap::new();
        def_reachable.resize(func.num_values());
        for value in func.values() {
            if let Some(site) = defs[value] {
                def_reachable[value] = cfg.is_reachable(site.block);
            }
        }

        let mut scratch: Vec<Value> = Vec::new();
        for &block in cfg.reverse_post_order() {
            for (pos, &inst) in func.block_insts(block).iter().enumerate() {
                let data = func.inst(inst);
                let here = (Some(block), Some(inst));
                if let Some(args) = data.phi_args(func.pools()) {
                    for arg in args {
                        let Some(site) = defs[arg.value] else {
                            report(
                                errors,
                                here.0,
                                here.1,
                                format!("phi uses undefined value {}", arg.value),
                            );
                            continue;
                        };
                        if !cfg.is_reachable(arg.block) {
                            continue;
                        }
                        let pred_end = func.block_len(arg.block);
                        if !domtree.dominates_point((site.block, site.pos), (arg.block, pred_end)) {
                            report(
                                errors,
                                here.0,
                                here.1,
                                format!(
                                    "phi argument {} (from {}) is not dominated by its definition",
                                    arg.value, arg.block
                                ),
                            );
                        }
                    }
                } else {
                    scratch.clear();
                    data.collect_uses(func.pools(), &mut scratch);
                    for &value in &scratch {
                        let Some(site) = defs[value] else {
                            report(
                                errors,
                                here.0,
                                here.1,
                                format!("use of undefined value {value}"),
                            );
                            continue;
                        };
                        if !def_reachable[value] {
                            report(
                                errors,
                                here.0,
                                here.1,
                                format!("use of value {value} defined in unreachable code"),
                            );
                            continue;
                        }
                        if !domtree.dominates_point((site.block, site.pos), (block, pos))
                            || (site.block == block && site.pos == pos)
                        {
                            report(
                                errors,
                                here.0,
                                here.1,
                                format!("use of {value} is not dominated by its definition"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The kinds of damage [`mutate`] does.
const MUTATIONS: usize = 10;

/// Applies mutation `kind` at a seeded spot of `func`. Returns `false` if
/// `func` has no spot for it.
fn mutate(func: &mut Function, kind: usize, rng: &mut SmallRng) -> bool {
    let blocks: Vec<Block> = func.blocks().collect();
    let pick = |rng: &mut SmallRng, items: &[Block]| items[rng.below(items.len())];
    let phis: Vec<(Block, Inst)> =
        blocks.iter().flat_map(|&b| func.phis(b).into_iter().map(move |p| (b, p))).collect();
    let branching: Vec<Block> =
        blocks.iter().copied().filter(|&b| func.successors_iter(b).len() > 0).collect();
    match kind {
        // Drop a terminator.
        0 => {
            let block = pick(rng, &blocks);
            let Some(last) = func.block_insts(block).last().copied() else { return false };
            func.remove_inst(block, last);
        }
        // Duplicate a definition.
        1 => {
            let mut defined = Vec::new();
            for &block in &blocks {
                for &inst in func.block_insts(block) {
                    func.collect_inst_defs(inst, &mut defined);
                }
            }
            if defined.is_empty() {
                return false;
            }
            let dst = defined[rng.below(defined.len())];
            let block = pick(rng, &blocks);
            let (lo, len) = (func.first_non_phi(block), func.block_len(block));
            let pos = lo + rng.below(len.saturating_sub(lo).max(1));
            func.insert_inst(block, pos.min(len), InstData::Const { dst, imm: 3 });
        }
        // Retarget a φ argument to a random block.
        2 => {
            if phis.is_empty() {
                return false;
            }
            let (_, phi) = phis[rng.below(phis.len())];
            let target = pick(rng, &blocks);
            let args = func.phi_args_mut(phi);
            if args.is_empty() {
                return false;
            }
            let i = rng.below(args.len());
            args[i].block = target;
        }
        // Drop a φ argument.
        3 => {
            if phis.is_empty() {
                return false;
            }
            let (_, phi) = phis[rng.below(phis.len())];
            let InstData::Phi { args, .. } = func.inst(phi) else { unreachable!() };
            let mut list = *args;
            let Some(shorter) = list.len().checked_sub(1) else { return false };
            func.pools_mut().phis.truncate(&mut list, shorter);
            let InstData::Phi { args, .. } = func.inst_mut(phi) else { unreachable!() };
            *args = list;
        }
        // Retarget a branch: to an unallocated block (kind 4) or into the
        // entry (kind 5).
        4 | 5 => {
            if branching.is_empty() {
                return false;
            }
            let block = pick(rng, &branching);
            let term = func.terminator(block).expect("branching blocks end in a terminator");
            let from = func.inst(term).successors_iter().next().expect("has a successor");
            let to = if kind == 4 {
                Block::from_index(func.num_blocks() + rng.below(3))
            } else {
                func.entry()
            };
            func.inst_mut(term).replace_successor(from, to);
        }
        // Put a φ after a non-φ: a copy of an existing φ, one slot past the
        // leading group.
        6 => {
            let candidates: Vec<(Block, Inst)> = phis
                .iter()
                .copied()
                .filter(|&(b, _)| func.block_len(b) > func.first_non_phi(b) + 1)
                .collect();
            if candidates.is_empty() {
                return false;
            }
            let (block, phi) = candidates[rng.below(candidates.len())];
            let args = func.inst_phi_args(phi).expect("a φ").to_vec();
            let args = func.make_phi_list(&args);
            let dst = func.new_value();
            let pos = func.first_non_phi(block) + 1;
            func.insert_inst(block, pos, InstData::Phi { dst, args });
        }
        // Move a `param` out of the entry block.
        7 => {
            let entry = func.entry();
            let Some(param) = func
                .block_insts(entry)
                .iter()
                .copied()
                .find(|&i| matches!(func.inst(i), InstData::Param { .. }))
            else {
                return false;
            };
            let others: Vec<Block> = blocks.iter().copied().filter(|&b| b != entry).collect();
            if others.is_empty() {
                return false;
            }
            let data = func.inst(param).clone();
            func.remove_inst(entry, param);
            let block = pick(rng, &others);
            let pos = func.first_non_phi(block).min(func.block_len(block));
            func.insert_inst(block, pos, data);
        }
        // Put a φ in the entry block.
        8 => {
            let entry = func.entry();
            let (dst, args) = (func.new_value(), func.make_phi_list(&[]));
            func.insert_inst(entry, 0, InstData::Phi { dst, args });
        }
        // Use a value defined in an unreachable block.
        _ => {
            let dead = func.add_block();
            let ghost = func.new_value();
            func.append_inst(dead, InstData::Const { dst: ghost, imm: 7 });
            func.append_inst(dead, InstData::Return { value: Some(ghost) });
            // A reachable block; only the entry if an earlier mutation
            // branched out of the function, which a CFG cannot represent.
            let in_range = blocks
                .iter()
                .all(|&b| func.successors_iter(b).all(|s| s.index() < func.num_blocks()));
            let reachable: Vec<Block> = if in_range {
                let cfg = ControlFlowGraph::compute(func);
                blocks.iter().copied().filter(|&b| cfg.is_reachable(b)).collect()
            } else {
                vec![func.entry()]
            };
            let block = pick(rng, &reachable);
            let pos = func.block_len(block).saturating_sub(1).max(func.first_non_phi(block));
            let dst = func.new_value();
            func.insert_inst(
                block,
                pos,
                InstData::Binary { op: BinaryOp::Add, dst, args: [ghost, ghost] },
            );
        }
    }
    true
}

/// Functions in virtual-register form: the spec corpus at full scale, and
/// the small and default shapes.
fn pre_ssa_inputs() -> Vec<Function> {
    let mut inputs: Vec<Function> = SPEC_BENCHMARKS
        .iter()
        .flat_map(|spec| {
            let config = spec_config(spec, 1.0);
            (0..spec_num_functions(spec, 1.0))
                .map(move |i| generate_function(spec.name, &config, spec.seed + i as u64))
        })
        .collect();
    inputs.extend((0..12).map(|seed| generate_function("small", &GenConfig::small(), seed)));
    inputs.extend((0..12).map(|seed| generate_function("default", &GenConfig::default(), seed)));
    inputs
}

/// Optimized SSA functions of the small, default and 400-statement shapes.
fn ssa_inputs() -> Vec<Function> {
    let large = GenConfig { num_stmts: 400, num_vars: 24, max_depth: 5, ..GenConfig::default() };
    let shapes = [(GenConfig::small(), 40), (GenConfig::default(), 40), (large, 8)];
    shapes
        .iter()
        .flat_map(|(config, count)| {
            (0..*count).map(move |seed| generate_ssa_function("ssa", config, seed).0)
        })
        .collect()
}

/// One analysis cache and one scratch, reused across every function as the
/// engine's worker reuses them.
struct Checker {
    analyses: FunctionAnalyses,
    scratch: VerifyScratch,
    /// Functions the reference rejected.
    rejected: usize,
}

impl Checker {
    fn new() -> Self {
        Self { analyses: FunctionAnalyses::new(), scratch: VerifyScratch::new(), rejected: 0 }
    }

    fn check_cfg(&mut self, func: &Function, context: &str) {
        let expected = reference::verify_cfg(func);
        self.analyses.invalidate_cfg();
        let cached = verify_cfg_scratch(func, &self.analyses, &mut self.scratch);
        assert_eq!(cached, expected, "{context}: cached verify_cfg");
        assert_eq!(verify_cfg(func), expected, "{context}: one-shot verify_cfg");
        self.rejected += usize::from(expected.is_err());
    }

    fn check_ssa(&mut self, func: &Function, context: &str) {
        let expected = reference::verify_ssa(func);
        self.analyses.invalidate_cfg();
        let cached = verify_ssa_scratch(func, &self.analyses, &mut self.scratch);
        assert_eq!(cached, expected, "{context}: cached verify_ssa");
        assert_eq!(verify_ssa(func), expected, "{context}: one-shot verify_ssa");
        self.rejected += usize::from(expected.is_err());
    }
}

#[test]
fn valid_functions_verify_as_the_reference_does() {
    let mut checker = Checker::new();
    for input in pre_ssa_inputs() {
        checker.check_cfg(&input, &input.name);
        let mut ssa = input.clone();
        construct_ssa(&mut ssa);
        checker.check_ssa(&ssa, &ssa.name);
    }
    for func in ssa_inputs() {
        checker.check_ssa(&func, &func.name);
    }
    assert_eq!(checker.rejected, 0, "the generators build valid functions");
}

/// An entry block that was never allocated: the CFG cannot represent it
/// either, so the structural checks take the predecessor scan.
#[test]
fn an_unallocated_entry_block_gets_the_reference_diagnostics() {
    let mut checker = Checker::new();
    for mut func in pre_ssa_inputs() {
        func.set_entry(Block::from_index(func.num_blocks()));
        checker.check_cfg(&func, &func.name);
    }
}

/// A diagnostic's rule: its message with every number replaced by `#`.
fn rule(error: &VerifierError) -> String {
    let mut rule = String::new();
    for c in error.message.chars() {
        if !c.is_ascii_digit() {
            rule.push(c);
        } else if !rule.ends_with('#') {
            rule.push('#');
        }
    }
    rule
}

#[test]
fn mutated_functions_get_the_reference_diagnostics() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0fe7);
    let mut checker = Checker::new();
    let mut applied = [0usize; MUTATIONS];
    let mut rules = BTreeSet::new();
    let pre_ssa = pre_ssa_inputs();
    let ssa = ssa_inputs();
    for (index, input) in pre_ssa.iter().chain(&ssa).enumerate() {
        let is_ssa = index >= pre_ssa.len();
        for round in 0..MUTATIONS {
            let mut func = input.clone();
            // Every kind once per input, then a second random one half the
            // time.
            let mut kinds = vec![(round + index) % MUTATIONS];
            if rng.gen_bool(0.5) {
                kinds.push(rng.below(MUTATIONS));
            }
            for &kind in &kinds {
                applied[kind] += usize::from(mutate(&mut func, kind, &mut rng));
            }
            let context = format!("{} mutated by {kinds:?}", input.name);
            checker.check_cfg(&func, &context);
            if is_ssa {
                checker.check_ssa(&func, &context);
                if let Err(errors) = reference::verify_ssa(&func) {
                    rules.extend(errors.0.iter().map(rule));
                }
            }
        }
    }
    assert!(applied.iter().all(|&n| n > 0), "some mutation never applied: {applied:?}");
    // Every mutation reaches its rule, the pre-computed predecessor scan
    // (a branch to an unallocated block) included.
    for expected in [
        "block does not end with a terminator",
        "value v# has # definitions",
        "phi argument from non-predecessor bb#",
        "phi is missing an argument for predecessor bb#",
        "branch to unallocated block bb#",
        "entry block has a predecessor",
        "phi instruction outside the leading phi group",
        "parameter instruction outside the entry block",
        "phi in the entry block",
        "use of value v# defined in unreachable code",
    ] {
        assert!(rules.contains(expected), "no mutation reached {expected:?}: {rules:?}");
    }
}
