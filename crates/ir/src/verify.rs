//! IR verifier.
//!
//! Two levels of checking are provided:
//!
//! * [`verify_cfg`] — structural checks that hold for both pre-SSA and SSA
//!   code (every block ends with a terminator, the entry block has no
//!   predecessor, φ arguments match the predecessors, parameters only in the
//!   entry block, …);
//! * [`verify_ssa`] — the SSA invariants on top of the structural checks:
//!   unique definitions and every use dominated by its definition (φ uses
//!   are checked at the end of the corresponding predecessor, matching the
//!   parallel-copy semantics of φ-functions).

use std::fmt;

use crate::cfg::ControlFlowGraph;
use crate::dominance::DominatorTree;
use crate::entity::{Block, Inst, SecondaryMap, Value};
use crate::function::Function;
use crate::instruction::InstData;

/// A verifier diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifierError {
    /// Block where the problem was found, if attributable to one.
    pub block: Option<Block>,
    /// Instruction where the problem was found, if attributable to one.
    pub inst: Option<Inst>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.block, self.inst) {
            (Some(block), Some(inst)) => write!(f, "{block}/{inst}: {}", self.message),
            (Some(block), None) => write!(f, "{block}: {}", self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for VerifierError {}

/// A list of verifier diagnostics; empty means the function verified.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifierErrors(pub Vec<VerifierError>);

impl VerifierErrors {
    fn report(&mut self, block: Option<Block>, inst: Option<Inst>, message: impl Into<String>) {
        self.0.push(VerifierError { block, inst, message: message.into() });
    }

    /// Returns `true` if no error was reported.
    pub fn is_ok(&self) -> bool {
        self.0.is_empty()
    }

    /// Converts into a `Result`, keeping the diagnostics in the error case.
    pub fn into_result(self) -> Result<(), VerifierErrors> {
        if self.is_ok() {
            Ok(())
        } else {
            Err(self)
        }
    }
}

impl fmt::Display for VerifierErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, err) in self.0.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{err}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifierErrors {}

/// Runs the structural (non-SSA) checks on `func`.
///
/// # Errors
/// Returns every structural violation found.
pub fn verify_cfg(func: &Function) -> Result<(), VerifierErrors> {
    let mut errors = VerifierErrors::default();
    structural_checks(func, &mut errors);
    errors.into_result()
}

/// Runs the structural checks plus the SSA invariants on `func`.
///
/// # Errors
/// Returns every violation found.
pub fn verify_ssa(func: &Function) -> Result<(), VerifierErrors> {
    let mut errors = VerifierErrors::default();
    structural_checks(func, &mut errors);
    if errors.is_ok() {
        ssa_checks(func, &mut errors);
    }
    errors.into_result()
}

fn structural_checks(func: &Function, errors: &mut VerifierErrors) {
    if !func.has_entry() {
        errors.report(None, None, "function has no entry block");
        return;
    }

    let preds = func.predecessors();
    // As in LLVM: a φ in the entry block would have no incoming value on
    // function entry, and SSA construction's entry definitions would run on
    // every pass around a loop through it.
    if !preds[func.entry()].is_empty() {
        errors.report(Some(func.entry()), None, "entry block has a predecessor");
    }
    let mut scratch: Vec<Value> = Vec::new();

    for block in func.blocks() {
        let insts = func.block_insts(block);
        if insts.is_empty() {
            errors.report(Some(block), None, "block is empty (no terminator)");
            continue;
        }
        let last = *insts.last().expect("non-empty");
        if !func.inst(last).is_terminator() {
            errors.report(Some(block), Some(last), "block does not end with a terminator");
        }
        for (pos, &inst) in insts.iter().enumerate() {
            let data = func.inst(inst);
            if data.is_terminator() && pos + 1 != insts.len() {
                errors.report(Some(block), Some(inst), "terminator in the middle of a block");
            }
            if data.is_phi() && pos >= func.first_non_phi(block) {
                errors.report(
                    Some(block),
                    Some(inst),
                    "phi instruction outside the leading phi group",
                );
            }
            if let InstData::Param { index, .. } = data {
                if block != func.entry() {
                    errors.report(
                        Some(block),
                        Some(inst),
                        "parameter instruction outside the entry block",
                    );
                }
                if *index >= func.num_params {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("parameter index {index} out of range"),
                    );
                }
            }
            // All referenced values must have been allocated.
            scratch.clear();
            data.collect_defs(func.pools(), &mut scratch);
            data.collect_uses(func.pools(), &mut scratch);
            for &value in &scratch {
                if value.index() >= func.num_values() {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("reference to unallocated value {value}"),
                    );
                }
            }
            // Successors must be existing blocks.
            for succ in data.successors_iter() {
                if succ.index() >= func.num_blocks() {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("branch to unallocated block {succ}"),
                    );
                }
            }
        }

        // φ arguments must match the predecessor set exactly.
        for inst in func.phis(block) {
            let Some(args) = func.inst_phi_args(inst) else { continue };
            let mut seen: Vec<Block> = Vec::new();
            for arg in args {
                if seen.contains(&arg.block) {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("duplicate phi argument for predecessor {}", arg.block),
                    );
                }
                seen.push(arg.block);
                if !preds[block].contains(&arg.block) {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("phi argument from non-predecessor {}", arg.block),
                    );
                }
            }
            for &pred in &preds[block] {
                if !seen.contains(&pred) {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("phi is missing an argument for predecessor {pred}"),
                    );
                }
            }
        }
    }
}

fn ssa_checks(func: &Function, errors: &mut VerifierErrors) {
    let cfg = ControlFlowGraph::compute(func);
    let domtree = DominatorTree::compute(func, &cfg);

    // Unique definitions.
    let counts = func.def_counts();
    for value in func.values() {
        if counts[value] > 1 {
            errors.report(None, None, format!("value {value} has {} definitions", counts[value]));
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

    // Every use must be dominated by its definition.
    let mut scratch: Vec<Value> = Vec::new();
    for &block in cfg.reverse_post_order() {
        for (pos, &inst) in func.block_insts(block).iter().enumerate() {
            let data = func.inst(inst);
            if let Some(args) = data.phi_args(func.pools()) {
                // φ uses happen at the end of the predecessor block.
                for arg in args {
                    let Some(site) = defs[arg.value] else {
                        errors.report(
                            Some(block),
                            Some(inst),
                            format!("phi uses undefined value {}", arg.value),
                        );
                        continue;
                    };
                    if !cfg.is_reachable(arg.block) {
                        continue;
                    }
                    let pred_end = func.block_len(arg.block);
                    if !domtree.dominates_point((site.block, site.pos), (arg.block, pred_end)) {
                        errors.report(
                            Some(block),
                            Some(inst),
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
                        errors.report(
                            Some(block),
                            Some(inst),
                            format!("use of undefined value {value}"),
                        );
                        continue;
                    };
                    if !def_reachable[value] {
                        errors.report(
                            Some(block),
                            Some(inst),
                            format!("use of value {value} defined in unreachable code"),
                        );
                        continue;
                    }
                    // The definition must come strictly before the use, except
                    // that an instruction may not use its own definition.
                    if !domtree.dominates_point((site.block, site.pos), (block, pos))
                        || (site.block == block && site.pos == pos)
                    {
                        errors.report(
                            Some(block),
                            Some(inst),
                            format!("use of {value} is not dominated by its definition"),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instruction::{BinaryOp, PhiArg};

    fn valid_ssa_function() -> Function {
        let mut b = FunctionBuilder::new("ok", 1);
        let entry = b.create_block();
        let then_bb = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let one = b.iconst(1);
        b.branch(x, then_bb, join);
        b.switch_to_block(then_bb);
        let y = b.binary(BinaryOp::Add, x, one);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(entry, one), (then_bb, y)]);
        b.ret(Some(m));
        b.finish()
    }

    #[test]
    fn valid_function_passes() {
        let f = valid_ssa_function();
        assert!(verify_cfg(&f).is_ok());
        assert!(verify_ssa(&f).is_ok());
    }

    #[test]
    fn missing_terminator_is_reported() {
        let mut f = Function::new("bad", 0);
        let entry = f.add_block();
        f.set_entry(entry);
        let v = f.new_value();
        f.append_inst(entry, InstData::Const { dst: v, imm: 1 });
        let err = verify_cfg(&f).unwrap_err();
        assert!(err.0.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn empty_block_is_reported() {
        let mut f = Function::new("bad", 0);
        let entry = f.add_block();
        f.set_entry(entry);
        f.append_inst(entry, InstData::Return { value: None });
        let dead = f.add_block();
        let _ = dead;
        let err = verify_cfg(&f).unwrap_err();
        assert!(err.0.iter().any(|e| e.message.contains("empty")));
    }

    #[test]
    fn double_definition_is_reported() {
        let mut f = Function::new("bad", 0);
        let entry = f.add_block();
        f.set_entry(entry);
        let v = f.new_value();
        f.append_inst(entry, InstData::Const { dst: v, imm: 1 });
        f.append_inst(entry, InstData::Const { dst: v, imm: 2 });
        f.append_inst(entry, InstData::Return { value: Some(v) });
        assert!(verify_cfg(&f).is_ok());
        let err = verify_ssa(&f).unwrap_err();
        assert!(err.0.iter().any(|e| e.message.contains("definitions")));
    }

    #[test]
    fn use_not_dominated_by_def_is_reported() {
        let mut b = FunctionBuilder::new("bad", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        b.branch(x, left, join);
        b.switch_to_block(left);
        let y = b.iconst(5);
        b.jump(join);
        b.switch_to_block(join);
        // Uses y which is only defined on one path.
        b.ret(Some(y));
        let f = b.finish();
        let err = verify_ssa(&f).unwrap_err();
        assert!(err.0.iter().any(|e| e.message.contains("not dominated")));
    }

    #[test]
    fn phi_argument_mismatch_is_reported() {
        let mut f = valid_ssa_function();
        // Damage the phi: point one argument at a non-predecessor.
        let join = f.blocks().nth(2).unwrap();
        let phi = f.phis(join)[0];
        let args = f.phi_args_mut(phi);
        args[0] = PhiArg { block: Block::from_index(1), value: args[0].value };
        let err = verify_cfg(&f).unwrap_err();
        assert!(!err.0.is_empty());
    }

    #[test]
    fn phi_missing_argument_is_reported() {
        let mut f = valid_ssa_function();
        let join = f.blocks().nth(2).unwrap();
        let phi = f.phis(join)[0];
        let InstData::Phi { args, .. } = f.inst_mut(phi) else { panic!() };
        let mut list = *args;
        let shorter = list.len() - 1;
        f.pools_mut().phis.truncate(&mut list, shorter);
        let InstData::Phi { args, .. } = f.inst_mut(phi) else { panic!() };
        *args = list;
        let err = verify_cfg(&f).unwrap_err();
        assert!(err.0.iter().any(|e| e.message.contains("missing an argument")));
    }

    #[test]
    fn param_outside_entry_is_reported() {
        let mut b = FunctionBuilder::new("bad", 1);
        let entry = b.create_block();
        let other = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        b.jump(other);
        b.switch_to_block(other);
        let p = b.param(0);
        b.ret(Some(p));
        let f = b.finish();
        let err = verify_cfg(&f).unwrap_err();
        assert!(err.0.iter().any(|e| e.message.contains("entry block")));
    }

    #[test]
    fn entry_block_with_a_predecessor_is_reported() {
        let mut b = FunctionBuilder::new("bad", 1);
        let entry = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        b.branch(x, entry, exit);
        b.switch_to_block(exit);
        b.ret(Some(x));
        let f = b.finish();
        let err = verify_cfg(&f).unwrap_err();
        assert_eq!(err.0.len(), 1);
        assert_eq!(err.0[0].block, Some(entry));
        assert_eq!(err.0[0].message, "entry block has a predecessor");
    }

    #[test]
    fn use_of_undefined_value_is_reported() {
        let mut f = Function::new("bad", 0);
        let entry = f.add_block();
        f.set_entry(entry);
        let ghost = f.new_value();
        f.append_inst(entry, InstData::Return { value: Some(ghost) });
        let err = verify_ssa(&f).unwrap_err();
        assert!(err.0.iter().any(|e| e.message.contains("undefined")));
    }

    #[test]
    fn error_display_mentions_location() {
        let err = VerifierError {
            block: Some(Block::from_index(2)),
            inst: Some(Inst::from_index(7)),
            message: "boom".into(),
        };
        assert_eq!(err.to_string(), "bb2/inst7: boom");
    }
}
