//! IR verifier.
//!
//! Two levels of checking are provided:
//!
//! * [`verify_cfg`] — structural checks that hold for both pre-SSA and SSA
//!   code (every block ends with a terminator, the entry block has no
//!   predecessor and no φ, φ arguments match the predecessors, parameters
//!   only in the entry block, …);
//! * [`verify_ssa`] — the SSA invariants on top of the structural checks:
//!   unique definitions and every use dominated by its definition (φ uses
//!   are checked at the end of the corresponding predecessor, matching the
//!   parallel-copy semantics of φ-functions).
//!
//! Both build a throwaway CFG, dominator tree and [`VerifyScratch`].
//! [`verify_cfg_scratch`] and [`verify_ssa_scratch`] read the CFG and
//! dominator tree from the caller's [`CfgAnalyses`] instead, and work in the
//! caller's recycled scratch: the engine and the pipeline verify on their
//! worker's analysis cache, which the translation then reuses, so a warm
//! checked step computes no extra analysis and allocates no more than an
//! unchecked one.

use std::cell::OnceCell;
use std::fmt;

use crate::cfg::ControlFlowGraph;
use crate::dominance::DominatorTree;
use crate::entity::{Block, Inst, SecondaryMap, Value};
use crate::function::{DefSite, Function};
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

/// The CFG-level analyses the verifier reads, supplied by the caller.
///
/// `ossa_liveness::FunctionAnalyses` implements it, so a checked step can
/// verify on the same cache its translation then reuses. The one-shot
/// [`verify_cfg`] and [`verify_ssa`] build throwaway analyses instead.
pub trait CfgAnalyses {
    /// The control-flow graph of `func`.
    fn cfg(&self, func: &Function) -> &ControlFlowGraph;
    /// The dominator tree of `func`, over [`CfgAnalyses::cfg`].
    fn domtree(&self, func: &Function) -> &DominatorTree;
}

/// The throwaway analyses of the one-shot wrappers, computed on first use.
#[derive(Default)]
struct OneShot {
    cfg: OnceCell<ControlFlowGraph>,
    domtree: OnceCell<DominatorTree>,
}

impl CfgAnalyses for OneShot {
    fn cfg(&self, func: &Function) -> &ControlFlowGraph {
        self.cfg.get_or_init(|| ControlFlowGraph::compute(func))
    }

    fn domtree(&self, func: &Function) -> &DominatorTree {
        let cfg = self.cfg(func);
        self.domtree.get_or_init(|| DominatorTree::compute(func, cfg))
    }
}

/// Working storage of the verifier, reused across functions: once it has
/// grown to the largest function seen, verifying a function that passes
/// allocates nothing.
#[derive(Debug, Default)]
pub struct VerifyScratch {
    /// First definition site of every value, in layout order.
    def_sites: SecondaryMap<Value, Option<DefSite>>,
    /// Number of definitions of every value.
    def_counts: SecondaryMap<Value, u32>,
}

impl VerifyScratch {
    /// Creates empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs the structural (non-SSA) checks on `func`, building its own CFG.
///
/// # Errors
/// Returns every structural violation found.
pub fn verify_cfg(func: &Function) -> Result<(), VerifierErrors> {
    verify_cfg_scratch(func, &OneShot::default(), &mut VerifyScratch::new())
}

/// Runs the structural checks plus the SSA invariants on `func`, building
/// its own CFG and dominator tree.
///
/// # Errors
/// Returns every violation found.
pub fn verify_ssa(func: &Function) -> Result<(), VerifierErrors> {
    verify_ssa_scratch(func, &OneShot::default(), &mut VerifyScratch::new())
}

/// [`verify_cfg`] on the caller's CFG. The structural checks need no
/// working storage; the scratch parameter keeps the call shape of
/// [`verify_ssa_scratch`].
///
/// # Errors
/// Returns every structural violation found.
pub fn verify_cfg_scratch(
    func: &Function,
    analyses: &impl CfgAnalyses,
    _scratch: &mut VerifyScratch,
) -> Result<(), VerifierErrors> {
    let mut errors = VerifierErrors::default();
    structural_checks(func, analyses, &mut errors);
    errors.into_result()
}

/// [`verify_ssa`] on the caller's CFG and dominator tree, in recycled
/// `scratch`.
///
/// # Errors
/// Returns every violation found.
pub fn verify_ssa_scratch(
    func: &Function,
    analyses: &impl CfgAnalyses,
    scratch: &mut VerifyScratch,
) -> Result<(), VerifierErrors> {
    let mut errors = VerifierErrors::default();
    structural_checks(func, analyses, &mut errors);
    if errors.is_ok() {
        ssa_checks(func, analyses.cfg(func), analyses.domtree(func), scratch, &mut errors);
    }
    errors.into_result()
}

/// Predecessor lists: the caller's CFG, or a one-off scan for a function
/// whose entry or branch target is an unallocated block, which a CFG cannot
/// represent.
enum Preds<'a> {
    Cfg(&'a ControlFlowGraph),
    Scan(SecondaryMap<Block, Vec<Block>>),
}

impl Preds<'_> {
    fn of(&self, block: Block) -> &[Block] {
        match self {
            Preds::Cfg(cfg) => cfg.preds(block),
            Preds::Scan(preds) => &preds[block],
        }
    }
}

fn structural_checks(func: &Function, analyses: &impl CfgAnalyses, errors: &mut VerifierErrors) {
    if !func.has_entry() {
        errors.report(None, None, "function has no entry block");
        return;
    }
    let entry = func.entry();

    // `ControlFlowGraph::recompute` indexes by the entry and by successor,
    // so the caller's CFG is asked for only once those blocks all exist. Its
    // lists equal `Function::predecessors`, order included: blocks are laid
    // out in index order.
    let exists = |block: Block| block.index() < func.num_blocks();
    let in_range =
        exists(entry) && func.blocks().all(|block| func.successors_iter(block).all(exists));
    let preds =
        if in_range { Preds::Cfg(analyses.cfg(func)) } else { Preds::Scan(func.predecessors()) };
    // As in LLVM. Otherwise SSA construction's entry definitions would run
    // again on every pass around a loop through the entry.
    if !preds.of(entry).is_empty() {
        errors.report(Some(entry), None, "entry block has a predecessor");
    }

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
        let first_non_phi = func.first_non_phi(block);
        for (pos, &inst) in insts.iter().enumerate() {
            let data = func.inst(inst);
            if data.is_terminator() && pos + 1 != insts.len() {
                errors.report(Some(block), Some(inst), "terminator in the middle of a block");
            }
            if data.is_phi() && pos >= first_non_phi {
                errors.report(
                    Some(block),
                    Some(inst),
                    "phi instruction outside the leading phi group",
                );
            }
            // As in LLVM: control enters the entry block along no edge, so a
            // φ there has no incoming value (the interpreter's `PhiInEntry`).
            if data.is_phi() && block == entry {
                errors.report(Some(block), Some(inst), "phi in the entry block");
            }
            if let InstData::Param { index, .. } = data {
                if block != entry {
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
            let mut allocated = |value: Value| {
                if value.index() >= func.num_values() {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("reference to unallocated value {value}"),
                    );
                }
            };
            data.for_each_def(func.pools(), &mut allocated);
            data.for_each_use(func.pools(), allocated);
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
        let preds = preds.of(block);
        for &inst in &insts[..first_non_phi] {
            let args = func.inst_phi_args(inst).expect("the leading group holds φs");
            for (i, arg) in args.iter().enumerate() {
                if args[..i].iter().any(|earlier| earlier.block == arg.block) {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("duplicate phi argument for predecessor {}", arg.block),
                    );
                }
                if !preds.contains(&arg.block) {
                    errors.report(
                        Some(block),
                        Some(inst),
                        format!("phi argument from non-predecessor {}", arg.block),
                    );
                }
            }
            for &pred in preds {
                if !args.iter().any(|arg| arg.block == pred) {
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

fn ssa_checks(
    func: &Function,
    cfg: &ControlFlowGraph,
    domtree: &DominatorTree,
    scratch: &mut VerifyScratch,
    errors: &mut VerifierErrors,
) {
    let VerifyScratch { def_sites, def_counts } = scratch;

    // One definition walk: every value's definition count and its first
    // definition site in layout order.
    def_sites.truncate(0);
    def_sites.resize(func.num_values());
    def_counts.truncate(0);
    def_counts.resize(func.num_values());
    for block in func.blocks() {
        for (pos, &inst) in func.block_insts(block).iter().enumerate() {
            func.for_each_inst_def(inst, |value| {
                def_counts[value] += 1;
                def_sites[value].get_or_insert(DefSite { block, inst, pos });
            });
        }
    }

    // Unique definitions.
    for value in func.values() {
        if def_counts[value] > 1 {
            errors.report(
                None,
                None,
                format!("value {value} has {} definitions", def_counts[value]),
            );
        }
    }

    // Every use must be dominated by its definition.
    for &block in cfg.reverse_post_order() {
        for (pos, &inst) in func.block_insts(block).iter().enumerate() {
            let data = func.inst(inst);
            if let Some(args) = data.phi_args(func.pools()) {
                // φ uses happen at the end of the predecessor block.
                for arg in args {
                    let Some(site) = def_sites[arg.value] else {
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
                data.for_each_use(func.pools(), |value| {
                    let Some(site) = def_sites[value] else {
                        errors.report(
                            Some(block),
                            Some(inst),
                            format!("use of undefined value {value}"),
                        );
                        return;
                    };
                    if !cfg.is_reachable(site.block) {
                        errors.report(
                            Some(block),
                            Some(inst),
                            format!("use of value {value} defined in unreachable code"),
                        );
                        return;
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
                });
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

    /// `entry: v0 = φ(); v1 = param 0; v2 = add v0, v1; return v2`
    fn phi_in_entry() -> Function {
        let mut b = FunctionBuilder::new("bad", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let phi = b.phi(vec![]);
        let x = b.param(0);
        let sum = b.binary(BinaryOp::Add, phi, x);
        b.ret(Some(sum));
        b.finish()
    }

    #[test]
    fn phi_in_the_entry_block_is_reported() {
        let f = phi_in_entry();
        let entry = f.entry();
        let expected = VerifierErrors(vec![VerifierError {
            block: Some(entry),
            inst: Some(f.block_insts(entry)[0]),
            message: "phi in the entry block".into(),
        }]);
        assert_eq!(verify_cfg(&f), Err(expected.clone()));
        assert_eq!(verify_ssa(&f), Err(expected));
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
