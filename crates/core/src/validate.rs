//! Post-translation output validation.
//!
//! The paper's motivating hazard is *silent miscompilation*: the lost-copy
//! and swap bugs corrupt translated programs without crashing the compiler.
//! The translation pipeline's internal `debug_assert!`s re-check structural
//! CFG invariants, but a dropped or mis-ordered copy is structurally
//! perfectly healthy — only its *behaviour* is wrong. This module closes
//! that gap with an opt-in validator run after translation:
//!
//! * [`ValidationMode::Structural`] re-runs the CFG verifier on the output
//!   and asserts the translation's postconditions: no φ-function survives,
//!   no parallel copy survives (when sequentialization was requested), and
//!   every use is *must-defined* — reached by a write on every path from
//!   entry (the dominance-aware def-use check adapted to non-SSA output,
//!   where values may have many defs). This catches most dropped-copy
//!   corruptions statically, at bit-set data-flow cost instead of the
//!   interpreter's.
//! * [`ValidationMode::Differential`] additionally promotes the test-only
//!   interpreter oracle into a runtime check: it executes the
//!   pre-translation function and the translated output on deterministic
//!   argument sets ([`ossa_interp::argument_sets`]) and compares observable
//!   behaviour (return value and call/store trace), reporting the first
//!   divergence.
//!
//! Failures are reported as [`TranslateError::ValidationFailed`], tagged
//! [`TranslatePhase::Validate`], so they slot into the fault taxonomy and
//! the recovery ladder exactly like panics and resource blowups. The
//! default engines run [`ValidationMode::Off`] and are byte-for-byte
//! unaffected.

use std::fmt::Write as _;

use ossa_interp::{argument_sets, same_behaviour, InterpError, Interpreter, Observation};
use ossa_ir::{verify_cfg, Block, EntitySet, Function, Inst, SecondaryMap, Value};

use crate::coalesce::OutOfSsaOptions;
use crate::fault::{TranslateError, TranslatePhase};

/// How much checking an engine performs on each translated function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationMode {
    /// No output validation (the default; zero overhead).
    #[default]
    Off,
    /// Structural re-verification of the output (CFG verifier + the
    /// translation postconditions).
    Structural,
    /// Structural checks plus the differential interpreter run against the
    /// pre-translation function.
    Differential,
}

/// Seed of the differential argument sets — shared with the oracle test
/// suites so the validator checks the same inputs the tests do.
pub const DIFFERENTIAL_SEED: u64 = 2009;

/// Number of argument sets the differential validator executes per function.
pub const DIFFERENTIAL_SETS: usize = 4;

/// Fuel per differential execution (same budget the oracle tests use).
pub const DIFFERENTIAL_FUEL: u64 = ossa_interp::DEFAULT_FUEL;

/// Validates `translated` (the out-of-SSA output) against `original` (a
/// pristine pre-translation snapshot) under `mode`. `options` tells the
/// validator which postconditions the run promised (sequentialization).
///
/// # Errors
/// [`TranslateError::ValidationFailed`] describing the first structural
/// violation or behavioural divergence found.
pub fn validate_translation(
    original: &Function,
    translated: &Function,
    options: &OutOfSsaOptions,
    mode: ValidationMode,
) -> Result<(), TranslateError> {
    match mode {
        ValidationMode::Off => Ok(()),
        ValidationMode::Structural => validate_structural(translated, options),
        ValidationMode::Differential => {
            validate_structural(translated, options)?;
            validate_differential(original, translated)
        }
    }
}

fn validation_error(detail: String) -> TranslateError {
    TranslateError::ValidationFailed { phase: TranslatePhase::Validate, detail }
}

/// The structural half: CFG verifier plus translation postconditions.
pub fn validate_structural(
    translated: &Function,
    options: &OutOfSsaOptions,
) -> Result<(), TranslateError> {
    if let Err(errors) = verify_cfg(translated) {
        return Err(validation_error(format!("output failed CFG verification: {errors}")));
    }
    let phis = translated.count_phis();
    if phis != 0 {
        return Err(validation_error(format!("{phis} phi-function(s) survived translation")));
    }
    if options.sequentialize {
        for block in translated.blocks() {
            for &inst in translated.block_insts(block) {
                if translated.inst_copy_pairs(inst).is_some() {
                    return Err(validation_error(format!(
                        "parallel copy survived sequentialization in {block}"
                    )));
                }
            }
        }
    }
    // Def-use sanity: the output is not SSA (no unique-def requirement), but
    // a value that is read and never written anywhere is always a miscompile
    // — it is exactly what a lost copy leaves behind.
    let def_counts = translated.def_counts();
    for block in translated.blocks() {
        for &inst in translated.block_insts(block) {
            if let Some(value) = first_use(translated, inst, |value| def_counts[value] == 0) {
                return Err(validation_error(format!(
                    "{value} is used in {block} but defined nowhere"
                )));
            }
        }
    }
    validate_must_defined(translated)
}

/// The dominance-aware half of the def-use check: every use must be
/// *must-defined* — reached by a write on **every** path from entry. On
/// non-SSA output (multiple defs per value are normal after coalescing) the
/// classical "each use dominated by its def" test is exactly the must-define
/// forward data flow `in[b] = ∩ preds out[p]`, which this computes over
/// value bit-sets. A dropped copy whose destination is written on only some
/// of the paths reaching a use — the lost-copy residue a plain def-count
/// check cannot see — fails here without paying for the interpreter.
///
/// Runs after the no-φ postcondition, so every use is an ordinary operand
/// (φ-uses, which would need checking at predecessor exits, are already
/// gone); parallel copies read all sources before writing any destination,
/// matching the uses-then-defs order of the walk. Blocks whose in-set is
/// still ⊤ (unreachable code) are vacuously correct: no path reaches them.
fn validate_must_defined(translated: &Function) -> Result<(), TranslateError> {
    let entry = translated.entry();
    let preds = translated.predecessors();
    // out[b] per block; `None` is ⊤ (not yet computed / unreachable), the
    // identity of intersection. Sets only shrink from ⊤, so the fixpoint
    // terminates.
    let mut outs: SecondaryMap<Block, Option<EntitySet<Value>>> = SecondaryMap::new();
    let mut avail: EntitySet<Value> = EntitySet::with_capacity(translated.num_values());
    // in[b] = ∩ preds out[p] (entry: ∅); returns `None` for ⊤.
    let flow_in = |outs: &SecondaryMap<Block, Option<EntitySet<Value>>>,
                   avail: &mut EntitySet<Value>,
                   block: Block|
     -> bool {
        avail.reset();
        if block == entry {
            return true;
        }
        let mut seeded = false;
        for &pred in &preds[block] {
            let Some(out) = &outs[pred] else { continue };
            if seeded {
                avail.intersect_with(out);
            } else {
                avail.clone_from_set(out);
                seeded = true;
            }
        }
        seeded
    };
    loop {
        let mut changed = false;
        for block in translated.blocks() {
            if !flow_in(&outs, &mut avail, block) && block != entry {
                continue;
            }
            for &inst in translated.block_insts(block) {
                translated.for_each_inst_def(inst, |value| {
                    avail.insert(value);
                });
            }
            let slot = &mut outs[block];
            if slot.as_ref() != Some(&avail) {
                match slot {
                    Some(set) => set.clone_from_set(&avail),
                    None => *slot = Some(avail.clone()),
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Check pass: walk each reachable block from its in-set, verifying every
    // use against the values must-defined at that point.
    for block in translated.blocks() {
        if !flow_in(&outs, &mut avail, block) && block != entry {
            continue;
        }
        for &inst in translated.block_insts(block) {
            if let Some(value) = first_use(translated, inst, |value| !avail.contains(value)) {
                return Err(validation_error(format!(
                    "{value} is used in {block} but is not defined on every path from entry"
                )));
            }
            translated.for_each_inst_def(inst, |value| {
                avail.insert(value);
            });
        }
    }
    Ok(())
}

/// The first value `inst` uses that satisfies `bad`, in operand order.
fn first_use(func: &Function, inst: Inst, mut bad: impl FnMut(Value) -> bool) -> Option<Value> {
    let mut found = None;
    func.for_each_inst_use(inst, |value| {
        if found.is_none() && bad(value) {
            found = Some(value);
        }
    });
    found
}

/// The differential half: executes both functions on the shared
/// deterministic argument sets and compares observable behaviour.
pub fn validate_differential(
    original: &Function,
    translated: &Function,
) -> Result<(), TranslateError> {
    let inputs = argument_sets(DIFFERENTIAL_SEED, DIFFERENTIAL_SETS, original.num_params as usize);
    let interp = Interpreter::new().with_fuel(DIFFERENTIAL_FUEL);
    for args in &inputs {
        let reference = interp.run(original, args);
        let subject = interp.run(translated, args);
        let agree = match (&reference, &subject) {
            (Ok(a), Ok(b)) => same_behaviour(a, b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !agree {
            return Err(validation_error(format!(
                "behaviour diverged on inputs {args:?}: reference {} vs translated {}",
                describe(&reference),
                describe(&subject)
            )));
        }
    }
    Ok(())
}

/// One-line rendering of an execution outcome for divergence reports.
fn describe(outcome: &Result<Observation, InterpError>) -> String {
    match outcome {
        Ok(obs) => {
            let mut s = String::new();
            match obs.returned {
                Some(v) => write!(s, "returned {v}").unwrap(),
                None => s.push_str("returned void"),
            }
            write!(s, " ({} trace event(s))", obs.trace.len()).unwrap();
            s
        }
        Err(err) => format!("failed: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::translate_out_of_ssa;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, InstData};

    /// A diamond with a φ-join: `f(a, b) = (a < b ? a+b : a*b) + a`.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("diamond", 2);
        let entry = b.create_block();
        let then = b.create_block();
        let els = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.param(0);
        let y = b.param(1);
        let c = b.cmp(ossa_ir::CmpOp::Lt, a, y);
        b.branch(c, then, els);
        b.switch_to_block(then);
        let s = b.binary(BinaryOp::Add, a, y);
        b.jump(join);
        b.switch_to_block(els);
        let p = b.binary(BinaryOp::Mul, a, y);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(then, s), (els, p)]);
        let r = b.binary(BinaryOp::Add, m, a);
        b.ret(Some(r));
        b.finish()
    }

    #[test]
    fn healthy_translation_passes_all_modes() {
        let original = diamond();
        let mut translated = original.clone();
        let options = OutOfSsaOptions::default();
        translate_out_of_ssa(&mut translated, &options);
        for mode in [ValidationMode::Off, ValidationMode::Structural, ValidationMode::Differential]
        {
            assert_eq!(validate_translation(&original, &translated, &options, mode), Ok(()));
        }
    }

    /// The paper's swap pattern: two φs exchanging values every iteration.
    /// The exchange is a genuine copy cycle, so coalescing can never remove
    /// the copies — translated output always contains them.
    fn swap_loop() -> Function {
        let mut b = FunctionBuilder::new("swap_loop", 3);
        let entry = b.create_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a0 = b.param(0);
        let b0 = b.param(1);
        let n0 = b.param(2);
        b.jump(header);
        b.switch_to_block(header);
        // Declare the φ destinations up front so the swap can be expressed
        // as mutually recursive arguments along the back edge.
        let a1 = b.declare_value();
        let b1 = b.declare_value();
        let n1 = b.declare_value();
        let n2 = b.declare_value();
        b.phi_to(a1, vec![(entry, a0), (body, b1)]);
        b.phi_to(b1, vec![(entry, b0), (body, a1)]);
        b.phi_to(n1, vec![(entry, n0), (body, n2)]);
        let c = b.cmp(ossa_ir::CmpOp::Gt, n1, a0);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        b.binary_to(BinaryOp::Sub, n2, n1, b0);
        b.jump(header);
        b.switch_to_block(exit);
        let r = b.binary(BinaryOp::Sub, a1, b1);
        b.ret(Some(r));
        b.finish()
    }

    #[test]
    fn structural_mode_rejects_surviving_parallel_copies() {
        let original = swap_loop();
        let mut translated = original.clone();
        // Translate without sequentialization, then validate against options
        // that promised it: the surviving parallel copy must be reported.
        let unsequenced = OutOfSsaOptions::default().with_sequentialize(false);
        translate_out_of_ssa(&mut translated, &unsequenced);
        let promised = OutOfSsaOptions::default();
        let err =
            validate_translation(&original, &translated, &promised, ValidationMode::Structural)
                .unwrap_err();
        assert_eq!(err.phase(), Some(TranslatePhase::Validate));
        assert!(err.to_string().contains("parallel copy survived"), "{err}");
    }

    #[test]
    fn structural_mode_rejects_uses_of_undefined_values() {
        let original = diamond();
        let mut translated = original.clone();
        let options = OutOfSsaOptions::default();
        translate_out_of_ssa(&mut translated, &options);
        // Redirect the return's operand to an allocated-but-never-defined
        // value: exactly the residue a lost copy leaves behind.
        let ghost = translated.new_value();
        let ret = translated
            .blocks()
            .flat_map(|b| translated.block_insts(b).to_vec())
            .find(|&i| matches!(translated.inst(i), InstData::Return { value: Some(_) }))
            .expect("diamond returns a value");
        translated.map_inst_uses(ret, |_| ghost);
        let err =
            validate_translation(&original, &translated, &options, ValidationMode::Structural)
                .unwrap_err();
        assert!(err.to_string().contains("defined nowhere"), "{err}");
    }

    /// A diamond whose join reads a value written on only one arm — the
    /// shape a lost copy leaves when the dropped write sat on the other arm.
    /// With `on_both_arms`, the second arm defines the value too (normal
    /// multi-def non-SSA output, which must validate).
    fn partially_defined(on_both_arms: bool) -> Function {
        let mut b = FunctionBuilder::new("partial", 2);
        let entry = b.create_block();
        let then = b.create_block();
        let els = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.param(0);
        let y = b.param(1);
        let c = b.cmp(ossa_ir::CmpOp::Lt, a, y);
        b.branch(c, then, els);
        let x = b.declare_value();
        b.switch_to_block(then);
        b.binary_to(BinaryOp::Add, x, a, y);
        b.jump(join);
        b.switch_to_block(els);
        if on_both_arms {
            b.binary_to(BinaryOp::Mul, x, a, y);
        }
        b.jump(join);
        b.switch_to_block(join);
        let r = b.binary(BinaryOp::Add, x, a);
        b.ret(Some(r));
        b.finish()
    }

    #[test]
    fn structural_mode_rejects_values_not_defined_on_every_path() {
        // One def on one arm: def-counting sees a healthy value, the
        // must-define data flow sees the undefined path.
        let broken = partially_defined(false);
        let options = OutOfSsaOptions::default();
        let err = validate_structural(&broken, &options).unwrap_err();
        assert!(err.to_string().contains("not defined on every path"), "{err}");
        // Defs on both arms: ordinary multi-def non-SSA output, accepted.
        let healthy = partially_defined(true);
        assert_eq!(validate_structural(&healthy, &options), Ok(()));
    }

    #[test]
    fn differential_mode_reports_behavioural_divergence() {
        let original = diamond();
        let mut translated = original.clone();
        let options = OutOfSsaOptions::default();
        translate_out_of_ssa(&mut translated, &options);
        // Structurally pristine, behaviourally wrong: flip one Add to Sub.
        let target = translated
            .blocks()
            .flat_map(|b| translated.block_insts(b).to_vec())
            .find(|&i| matches!(translated.inst(i), InstData::Binary { op: BinaryOp::Add, .. }))
            .expect("diamond contains an add");
        let InstData::Binary { dst, args, .. } = *translated.inst(target) else { unreachable!() };
        *translated.inst_mut(target) = InstData::Binary { op: BinaryOp::Sub, dst, args };
        assert_eq!(
            validate_translation(&original, &translated, &options, ValidationMode::Structural),
            Ok(()),
            "the mangled output must still be structurally healthy"
        );
        let err =
            validate_translation(&original, &translated, &options, ValidationMode::Differential)
                .unwrap_err();
        assert_eq!(err.phase(), Some(TranslatePhase::Validate));
        assert!(err.to_string().contains("behaviour diverged"), "{err}");
    }
}
