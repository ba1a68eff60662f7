//! # ossa-interp — reference interpreter
//!
//! A small, deterministic interpreter for the `ossa-ir` IR. It executes both
//! SSA functions (φ-functions with parallel semantics, parallel copies) and
//! ordinary post-SSA code, producing an [`Observation`] — the returned value
//! plus the trace of externally visible events (calls and stores).
//!
//! The out-of-SSA translation is required to preserve observable behaviour,
//! so tests run the same inputs through the original SSA function and its
//! translated form and compare the observations.
//!
//! # Examples
//!
//! ```
//! use ossa_ir::builder::FunctionBuilder;
//! use ossa_ir::BinaryOp;
//! use ossa_interp::Interpreter;
//!
//! let mut b = FunctionBuilder::new("double", 1);
//! let entry = b.create_block();
//! b.set_entry(entry);
//! b.switch_to_block(entry);
//! let x = b.param(0);
//! let two = b.iconst(2);
//! let doubled = b.binary(BinaryOp::Mul, x, two);
//! b.ret(Some(doubled));
//! let func = b.finish();
//!
//! let obs = Interpreter::new().run(&func, &[21])?;
//! assert_eq!(obs.returned, Some(42));
//! # Ok::<(), ossa_interp::ExecError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;

use ossa_ir::entity::{Block, Value};
use ossa_ir::{Function, InstData};

/// Default instruction budget for one execution.
pub const DEFAULT_FUEL: u64 = 200_000;

/// An externally visible event produced during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A call to an opaque function: callee id, argument values, produced
    /// result (the interpreter models calls as a deterministic hash of the
    /// callee and its arguments).
    Call {
        /// Opaque callee identifier.
        callee: u32,
        /// Argument values at the call.
        args: Vec<i64>,
        /// Value returned by the modelled call.
        result: i64,
    },
    /// A store to the abstract memory: address and stored value.
    Store {
        /// Address operand.
        addr: i64,
        /// Stored value.
        value: i64,
    },
}

/// The observable behaviour of one execution.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Observation {
    /// Value returned by the function (`None` for a void return).
    pub returned: Option<i64>,
    /// Ordered trace of calls and stores.
    pub trace: Vec<Event>,
    /// Number of instructions executed.
    pub steps: u64,
}

/// Execution errors. The interpreter is the semantic *oracle* of the test
/// suite, so a malformed program — whatever mangled it — must surface as a
/// typed, reportable error rather than tearing the harness down with a
/// panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The instruction budget was exhausted (probably an infinite loop).
    FuelExhausted,
    /// An instruction read a value that was never written. This indicates a
    /// miscompilation (or executing unreachable code paths of a malformed
    /// function).
    UndefinedValue(Value),
    /// A block had no terminator.
    MissingTerminator(Block),
    /// The function has no entry block.
    NoEntry,
    /// Control reached a φ-function in the entry block — a φ needs an
    /// incoming edge to select its value, and the entry has none.
    PhiInEntry(Block),
    /// A block's φ group is malformed: a non-φ instruction inside the
    /// leading φ group or a φ after it.
    MisplacedPhi(Block),
    /// A φ-function has no argument for the edge control arrived through.
    PhiMissingEdge {
        /// The φ's destination value.
        phi: Value,
        /// The predecessor block the edge came from.
        pred: Block,
    },
}

/// Former name of [`InterpError`], kept as an alias for existing callers.
pub type ExecError = InterpError;

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::FuelExhausted => write!(f, "instruction budget exhausted"),
            InterpError::UndefinedValue(v) => write!(f, "read of undefined value {v}"),
            InterpError::MissingTerminator(b) => write!(f, "block {b} has no terminator"),
            InterpError::NoEntry => write!(f, "function has no entry block"),
            InterpError::PhiInEntry(b) => {
                write!(f, "phi executed in entry block {b} (no incoming edge)")
            }
            InterpError::MisplacedPhi(b) => {
                write!(f, "malformed phi group in block {b}")
            }
            InterpError::PhiMissingEdge { phi, pred } => {
                write!(f, "phi defining {phi} has no argument for the edge from {pred}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// The interpreter. Construct one, optionally adjust the fuel, then
/// [`Interpreter::run`] a function.
#[derive(Clone, Debug)]
pub struct Interpreter {
    fuel: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with the default fuel.
    pub fn new() -> Self {
        Self { fuel: DEFAULT_FUEL }
    }

    /// Sets the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs `func` on `args`.
    ///
    /// # Errors
    /// Returns an error if the instruction budget is exhausted, a value is
    /// read before being written, or the function is structurally broken.
    pub fn run(&self, func: &Function, args: &[i64]) -> Result<Observation, ExecError> {
        if !func.has_entry() {
            return Err(InterpError::NoEntry);
        }
        let mut env: HashMap<Value, i64> = HashMap::new();
        let mut memory: HashMap<i64, i64> = HashMap::new();
        let mut trace = Vec::new();
        let mut steps: u64 = 0;

        let mut block = func.entry();
        let mut pred: Option<Block> = None;

        'blocks: loop {
            // Execute the φ group of the block with parallel semantics.
            let phis = func.phis(block);
            if !phis.is_empty() {
                let from = pred.ok_or(InterpError::PhiInEntry(block))?;
                let mut parallel_reads: Vec<(Value, i64)> = Vec::with_capacity(phis.len());
                for &phi in &phis {
                    steps += 1;
                    if steps > self.fuel {
                        return Err(InterpError::FuelExhausted);
                    }
                    let data = func.inst(phi);
                    let InstData::Phi { dst, .. } = *data else {
                        return Err(InterpError::MisplacedPhi(block));
                    };
                    let arg = data
                        .phi_args(func.pools())
                        .ok_or(InterpError::MisplacedPhi(block))?
                        .iter()
                        .find(|a| a.block == from)
                        .ok_or(InterpError::PhiMissingEdge { phi: dst, pred: from })?;
                    let value = read(&env, arg.value)?;
                    parallel_reads.push((dst, value));
                }
                for (dst, value) in parallel_reads {
                    env.insert(dst, value);
                }
            }

            for &inst in &func.block_insts(block)[func.first_non_phi(block)..] {
                steps += 1;
                if steps > self.fuel {
                    return Err(InterpError::FuelExhausted);
                }
                match func.inst(inst) {
                    InstData::Phi { .. } => return Err(InterpError::MisplacedPhi(block)),
                    InstData::Param { dst, index } => {
                        env.insert(*dst, args.get(*index as usize).copied().unwrap_or(0));
                    }
                    InstData::Const { dst, imm } => {
                        env.insert(*dst, *imm);
                    }
                    InstData::Unary { op, dst, arg } => {
                        let a = read(&env, *arg)?;
                        env.insert(*dst, op.eval(a));
                    }
                    InstData::Binary { op, dst, args } => {
                        let a = read(&env, args[0])?;
                        let b = read(&env, args[1])?;
                        env.insert(*dst, op.eval(a, b));
                    }
                    InstData::Cmp { op, dst, args } => {
                        let a = read(&env, args[0])?;
                        let b = read(&env, args[1])?;
                        env.insert(*dst, op.eval(a, b));
                    }
                    InstData::Copy { dst, src } => {
                        let v = read(&env, *src)?;
                        env.insert(*dst, v);
                    }
                    InstData::ParallelCopy { copies } => {
                        let reads: Vec<(Value, i64)> = func
                            .copy_list(*copies)
                            .iter()
                            .map(|c| read(&env, c.src).map(|v| (c.dst, v)))
                            .collect::<Result<_, _>>()?;
                        for (dst, v) in reads {
                            env.insert(dst, v);
                        }
                    }
                    InstData::Call { dst, callee, args } => {
                        let arg_values: Vec<i64> = func
                            .value_list(*args)
                            .iter()
                            .map(|&a| read(&env, a))
                            .collect::<Result<_, _>>()?;
                        let result = model_call(*callee, &arg_values);
                        trace.push(Event::Call { callee: *callee, args: arg_values, result });
                        if let Some(dst) = dst {
                            env.insert(*dst, result);
                        }
                    }
                    InstData::Load { dst, addr } => {
                        let a = read(&env, *addr)?;
                        env.insert(*dst, memory.get(&a).copied().unwrap_or(0));
                    }
                    InstData::Store { addr, value } => {
                        let a = read(&env, *addr)?;
                        let v = read(&env, *value)?;
                        memory.insert(a, v);
                        trace.push(Event::Store { addr: a, value: v });
                    }
                    InstData::Jump { dest } => {
                        pred = Some(block);
                        block = *dest;
                        continue 'blocks;
                    }
                    InstData::Branch { cond, then_dest, else_dest } => {
                        let c = read(&env, *cond)?;
                        pred = Some(block);
                        block = if c != 0 { *then_dest } else { *else_dest };
                        continue 'blocks;
                    }
                    InstData::BrDec { counter, dec, loop_dest, exit_dest } => {
                        let c = read(&env, *counter)?;
                        let d = c.wrapping_sub(1);
                        env.insert(*dec, d);
                        pred = Some(block);
                        block = if d != 0 { *loop_dest } else { *exit_dest };
                        continue 'blocks;
                    }
                    InstData::Return { value } => {
                        let returned = match value {
                            Some(v) => Some(read(&env, *v)?),
                            None => None,
                        };
                        return Ok(Observation { returned, trace, steps });
                    }
                }
            }
            return Err(InterpError::MissingTerminator(block));
        }
    }
}

fn read(env: &HashMap<Value, i64>, value: Value) -> Result<i64, ExecError> {
    env.get(&value).copied().ok_or(InterpError::UndefinedValue(value))
}

/// Deterministic model of an opaque call: mixes the callee id and arguments.
fn model_call(callee: u32, args: &[i64]) -> i64 {
    let mut acc = (callee as i64).wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64);
    for (i, &a) in args.iter().enumerate() {
        acc = acc.rotate_left(7).wrapping_add(a.wrapping_mul(31).wrapping_add(i as i64 + 1));
    }
    acc
}

/// Compares the observable behaviour (return value and event trace, not step
/// counts) of two observations.
pub fn same_behaviour(a: &Observation, b: &Observation) -> bool {
    a.returned == b.returned && a.trace == b.trace
}

/// Deterministic argument sets for differential runs: `num_sets` vectors of
/// `num_args` small integers in `[-20, 20]`, derived from `seed` with a
/// splitmix64 stream. The one generator shared by the differential
/// validator, the oracle property tests and the degradation suite, so "the
/// inputs we check on" means the same thing everywhere.
pub fn argument_sets(seed: u64, num_sets: usize, num_args: usize) -> Vec<Vec<i64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..num_sets).map(|_| (0..num_args).map(|_| (next() % 41) as i64 - 20).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, CmpOp, CopyPair};

    #[test]
    fn argument_sets_are_deterministic_bounded_and_seed_sensitive() {
        let a = argument_sets(2009, 4, 3);
        assert_eq!(a, argument_sets(2009, 4, 3));
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|set| set.len() == 3));
        assert!(a.iter().flatten().all(|&v| (-20..=20).contains(&v)));
        assert_ne!(a, argument_sets(2010, 4, 3));
    }

    #[test]
    fn straightline_arithmetic() {
        let mut b = FunctionBuilder::new("arith", 2);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.param(1);
        let s = b.binary(BinaryOp::Add, x, y);
        let d = b.binary(BinaryOp::Mul, s, s);
        b.ret(Some(d));
        let f = b.finish();
        let obs = Interpreter::new().run(&f, &[3, 4]).unwrap();
        assert_eq!(obs.returned, Some(49));
        assert!(obs.trace.is_empty());
    }

    #[test]
    fn phi_selects_value_from_the_taken_edge() {
        let mut b = FunctionBuilder::new("select", 1);
        let entry = b.create_block();
        let t = b.create_block();
        let e = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        b.branch(p, t, e);
        b.switch_to_block(t);
        let a = b.iconst(100);
        b.jump(join);
        b.switch_to_block(e);
        let c = b.iconst(200);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(t, a), (e, c)]);
        b.ret(Some(m));
        let f = b.finish();
        assert_eq!(Interpreter::new().run(&f, &[1]).unwrap().returned, Some(100));
        assert_eq!(Interpreter::new().run(&f, &[0]).unwrap().returned, Some(200));
    }

    #[test]
    fn swap_phis_have_parallel_semantics() {
        // a = 1, b = 2; loop `n` times swapping (a, b); return a*10+b.
        let mut b = FunctionBuilder::new("swap", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let latch = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        let a1 = b.iconst(1);
        let b1 = b.iconst(2);
        b.jump(header);
        b.switch_to_block(header);
        let i_next = b.declare_value();
        let a2 = b.declare_value();
        let b2 = b.declare_value();
        let i = b.phi(vec![(entry, n), (latch, i_next)]);
        b.phi_to(a2, vec![(entry, a1), (latch, b2)]);
        b.phi_to(b2, vec![(entry, b1), (latch, a2)]);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, i, zero);
        b.branch(c, latch, exit);
        b.switch_to_block(latch);
        let one = b.iconst(1);
        b.func_mut().append_inst(
            latch,
            ossa_ir::InstData::Binary { op: BinaryOp::Sub, dst: i_next, args: [i, one] },
        );
        b.jump(header);
        b.switch_to_block(exit);
        let ten = b.iconst(10);
        let scaled = b.binary(BinaryOp::Mul, a2, ten);
        let packed = b.binary(BinaryOp::Add, scaled, b2);
        b.ret(Some(packed));
        let f = b.finish();
        ossa_ir::verify_ssa(&f).unwrap();
        // 0 iterations: (a, b) = (1, 2) -> 12. 1 iteration: (2, 1) -> 21.
        assert_eq!(Interpreter::new().run(&f, &[0]).unwrap().returned, Some(12));
        assert_eq!(Interpreter::new().run(&f, &[1]).unwrap().returned, Some(21));
        assert_eq!(Interpreter::new().run(&f, &[2]).unwrap().returned, Some(12));
    }

    #[test]
    fn parallel_copy_reads_before_writing() {
        let mut b = FunctionBuilder::new("parcopy", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.iconst(1);
        let c = b.iconst(2);
        let x = b.declare_value();
        let y = b.declare_value();
        b.parallel_copy(vec![CopyPair { dst: x, src: a }, CopyPair { dst: y, src: c }]);
        // Swap x and y through a parallel copy.
        b.parallel_copy(vec![CopyPair { dst: x, src: y }, CopyPair { dst: y, src: x }]);
        let ten = b.iconst(10);
        let sx = b.binary(BinaryOp::Mul, x, ten);
        let packed = b.binary(BinaryOp::Add, sx, y);
        b.ret(Some(packed));
        let f = b.finish();
        assert_eq!(Interpreter::new().run(&f, &[]).unwrap().returned, Some(21));
    }

    #[test]
    fn br_dec_loops_until_zero() {
        // Executes the body `n` times (counter decremented by the branch).
        let mut b = FunctionBuilder::new("brdec", 1);
        let entry = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        let zero = b.iconst(0);
        b.jump(body);
        b.switch_to_block(body);
        let acc_next = b.declare_value();
        let counter_next = b.declare_value();
        let acc = b.phi(vec![(entry, zero), (body, acc_next)]);
        let counter = b.phi(vec![(entry, n), (body, counter_next)]);
        let one = b.iconst(1);
        b.func_mut().append_inst(
            body,
            ossa_ir::InstData::Binary { op: BinaryOp::Add, dst: acc_next, args: [acc, one] },
        );
        b.func_mut().append_inst(
            body,
            ossa_ir::InstData::BrDec {
                counter,
                dec: counter_next,
                loop_dest: body,
                exit_dest: exit,
            },
        );
        b.switch_to_block(exit);
        b.ret(Some(acc_next));
        let f = b.finish();
        ossa_ir::verify_ssa(&f).unwrap();
        assert_eq!(Interpreter::new().run(&f, &[3]).unwrap().returned, Some(3));
        assert_eq!(Interpreter::new().run(&f, &[1]).unwrap().returned, Some(1));
    }

    #[test]
    fn calls_and_stores_are_traced() {
        let mut b = FunctionBuilder::new("effects", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let r = b.call(7, vec![x]);
        b.store(x, r);
        let loaded = b.load(x);
        b.ret(Some(loaded));
        let f = b.finish();
        let obs = Interpreter::new().run(&f, &[5]).unwrap();
        assert_eq!(obs.trace.len(), 2);
        let Event::Call { callee, result, .. } = &obs.trace[0] else { panic!() };
        assert_eq!(*callee, 7);
        assert_eq!(obs.returned, Some(*result));
        let Event::Store { addr, value } = &obs.trace[1] else { panic!() };
        assert_eq!(*addr, 5);
        assert_eq!(value, result);
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let mut b = FunctionBuilder::new("spin", 0);
        let entry = b.create_block();
        let looping = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        b.jump(looping);
        b.switch_to_block(looping);
        b.jump(looping);
        let f = b.finish();
        let err = Interpreter::new().with_fuel(100).run(&f, &[]).unwrap_err();
        assert_eq!(err, ExecError::FuelExhausted);
    }

    #[test]
    fn undefined_read_is_reported() {
        let mut b = FunctionBuilder::new("undef", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let ghost = b.declare_value();
        b.ret(Some(ghost));
        let f = b.finish();
        let err = Interpreter::new().run(&f, &[]).unwrap_err();
        assert!(matches!(err, ExecError::UndefinedValue(_)));
    }

    #[test]
    fn phi_in_entry_is_a_typed_error() {
        // A φ in the entry block is malformed (there is no incoming edge to
        // select by); the oracle must report it, not panic.
        let mut b = FunctionBuilder::new("phientry", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let c = b.iconst(1);
        let m = b.phi(vec![(entry, c)]);
        b.ret(Some(m));
        let f = b.finish();
        let err = Interpreter::new().run(&f, &[]).unwrap_err();
        assert_eq!(err, InterpError::PhiInEntry(entry));
    }

    #[test]
    fn phi_missing_edge_is_a_typed_error() {
        // The φ only covers the edge from `t`; arriving from `e` must report
        // the missing edge instead of panicking.
        let mut b = FunctionBuilder::new("phiedge", 1);
        let entry = b.create_block();
        let t = b.create_block();
        let e = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        b.branch(p, t, e);
        b.switch_to_block(t);
        let a = b.iconst(100);
        b.jump(join);
        b.switch_to_block(e);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(t, a)]);
        b.ret(Some(m));
        let f = b.finish();
        assert_eq!(Interpreter::new().run(&f, &[1]).unwrap().returned, Some(100));
        let err = Interpreter::new().run(&f, &[0]).unwrap_err();
        assert_eq!(err, InterpError::PhiMissingEdge { phi: m, pred: e });
    }

    #[test]
    fn same_behaviour_ignores_step_counts() {
        let a = Observation { returned: Some(1), trace: vec![], steps: 10 };
        let b = Observation { returned: Some(1), trace: vec![], steps: 99 };
        assert!(same_behaviour(&a, &b));
        let c = Observation { returned: Some(2), trace: vec![], steps: 10 };
        assert!(!same_behaviour(&a, &c));
    }
}
