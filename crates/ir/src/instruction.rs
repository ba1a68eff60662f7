//! Instruction set of the IR.
//!
//! The instruction set is deliberately small but covers everything the
//! out-of-SSA translation of Boissinot et al. has to deal with:
//!
//! * ordinary value-producing instructions (constants, unary/binary ops,
//!   loads, calls),
//! * [`InstData::Copy`] and [`InstData::ParallelCopy`] (parallel copies are
//!   the semantics of φ-functions and are what the translation inserts),
//! * [`InstData::Phi`] functions,
//! * terminators, including [`InstData::Branch`] which *uses* a value after
//!   the copy-insertion point (the Figure 1 subtlety of the paper) and
//!   [`InstData::BrDec`] which *defines* a value in the terminator itself
//!   (the DSP hardware-loop branch of Figure 2).
//!
//! Variable-length payloads (parallel-copy moves, φ arguments, call
//! arguments) are stored as [`crate::pool::PoolList`] handles into the
//! function-owned arenas ([`crate::pool::IrPools`]), so constructing or
//! editing an instruction performs no per-instruction heap allocation.
//! Accessors that resolve those payloads take the pools as an argument; the
//! [`crate::Function`] wrappers pass them automatically.

use crate::entity::{Block, Value};
use crate::pool::{IrPools, PoolList};

/// The model's calling convention, shared by the workload generator (which
/// pins call operands) and the out-of-SSA isolation phase (which splits the
/// pinned live ranges per call site). Keeping both sides on these constants
/// is what guarantees every pin the generator creates is isolated somewhere.
pub mod callconv {
    /// Register holding a call's return value.
    pub const RETURN_REG: u32 = 0;
    /// Number of leading call arguments passed in registers.
    pub const NUM_ARG_REGS: usize = 2;

    /// Register holding call argument `index`, when `index < NUM_ARG_REGS`.
    pub const fn arg_reg(index: usize) -> u32 {
        1 + index as u32
    }
}

/// Binary integer operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (defined as 0 when the divisor is 0, so the interpreter is total).
    Div,
    /// Remainder (defined as 0 when the divisor is 0).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (modulo 64).
    Shl,
    /// Arithmetic right shift (modulo 64).
    Shr,
}

impl BinaryOp {
    /// All binary operations, for use by generators and exhaustive tests.
    pub const ALL: [BinaryOp; 10] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Rem,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Shl,
        BinaryOp::Shr,
    ];

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinaryOp::Add => "add",
            BinaryOp::Sub => "sub",
            BinaryOp::Mul => "mul",
            BinaryOp::Div => "div",
            BinaryOp::Rem => "rem",
            BinaryOp::And => "and",
            BinaryOp::Or => "or",
            BinaryOp::Xor => "xor",
            BinaryOp::Shl => "shl",
            BinaryOp::Shr => "shr",
        }
    }

    /// Evaluates the operation on two `i64` operands with total semantics.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
            BinaryOp::Div => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    a / b
                }
            }
            BinaryOp::Rem => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    a % b
                }
            }
            BinaryOp::And => a & b,
            BinaryOp::Or => a | b,
            BinaryOp::Xor => a ^ b,
            BinaryOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinaryOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }
}

/// Unary integer operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
}

impl UnaryOp {
    /// All unary operations.
    pub const ALL: [UnaryOp; 2] = [UnaryOp::Neg, UnaryOp::Not];

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Not => "not",
        }
    }

    /// Evaluates the operation.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnaryOp::Neg => a.wrapping_neg(),
            UnaryOp::Not => !a,
        }
    }
}

/// Integer comparison predicates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-than-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-than-or-equal.
    Ge,
}

impl CmpOp {
    /// All comparison predicates.
    pub const ALL: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Evaluates the predicate, returning 1 or 0.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        let result = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        };
        result as i64
    }
}

/// One move of a parallel copy: `dst` receives the old value of `src`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CopyPair {
    /// The destination value (written).
    pub dst: Value,
    /// The source value (read before any write of the parallel copy).
    pub src: Value,
}

/// One incoming edge of a φ-function: when control arrives from `block`, the
/// φ result takes the value of `value`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PhiArg {
    /// Predecessor block the value flows from.
    pub block: Block,
    /// Value selected when control comes from `block`.
    pub value: Value,
}

/// Handle to a call-argument list stored in the function's value pool.
pub type ValueList = PoolList<Value>;
/// Handle to a φ-argument list stored in the function's φ pool.
pub type PhiList = PoolList<PhiArg>;
/// Handle to a parallel-copy move list stored in the function's copy pool.
pub type CopyList = PoolList<CopyPair>;

/// Instruction payload.
///
/// Handle-bearing variants ([`InstData::ParallelCopy`], [`InstData::Phi`],
/// [`InstData::Call`]) resolve their lists through the owning function's
/// [`IrPools`]; `Clone` copies the handle, not the elements, so cloning an
/// instruction is only meaningful together with (a clone of) its pools. There
/// is deliberately no derived `PartialEq`: handle equality is identity, not
/// content — [`crate::Function`] compares instructions by resolved content.
#[derive(Clone, Debug)]
pub enum InstData {
    /// `dst = index-th function parameter`. Only allowed in the entry block.
    Param {
        /// Defined value.
        dst: Value,
        /// Parameter position.
        index: u32,
    },
    /// `dst = imm`.
    Const {
        /// Defined value.
        dst: Value,
        /// Constant payload.
        imm: i64,
    },
    /// `dst = op arg`.
    Unary {
        /// Operation.
        op: UnaryOp,
        /// Defined value.
        dst: Value,
        /// Operand.
        arg: Value,
    },
    /// `dst = lhs op rhs`.
    Binary {
        /// Operation.
        op: BinaryOp,
        /// Defined value.
        dst: Value,
        /// Operands.
        args: [Value; 2],
    },
    /// `dst = lhs cmp rhs` producing 0 or 1.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Defined value.
        dst: Value,
        /// Operands.
        args: [Value; 2],
    },
    /// `dst = src` — a sequential copy.
    Copy {
        /// Defined value.
        dst: Value,
        /// Copied value.
        src: Value,
    },
    /// A parallel copy: all sources are read before any destination is
    /// written. This is the copy form inserted by the out-of-SSA translation
    /// and later sequentialized.
    ParallelCopy {
        /// The moves of the parallel copy (handle into the copy pool).
        copies: CopyList,
    },
    /// A φ-function. Must appear in the leading φ group of its block.
    Phi {
        /// Defined value.
        dst: Value,
        /// One argument per predecessor block (handle into the φ pool).
        args: PhiList,
    },
    /// `dst = call fn_id(args...)` — an opaque call, used to model
    /// calling-convention renaming constraints.
    Call {
        /// Returned value, if any.
        dst: Option<Value>,
        /// Opaque callee identifier.
        callee: u32,
        /// Call arguments (handle into the value pool).
        args: ValueList,
    },
    /// `dst = memory[addr]` on an abstract, function-local memory.
    Load {
        /// Defined value.
        dst: Value,
        /// Address operand.
        addr: Value,
    },
    /// `memory[addr] = value`.
    Store {
        /// Address operand.
        addr: Value,
        /// Stored value.
        value: Value,
    },
    /// Unconditional jump.
    Jump {
        /// Target block.
        dest: Block,
    },
    /// Conditional branch: goes to `then_dest` when `cond != 0`. The branch
    /// *uses* `cond`, which matters for the placement of φ copies (Figure 1
    /// of the paper).
    Branch {
        /// Condition value (used by the terminator).
        cond: Value,
        /// Target when the condition is non-zero.
        then_dest: Block,
        /// Target when the condition is zero.
        else_dest: Block,
    },
    /// Branch-with-decrement (hardware-loop style, Figure 2 of the paper):
    /// `dec = counter - 1; if dec != 0 goto loop_dest else goto exit_dest`.
    /// The terminator both uses `counter` and defines `dec`, so no copy can
    /// be inserted between the definition of `dec` and the end of the block.
    BrDec {
        /// Counter operand (used).
        counter: Value,
        /// Decremented counter (defined by the terminator itself).
        dec: Value,
        /// Target when the decremented counter is non-zero.
        loop_dest: Block,
        /// Target when the decremented counter reaches zero.
        exit_dest: Block,
    },
    /// Function return.
    Return {
        /// Returned value, if any.
        value: Option<Value>,
    },
}

/// Non-allocating iterator over a terminator's successor blocks (at most
/// two, deduplicated like the `Vec`-returning convenience).
#[derive(Copy, Clone, Debug)]
pub struct Successors {
    targets: [Block; 2],
    len: u8,
    next: u8,
}

impl Successors {
    /// The empty successor iterator (non-terminators, terminator-less
    /// blocks).
    pub(crate) fn none() -> Self {
        Self { targets: [Block::from_index(0); 2], len: 0, next: 0 }
    }

    fn one(a: Block) -> Self {
        Self { targets: [a, a], len: 1, next: 0 }
    }

    fn pair(a: Block, b: Block) -> Self {
        if a == b {
            Self::one(a)
        } else {
            Self { targets: [a, b], len: 2, next: 0 }
        }
    }
}

impl Iterator for Successors {
    type Item = Block;

    #[inline]
    fn next(&mut self) -> Option<Block> {
        if self.next < self.len {
            let block = self.targets[self.next as usize];
            self.next += 1;
            Some(block)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.len - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Successors {}

impl InstData {
    /// Returns `true` if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstData::Jump { .. }
                | InstData::Branch { .. }
                | InstData::BrDec { .. }
                | InstData::Return { .. }
        )
    }

    /// Returns `true` if this instruction is a φ-function.
    pub fn is_phi(&self) -> bool {
        matches!(self, InstData::Phi { .. })
    }

    /// Returns `true` if this instruction is a sequential or parallel copy.
    pub fn is_copy_like(&self) -> bool {
        matches!(self, InstData::Copy { .. } | InstData::ParallelCopy { .. })
    }

    /// Returns `true` if the instruction may observe or mutate memory or have
    /// other side effects, and therefore must not be removed by dead-code
    /// elimination.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, InstData::Call { .. } | InstData::Store { .. } | InstData::Load { .. })
            || self.is_terminator()
    }

    /// Calls `visit` with each value this instruction defines, in operand
    /// order (a parallel copy's destinations in move order).
    ///
    /// This and [`InstData::for_each_use`] are the IR's one listing of an
    /// instruction's operands: every read-only operand walk goes through
    /// them, and the `Vec`-filling forms ([`InstData::collect_defs`],
    /// [`InstData::defs`]) are wrappers.
    #[inline]
    pub fn for_each_def(&self, pools: &IrPools, mut visit: impl FnMut(Value)) {
        match self {
            InstData::Param { dst, .. }
            | InstData::Const { dst, .. }
            | InstData::Unary { dst, .. }
            | InstData::Binary { dst, .. }
            | InstData::Cmp { dst, .. }
            | InstData::Copy { dst, .. }
            | InstData::Phi { dst, .. }
            | InstData::Load { dst, .. } => visit(*dst),
            InstData::ParallelCopy { copies } => {
                pools.copies.get(*copies).iter().for_each(|c| visit(c.dst))
            }
            InstData::Call { dst, .. } => dst.iter().copied().for_each(visit),
            InstData::BrDec { dec, .. } => visit(*dec),
            InstData::Store { .. }
            | InstData::Jump { .. }
            | InstData::Branch { .. }
            | InstData::Return { .. } => {}
        }
    }

    /// Calls `visit` with each value this instruction uses, in operand
    /// order. For φ-functions this visits every incoming argument; callers
    /// that care about the per-edge semantics must use
    /// [`InstData::phi_args`] instead.
    #[inline]
    pub fn for_each_use(&self, pools: &IrPools, mut visit: impl FnMut(Value)) {
        match self {
            InstData::Param { .. } | InstData::Const { .. } | InstData::Jump { .. } => {}
            InstData::Unary { arg, .. } => visit(*arg),
            InstData::Binary { args, .. } | InstData::Cmp { args, .. } => {
                visit(args[0]);
                visit(args[1]);
            }
            InstData::Copy { src, .. } => visit(*src),
            InstData::ParallelCopy { copies } => {
                pools.copies.get(*copies).iter().for_each(|c| visit(c.src))
            }
            InstData::Phi { args, .. } => pools.phis.get(*args).iter().for_each(|a| visit(a.value)),
            InstData::Call { args, .. } => pools.values.get(*args).iter().copied().for_each(visit),
            InstData::Load { addr, .. } => visit(*addr),
            InstData::Store { addr, value } => {
                visit(*addr);
                visit(*value);
            }
            InstData::Branch { cond, .. } => visit(*cond),
            InstData::BrDec { counter, .. } => visit(*counter),
            InstData::Return { value } => value.iter().copied().for_each(visit),
        }
    }

    /// Appends the values defined by this instruction to `out`.
    pub fn collect_defs(&self, pools: &IrPools, out: &mut Vec<Value>) {
        self.for_each_def(pools, |value| out.push(value));
    }

    /// Returns the values defined by this instruction. Allocates; meant for
    /// tests and diagnostics — hot paths use [`InstData::for_each_def`].
    pub fn defs(&self, pools: &IrPools) -> Vec<Value> {
        let mut out = Vec::new();
        self.collect_defs(pools, &mut out);
        out
    }

    /// Appends the values used by this instruction to `out`, in
    /// [`InstData::for_each_use`] order.
    pub fn collect_uses(&self, pools: &IrPools, out: &mut Vec<Value>) {
        self.for_each_use(pools, |value| out.push(value));
    }

    /// Returns the values used by this instruction. Allocates; meant for
    /// tests and diagnostics — hot paths use [`InstData::for_each_use`].
    pub fn uses(&self, pools: &IrPools) -> Vec<Value> {
        let mut out = Vec::new();
        self.collect_uses(pools, &mut out);
        out
    }

    /// Returns the φ arguments if this is a φ-function.
    pub fn phi_args<'p>(&self, pools: &'p IrPools) -> Option<&'p [PhiArg]> {
        match self {
            InstData::Phi { args, .. } => Some(pools.phis.get(*args)),
            _ => None,
        }
    }

    /// Returns the parallel-copy moves if this is a parallel copy.
    pub fn copy_pairs<'p>(&self, pools: &'p IrPools) -> Option<&'p [CopyPair]> {
        match self {
            InstData::ParallelCopy { copies } => Some(pools.copies.get(*copies)),
            _ => None,
        }
    }

    /// Iterates over the successor blocks if this is a terminator (empty for
    /// non-terminators). Non-allocating; the hot-path form of
    /// [`InstData::successors`].
    #[inline]
    pub fn successors_iter(&self) -> Successors {
        match self {
            InstData::Jump { dest } => Successors::one(*dest),
            InstData::Branch { then_dest, else_dest, .. } => {
                Successors::pair(*then_dest, *else_dest)
            }
            InstData::BrDec { loop_dest, exit_dest, .. } => {
                Successors::pair(*loop_dest, *exit_dest)
            }
            _ => Successors::none(),
        }
    }

    /// Returns the successor blocks if this is a terminator. Allocates; meant
    /// for tests — hot paths use [`InstData::successors_iter`].
    pub fn successors(&self) -> Vec<Block> {
        self.successors_iter().collect()
    }

    /// Rewrites every successor block equal to `from` into `to`. Returns the
    /// number of rewritten edges.
    pub fn replace_successor(&mut self, from: Block, to: Block) -> usize {
        let mut count = 0;
        let mut replace = |b: &mut Block| {
            if *b == from {
                *b = to;
                count += 1;
            }
        };
        match self {
            InstData::Jump { dest } => replace(dest),
            InstData::Branch { then_dest, else_dest, .. } => {
                replace(then_dest);
                replace(else_dest);
            }
            InstData::BrDec { loop_dest, exit_dest, .. } => {
                replace(loop_dest);
                replace(exit_dest);
            }
            _ => {}
        }
        count
    }

    /// Applies `rewrite` to every used value (not to definitions).
    pub fn map_uses(&mut self, pools: &mut IrPools, mut rewrite: impl FnMut(Value) -> Value) {
        match self {
            InstData::Param { .. } | InstData::Const { .. } | InstData::Jump { .. } => {}
            InstData::Unary { arg, .. } => *arg = rewrite(*arg),
            InstData::Binary { args, .. } | InstData::Cmp { args, .. } => {
                args[0] = rewrite(args[0]);
                args[1] = rewrite(args[1]);
            }
            InstData::Copy { src, .. } => *src = rewrite(*src),
            InstData::ParallelCopy { copies } => {
                for copy in pools.copies.get_mut(*copies) {
                    copy.src = rewrite(copy.src);
                }
            }
            InstData::Phi { args, .. } => {
                for arg in pools.phis.get_mut(*args) {
                    arg.value = rewrite(arg.value);
                }
            }
            InstData::Call { args, .. } => {
                for arg in pools.values.get_mut(*args) {
                    *arg = rewrite(*arg);
                }
            }
            InstData::Load { addr, .. } => *addr = rewrite(*addr),
            InstData::Store { addr, value } => {
                *addr = rewrite(*addr);
                *value = rewrite(*value);
            }
            InstData::Branch { cond, .. } => *cond = rewrite(*cond),
            InstData::BrDec { counter, .. } => *counter = rewrite(*counter),
            InstData::Return { value } => {
                if let Some(v) = value {
                    *v = rewrite(*v);
                }
            }
        }
    }

    /// Applies `rewrite` to every defined value.
    pub fn map_defs(&mut self, pools: &mut IrPools, mut rewrite: impl FnMut(Value) -> Value) {
        match self {
            InstData::Param { dst, .. }
            | InstData::Const { dst, .. }
            | InstData::Unary { dst, .. }
            | InstData::Binary { dst, .. }
            | InstData::Cmp { dst, .. }
            | InstData::Copy { dst, .. }
            | InstData::Phi { dst, .. }
            | InstData::Load { dst, .. } => *dst = rewrite(*dst),
            InstData::ParallelCopy { copies } => {
                for copy in pools.copies.get_mut(*copies) {
                    copy.dst = rewrite(copy.dst);
                }
            }
            InstData::Call { dst, .. } => {
                if let Some(d) = dst {
                    *d = rewrite(*d);
                }
            }
            InstData::BrDec { dec, .. } => *dec = rewrite(*dec),
            InstData::Store { .. }
            | InstData::Jump { .. }
            | InstData::Branch { .. }
            | InstData::Return { .. } => {}
        }
    }

    /// Content equality of two instructions, resolving list handles through
    /// each side's pools. This is the equality [`crate::Function`]'s
    /// `PartialEq` is built on: two semantically identical functions compare
    /// equal even when their arenas are laid out differently.
    pub fn content_eq(&self, pools: &IrPools, other: &InstData, other_pools: &IrPools) -> bool {
        use InstData::*;
        match (self, other) {
            (Param { dst: a, index: i }, Param { dst: b, index: j }) => a == b && i == j,
            (Const { dst: a, imm: i }, Const { dst: b, imm: j }) => a == b && i == j,
            (Unary { op: o1, dst: a, arg: x }, Unary { op: o2, dst: b, arg: y }) => {
                o1 == o2 && a == b && x == y
            }
            (Binary { op: o1, dst: a, args: x }, Binary { op: o2, dst: b, args: y }) => {
                o1 == o2 && a == b && x == y
            }
            (Cmp { op: o1, dst: a, args: x }, Cmp { op: o2, dst: b, args: y }) => {
                o1 == o2 && a == b && x == y
            }
            (Copy { dst: a, src: x }, Copy { dst: b, src: y }) => a == b && x == y,
            (ParallelCopy { copies: a }, ParallelCopy { copies: b }) => {
                pools.copies.get(*a) == other_pools.copies.get(*b)
            }
            (Phi { dst: a, args: x }, Phi { dst: b, args: y }) => {
                a == b && pools.phis.get(*x) == other_pools.phis.get(*y)
            }
            (Call { dst: a, callee: f, args: x }, Call { dst: b, callee: g, args: y }) => {
                a == b && f == g && pools.values.get(*x) == other_pools.values.get(*y)
            }
            (Load { dst: a, addr: x }, Load { dst: b, addr: y }) => a == b && x == y,
            (Store { addr: a, value: x }, Store { addr: b, value: y }) => a == b && x == y,
            (Jump { dest: a }, Jump { dest: b }) => a == b,
            (
                Branch { cond: c1, then_dest: t1, else_dest: e1 },
                Branch { cond: c2, then_dest: t2, else_dest: e2 },
            ) => c1 == c2 && t1 == t2 && e1 == e2,
            (
                BrDec { counter: c1, dec: d1, loop_dest: l1, exit_dest: e1 },
                BrDec { counter: c2, dec: d2, loop_dest: l2, exit_dest: e2 },
            ) => c1 == c2 && d1 == d2 && l1 == l2 && e1 == e2,
            (Return { value: a }, Return { value: b }) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityRef;

    fn v(i: usize) -> Value {
        Value::new(i)
    }
    fn b(i: usize) -> Block {
        Block::new(i)
    }

    #[test]
    fn binary_op_eval_total() {
        assert_eq!(BinaryOp::Add.eval(2, 3), 5);
        assert_eq!(BinaryOp::Sub.eval(2, 3), -1);
        assert_eq!(BinaryOp::Div.eval(7, 0), 0);
        assert_eq!(BinaryOp::Div.eval(i64::MIN, -1), 0);
        assert_eq!(BinaryOp::Rem.eval(7, 0), 0);
        assert_eq!(BinaryOp::Shl.eval(1, 65), 2);
        assert_eq!(BinaryOp::Mul.eval(i64::MAX, 2), i64::MAX.wrapping_mul(2));
    }

    #[test]
    fn cmp_op_eval() {
        assert_eq!(CmpOp::Eq.eval(3, 3), 1);
        assert_eq!(CmpOp::Ne.eval(3, 3), 0);
        assert_eq!(CmpOp::Lt.eval(-1, 0), 1);
        assert_eq!(CmpOp::Ge.eval(-1, 0), 0);
    }

    #[test]
    fn unary_op_eval() {
        assert_eq!(UnaryOp::Neg.eval(5), -5);
        assert_eq!(UnaryOp::Not.eval(0), -1);
    }

    #[test]
    fn defs_and_uses_of_basic_instructions() {
        let pools = IrPools::new();
        let inst = InstData::Binary { op: BinaryOp::Add, dst: v(3), args: [v(1), v(2)] };
        assert_eq!(inst.defs(&pools), vec![v(3)]);
        assert_eq!(inst.uses(&pools), vec![v(1), v(2)]);
        assert!(!inst.is_terminator());
        assert!(!inst.is_phi());
    }

    #[test]
    fn defs_and_uses_of_parallel_copy() {
        let mut pools = IrPools::new();
        let copies = pools
            .copies
            .from_slice(&[CopyPair { dst: v(1), src: v(2) }, CopyPair { dst: v(3), src: v(4) }]);
        let inst = InstData::ParallelCopy { copies };
        assert_eq!(inst.defs(&pools), vec![v(1), v(3)]);
        assert_eq!(inst.uses(&pools), vec![v(2), v(4)]);
        assert!(inst.is_copy_like());
        assert_eq!(inst.copy_pairs(&pools).unwrap().len(), 2);
    }

    /// Position of the variant in the enum's declaration. The match is
    /// exhaustive, so a new variant does not compile until the visitor
    /// table below covers it.
    fn variant_index(inst: &InstData) -> usize {
        match inst {
            InstData::Param { .. } => 0,
            InstData::Const { .. } => 1,
            InstData::Unary { .. } => 2,
            InstData::Binary { .. } => 3,
            InstData::Cmp { .. } => 4,
            InstData::Copy { .. } => 5,
            InstData::ParallelCopy { .. } => 6,
            InstData::Phi { .. } => 7,
            InstData::Call { .. } => 8,
            InstData::Load { .. } => 9,
            InstData::Store { .. } => 10,
            InstData::Jump { .. } => 11,
            InstData::Branch { .. } => 12,
            InstData::BrDec { .. } => 13,
            InstData::Return { .. } => 14,
        }
    }

    #[test]
    fn operand_visitors_match_a_hand_written_table() {
        let mut pools = IrPools::new();
        let copies = pools.copies.from_slice(&[
            CopyPair { dst: v(20), src: v(21) },
            CopyPair { dst: v(22), src: v(23) },
            CopyPair { dst: v(24), src: v(25) },
        ]);
        let phi_args = pools.phis.from_slice(&[
            PhiArg { block: b(1), value: v(31) },
            PhiArg { block: b(2), value: v(32) },
        ]);
        let call_args = pools.values.from_slice(&[v(41), v(42), v(43)]);
        let void_call_args = pools.values.from_slice(&[v(51)]);
        // (instruction, its definitions, its uses), each list in operand order.
        let table: Vec<(InstData, Vec<Value>, Vec<Value>)> = vec![
            (InstData::Param { dst: v(1), index: 0 }, vec![v(1)], vec![]),
            (InstData::Const { dst: v(2), imm: 7 }, vec![v(2)], vec![]),
            (InstData::Unary { op: UnaryOp::Neg, dst: v(3), arg: v(4) }, vec![v(3)], vec![v(4)]),
            (
                InstData::Binary { op: BinaryOp::Sub, dst: v(5), args: [v(6), v(7)] },
                vec![v(5)],
                vec![v(6), v(7)],
            ),
            (
                InstData::Cmp { op: CmpOp::Lt, dst: v(8), args: [v(9), v(10)] },
                vec![v(8)],
                vec![v(9), v(10)],
            ),
            (InstData::Copy { dst: v(11), src: v(12) }, vec![v(11)], vec![v(12)]),
            (
                InstData::ParallelCopy { copies },
                vec![v(20), v(22), v(24)],
                vec![v(21), v(23), v(25)],
            ),
            (InstData::Phi { dst: v(30), args: phi_args }, vec![v(30)], vec![v(31), v(32)]),
            (
                InstData::Call { dst: Some(v(40)), callee: 1, args: call_args },
                vec![v(40)],
                vec![v(41), v(42), v(43)],
            ),
            (InstData::Call { dst: None, callee: 2, args: void_call_args }, vec![], vec![v(51)]),
            (InstData::Load { dst: v(60), addr: v(61) }, vec![v(60)], vec![v(61)]),
            (InstData::Store { addr: v(62), value: v(63) }, vec![], vec![v(62), v(63)]),
            (InstData::Jump { dest: b(1) }, vec![], vec![]),
            (
                InstData::Branch { cond: v(70), then_dest: b(1), else_dest: b(2) },
                vec![],
                vec![v(70)],
            ),
            (
                InstData::BrDec { counter: v(80), dec: v(81), loop_dest: b(1), exit_dest: b(2) },
                vec![v(81)],
                vec![v(80)],
            ),
            (InstData::Return { value: Some(v(90)) }, vec![], vec![v(90)]),
            (InstData::Return { value: None }, vec![], vec![]),
        ];
        let mut covered = [false; 15];
        for (inst, defs, uses) in &table {
            covered[variant_index(inst)] = true;
            let mut seen = Vec::new();
            inst.for_each_def(&pools, |value| seen.push(value));
            assert_eq!(&seen, defs, "definitions of {inst:?}");
            seen.clear();
            inst.for_each_use(&pools, |value| seen.push(value));
            assert_eq!(&seen, uses, "uses of {inst:?}");
        }
        assert!(covered.iter().all(|&c| c), "every variant has a row: {covered:?}");
    }

    #[test]
    fn brdec_uses_and_defines() {
        let pools = IrPools::new();
        let inst = InstData::BrDec { counter: v(0), dec: v(1), loop_dest: b(1), exit_dest: b(2) };
        assert_eq!(inst.defs(&pools), vec![v(1)]);
        assert_eq!(inst.uses(&pools), vec![v(0)]);
        assert!(inst.is_terminator());
        assert_eq!(inst.successors(), vec![b(1), b(2)]);
    }

    #[test]
    fn branch_successors_deduplicated() {
        let inst = InstData::Branch { cond: v(0), then_dest: b(3), else_dest: b(3) };
        assert_eq!(inst.successors(), vec![b(3)]);
        assert_eq!(inst.successors_iter().len(), 1);
    }

    #[test]
    fn replace_successor_rewrites_edges() {
        let mut inst = InstData::Branch { cond: v(0), then_dest: b(1), else_dest: b(2) };
        assert_eq!(inst.replace_successor(b(2), b(5)), 1);
        assert_eq!(inst.successors(), vec![b(1), b(5)]);
        assert_eq!(inst.replace_successor(b(9), b(5)), 0);
    }

    #[test]
    fn map_uses_and_defs_rewrite_values() {
        let mut pools = IrPools::new();
        let args = pools.phis.from_slice(&[
            PhiArg { block: b(1), value: v(1) },
            PhiArg { block: b(2), value: v(2) },
        ]);
        let mut inst = InstData::Phi { dst: v(0), args };
        inst.map_uses(&mut pools, |val| v(val.index() + 10));
        inst.map_defs(&mut pools, |_| v(99));
        assert_eq!(inst.defs(&pools), vec![v(99)]);
        assert_eq!(inst.uses(&pools), vec![v(11), v(12)]);
    }

    #[test]
    fn phi_args_accessor() {
        let mut pools = IrPools::new();
        let args = pools.phis.from_slice(&[PhiArg { block: b(1), value: v(1) }]);
        let phi = InstData::Phi { dst: v(0), args };
        assert_eq!(phi.phi_args(&pools).unwrap().len(), 1);
        let copy = InstData::Copy { dst: v(0), src: v(1) };
        assert!(copy.phi_args(&pools).is_none());
        assert!(copy.is_copy_like());
    }

    #[test]
    fn side_effects_classification() {
        assert!(InstData::Store { addr: v(0), value: v(1) }.has_side_effects());
        assert!(InstData::Return { value: None }.has_side_effects());
        assert!(!InstData::Const { dst: v(0), imm: 3 }.has_side_effects());
    }

    #[test]
    fn content_eq_resolves_through_different_pool_layouts() {
        let mut pools_a = IrPools::new();
        // Warm pool A with a retired block so layouts diverge.
        let mut junk = pools_a.copies.from_slice(&[CopyPair { dst: v(9), src: v(9) }]);
        pools_a.copies.retire(&mut junk);
        let a = InstData::ParallelCopy {
            copies: pools_a.copies.from_slice(&[CopyPair { dst: v(1), src: v(2) }]),
        };
        let mut pools_b = IrPools::new();
        let b = InstData::ParallelCopy {
            copies: pools_b.copies.from_slice(&[CopyPair { dst: v(1), src: v(2) }]),
        };
        assert!(a.content_eq(&pools_a, &b, &pools_b));
        let c = InstData::ParallelCopy {
            copies: pools_b.copies.from_slice(&[CopyPair { dst: v(1), src: v(3) }]),
        };
        assert!(!a.content_eq(&pools_a, &c, &pools_b));
    }
}
