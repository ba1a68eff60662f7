//! A convenience builder for constructing functions instruction by
//! instruction.
//!
//! The builder keeps track of a *current block* and offers one method per
//! opcode, returning the defined [`Value`] where applicable.

use crate::entity::{Block, Inst, Value};
use crate::function::Function;
use crate::instruction::{BinaryOp, CmpOp, CopyPair, InstData, PhiArg, UnaryOp};

/// Builder over a borrowed [`Function`].
///
/// # Examples
///
/// ```
/// use ossa_ir::builder::FunctionBuilder;
///
/// let mut builder = FunctionBuilder::new("double", 1);
/// let entry = builder.create_block();
/// builder.switch_to_block(entry);
/// builder.set_entry(entry);
/// let x = builder.param(0);
/// let two = builder.iconst(2);
/// let doubled = builder.binary(ossa_ir::BinaryOp::Mul, x, two);
/// builder.ret(Some(doubled));
/// let func = builder.finish();
/// assert_eq!(func.num_blocks(), 1);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: Option<Block>,
}

impl FunctionBuilder {
    /// Creates a builder for a fresh function.
    pub fn new(name: impl Into<String>, num_params: u32) -> Self {
        Self { func: Function::new(name, num_params), current: None }
    }

    /// Recycles `func`'s storage (blocks, instructions, values, operand
    /// arenas) for a fresh build: the function is [`Function::reset`] and the
    /// builder starts from the empty state, reusing every heap allocation.
    pub fn reuse(mut func: Function, name: impl AsRef<str>, num_params: u32) -> Self {
        func.reset(name, num_params);
        Self { func, current: None }
    }

    /// Consumes the builder and returns the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Read-only access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Mutable access to the function under construction.
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// Creates a new block.
    pub fn create_block(&mut self) -> Block {
        self.func.add_block()
    }

    /// Marks `block` as the function entry.
    pub fn set_entry(&mut self, block: Block) {
        self.func.set_entry(block);
    }

    /// Makes `block` the insertion point for subsequent instructions.
    pub fn switch_to_block(&mut self, block: Block) {
        self.current = Some(block);
    }

    /// The current insertion block.
    ///
    /// # Panics
    /// Panics if no block has been selected with [`FunctionBuilder::switch_to_block`].
    pub fn current_block(&self) -> Block {
        self.current.expect("no current block selected")
    }

    fn emit(&mut self, data: InstData) -> Inst {
        let block = self.current_block();
        self.func.append_inst(block, data)
    }

    /// Creates a fresh value without defining it (useful for pre-SSA code).
    pub fn declare_value(&mut self) -> Value {
        self.func.new_value()
    }

    // ----- value-producing instructions -----------------------------------

    /// Emits `dst = param index` and returns `dst`.
    pub fn param(&mut self, index: u32) -> Value {
        let dst = self.func.new_value();
        self.emit(InstData::Param { dst, index });
        dst
    }

    /// Emits `dst = imm` and returns `dst`.
    pub fn iconst(&mut self, imm: i64) -> Value {
        let dst = self.func.new_value();
        self.emit(InstData::Const { dst, imm });
        dst
    }

    /// Emits a unary operation and returns its result.
    pub fn unary(&mut self, op: UnaryOp, arg: Value) -> Value {
        let dst = self.func.new_value();
        self.emit(InstData::Unary { op, dst, arg });
        dst
    }

    /// Emits a binary operation and returns its result.
    pub fn binary(&mut self, op: BinaryOp, lhs: Value, rhs: Value) -> Value {
        let dst = self.func.new_value();
        self.emit(InstData::Binary { op, dst, args: [lhs, rhs] });
        dst
    }

    /// Emits a comparison and returns its 0/1 result.
    pub fn cmp(&mut self, op: CmpOp, lhs: Value, rhs: Value) -> Value {
        let dst = self.func.new_value();
        self.emit(InstData::Cmp { op, dst, args: [lhs, rhs] });
        dst
    }

    /// Emits `dst = src` with a fresh destination and returns it.
    pub fn copy(&mut self, src: Value) -> Value {
        let dst = self.func.new_value();
        self.emit(InstData::Copy { dst, src });
        dst
    }

    /// Emits a copy into an existing destination value (pre-SSA style).
    pub fn copy_to(&mut self, dst: Value, src: Value) -> Inst {
        self.emit(InstData::Copy { dst, src })
    }

    /// Emits a parallel copy.
    pub fn parallel_copy(&mut self, copies: Vec<CopyPair>) -> Inst {
        let copies = self.func.make_copy_list(&copies);
        self.emit(InstData::ParallelCopy { copies })
    }

    /// Emits a binary operation writing into an existing destination
    /// (pre-SSA style).
    pub fn binary_to(&mut self, op: BinaryOp, dst: Value, lhs: Value, rhs: Value) -> Inst {
        self.emit(InstData::Binary { op, dst, args: [lhs, rhs] })
    }

    /// Emits a constant into an existing destination (pre-SSA style).
    pub fn iconst_to(&mut self, dst: Value, imm: i64) -> Inst {
        self.emit(InstData::Const { dst, imm })
    }

    /// Emits a φ-function with the given `(predecessor, value)` arguments and
    /// returns its result.
    pub fn phi(&mut self, args: Vec<(Block, Value)>) -> Value {
        let dst = self.func.new_value();
        self.phi_to(dst, args);
        dst
    }

    /// Emits a φ-function defining an existing value.
    pub fn phi_to(&mut self, dst: Value, args: Vec<(Block, Value)>) -> Inst {
        let args: Vec<PhiArg> =
            args.into_iter().map(|(block, value)| PhiArg { block, value }).collect();
        let args = self.func.make_phi_list(&args);
        let block = self.current_block();
        let pos = self.func.first_non_phi(block);
        self.func.insert_inst(block, pos, InstData::Phi { dst, args })
    }

    /// Emits an opaque call and returns its result value.
    pub fn call(&mut self, callee: u32, args: Vec<Value>) -> Value {
        let dst = self.func.new_value();
        let args = self.func.make_value_list(&args);
        self.emit(InstData::Call { dst: Some(dst), callee, args });
        dst
    }

    /// Emits `dst = load addr` and returns `dst`.
    pub fn load(&mut self, addr: Value) -> Value {
        let dst = self.func.new_value();
        self.emit(InstData::Load { dst, addr });
        dst
    }

    /// Emits `store addr, value`.
    pub fn store(&mut self, addr: Value, value: Value) -> Inst {
        self.emit(InstData::Store { addr, value })
    }

    // ----- terminators ----------------------------------------------------

    /// Emits an unconditional jump.
    pub fn jump(&mut self, dest: Block) -> Inst {
        self.emit(InstData::Jump { dest })
    }

    /// Emits a conditional branch.
    pub fn branch(&mut self, cond: Value, then_dest: Block, else_dest: Block) -> Inst {
        self.emit(InstData::Branch { cond, then_dest, else_dest })
    }

    /// Emits a branch-with-decrement. Returns the decremented counter value
    /// defined by the terminator.
    pub fn br_dec(&mut self, counter: Value, loop_dest: Block, exit_dest: Block) -> Value {
        let dec = self.func.new_value();
        self.emit(InstData::BrDec { counter, dec, loop_dest, exit_dest });
        dec
    }

    /// Emits a return.
    pub fn ret(&mut self, value: Option<Value>) -> Inst {
        self.emit(InstData::Return { value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_straightline_function() {
        let mut b = FunctionBuilder::new("f", 2);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.param(1);
        let sum = b.binary(BinaryOp::Add, x, y);
        let doubled = b.binary(BinaryOp::Add, sum, sum);
        b.ret(Some(doubled));
        let f = b.finish();
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.block_len(entry), 5);
        assert_eq!(f.num_values(), 4);
        assert!(matches!(f.inst(f.terminator(entry).unwrap()), InstData::Return { .. }));
    }

    #[test]
    fn builder_constructs_diamond_with_phi() {
        let mut b = FunctionBuilder::new("diamond", 1);
        let entry = b.create_block();
        let then_bb = b.create_block();
        let else_bb = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);

        b.switch_to_block(entry);
        let x = b.param(0);
        let zero = b.iconst(0);
        let cond = b.cmp(CmpOp::Gt, x, zero);
        b.branch(cond, then_bb, else_bb);

        b.switch_to_block(then_bb);
        let one = b.iconst(1);
        b.jump(join);

        b.switch_to_block(else_bb);
        let minus = b.iconst(-1);
        b.jump(join);

        b.switch_to_block(join);
        let merged = b.phi(vec![(then_bb, one), (else_bb, minus)]);
        b.ret(Some(merged));

        let f = b.finish();
        assert_eq!(f.count_phis(), 1);
        assert_eq!(f.successors(entry), vec![then_bb, else_bb]);
        assert_eq!(f.phi_inputs_from(join, then_bb)[0].1, one);
    }

    #[test]
    fn phi_emitted_in_leading_group() {
        let mut b = FunctionBuilder::new("phis", 0);
        let entry = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let c = b.iconst(3);
        b.jump(join);
        b.switch_to_block(join);
        let t = b.iconst(7); // non-phi emitted first
        let p = b.phi(vec![(entry, c)]);
        b.ret(Some(t));
        let f = b.finish();
        // The phi must still be in the leading phi group.
        assert_eq!(f.first_non_phi(join), 1);
        let phis = f.phis(join);
        assert_eq!(phis.len(), 1);
        assert_eq!(f.inst(phis[0]).defs(f.pools()), vec![p]);
    }

    #[test]
    fn br_dec_defines_counter() {
        let mut b = FunctionBuilder::new("loop", 1);
        let entry = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        b.jump(body);
        b.switch_to_block(body);
        let dec = b.br_dec(n, body, exit);
        b.switch_to_block(exit);
        b.ret(None);
        let f = b.finish();
        let term = f.terminator(body).unwrap();
        assert_eq!(f.inst(term).defs(f.pools()), vec![dec]);
        assert_eq!(f.inst(term).uses(f.pools()), vec![n]);
    }
}
