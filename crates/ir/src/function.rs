//! The [`Function`] container: blocks, instructions, values and layout.

use std::collections::HashMap;

use crate::entity::{Block, EntitySet, Inst, PrimaryMap, SecondaryMap, Value};
use crate::instruction::{CopyList, CopyPair, InstData, PhiArg, PhiList, ValueList};
use crate::pool::IrPools;

/// Data attached to each basic block: its instruction sequence.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BlockData {
    insts: Vec<Inst>,
}

impl Clone for BlockData {
    fn clone(&self) -> Self {
        Self { insts: self.insts.clone() }
    }

    /// Capacity-reusing clone, so `Function::clone_from` reuses each block's
    /// instruction-list buffer.
    fn clone_from(&mut self, source: &Self) {
        self.insts.clone_from(&source.insts);
    }
}

/// Data attached to each value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValueInfo {
    /// Architectural register the value is pinned to (calling conventions,
    /// dedicated registers). `None` for ordinary values.
    pub pinned_reg: Option<u32>,
}

/// Location of the unique definition of an SSA value.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct DefSite {
    /// Block containing the definition.
    pub block: Block,
    /// Defining instruction.
    pub inst: Inst,
    /// Position of `inst` inside `block`.
    pub pos: usize,
}

/// A function: a control-flow graph of basic blocks over a single value
/// namespace.
///
/// The same container is used before SSA construction (values act as
/// mutable virtual registers and may have several definitions) and after
/// (every value has a unique definition and φ-functions appear at block
/// entries). The [`crate::verify`] module checks the SSA invariants.
///
/// Variable-length instruction payloads live in the function-owned
/// [`IrPools`] arenas; instructions store [`crate::pool::PoolList`] handles.
/// Equality ([`PartialEq`]) compares *resolved content*, so two functions
/// built through different histories (e.g. one through recycled arenas)
/// compare equal iff their attached code is identical.
#[derive(Debug)]
pub struct Function {
    /// Function name (used by printers and the benchmark harness).
    pub name: String,
    /// Number of formal parameters.
    pub num_params: u32,
    insts: PrimaryMap<Inst, InstData>,
    blocks: PrimaryMap<Block, BlockData>,
    values: PrimaryMap<Value, ValueInfo>,
    entry: Option<Block>,
    layout: Vec<Block>,
    pools: IrPools,
    /// Block data retired by [`Function::reset`] or a shrinking
    /// `clone_from`, reused (with their instruction-list buffers) by
    /// [`Function::add_block`] and a growing `clone_from`.
    spare_blocks: Vec<BlockData>,
}

impl Clone for Function {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            num_params: self.num_params,
            insts: self.insts.clone(),
            blocks: self.blocks.clone(),
            values: self.values.clone(),
            entry: self.entry,
            layout: self.layout.clone(),
            pools: self.pools.clone(),
            // Spare blocks hold no code, only buffers.
            spare_blocks: Vec::new(),
        }
    }

    /// Capacity-reusing clone: every backing buffer (entity maps, layout,
    /// operand arenas, per-block instruction lists) is reused in place, so
    /// repeatedly snapshotting same-shaped functions into one slot — the
    /// pristine-copy discipline of the retrying engines and the service
    /// workers — settles to zero steady-state allocation.
    ///
    /// Blocks pair up by index: the overlapping ones are cloned in place,
    /// extra ones come from the spare list (a retired slot keeps all of its
    /// blocks there) and surplus ones are parked in it. The source's spares
    /// are never copied.
    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.num_params = source.num_params;
        self.insts.clone_from(&source.insts);
        self.park_blocks_from(source.blocks.len());
        for (block, from) in self.blocks.values_mut().zip(source.blocks.values()) {
            block.clone_from(from);
        }
        for from in source.blocks.values().skip(self.blocks.len()) {
            let mut block = self.spare_blocks.pop().unwrap_or_default();
            block.clone_from(from);
            self.blocks.push(block);
        }
        self.values.clone_from(&source.values);
        self.entry = source.entry;
        self.layout.clone_from(&source.layout);
        self.pools.clone_from(&source.pools);
    }
}

impl PartialEq for Function {
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name
            || self.num_params != other.num_params
            || self.entry != other.entry
            || self.layout != other.layout
            || self.values != other.values
        {
            return false;
        }
        for &block in &self.layout {
            let a = &self.blocks[block].insts;
            let b = &other.blocks[block].insts;
            if a.len() != b.len() {
                return false;
            }
            for (&ia, &ib) in a.iter().zip(b) {
                if !self.insts[ia].content_eq(&self.pools, &other.insts[ib], &other.pools) {
                    return false;
                }
            }
        }
        true
    }
}

impl Eq for Function {}

impl Function {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>, num_params: u32) -> Self {
        Self {
            name: name.into(),
            num_params,
            insts: PrimaryMap::new(),
            blocks: PrimaryMap::new(),
            values: PrimaryMap::new(),
            entry: None,
            layout: Vec::new(),
            pools: IrPools::new(),
            spare_blocks: Vec::new(),
        }
    }

    /// Resets this function to the empty state of [`Function::new`] while
    /// keeping every heap allocation — block/instruction/value storage and
    /// the operand arenas — for the next build. The reset is O(current
    /// function) (the `truncate` discipline), and a rebuild through recycled
    /// storage is bit-identical to a fresh one: the cleared pools hand out
    /// the same offsets a fresh pool would.
    pub fn reset(&mut self, name: impl AsRef<str>, num_params: u32) {
        self.name.clear();
        self.name.push_str(name.as_ref());
        self.num_params = num_params;
        self.insts.clear();
        self.park_blocks_from(0);
        self.values.clear();
        self.entry = None;
        self.layout.clear();
        self.pools.clear();
    }

    /// Retires the data of blocks `len..` (with their instruction-list
    /// buffers) into the spare list, highest index first, so that
    /// [`Function::add_block`] and `clone_from` pop them back in index order
    /// and each rebuilt block reuses the buffer of the block it replaces.
    fn park_blocks_from(&mut self, len: usize) {
        while self.blocks.len() > len {
            let mut data = self.blocks.pop().expect("more blocks than len");
            data.insts.clear();
            self.spare_blocks.push(data);
        }
    }

    // ----- capacity reservation -------------------------------------------

    /// Reserves room for `additional` more instruction records. Part of the
    /// translation's up-front reservation pre-pass: paying for the predicted
    /// copy-insertion growth once instead of amortized doubling mid-pass.
    pub fn reserve_insts(&mut self, additional: usize) {
        self.insts.reserve(additional);
    }

    /// Reserves room for `additional` more value records.
    pub fn reserve_values(&mut self, additional: usize) {
        self.values.reserve(additional);
    }

    /// Reserves room for `additional` more instructions in `block`'s
    /// instruction list.
    pub fn reserve_block_insts(&mut self, block: Block, additional: usize) {
        self.blocks[block].insts.reserve(additional);
    }

    // ----- pools ----------------------------------------------------------

    /// The operand arenas (read side).
    #[inline]
    pub fn pools(&self) -> &IrPools {
        &self.pools
    }

    /// The operand arenas (write side). Mutating a list another instruction
    /// owns corrupts that instruction; prefer the typed helpers
    /// ([`Function::parallel_copy_push`], [`Function::set_parallel_copies`],
    /// [`Function::phi_args_mut`], ...).
    #[inline]
    pub fn pools_mut(&mut self) -> &mut IrPools {
        &mut self.pools
    }

    /// Builds a call-argument list in the value pool.
    pub fn make_value_list(&mut self, values: &[Value]) -> ValueList {
        self.pools.values.from_slice(values)
    }

    /// Builds a φ-argument list in the φ pool.
    pub fn make_phi_list(&mut self, args: &[PhiArg]) -> PhiList {
        self.pools.phis.from_slice(args)
    }

    /// Builds a parallel-copy move list in the copy pool.
    pub fn make_copy_list(&mut self, copies: &[CopyPair]) -> CopyList {
        self.pools.copies.from_slice(copies)
    }

    /// Resolves a call-argument list.
    #[inline]
    pub fn value_list(&self, list: ValueList) -> &[Value] {
        self.pools.values.get(list)
    }

    /// Resolves a φ-argument list.
    #[inline]
    pub fn phi_list(&self, list: PhiList) -> &[PhiArg] {
        self.pools.phis.get(list)
    }

    /// Resolves a parallel-copy move list.
    #[inline]
    pub fn copy_list(&self, list: CopyList) -> &[CopyPair] {
        self.pools.copies.get(list)
    }

    // ----- blocks ---------------------------------------------------------

    /// Creates a new, empty basic block and appends it to the layout.
    pub fn add_block(&mut self) -> Block {
        let data = self.spare_blocks.pop().unwrap_or_default();
        let block = self.blocks.push(data);
        self.layout.push(block);
        block
    }

    /// Sets the entry block.
    pub fn set_entry(&mut self, block: Block) {
        self.entry = Some(block);
    }

    /// Returns the entry block.
    ///
    /// # Panics
    /// Panics if no entry block has been set.
    pub fn entry(&self) -> Block {
        self.entry.expect("function has no entry block")
    }

    /// Returns `true` if an entry block has been set.
    pub fn has_entry(&self) -> bool {
        self.entry.is_some()
    }

    /// Number of blocks ever created (including empty ones).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks in layout order.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        self.layout.iter().copied()
    }

    /// The layout order as a slice.
    pub fn layout(&self) -> &[Block] {
        &self.layout
    }

    // ----- values ---------------------------------------------------------

    /// Creates a fresh value.
    pub fn new_value(&mut self) -> Value {
        self.values.push(ValueInfo::default())
    }

    /// Number of values ever created.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// All values in creation order.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.values.keys()
    }

    /// Pins `value` to architectural register `reg`.
    pub fn pin_value(&mut self, value: Value, reg: u32) {
        self.values[value].pinned_reg = Some(reg);
    }

    /// Returns the architectural register `value` is pinned to, if any.
    pub fn pinned_reg(&self, value: Value) -> Option<u32> {
        self.values.get(value).and_then(|info| info.pinned_reg)
    }

    /// Removes the register pin of `value`, if any.
    pub fn clear_pin(&mut self, value: Value) {
        self.values[value].pinned_reg = None;
    }

    // ----- instructions ---------------------------------------------------

    /// Number of instructions ever created (including detached ones).
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Returns the payload of `inst`.
    #[inline]
    pub fn inst(&self, inst: Inst) -> &InstData {
        &self.insts[inst]
    }

    /// Returns a mutable reference to the payload of `inst`. List handles
    /// inside the payload must stay consistent with the pools; use the typed
    /// helpers for list edits.
    #[inline]
    pub fn inst_mut(&mut self, inst: Inst) -> &mut InstData {
        &mut self.insts[inst]
    }

    /// Appends `data` at the end of `block`.
    pub fn append_inst(&mut self, block: Block, data: InstData) -> Inst {
        let inst = self.insts.push(data);
        self.blocks[block].insts.push(inst);
        inst
    }

    /// Inserts `data` at position `pos` inside `block`.
    ///
    /// # Panics
    /// Panics if `pos > block length`.
    pub fn insert_inst(&mut self, block: Block, pos: usize, data: InstData) -> Inst {
        let inst = self.insts.push(data);
        self.blocks[block].insts.insert(pos, inst);
        inst
    }

    /// Removes `inst` from `block`. Returns `true` if it was present.
    ///
    /// The instruction's operand lists (if any) are retired into the pools'
    /// free lists for reuse by later insertions; the detached payload keeps
    /// an empty handle.
    pub fn remove_inst(&mut self, block: Block, inst: Inst) -> bool {
        let insts = &mut self.blocks[block].insts;
        if let Some(pos) = insts.iter().position(|&i| i == inst) {
            insts.remove(pos);
            retire_operands(&mut self.insts[inst], &mut self.pools);
            true
        } else {
            false
        }
    }

    /// Removes every instruction of `block` for which `keep` returns `false`,
    /// in one pass over the block, and returns how many were removed. Each
    /// removed instruction's operand lists are retired as by
    /// [`Function::remove_inst`], in block order.
    pub fn retain_insts(&mut self, block: Block, mut keep: impl FnMut(Inst) -> bool) -> usize {
        let Self { blocks, insts, pools, .. } = self;
        let list = &mut blocks[block].insts;
        let before = list.len();
        list.retain(|&inst| {
            let kept = keep(inst);
            if !kept {
                retire_operands(&mut insts[inst], pools);
            }
            kept
        });
        before - list.len()
    }

    /// The instruction sequence of `block`.
    #[inline]
    pub fn block_insts(&self, block: Block) -> &[Inst] {
        &self.blocks[block].insts
    }

    /// Number of instructions currently in `block`.
    pub fn block_len(&self, block: Block) -> usize {
        self.blocks[block].insts.len()
    }

    /// Position of `inst` within `block`, if attached there.
    pub fn position_in_block(&self, block: Block, inst: Inst) -> Option<usize> {
        self.blocks[block].insts.iter().position(|&i| i == inst)
    }

    /// The terminator of `block`, if the block ends with one.
    pub fn terminator(&self, block: Block) -> Option<Inst> {
        self.blocks[block].insts.last().copied().filter(|&inst| self.insts[inst].is_terminator())
    }

    /// Successor blocks of `block` (empty if it has no terminator),
    /// without allocating.
    #[inline]
    pub fn successors_iter(&self, block: Block) -> crate::instruction::Successors {
        match self.terminator(block) {
            Some(term) => self.insts[term].successors_iter(),
            None => crate::instruction::Successors::none(),
        }
    }

    /// Successor blocks of `block` (empty if it has no terminator).
    /// Allocates; meant for tests — hot paths use
    /// [`Function::successors_iter`].
    pub fn successors(&self, block: Block) -> Vec<Block> {
        self.successors_iter(block).collect()
    }

    /// The φ-functions at the start of `block`.
    pub fn phis(&self, block: Block) -> Vec<Inst> {
        self.blocks[block]
            .insts
            .iter()
            .copied()
            .take_while(|&inst| self.insts[inst].is_phi())
            .collect()
    }

    /// Position of the first non-φ instruction in `block`.
    pub fn first_non_phi(&self, block: Block) -> usize {
        self.blocks[block].insts.iter().take_while(|&&inst| self.insts[inst].is_phi()).count()
    }

    /// Total number of instructions attached to blocks.
    pub fn num_attached_insts(&self) -> usize {
        self.layout.iter().map(|&b| self.blocks[b].insts.len()).sum()
    }

    /// Counts the sequential copies and the moves inside parallel copies —
    /// the "number of copies" metric of the paper's Figure 5.
    pub fn count_copies(&self) -> usize {
        self.blocks()
            .flat_map(|b| self.block_insts(b).iter())
            .map(|&inst| match self.inst(inst) {
                InstData::Copy { .. } => 1,
                InstData::ParallelCopy { copies } => copies.len(),
                _ => 0,
            })
            .sum()
    }

    // ----- typed list edits ----------------------------------------------

    /// Appends one move to the parallel copy `inst`.
    ///
    /// # Panics
    /// Panics if `inst` is not a parallel copy.
    pub fn parallel_copy_push(&mut self, inst: Inst, pair: CopyPair) {
        let InstData::ParallelCopy { copies } = &mut self.insts[inst] else {
            panic!("parallel copy expected");
        };
        self.pools.copies.push(copies, pair);
    }

    /// Replaces the moves of the parallel copy `inst` with `pairs`, reusing
    /// the existing pool block when its capacity suffices (the coalescer's
    /// rewrite only ever shrinks, so in steady state this never allocates).
    ///
    /// # Panics
    /// Panics if `inst` is not a parallel copy.
    pub fn set_parallel_copies(&mut self, inst: Inst, pairs: &[CopyPair]) {
        let InstData::ParallelCopy { copies } = &mut self.insts[inst] else {
            panic!("parallel copy expected");
        };
        if pairs.len() <= copies.len() {
            self.pools.copies.truncate(copies, pairs.len());
            self.pools.copies.get_mut(*copies).copy_from_slice(pairs);
        } else {
            let mut list = *copies;
            self.pools.copies.truncate(&mut list, 0);
            for &pair in pairs {
                self.pools.copies.push(&mut list, pair);
            }
            *match &mut self.insts[inst] {
                InstData::ParallelCopy { copies } => copies,
                _ => unreachable!(),
            } = list;
        }
    }

    /// The φ arguments of `inst`, mutably (length fixed).
    ///
    /// # Panics
    /// Panics if `inst` is not a φ-function.
    pub fn phi_args_mut(&mut self, inst: Inst) -> &mut [PhiArg] {
        let InstData::Phi { args, .. } = &self.insts[inst] else {
            panic!("phi expected");
        };
        let list = *args;
        self.pools.phis.get_mut(list)
    }

    /// The call arguments of `inst`, mutably (length fixed).
    ///
    /// # Panics
    /// Panics if `inst` is not a call.
    pub fn call_args_mut(&mut self, inst: Inst) -> &mut [Value] {
        let InstData::Call { args, .. } = &self.insts[inst] else {
            panic!("call expected");
        };
        let list = *args;
        self.pools.values.get_mut(list)
    }

    /// Applies `rewrite` to every value used by `inst`.
    pub fn map_inst_uses(&mut self, inst: Inst, rewrite: impl FnMut(Value) -> Value) {
        let data = &mut self.insts[inst];
        data.map_uses(&mut self.pools, rewrite);
    }

    /// Applies `rewrite` to every value defined by `inst`.
    pub fn map_inst_defs(&mut self, inst: Inst, rewrite: impl FnMut(Value) -> Value) {
        let data = &mut self.insts[inst];
        data.map_defs(&mut self.pools, rewrite);
    }

    /// Calls `visit` with each value defined by `inst`
    /// ([`InstData::for_each_def`]).
    #[inline]
    pub fn for_each_inst_def(&self, inst: Inst, visit: impl FnMut(Value)) {
        self.insts[inst].for_each_def(&self.pools, visit);
    }

    /// Calls `visit` with each value used by `inst`
    /// ([`InstData::for_each_use`]).
    #[inline]
    pub fn for_each_inst_use(&self, inst: Inst, visit: impl FnMut(Value)) {
        self.insts[inst].for_each_use(&self.pools, visit);
    }

    /// Appends the values defined by `inst` to `out`.
    #[inline]
    pub fn collect_inst_defs(&self, inst: Inst, out: &mut Vec<Value>) {
        self.insts[inst].collect_defs(&self.pools, out);
    }

    /// Appends the values used by `inst` to `out`.
    #[inline]
    pub fn collect_inst_uses(&self, inst: Inst, out: &mut Vec<Value>) {
        self.insts[inst].collect_uses(&self.pools, out);
    }

    /// The φ arguments of `inst`, if it is a φ-function.
    #[inline]
    pub fn inst_phi_args(&self, inst: Inst) -> Option<&[PhiArg]> {
        self.insts[inst].phi_args(&self.pools)
    }

    /// The parallel-copy moves of `inst`, if it is a parallel copy.
    #[inline]
    pub fn inst_copy_pairs(&self, inst: Inst) -> Option<&[CopyPair]> {
        self.insts[inst].copy_pairs(&self.pools)
    }

    // ----- whole-function queries ----------------------------------------

    /// Computes the definition site of every value. In SSA form each value
    /// has at most one definition; if a value has several (pre-SSA code),
    /// the first one in layout order is returned.
    pub fn def_sites(&self) -> SecondaryMap<Value, Option<DefSite>> {
        let mut defs: SecondaryMap<Value, Option<DefSite>> = SecondaryMap::new();
        defs.resize(self.num_values());
        for block in self.blocks() {
            for (pos, &inst) in self.block_insts(block).iter().enumerate() {
                self.for_each_inst_def(inst, |value| {
                    defs[value].get_or_insert(DefSite { block, inst, pos });
                });
            }
        }
        defs
    }

    /// Counts how many definitions each value has (useful pre-SSA and for the
    /// verifier).
    pub fn def_counts(&self) -> SecondaryMap<Value, u32> {
        let mut counts: SecondaryMap<Value, u32> = SecondaryMap::new();
        counts.resize(self.num_values());
        for block in self.blocks() {
            for &inst in self.block_insts(block) {
                self.for_each_inst_def(inst, |value| counts[value] += 1);
            }
        }
        counts
    }

    /// The set of values that appear (as def or use) anywhere in the function.
    pub fn referenced_values(&self) -> EntitySet<Value> {
        let mut set = EntitySet::with_capacity(self.num_values());
        for block in self.blocks() {
            for &inst in self.block_insts(block) {
                self.for_each_inst_def(inst, |value| {
                    set.insert(value);
                });
                self.for_each_inst_use(inst, |value| {
                    set.insert(value);
                });
            }
        }
        set
    }

    /// Predecessor blocks of every block, in deterministic layout order.
    pub fn predecessors(&self) -> SecondaryMap<Block, Vec<Block>> {
        let mut preds: SecondaryMap<Block, Vec<Block>> = SecondaryMap::new();
        preds.resize(self.num_blocks());
        for block in self.blocks() {
            for succ in self.successors_iter(block) {
                preds[succ].push(block);
            }
        }
        preds
    }

    /// Rewrites, in the φ-functions of `block`, every argument coming from
    /// `old_pred` so that it now comes from `new_pred`. Used when splitting
    /// critical edges.
    pub fn redirect_phi_inputs(&mut self, block: Block, old_pred: Block, new_pred: Block) {
        for inst in self.phis(block) {
            for arg in self.phi_args_mut(inst) {
                if arg.block == old_pred {
                    arg.block = new_pred;
                }
            }
        }
    }

    /// Returns, for each φ of `block`, the incoming value along the edge from
    /// `pred`.
    pub fn phi_inputs_from(&self, block: Block, pred: Block) -> Vec<(Inst, Value)> {
        self.phis(block)
            .into_iter()
            .filter_map(|inst| {
                self.inst_phi_args(inst)
                    .and_then(|args| args.iter().find(|a| a.block == pred))
                    .map(|arg| (inst, arg.value))
            })
            .collect()
    }

    /// Counts the φ-functions of the whole function.
    pub fn count_phis(&self) -> usize {
        self.blocks().map(|b| self.first_non_phi(b)).sum()
    }

    /// Builds a map from value to the blocks where it is used (φ uses are
    /// attributed to the predecessor block, matching liveness semantics).
    pub fn use_blocks(&self) -> HashMap<Value, Vec<Block>> {
        let mut uses: HashMap<Value, Vec<Block>> = HashMap::new();
        for block in self.blocks() {
            for &inst in self.block_insts(block) {
                match self.inst_phi_args(inst) {
                    Some(args) => {
                        for PhiArg { block: pred, value } in args {
                            uses.entry(*value).or_default().push(*pred);
                        }
                    }
                    None => self.for_each_inst_use(inst, |value| {
                        uses.entry(value).or_default().push(block);
                    }),
                }
            }
        }
        uses
    }
}

/// Retires the operand lists of a detached instruction into the pools' free
/// lists, leaving the payload with empty handles.
fn retire_operands(data: &mut InstData, pools: &mut IrPools) {
    match data {
        InstData::ParallelCopy { copies } => pools.copies.retire(copies),
        InstData::Phi { args, .. } => pools.phis.retire(args),
        InstData::Call { args, .. } => pools.values.retire(args),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::BinaryOp;

    fn sample_function() -> (Function, Block, Block, Block) {
        // bb0: v0 = param 0; v1 = const 1; br v0, bb1, bb2
        // bb1: v2 = add v0, v1; jump bb2
        // bb2: v3 = phi [(bb0, v1), (bb1, v2)]; return v3
        let mut f = Function::new("sample", 1);
        let bb0 = f.add_block();
        let bb1 = f.add_block();
        let bb2 = f.add_block();
        f.set_entry(bb0);
        let v0 = f.new_value();
        let v1 = f.new_value();
        let v2 = f.new_value();
        let v3 = f.new_value();
        f.append_inst(bb0, InstData::Param { dst: v0, index: 0 });
        f.append_inst(bb0, InstData::Const { dst: v1, imm: 1 });
        f.append_inst(bb0, InstData::Branch { cond: v0, then_dest: bb1, else_dest: bb2 });
        f.append_inst(bb1, InstData::Binary { op: BinaryOp::Add, dst: v2, args: [v0, v1] });
        f.append_inst(bb1, InstData::Jump { dest: bb2 });
        let args =
            f.make_phi_list(&[PhiArg { block: bb0, value: v1 }, PhiArg { block: bb1, value: v2 }]);
        f.append_inst(bb2, InstData::Phi { dst: v3, args });
        f.append_inst(bb2, InstData::Return { value: Some(v3) });
        (f, bb0, bb1, bb2)
    }

    #[test]
    fn block_layout_and_entry() {
        let (f, bb0, bb1, bb2) = sample_function();
        assert_eq!(f.entry(), bb0);
        assert_eq!(f.blocks().collect::<Vec<_>>(), vec![bb0, bb1, bb2]);
        assert_eq!(f.num_blocks(), 3);
    }

    #[test]
    fn successors_and_predecessors() {
        let (f, bb0, bb1, bb2) = sample_function();
        assert_eq!(f.successors(bb0), vec![bb1, bb2]);
        assert_eq!(f.successors(bb1), vec![bb2]);
        assert!(f.successors(bb2).is_empty());
        let preds = f.predecessors();
        assert_eq!(preds[bb2], vec![bb0, bb1]);
        assert_eq!(preds[bb1], vec![bb0]);
        assert!(preds[bb0].is_empty());
    }

    #[test]
    fn phis_and_first_non_phi() {
        let (f, bb0, _, bb2) = sample_function();
        assert_eq!(f.phis(bb2).len(), 1);
        assert_eq!(f.first_non_phi(bb2), 1);
        assert_eq!(f.first_non_phi(bb0), 0);
        assert_eq!(f.count_phis(), 1);
    }

    #[test]
    fn def_sites_and_counts() {
        let (f, bb0, bb1, bb2) = sample_function();
        let defs = f.def_sites();
        let v2 = Value::from_index(2);
        let v3 = Value::from_index(3);
        assert_eq!(defs[v2].unwrap().block, bb1);
        assert_eq!(defs[v3].unwrap().block, bb2);
        assert_eq!(defs[Value::from_index(0)].unwrap().block, bb0);
        let counts = f.def_counts();
        assert!(f.values().all(|v| counts[v] == 1));
    }

    #[test]
    fn insert_and_remove_inst() {
        let (mut f, bb0, _, _) = sample_function();
        let v = f.new_value();
        let inst = f.insert_inst(bb0, 2, InstData::Const { dst: v, imm: 9 });
        assert_eq!(f.position_in_block(bb0, inst), Some(2));
        assert_eq!(f.block_len(bb0), 4);
        assert!(f.remove_inst(bb0, inst));
        assert!(!f.remove_inst(bb0, inst));
        assert_eq!(f.block_len(bb0), 3);
    }

    #[test]
    fn terminator_lookup() {
        let (f, bb0, _, bb2) = sample_function();
        assert!(matches!(f.inst(f.terminator(bb0).unwrap()), InstData::Branch { .. }));
        assert!(matches!(f.inst(f.terminator(bb2).unwrap()), InstData::Return { .. }));
    }

    #[test]
    fn copy_counting() {
        let (mut f, bb0, _, _) = sample_function();
        let a = f.new_value();
        let b = f.new_value();
        f.insert_inst(bb0, 2, InstData::Copy { dst: a, src: b });
        let copies = f.make_copy_list(&[CopyPair { dst: a, src: b }, CopyPair { dst: b, src: a }]);
        f.insert_inst(bb0, 2, InstData::ParallelCopy { copies });
        assert_eq!(f.count_copies(), 3);
    }

    #[test]
    fn pinning() {
        let (mut f, ..) = sample_function();
        let v0 = Value::from_index(0);
        assert_eq!(f.pinned_reg(v0), None);
        f.pin_value(v0, 4);
        assert_eq!(f.pinned_reg(v0), Some(4));
    }

    #[test]
    fn phi_inputs_from_predecessor() {
        let (f, bb0, bb1, bb2) = sample_function();
        let from_bb0 = f.phi_inputs_from(bb2, bb0);
        assert_eq!(from_bb0.len(), 1);
        assert_eq!(from_bb0[0].1, Value::from_index(1));
        let from_bb1 = f.phi_inputs_from(bb2, bb1);
        assert_eq!(from_bb1[0].1, Value::from_index(2));
    }

    #[test]
    fn redirect_phi_inputs_rewrites_edges() {
        let (mut f, bb0, _, bb2) = sample_function();
        let new_block = f.add_block();
        f.redirect_phi_inputs(bb2, bb0, new_block);
        assert!(f.phi_inputs_from(bb2, bb0).is_empty());
        assert_eq!(f.phi_inputs_from(bb2, new_block).len(), 1);
    }

    #[test]
    fn use_blocks_attributes_phi_uses_to_predecessors() {
        let (f, bb0, bb1, _) = sample_function();
        let uses = f.use_blocks();
        // v2 is used by the phi in bb2, attributed to bb1.
        let v2_uses = &uses[&Value::from_index(2)];
        assert_eq!(v2_uses, &vec![bb1]);
        // v0 is used by the add in bb1 and by the branch in bb0.
        let v0_uses = &uses[&Value::from_index(0)];
        assert!(v0_uses.contains(&bb0) && v0_uses.contains(&bb1));
    }

    #[test]
    fn set_parallel_copies_shrinks_in_place() {
        let mut f = Function::new("pc", 0);
        let bb = f.add_block();
        f.set_entry(bb);
        let a = f.new_value();
        let b = f.new_value();
        let c = f.new_value();
        let copies = f.make_copy_list(&[
            CopyPair { dst: a, src: b },
            CopyPair { dst: b, src: c },
            CopyPair { dst: c, src: a },
        ]);
        let pc = f.append_inst(bb, InstData::ParallelCopy { copies });
        let pool_len = f.pools().copies.len();
        f.set_parallel_copies(pc, &[CopyPair { dst: b, src: c }]);
        assert_eq!(f.inst_copy_pairs(pc).unwrap(), &[CopyPair { dst: b, src: c }]);
        assert_eq!(f.pools().copies.len(), pool_len, "shrink reuses the block in place");
        f.parallel_copy_push(pc, CopyPair { dst: c, src: a });
        assert_eq!(f.inst_copy_pairs(pc).unwrap().len(), 2);
        assert_eq!(f.pools().copies.len(), pool_len, "regrowth within capacity");
    }

    #[test]
    fn reset_then_rebuild_is_equal_to_fresh() {
        let (mut f, ..) = sample_function();
        // Mutate the recycled function a bit so its pools see retire traffic.
        let bb2 = f.blocks().nth(2).unwrap();
        let phi = f.phis(bb2)[0];
        f.remove_inst(bb2, phi);
        f.reset("sample", 1);
        // Rebuild the identical function into the recycled storage.
        let rebuilt = {
            let bb0 = f.add_block();
            let bb1 = f.add_block();
            let bb2 = f.add_block();
            f.set_entry(bb0);
            let v0 = f.new_value();
            let v1 = f.new_value();
            let v2 = f.new_value();
            let v3 = f.new_value();
            f.append_inst(bb0, InstData::Param { dst: v0, index: 0 });
            f.append_inst(bb0, InstData::Const { dst: v1, imm: 1 });
            f.append_inst(bb0, InstData::Branch { cond: v0, then_dest: bb1, else_dest: bb2 });
            f.append_inst(bb1, InstData::Binary { op: BinaryOp::Add, dst: v2, args: [v0, v1] });
            f.append_inst(bb1, InstData::Jump { dest: bb2 });
            let args = f.make_phi_list(&[
                PhiArg { block: bb0, value: v1 },
                PhiArg { block: bb1, value: v2 },
            ]);
            f.append_inst(bb2, InstData::Phi { dst: v3, args });
            f.append_inst(bb2, InstData::Return { value: Some(v3) });
            f
        };
        let (fresh, ..) = sample_function();
        assert_eq!(rebuilt, fresh);
        assert_eq!(rebuilt.display().to_string(), fresh.display().to_string());
    }
}
