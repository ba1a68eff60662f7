//! Copy insertion — Method I of Sreedhar et al. with the paper's fixes.
//!
//! For every φ-function `a0 = φ(a1, …, an)` in block `B0` with predecessors
//! `Bi`, copy insertion:
//!
//! * creates `n + 1` fresh variables `a0', …, an'`,
//! * adds the move `ai' ← ai` to a *parallel copy* placed at the end of `Bi`
//!   — before the terminator, so that values used by the branch (Figure 1)
//!   are naturally taken into account by liveness,
//! * adds the move `a0 ← a0'` to a parallel copy placed right after the φ
//!   group of `B0`,
//! * rewrites the φ as `a0' = φ(a1', …, an')`.
//!
//! The primed values form the *φ-web*; by Lemma 1 of the paper they never
//! interfere and are pre-coalesced unconditionally.
//!
//! Corner case (Figure 2): when a φ argument is defined by the predecessor's
//! terminator itself (`br_dec`), no copy can be inserted after the
//! definition, so the incoming edge is split and the copy placed on the new
//! block instead. `BrDec` is the only terminator that defines a value and a
//! value has one definition in SSA, so the case is read off the
//! predecessor's terminator alone.
//!
//! This module also isolates *pinned* values (register renaming constraints,
//! Section III-D): their live ranges are split with parallel copies around
//! the constraining instruction so that the pinned value spans only that
//! instruction.

use std::collections::HashMap;

use ossa_ir::entity::{Block, Inst, SecondaryMap, Value};
use ossa_ir::instruction::callconv;
use ossa_ir::{CopyList, CopyPair, Function, InstData, PhiArg};
use ossa_ssa::split_edge;

/// One φ-web produced by copy insertion: the primed values to pre-coalesce.
#[derive(Clone, Debug)]
pub struct PhiWeb {
    /// The primed values `a0', a1', …, an'` (result first).
    pub members: Vec<Value>,
    /// The block holding the φ-function.
    pub block: Block,
    /// The moves related to this φ (the result copy and one per argument).
    pub moves: Vec<InsertedMove>,
}

/// One move inserted by copy insertion; the affinity the coalescer will try
/// to remove.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertedMove {
    /// Destination of the move.
    pub dst: Value,
    /// Source of the move.
    pub src: Value,
    /// Block whose frequency weighs the move.
    pub block: Block,
}

/// Result of copy insertion. The struct also owns the recycled working
/// storage of [`insert_phi_copies_into`] — retired φ-web buffers and the
/// per-run caches — so a corpus driver that keeps one `CopyInsertion` in its
/// scratch ([`crate::TranslateScratch`]) inserts copies for function after
/// function without reallocating the web and move vectors.
#[derive(Clone, Debug, Default)]
pub struct CopyInsertion {
    /// φ-webs (one per φ-function).
    pub webs: Vec<PhiWeb>,
    /// All inserted moves (φ-related plus pinned-isolation ones).
    pub moves: Vec<InsertedMove>,
    /// Number of edges split because of terminator-defined φ arguments.
    pub edges_split: usize,
    /// Number of fresh values created.
    pub values_created: usize,
    /// Retired φ-webs whose member/move buffers the next run reuses.
    spare_webs: Vec<PhiWeb>,
    /// Per-run working storage of [`insert_phi_copies_into`].
    scratch: InsertionScratch,
}

/// Recycled per-run caches and temporaries of [`insert_phi_copies_into`]
/// and [`isolate_pinned_values`].
#[derive(Clone, Debug, Default)]
struct InsertionScratch {
    pred_pcs: ParallelCopyCache,
    entry_pcs: ParallelCopyCache,
    preds_split: Vec<Block>,
    phis: Vec<Inst>,
    new_args: Vec<PhiArg>,
    iso_uses: Vec<(usize, Value, u32)>,
    iso_defs: Vec<Value>,
    iso_rewrites: Vec<(usize, Value)>,
    iso_replacement: HashMap<Value, Value>,
    iso_pairs: Vec<CopyPair>,
    reserve_counts: SecondaryMap<Block, u32>,
}

impl CopyInsertion {
    /// Clears the result for a new function, retiring the φ-web buffers into
    /// the spare pool so the next run reuses them.
    pub fn reset(&mut self) {
        for mut web in self.webs.drain(..) {
            web.members.clear();
            web.moves.clear();
            self.spare_webs.push(web);
        }
        self.moves.clear();
        self.edges_split = 0;
        self.values_created = 0;
    }

    fn record_move(&mut self, dst: Value, src: Value, block: Block) {
        self.moves.push(InsertedMove { dst, src, block });
    }

    fn take_web(&mut self, block: Block) -> PhiWeb {
        match self.spare_webs.pop() {
            Some(mut web) => {
                web.block = block;
                web
            }
            None => PhiWeb { members: Vec::new(), block, moves: Vec::new() },
        }
    }
}

/// Per-block cache of already-created parallel copies, indexed densely.
type ParallelCopyCache = SecondaryMap<Block, Option<Inst>>;

/// Finds or creates the parallel copy at the end of `block` (just before the
/// terminator).
fn pred_parallel_copy(func: &mut Function, block: Block, cache: &mut ParallelCopyCache) -> Inst {
    if let Some(inst) = cache[block] {
        return inst;
    }
    let pos =
        func.block_len(block).saturating_sub(if func.terminator(block).is_some() { 1 } else { 0 });
    let inst = func.insert_inst(block, pos, InstData::ParallelCopy { copies: CopyList::default() });
    cache[block] = Some(inst);
    inst
}

/// Finds or creates the parallel copy right after the φ group of `block`.
fn entry_parallel_copy(func: &mut Function, block: Block, cache: &mut ParallelCopyCache) -> Inst {
    if let Some(inst) = cache[block] {
        return inst;
    }
    let pos = func.first_non_phi(block);
    let inst = func.insert_inst(block, pos, InstData::ParallelCopy { copies: CopyList::default() });
    cache[block] = Some(inst);
    inst
}

fn push_move(func: &mut Function, pc: Inst, dst: Value, src: Value) {
    func.parallel_copy_push(pc, CopyPair { dst, src });
}

/// Cheap pre-pass reserving the predicted copy-insertion growth up front.
///
/// One read-only walk over the function estimates how much the translation
/// will grow it — fresh primed values per φ, entry/predecessor parallel
/// copies, pinned-isolation clones around calls, and the sequential copies
/// the parallel-copy sequentialization expands into — and reserves that
/// capacity once: the instruction and value primary maps, the copy-operand
/// arena, and each touched block's instruction list. This replaces the
/// amortized doubling those containers would otherwise do mid-translation
/// with (at most) one allocation per container; on a recycled pool slot
/// whose capacity already covers the estimate it allocates nothing at all.
///
/// The estimate is deliberately a rough upper bound — reserving is
/// capacity-only, so over- or under-shooting never changes translation
/// output, only how many times the containers grow.
pub fn reserve_translation_growth(func: &mut Function, out: &mut CopyInsertion) {
    let scratch = &mut out.scratch;
    scratch.reserve_counts.truncate(0);
    scratch.reserve_counts.resize(func.num_blocks());

    // Predicted parallel-copy moves (one primed value each), and φ-carrying
    // blocks (one entry parallel copy each).
    let mut total_moves = 0usize;
    let mut new_values = 0usize;
    let mut phi_blocks = 0usize;

    for bi in 0..func.layout().len() {
        let block = func.layout()[bi];
        let mut block_phis = 0u32;
        for ii in 0..func.block_len(block) {
            let inst = func.block_insts(block)[ii];
            match *func.inst(inst) {
                InstData::Phi { .. } => {
                    block_phis += 1;
                    if let Some(args) = func.inst_phi_args(inst) {
                        let nargs = args.len();
                        total_moves += nargs + 1;
                        new_values += nargs + 1;
                        // Each argument adds one move to a parallel copy at
                        // the end of its predecessor, which sequentialization
                        // later expands in place (≤ 2 instructions per move
                        // counting cycle-breaking temporaries).
                        for ai in 0..nargs {
                            let pred = func.inst_phi_args(inst).expect("is a φ")[ai].block;
                            scratch.reserve_counts[pred] += 2;
                        }
                    }
                }
                InstData::Call { dst, args, .. } => {
                    // Pinned-isolation clones: one per pinned covered
                    // argument position plus one for a pinned result, split
                    // around the call by two parallel copies.
                    let pinned_dst = dst.is_some_and(|d| func.pinned_reg(d).is_some());
                    let pinned_args = func
                        .value_list(args)
                        .iter()
                        .take(callconv::NUM_ARG_REGS)
                        .filter(|&&a| func.pinned_reg(a).is_some())
                        .count();
                    let clones = pinned_args + usize::from(pinned_dst);
                    if clones > 0 {
                        new_values += clones;
                        total_moves += 2 * clones;
                        scratch.reserve_counts[block] += 2 + 2 * clones as u32;
                    }
                }
                _ => {}
            }
        }
        if block_phis > 0 {
            phi_blocks += 1;
            // Entry parallel copy, its sequential expansion (one move per φ
            // plus a possible temporary).
            scratch.reserve_counts[block] += 2 * block_phis + 2;
        }
    }

    if total_moves == 0 {
        return;
    }

    // Parallel copies plus their sequential expansion; sequentialization
    // introduces at most one temporary value per cyclic parallel copy.
    func.reserve_insts(2 * total_moves + 2 * phi_blocks);
    func.reserve_values(new_values + total_moves / 2);
    // Copy lists grow move by move through power-of-two size classes, so the
    // arena sees up to ~2× the final move count in retired blocks; reserve
    // generously — capacity is recycled across every function in the slot.
    func.pools_mut().copies.reserve(4 * total_moves);
    for bi in 0..func.num_blocks() {
        let block = Block::from_index(bi);
        let extra = scratch.reserve_counts[block];
        if extra > 0 {
            func.reserve_block_insts(block, extra as usize);
        }
    }
}

/// Runs Method I copy insertion on `func` (in SSA form). Returns the φ-webs
/// and the inserted moves.
pub fn insert_phi_copies(func: &mut Function) -> CopyInsertion {
    let mut result = CopyInsertion::default();
    insert_phi_copies_into(func, &mut result);
    result
}

/// Like [`insert_phi_copies`], appending the webs and moves to a
/// caller-owned (and typically recycled) [`CopyInsertion`]. Pinned-isolation
/// moves already recorded in `result` are kept; the φ moves follow them.
pub fn insert_phi_copies_into(func: &mut Function, result: &mut CopyInsertion) {
    // Work on the scratch by value so `result` stays freely borrowable for
    // the web/move recording below; restored before returning.
    let mut scratch = std::mem::take(&mut result.scratch);
    scratch.pred_pcs.truncate(0);
    scratch.entry_pcs.truncate(0);

    // Edge splitting appends blocks; only the blocks that exist now can
    // carry φs, so a plain index loop visits exactly the original layout.
    let num_blocks = func.num_blocks();
    for bi in 0..num_blocks {
        let block = Block::from_index(bi);
        scratch.phis.clear();
        scratch.phis.extend(
            func.block_insts(block).iter().copied().take_while(|&inst| func.inst(inst).is_phi()),
        );
        if scratch.phis.is_empty() {
            continue;
        }

        // Split, once per predecessor, the edges whose φ arguments are
        // defined by the predecessor's terminator (the br_dec case).
        // `split_edge` redirects the φ arguments to the new block, so each
        // argument's block is the block its copy goes to from here on.
        scratch.preds_split.clear();
        for &phi in &scratch.phis {
            let Some(args) = func.inst_phi_args(phi) else { continue };
            for arg in args {
                let defined_by_terminator = func.terminator(arg.block).is_some_and(|term| {
                    matches!(func.inst(term), InstData::BrDec { dec, .. } if *dec == arg.value)
                });
                if defined_by_terminator && !scratch.preds_split.contains(&arg.block) {
                    scratch.preds_split.push(arg.block);
                }
            }
        }
        for &pred in &scratch.preds_split {
            split_edge(func, pred, block);
            result.edges_split += 1;
        }

        let entry_pc = entry_parallel_copy(func, block, &mut scratch.entry_pcs);

        for &phi in &scratch.phis {
            // Read the φ shape without cloning its argument list.
            let (dst, num_args) = {
                let InstData::Phi { dst, args } = func.inst(phi) else { continue };
                (*dst, args.len())
            };
            let mut web = result.take_web(block);

            // Result copy: a0 = a0' after the φ group; the φ now defines a0'.
            let primed_dst = func.new_value();
            result.values_created += 1;
            push_move(func, entry_pc, dst, primed_dst);
            result.record_move(dst, primed_dst, block);
            web.moves.push(InsertedMove { dst, src: primed_dst, block });
            web.members.push(primed_dst);

            // Argument copies: ai' = ai at the end of each predecessor. The
            // φ's own argument list is untouched until the rewrite below, so
            // reading one argument per iteration is sound while the
            // surrounding code mutates other instructions.
            scratch.new_args.clear();
            for i in 0..num_args {
                let arg = {
                    let InstData::Phi { args, .. } = func.inst(phi) else { unreachable!() };
                    func.phi_list(*args)[i]
                };
                let primed = func.new_value();
                result.values_created += 1;
                let pc = pred_parallel_copy(func, arg.block, &mut scratch.pred_pcs);
                push_move(func, pc, primed, arg.value);
                result.record_move(primed, arg.value, arg.block);
                web.moves.push(InsertedMove { dst: primed, src: arg.value, block: arg.block });
                web.members.push(primed);
                scratch.new_args.push(PhiArg { block: arg.block, value: primed });
            }

            // Rewrite the φ in place, reusing its argument storage (the
            // argument count is unchanged, so the pool block is).
            if let InstData::Phi { dst, .. } = func.inst_mut(phi) {
                *dst = primed_dst;
            }
            func.phi_args_mut(phi).copy_from_slice(&scratch.new_args);
            result.webs.push(web);
        }
    }
    result.scratch = scratch;
}

/// Splits the live ranges of pinned values so that the pinned value spans
/// only its constraining instruction, as the paper does for register
/// renaming constraints. Returns the inserted moves (already recorded as
/// affinities) appended to `out`.
pub fn isolate_pinned_values(func: &mut Function, out: &mut CopyInsertion) {
    // Work on the scratch by value so `out` stays freely borrowable for the
    // move recording below; restored before returning.
    let mut scratch = std::mem::take(&mut out.scratch);
    for bi in 0..func.num_blocks() {
        let block = Block::from_index(bi);
        let mut pos = 0;
        while pos < func.block_len(block) {
            let inst = func.block_insts(block)[pos];
            // Only calls are constraining instructions in this model
            // (calling conventions / dedicated registers); a pinned value is
            // isolated where the constraint applies, not at every definition
            // or use. Checked up front so the hot path never clones φ or
            // parallel-copy argument vectors.
            if !matches!(func.inst(inst), InstData::Call { .. }) {
                pos += 1;
                continue;
            }
            // Calling-convention constraints are *positional*: at this call
            // site, argument `i` must live in argument register
            // `callconv::arg_reg(i)`, one clone per covered position (the
            // same value in two positions needs two clones in two
            // registers). Cloning with the value's global pin instead (as
            // the seed did) miscompiles when a value pinned at one site
            // reappears at a different position of another call: two
            // arguments of one call can end up claiming the same register —
            // an unsatisfiable constraint the coalescer then trips over. A
            // pinned value in a position past the convention carries no
            // constraint at this site and keeps its pin until its own
            // pinning site is reached.
            scratch.iso_uses.clear();
            scratch.iso_defs.clear();
            {
                let data = func.inst(inst);
                if let InstData::Call { args, .. } = data {
                    let args = func.value_list(*args);
                    for (i, &u) in args.iter().take(callconv::NUM_ARG_REGS).enumerate() {
                        if func.pinned_reg(u).is_some() {
                            scratch.iso_uses.push((i, u, callconv::arg_reg(i)));
                        }
                    }
                }
                data.for_each_def(func.pools(), |d| {
                    if func.pinned_reg(d).is_some() {
                        scratch.iso_defs.push(d);
                    }
                });
            }
            if scratch.iso_uses.is_empty() && scratch.iso_defs.is_empty() {
                pos += 1;
                continue;
            }

            // Clone each covered argument position into a short-lived pinned
            // value defined by a parallel copy right before the instruction,
            // rewriting that position (and only it) to the clone.
            if !scratch.iso_uses.is_empty() {
                scratch.iso_pairs.clear();
                scratch.iso_rewrites.clear();
                for &(arg_index, u, reg) in &scratch.iso_uses {
                    let clone = func.new_value();
                    func.pin_value(clone, reg);
                    out.values_created += 1;
                    scratch.iso_pairs.push(CopyPair { dst: clone, src: u });
                    out.record_move(clone, u, block);
                    scratch.iso_rewrites.push((arg_index, clone));
                }
                let copies = func.make_copy_list(&scratch.iso_pairs);
                func.insert_inst(block, pos, InstData::ParallelCopy { copies });
                pos += 1; // the constraining instruction moved one slot down
                let inst = func.block_insts(block)[pos];
                let args = func.call_args_mut(inst);
                for &(arg_index, clone) in &scratch.iso_rewrites {
                    args[arg_index] = clone;
                }
                for &(_, u, _) in &scratch.iso_uses {
                    unpin(func, u);
                }
            }

            // Redirect each pinned definition into a short-lived pinned clone
            // copied back right after the instruction. Terminators cannot be
            // followed by a copy in the same block, so their definitions
            // (only `br_dec` counters) keep their pin untouched.
            if !scratch.iso_defs.is_empty() && !func.inst(inst).is_terminator() {
                let inst = func.block_insts(block)[pos];
                scratch.iso_pairs.clear();
                scratch.iso_replacement.clear();
                for &d in &scratch.iso_defs {
                    let reg = func.pinned_reg(d).expect("pinned");
                    let clone = func.new_value();
                    func.pin_value(clone, reg);
                    out.values_created += 1;
                    scratch.iso_pairs.push(CopyPair { dst: d, src: clone });
                    out.record_move(d, clone, block);
                    scratch.iso_replacement.insert(d, clone);
                }
                let replacement = std::mem::take(&mut scratch.iso_replacement);
                func.map_inst_defs(inst, |v| replacement.get(&v).copied().unwrap_or(v));
                scratch.iso_replacement = replacement;
                let copies = func.make_copy_list(&scratch.iso_pairs);
                func.insert_inst(block, pos + 1, InstData::ParallelCopy { copies });
                for &d in &scratch.iso_defs {
                    unpin(func, d);
                }
                pos += 1;
            }
            pos += 1;
        }
    }
    out.scratch = scratch;
}

fn unpin(func: &mut Function, value: Value) {
    // There is no direct "unpin" in the IR; re-creating the info is enough
    // because pinning is only additive. We emulate unpinning by tracking the
    // pinned clones instead: the original keeps its pin cleared.
    func.clear_pin(value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{verify_ssa, BinaryOp};
    use ossa_ssa::is_conventional;

    /// The lost-copy problem (paper Figure 4a).
    fn lost_copy() -> Function {
        let mut b = FunctionBuilder::new("lost-copy", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x1 = b.iconst(1);
        b.jump(header);
        b.switch_to_block(header);
        let x3 = b.declare_value();
        let x2 = b.phi(vec![(entry, x1), (header, x3)]);
        let one = b.iconst(1);
        b.func_mut()
            .append_inst(header, InstData::Binary { op: BinaryOp::Add, dst: x3, args: [x2, one] });
        b.branch(p, header, exit);
        b.switch_to_block(exit);
        b.ret(Some(x2));
        b.finish()
    }

    /// The swap problem (paper Figure 3a).
    fn swap_problem() -> Function {
        let mut b = FunctionBuilder::new("swap", 1);
        let entry = b.create_block();
        let header = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let a1 = b.iconst(1);
        let b1 = b.iconst(2);
        b.jump(header);
        b.switch_to_block(header);
        let a2 = b.declare_value();
        let b2 = b.declare_value();
        b.phi_to(a2, vec![(entry, a1), (header, b2)]);
        b.phi_to(b2, vec![(entry, b1), (header, a2)]);
        b.branch(p, header, exit);
        b.switch_to_block(exit);
        let s = b.binary(BinaryOp::Add, a2, b2);
        b.ret(Some(s));
        b.finish()
    }

    #[test]
    fn insertion_makes_lost_copy_conventional() {
        let mut f = lost_copy();
        assert!(!is_conventional(&f));
        let result = insert_phi_copies(&mut f);
        verify_ssa(&f).expect("valid SSA after insertion");
        assert!(is_conventional(&f), "Method I must produce CSSA (Lemma 1)");
        assert_eq!(result.webs.len(), 1);
        assert_eq!(result.webs[0].members.len(), 3); // a0', a1', a2'
        assert_eq!(result.moves.len(), 3);
        assert_eq!(result.edges_split, 0);
    }

    #[test]
    fn insertion_makes_swap_conventional() {
        let mut f = swap_problem();
        assert!(!is_conventional(&f));
        let result = insert_phi_copies(&mut f);
        verify_ssa(&f).expect("valid SSA after insertion");
        assert!(is_conventional(&f));
        assert_eq!(result.webs.len(), 2);
        // 2 φs × (1 result + 2 args) moves.
        assert_eq!(result.moves.len(), 6);
    }

    #[test]
    fn copies_are_placed_before_the_branch_use() {
        // Figure 1 of the paper: the predecessor ends with a branch that uses
        // a value; the inserted parallel copy must come before it.
        let mut f = lost_copy();
        insert_phi_copies(&mut f);
        let header = f.blocks().nth(1).unwrap();
        let insts = f.block_insts(header);
        let last = *insts.last().unwrap();
        assert!(f.inst(last).is_terminator());
        let second_to_last = insts[insts.len() - 2];
        assert!(matches!(f.inst(second_to_last), InstData::ParallelCopy { .. }));
    }

    #[test]
    fn brdec_arguments_force_edge_splitting() {
        // Figure 2 of the paper: the φ argument is defined by the br_dec
        // terminator of the predecessor, so the edge must be split.
        let mut b = FunctionBuilder::new("brdec", 1);
        let entry = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let n = b.param(0);
        b.jump(body);
        b.switch_to_block(body);
        let u_dec = b.declare_value();
        let t0 = b.declare_value();
        let u = b.phi(vec![(entry, n), (body, u_dec)]);
        let t1 = b.phi(vec![(entry, n), (body, t0)]);
        let t_next = b.binary(BinaryOp::Add, t1, u);
        b.func_mut().append_inst(body, InstData::Copy { dst: t0, src: t_next });
        b.func_mut().append_inst(
            body,
            InstData::BrDec { counter: u, dec: u_dec, loop_dest: body, exit_dest: exit },
        );
        b.switch_to_block(exit);
        let s = b.binary(BinaryOp::Add, t1, u_dec);
        b.ret(Some(s));
        let mut f = b.finish();
        verify_ssa(&f).expect("valid before");
        let before_blocks = f.num_blocks();
        let result = insert_phi_copies(&mut f);
        verify_ssa(&f).expect("valid SSA after insertion with edge splitting");
        assert_eq!(result.edges_split, 1);
        assert_eq!(f.num_blocks(), before_blocks + 1);
        assert!(is_conventional(&f));
    }

    /// `after` returns what `before` returns and stores what it stores, on
    /// a few argument vectors.
    fn assert_same_behaviour(before: &Function, after: &Function) {
        use ossa_interp::{argument_sets, same_behaviour, Interpreter};
        for args in argument_sets(7, 6, before.num_params as usize) {
            let want = Interpreter::new().run(before, &args).expect("input runs");
            let got = Interpreter::new().run(after, &args).expect("output runs");
            assert!(same_behaviour(&want, &got), "{args:?}\n{}", after.display());
        }
    }

    #[test]
    fn brdec_predecessor_splits_no_edge_for_other_arguments() {
        // The loop ends in `br_dec c -> d`, but no φ argument is `d`: the
        // loop φs take values defined earlier in the block, and the exit φ
        // takes the counter `c` itself. Copies fit before the terminator.
        let mut b = FunctionBuilder::new("brdec-other", 1);
        let entry = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let k = b.iconst(4);
        let one = b.iconst(1);
        b.jump(body);
        b.switch_to_block(body);
        let c_next = b.declare_value();
        let acc_next = b.declare_value();
        let d = b.declare_value();
        let c = b.phi(vec![(entry, k), (body, c_next)]);
        let acc = b.phi(vec![(entry, p), (body, acc_next)]);
        b.func_mut().append_inst(
            body,
            InstData::Binary { op: BinaryOp::Add, dst: acc_next, args: [acc, c] },
        );
        b.func_mut()
            .append_inst(body, InstData::Binary { op: BinaryOp::Sub, dst: c_next, args: [c, one] });
        b.func_mut().append_inst(
            body,
            InstData::BrDec { counter: c, dec: d, loop_dest: body, exit_dest: exit },
        );
        b.switch_to_block(exit);
        let last = b.phi(vec![(body, c)]);
        let s = b.binary(BinaryOp::Add, acc_next, last);
        let r = b.binary(BinaryOp::Add, s, d);
        b.ret(Some(r));
        let input = b.finish();
        verify_ssa(&input).expect("valid before");
        let mut f = input.clone();
        let result = insert_phi_copies(&mut f);
        verify_ssa(&f).expect("valid SSA after insertion");
        assert_eq!(result.edges_split, 0);
        assert_eq!(f.num_blocks(), input.num_blocks());
        assert!(is_conventional(&f));
        // The copies of the loop block's arguments sit in the loop block.
        let from_loop = [c_next, acc_next, c];
        let loop_moves: Vec<_> =
            result.moves.iter().filter(|m| from_loop.contains(&m.src)).collect();
        assert_eq!(loop_moves.len(), 3);
        assert!(loop_moves.iter().all(|m| m.block == body), "{loop_moves:?}");
        assert_same_behaviour(&input, &f);
    }

    #[test]
    fn one_brdec_feeding_both_successors_splits_each_edge_once() {
        // `br_dec u -> d, body, exit`: two φs of the loop and one φ of the
        // exit take `d` along the two edges out of the loop block.
        let mut b = FunctionBuilder::new("brdec-both", 1);
        let entry = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let n = b.iconst(3);
        b.jump(body);
        b.switch_to_block(body);
        let d = b.declare_value();
        let u = b.phi(vec![(entry, n), (body, d)]);
        let v = b.phi(vec![(entry, p), (body, d)]);
        b.func_mut().append_inst(
            body,
            InstData::BrDec { counter: u, dec: d, loop_dest: body, exit_dest: exit },
        );
        b.switch_to_block(exit);
        let r = b.phi(vec![(body, d)]);
        let q = b.phi(vec![(body, v)]);
        let s = b.binary(BinaryOp::Add, r, q);
        b.ret(Some(s));
        let input = b.finish();
        verify_ssa(&input).expect("valid before");
        let mut f = input.clone();
        let result = insert_phi_copies(&mut f);
        verify_ssa(&f).expect("valid SSA after insertion");
        assert_eq!(result.edges_split, 2, "one split per edge out of the loop block");
        assert_eq!(f.num_blocks(), input.num_blocks() + 2);
        assert!(is_conventional(&f));
        // Each copy of `d` lands in the split block of its own edge: a new
        // block whose only successor is the φ's block.
        let mut split_blocks = Vec::new();
        for web in &result.webs {
            for m in web.moves.iter().filter(|m| m.src == d) {
                assert!(m.block.index() >= input.num_blocks(), "{m:?} is not in a split block");
                assert_eq!(f.successors(m.block), vec![web.block], "{m:?}");
                if !split_blocks.contains(&m.block) {
                    split_blocks.push(m.block);
                }
            }
        }
        assert_eq!(split_blocks.len(), 2, "the loop's two copies of `d` share one split block");
        assert_same_behaviour(&input, &f);
    }

    #[test]
    fn pinned_values_are_isolated_around_calls() {
        let mut b = FunctionBuilder::new("pinned", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let r = b.call(1, vec![x]);
        let s = b.binary(BinaryOp::Add, r, x);
        b.ret(Some(s));
        let mut f = b.finish();
        f.pin_value(x, 1);
        f.pin_value(r, 0);
        let mut insertion = CopyInsertion::default();
        isolate_pinned_values(&mut f, &mut insertion);
        verify_ssa(&f).expect("valid SSA after isolation");
        // x and r are no longer pinned; their clones around the call are.
        assert_eq!(f.pinned_reg(x), None);
        assert_eq!(f.pinned_reg(r), None);
        let pinned: Vec<_> = f.values().filter(|&v| f.pinned_reg(v).is_some()).collect();
        assert_eq!(pinned.len(), 2);
        assert_eq!(insertion.moves.len(), 2);
        // The call now reads/writes the clones.
        let call = f
            .blocks()
            .flat_map(|bl| f.block_insts(bl).iter().copied())
            .find(|&i| matches!(f.inst(i), InstData::Call { .. }))
            .unwrap();
        for v in f.inst(call).uses(f.pools()).into_iter().chain(f.inst(call).defs(f.pools())) {
            assert!(f.pinned_reg(v).is_some());
        }
    }

    #[test]
    fn duplicated_call_argument_gets_one_clone_per_position() {
        // call f(x, x): both covered positions carry a constraint, so each
        // needs its own clone in its own argument register — deduping by
        // value would silently drop the second position's constraint.
        let mut b = FunctionBuilder::new("dup-arg", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let r = b.call(1, vec![x, x]);
        b.ret(Some(r));
        let mut f = b.finish();
        f.pin_value(x, callconv::arg_reg(0));
        let mut insertion = CopyInsertion::default();
        isolate_pinned_values(&mut f, &mut insertion);
        verify_ssa(&f).expect("valid SSA after isolation");
        let call = f
            .blocks()
            .flat_map(|bl| f.block_insts(bl).iter().copied())
            .find(|&i| matches!(f.inst(i), InstData::Call { .. }))
            .unwrap();
        let InstData::Call { args, .. } = f.inst(call) else { panic!() };
        let args = f.value_list(*args);
        assert_ne!(args[0], args[1], "each position must have its own clone");
        assert_eq!(f.pinned_reg(args[0]), Some(callconv::arg_reg(0)));
        assert_eq!(f.pinned_reg(args[1]), Some(callconv::arg_reg(1)));
        assert_eq!(f.pinned_reg(x), None, "the original is unpinned after isolation");
    }

    #[test]
    fn function_without_phis_is_unchanged_by_insertion() {
        let mut b = FunctionBuilder::new("plain", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.binary(BinaryOp::Add, x, x);
        b.ret(Some(y));
        let mut f = b.finish();
        let before = f.display().to_string();
        let result = insert_phi_copies(&mut f);
        assert!(result.webs.is_empty());
        assert!(result.moves.is_empty());
        assert_eq!(f.display().to_string(), before);
    }
}
