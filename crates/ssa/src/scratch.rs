//! Recycled working storage for the SSA-side passes.
//!
//! The streaming translation engine rebuilds every incoming function inside
//! pooled storage, and once that pool is warm the *translation* allocates
//! nothing. [`SsaScratch`] extends the same discipline to the SSA-side
//! passes that run before translation — construction, copy propagation,
//! dead-code elimination, the CSSA check — so the whole generate → SSA →
//! optimize → translate cycle is allocation-free at steady state.
//!
//! Every buffer is a flat vector or a `Copy`-valued map, reset by truncating
//! to empty and regrowing inside retained capacity. Per-variable lists
//! (definition blocks, renaming stacks) are threaded through shared flat
//! vectors rather than kept as one `Vec` per variable, so even a fresh
//! scratch allocates a bounded number of times per function.
//!
//! The scratch-aware passes are bit-identical to their allocating
//! counterparts: only where the working bytes live changes, never what is
//! computed.

use ossa_ir::entity::{Block, EntitySet, Inst, SecondaryMap, Value};
use ossa_ir::PhiArg;

use crate::cssa::PhiCongruence;

/// Recycled working storage shared by [`crate::construct_ssa_scratch`],
/// [`crate::propagate_copies_keeping_scratch`],
/// [`crate::eliminate_dead_code_scratch`] and
/// [`crate::is_conventional_scratch`].
///
/// Create one per worker (or per [`ossa_ir::FunctionPool`]) and pass it to
/// every call; after one warm-up function the passes stop allocating.
#[derive(Debug, Default)]
pub struct SsaScratch {
    // --- construction ---------------------------------------------------
    /// Variables live-in at entry (get an implicit zero definition).
    pub(crate) entry_live_in: Vec<Value>,
    /// `(variable, block)` for each variable's definition blocks, in walk
    /// order: the input of the counting sort that fills `def_blocks`.
    pub(crate) def_pairs: Vec<(Value, Block)>,
    /// The block of each variable's latest recorded definition.
    pub(crate) last_def_block: SecondaryMap<Value, Option<Block>>,
    /// Definition blocks per variable in compressed sparse-row form:
    /// `def_block_offsets[v] .. def_block_offsets[v + 1]` indexes
    /// `def_blocks`.
    pub(crate) def_block_offsets: Vec<u32>,
    pub(crate) def_blocks: Vec<Block>,
    /// Definitions of the instruction renaming is rewriting.
    pub(crate) def_tmp: Vec<Value>,
    /// φ-placement worklist.
    pub(crate) worklist: Vec<Block>,
    /// Blocks that already received a φ for the current variable.
    pub(crate) has_phi: Vec<bool>,
    /// Blocks ever enqueued for the current variable.
    pub(crate) ever_on_worklist: Vec<bool>,
    /// φ-argument assembly buffer.
    pub(crate) phi_args: Vec<PhiArg>,
    /// Every variable's renaming stack, threaded through `versions`: the
    /// index of the variable's current version, if any.
    pub(crate) stack_top: SecondaryMap<Value, Option<u32>>,
    /// The versions pushed by the recursive renaming walk, as `(variable,
    /// version, the variable's previous top)`; each frame pops back to its
    /// entry length, so pops run in reverse push order.
    pub(crate) versions: Vec<(Value, Value, Option<u32>)>,
    /// Per-instruction def replacement pairs (old → fresh).
    pub(crate) def_repl: Vec<(Value, Value)>,
    /// Origin map of the most recent construction (new value → original
    /// variable).
    pub(crate) origin: SecondaryMap<Value, Option<Value>>,

    // --- copy propagation -----------------------------------------------
    /// value → copied-from source.
    pub(crate) copy_source: SecondaryMap<Value, Option<Value>>,
    /// Memoized resolution roots.
    pub(crate) roots: SecondaryMap<Value, Option<Value>>,
    /// Copy instructions found, with their block and destination.
    pub(crate) copy_insts: Vec<(Block, Inst, Value)>,

    // --- dead-code elimination ------------------------------------------
    /// Use counts per value.
    pub(crate) use_counts: SecondaryMap<Value, u32>,
    /// Defining instruction per value.
    pub(crate) def_inst: SecondaryMap<Value, Option<Inst>>,
    /// Instructions found dead.
    pub(crate) dead: EntitySet<Inst>,
    /// Dead instructions whose operands are not yet released.
    pub(crate) dead_worklist: Vec<Inst>,

    // --- CSSA check -----------------------------------------------------
    /// φ congruence classes of the function being checked.
    pub(crate) congruence: PhiCongruence,
    /// Every φ value as a `(class root, value)` pair, grouped by class.
    pub(crate) phi_members: Vec<(Value, Value)>,
}

impl SsaScratch {
    /// Creates empty scratch storage. Nothing is allocated until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The origin map written by the most recent
    /// [`crate::construct_ssa_scratch`] call: for each value present after
    /// construction, the original variable it was renamed from.
    pub fn origin(&self) -> &SecondaryMap<Value, Option<Value>> {
        &self.origin
    }
}
