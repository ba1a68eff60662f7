//! Recycled working storage for the SSA-side passes.
//!
//! The streaming translation engine rebuilds every incoming function inside
//! pooled storage, and once that pool is warm the *translation* allocates
//! nothing. [`SsaScratch`] extends the same discipline to the SSA-side
//! passes that run before translation — construction, copy propagation,
//! dead-code elimination — so the whole generate → SSA → optimize →
//! translate cycle is allocation-free at steady state.
//!
//! Every buffer follows one of two resets:
//!
//! * **plain** (`Copy`-valued maps and vectors): truncate to empty, then
//!   regrow inside retained capacity;
//! * **high-water** (`Vec`-valued maps): slots are cleared *in place* and the
//!   map is never truncated — truncating would drop the per-slot heap
//!   buffers the recycling exists to keep.
//!
//! The scratch-aware passes are bit-identical to their allocating
//! counterparts: only where the working bytes live changes, never what is
//! computed.

use ossa_ir::entity::{Block, EntitySet, Inst, SecondaryMap, Value};
use ossa_ir::PhiArg;

/// Recycled working storage shared by [`crate::construct_ssa_scratch`],
/// [`crate::propagate_copies_keeping_scratch`] and
/// [`crate::eliminate_dead_code_scratch`].
///
/// Create one per worker (or per [`ossa_ir::FunctionPool`]) and pass it to
/// every call; after one warm-up function the passes stop allocating.
#[derive(Debug, Default)]
pub struct SsaScratch {
    // --- construction ---------------------------------------------------
    /// Variables live-in at entry (get an implicit zero definition).
    pub(crate) entry_live_in: Vec<Value>,
    /// Definition blocks per variable (high-water reset).
    pub(crate) def_blocks: SecondaryMap<Value, Vec<Block>>,
    /// Per-instruction defs buffer.
    pub(crate) def_tmp: Vec<Value>,
    /// φ-placement worklist.
    pub(crate) worklist: Vec<Block>,
    /// Blocks that already received a φ for the current variable.
    pub(crate) has_phi: Vec<bool>,
    /// Blocks ever enqueued for the current variable.
    pub(crate) ever_on_worklist: Vec<bool>,
    /// φ-argument assembly buffer.
    pub(crate) phi_args: Vec<PhiArg>,
    /// Renaming stacks per original variable (high-water reset).
    pub(crate) stacks: SecondaryMap<Value, Vec<Value>>,
    /// Shared push log for the recursive renaming walk; each frame pops back
    /// to its entry length.
    pub(crate) pushed: Vec<Value>,
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
    /// Per-instruction uses buffer.
    pub(crate) use_tmp: Vec<Value>,
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

    /// Moves the origin map out of the scratch (leaving an empty one), for
    /// callers that need to keep it across further scratch reuse.
    pub fn take_origin(&mut self) -> SecondaryMap<Value, Option<Value>> {
        std::mem::take(&mut self.origin)
    }
}
