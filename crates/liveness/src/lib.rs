//! # ossa-liveness — liveness analysis substrate
//!
//! Liveness information for the out-of-SSA translation, in the two flavours
//! compared by the paper:
//!
//! * [`sets::LivenessSets`] — classic per-block live-in/live-out sets by
//!   backward data-flow analysis (the baseline every Sreedhar-style method
//!   relies on);
//! * [`check::FastLiveness`] — query-based liveness checking whose
//!   precomputation depends only on the CFG (the paper's `LiveCheck`
//!   option, after Boissinot et al. CGO 2008).
//!
//! On top of either backend, [`intersect::IntersectionTest`] answers
//! live-range intersection queries (the paper's `InterCheck` building block)
//! and Chaitin-style interference queries. [`footprint`] contains the
//! closed-form memory estimators used by the Figure 7 reproduction.
//!
//! # Examples
//!
//! ```
//! use ossa_ir::builder::FunctionBuilder;
//! use ossa_ir::BinaryOp;
//! use ossa_liveness::{BlockLiveness, LivenessSets};
//!
//! let mut b = FunctionBuilder::new("f", 1);
//! let entry = b.create_block();
//! b.set_entry(entry);
//! b.switch_to_block(entry);
//! let x = b.param(0);
//! let y = b.binary(BinaryOp::Add, x, x);
//! b.ret(Some(y));
//! let func = b.finish();
//!
//! let liveness = LivenessSets::of(&func);
//! assert!(!liveness.is_live_out(entry, y));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod check;
pub mod footprint;
pub mod fuel;
pub mod intersect;
pub mod sets;
pub mod uses;

use ossa_ir::entity::{Block, Value};

pub use analysis::{AnalysisCounts, FunctionAnalyses, IrAnalysisCounts};
pub use check::{FastLiveness, FastLivenessQuery};
pub use intersect::{IntersectionTest, LiveRangeInfo};
pub use sets::LivenessSets;
pub use uses::{UseSite, UseSites};

/// Per-block liveness oracle: the common interface of the data-flow liveness
/// sets and the fast liveness checker.
pub trait BlockLiveness {
    /// Returns `true` if `value` is live at the entry of `block`.
    fn is_live_in(&self, block: Block, value: Value) -> bool;
    /// Returns `true` if `value` is live at the exit of `block`.
    fn is_live_out(&self, block: Block, value: Value) -> bool;
    /// [`BlockLiveness::is_live_out`] for a caller that holds `value`'s
    /// definition block and use sites and has found no use in `block`
    /// after some instruction: no φ-edge use there either, since those sit
    /// at the end of the block. Only a successor can then make `value`
    /// live-out, and the fast checker answers that from the arguments
    /// instead of looking them up again.
    #[inline]
    fn is_live_out_past_uses(
        &self,
        block: Block,
        value: Value,
        _def_block: Block,
        _uses: &[UseSite],
    ) -> bool {
        self.is_live_out(block, value)
    }
}
