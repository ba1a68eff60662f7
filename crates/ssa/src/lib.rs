//! # ossa-ssa — SSA construction and the optimizations that break CSSA
//!
//! This crate provides the SSA-side substrate of the out-of-SSA
//! reproduction:
//!
//! * [`construct::construct_ssa`] — pruned SSA construction (Cytron et al.):
//!   φ placement on iterated dominance frontiers and dominance-tree renaming;
//! * [`copyprop::propagate_copies`] — SSA copy propagation, the optimization
//!   that creates the overlapping live ranges (swap / lost-copy situations)
//!   the out-of-SSA translation must handle;
//! * [`dce::eliminate_dead_code`] — dead-code elimination;
//! * [`edges`] — critical-edge splitting (needed for the `br_dec` corner
//!   case of the paper's Figure 2);
//! * [`cssa`] — φ congruence classes and the conventional-SSA checker.
//!
//! # Examples
//!
//! ```
//! use ossa_ir::builder::FunctionBuilder;
//! use ossa_ir::{verify_ssa, BinaryOp, CmpOp};
//! use ossa_ssa::{construct_ssa, propagate_copies, is_conventional};
//!
//! // i = 0; while (i < n) i = i + 1; return i  — written with one mutable
//! // virtual register, then converted to SSA.
//! let mut b = FunctionBuilder::new("count", 1);
//! let entry = b.create_block();
//! let header = b.create_block();
//! let body = b.create_block();
//! let exit = b.create_block();
//! b.set_entry(entry);
//! b.switch_to_block(entry);
//! let n = b.param(0);
//! let i = b.declare_value();
//! b.iconst_to(i, 0);
//! b.jump(header);
//! b.switch_to_block(header);
//! let c = b.cmp(CmpOp::Lt, i, n);
//! b.branch(c, body, exit);
//! b.switch_to_block(body);
//! let one = b.iconst(1);
//! b.binary_to(BinaryOp::Add, i, i, one);
//! b.jump(header);
//! b.switch_to_block(exit);
//! b.ret(Some(i));
//! let mut func = b.finish();
//!
//! construct_ssa(&mut func);
//! verify_ssa(&func)?;
//! assert!(is_conventional(&func));
//! propagate_copies(&mut func);
//! # Ok::<(), ossa_ir::verify::VerifierErrors>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod construct;
pub mod copyprop;
pub mod cssa;
pub mod dce;
pub mod edges;
pub mod scratch;

pub use construct::{construct_ssa, construct_ssa_cached, construct_ssa_scratch, SsaConstruction};
pub use copyprop::{
    propagate_copies, propagate_copies_keeping, propagate_copies_keeping_cached,
    propagate_copies_keeping_scratch, CopyPropagation,
};
pub use cssa::{
    cssa_violations_cached, is_conventional, is_conventional_cached, is_conventional_scratch,
    CssaViolation, PhiCongruence,
};
pub use dce::{
    eliminate_dead_code, eliminate_dead_code_cached, eliminate_dead_code_scratch,
    DeadCodeElimination,
};
pub use edges::split_edge;
pub use scratch::SsaScratch;
