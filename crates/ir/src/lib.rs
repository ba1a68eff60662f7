//! # ossa-ir — SSA intermediate representation substrate
//!
//! This crate provides the intermediate representation used by the
//! reproduction of *"Revisiting Out-of-SSA Translation for Correctness, Code
//! Quality, and Efficiency"* (Boissinot, Darte, Rastello, Dupont de Dinechin,
//! Guillon — CGO 2009):
//!
//! * dense entity references and maps ([`entity`]),
//! * a small but complete instruction set ([`instruction`]), including
//!   parallel copies, φ-functions, branches that *use* values and the
//!   `br_dec` branch that *defines* a value (the paper's Figure 2 case),
//! * the [`Function`] container and a [`builder::FunctionBuilder`],
//! * CFG, dominator tree, dominance frontiers, loop nesting and static
//!   block frequencies ([`mod@cfg`], [`dominance`], [`loops`]), each
//!   computed on demand and rebuildable in place (`recompute`) so a cache
//!   can recycle its storage,
//! * a verifier ([`verify`]) and a printer ([`mod@print`]).
//!
//! The crate holds no cache: `ossa_liveness::FunctionAnalyses` computes each
//! of these analyses at most once per function version.
//!
//! # Examples
//!
//! ```
//! use ossa_ir::builder::FunctionBuilder;
//! use ossa_ir::{BinaryOp, verify_ssa};
//!
//! let mut b = FunctionBuilder::new("add1", 1);
//! let entry = b.create_block();
//! b.set_entry(entry);
//! b.switch_to_block(entry);
//! let x = b.param(0);
//! let one = b.iconst(1);
//! let sum = b.binary(BinaryOp::Add, x, one);
//! b.ret(Some(sum));
//! let func = b.finish();
//! verify_ssa(&func)?;
//! # Ok::<(), ossa_ir::verify::VerifierErrors>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod cfg;
pub mod dominance;
pub mod entity;
pub mod fnpool;
pub mod function;
pub mod instruction;
pub mod loops;
pub mod pool;
pub mod print;
pub mod verify;

pub use cfg::ControlFlowGraph;
pub use dominance::{DominanceFrontiers, DominatorTree};
pub use entity::{Block, EntitySet, Inst, PrimaryMap, SecondaryMap, Value};
pub use fnpool::{FunctionPool, PoolStats};
pub use function::{DefSite, Function};
pub use instruction::{
    BinaryOp, CmpOp, CopyList, CopyPair, InstData, PhiArg, PhiList, UnaryOp, ValueList,
};
pub use loops::{BlockFrequencies, LoopAnalysis};
pub use pool::{IrPools, ListPool, PoolList};
pub use verify::{verify_cfg, verify_ssa};
