//! # ossa-destruct — out-of-SSA translation by coalescing with value-based interference
//!
//! This crate is the reproduction of the primary contribution of
//! *"Revisiting Out-of-SSA Translation for Correctness, Code Quality, and
//! Efficiency"* (Boissinot, Darte, Rastello, Dupont de Dinechin, Guillon —
//! CGO 2009). The translation is organised exactly as the paper's four
//! phases:
//!
//! 1. **Copy insertion** ([`insertion`]) — parallel copies for every
//!    φ-function as in Sreedhar et al. Method I, with the Figure 1 fix
//!    (copies placed before branch uses) and the Figure 2 corner case
//!    (edges split when a φ argument is defined by a `br_dec` terminator),
//!    plus live-range splitting for register renaming constraints;
//! 2. **Value-based interference** ([`value`], [`interference`]) — two
//!    variables interfere iff their live ranges intersect *and* they carry
//!    different values, where values are computed for free from SSA copy
//!    chains;
//! 3. **Aggressive coalescing** ([`congruence`], [`coalesce`]) — congruence
//!    classes with a linear class-interference check, weighted by block
//!    frequencies, with all the interference-strategy variants compared in
//!    the paper and the copy-sharing post-optimization;
//! 4. **Parallel-copy sequentialization** ([`parallel_copy`]) — the minimal
//!    sequentialization algorithm (Algorithm 1).
//!
//! The entry point is [`translate_out_of_ssa`]; [`Engine`] translates many
//! functions, optionally checked against a retry [`Ladder`].
//!
//! # Examples
//!
//! ```
//! use ossa_cfggen::{generate_ssa_function, GenConfig};
//! use ossa_destruct::{translate_out_of_ssa, OutOfSsaOptions};
//!
//! let (mut func, _) = generate_ssa_function("demo", &GenConfig::small(), 7);
//! let stats = translate_out_of_ssa(&mut func, &OutOfSsaOptions::default());
//! assert_eq!(func.count_phis(), 0);
//! assert!(stats.moves_inserted >= stats.remaining_copies);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coalesce;
pub mod congruence;
pub mod engine;
pub mod fault;
pub mod insertion;
pub mod interference;
pub mod ladder;
pub mod parallel_copy;
pub mod validate;
pub mod value;

pub use coalesce::{
    set_coalesce_probe, translate_out_of_ssa, translate_out_of_ssa_scratch, ClassCheck,
    CoalesceStage, InterferenceMode, MemoryStats, OutOfSsaOptions, OutOfSsaStats, PhaseSeconds,
    PhiProcessing, RecoveryOutcome, Strategy, TranslateScratch,
};
pub use congruence::{CongruenceClasses, DefOrderKey, EqualAncOut};
pub use engine::{
    translate_stream_pooled_serial, CorpusStats, Engine, EngineWorker, IsolatedCorpusStats,
    PooledSource,
};
pub use fault::{catch_translate, Limits, Resource, TranslateError, TranslatePhase};
pub use insertion::{
    insert_phi_copies, isolate_pinned_values, reserve_translation_growth, CopyInsertion,
    InsertedMove, PhiWeb,
};
pub use interference::{copy_related_universe, InterferenceGraph};
pub use ladder::{Ladder, Rung, Walk};
pub use parallel_copy::{
    minimum_copies, sequentialize, sequentialize_function, sequentialize_function_with,
    try_sequentialize, DuplicateDest, SeqScratch, Sequentialization,
};
pub use validate::{
    validate_differential, validate_structural, validate_translation, ValidationMode,
};
pub use value::ValueTable;
