//! The out-of-SSA translation driver: aggressive coalescing of φ-related and
//! constraint-related copies on top of congruence classes.
//!
//! The driver implements every variant compared in the paper's evaluation:
//!
//! * **interference strategies** (Figure 5): [`Strategy::Intersect`],
//!   [`Strategy::SreedharI`], [`Strategy::Chaitin`], [`Strategy::Value`];
//! * **φ processing**: eager (all copies inserted first, Method I style —
//!   the paper's `Us I`) or virtualized (φ-functions handled one at a time,
//!   testing each argument against the φ-node before committing its copy —
//!   the paper's Method III / `Us III` behaviour, which also provides the
//!   "independent set" refinement of the `Value + IS` variant);
//! * **copy sharing** (Section III-B);
//! * **interference information**: explicit bit-matrix graph, intersection
//!   checks over liveness sets (`InterCheck`), or intersection checks over
//!   the fast liveness checker (`InterCheck + LiveCheck`);
//! * **class interference checks**: quadratic or linear (Section IV-B).
//!
//! Analyses are obtained through a shared [`FunctionAnalyses`] cache:
//! [`translate_out_of_ssa_scratch`] reuses whatever the caller already
//! computed and invalidates exactly what each phase clobbers, which is what
//! makes the translation cheap enough for a JIT (the paper's Figure 6
//! argument). [`translate_out_of_ssa`] is the convenience entry point that
//! owns a fresh cache.

use std::cell::Cell;
use std::time::Instant;

use ossa_ir::entity::{Block, Inst, SecondaryMap, Value};
use ossa_ir::{DominatorTree, Function, InstData};
use ossa_liveness::{footprint, BlockLiveness, FunctionAnalyses, IntersectionTest};

use crate::congruence::{CongruenceClasses, EqualAncOut};
use crate::insertion::{
    insert_phi_copies_into, isolate_pinned_values, reserve_translation_growth, CopyInsertion,
    InsertedMove,
};
use crate::interference::{copy_related_universe_and_sites_into, InterferenceGraph};
use crate::parallel_copy::{sequentialize_function_with, SeqScratch};
use crate::value::ValueTable;

/// Reusable scratch buffers for repeated translations: the per-parallel-copy
/// sequentialization state, the linear-check ancestor map, the congruence
/// classes, the copy-insertion result, the decision-phase temporaries and
/// the snapshot maps. A corpus driver constructs one per worker and threads
/// it through every function, so the per-copy windmill loop performs no
/// hashing and the whole decision phase reuses its dense storage across
/// functions instead of reallocating it — in steady state the coalesce
/// phase performs (almost) no heap allocation.
#[derive(Debug, Default)]
pub struct TranslateScratch {
    /// Sequentialization scratch (Algorithm 1 state).
    seq: SeqScratch,
    /// `equal_anc_out` scratch of the linear class-interference check.
    equal_anc: EqualAncOut,
    /// Congruence-class storage, [`CongruenceClasses::reset_for`] per function.
    classes: CongruenceClasses,
    /// Decision-phase output: the class snapshot maps, value table and
    /// sharing bookkeeping, recycled across functions.
    decisions: Decisions,
    /// Parallel-copy destination locations of the virtualized processing.
    move_location: SecondaryMap<Value, Option<(Block, usize)>>,
    /// Copy-insertion result and working storage (webs, moves, caches).
    insertion: CopyInsertion,
    /// The copy-related universe and its dedup set.
    universe: Vec<Value>,
    universe_seen: ossa_ir::EntitySet<Value>,
    /// Pre-existing plain copies, collected by the fused universe scan.
    plain_copies: Vec<InsertedMove>,
    /// Parallel-copy sites `(block, position, inst)` of the fused scan.
    parallel_sites: Vec<(Block, u32, Inst)>,
    /// `(register, value)` pairs of the pinned pre-coalescing scan.
    pinned: Vec<(u32, Value)>,
    /// One register group of pinned values, handed to `merge_group`.
    group: Vec<Value>,
    /// The affinity work list (φ moves, pinned-isolation moves, copies).
    affinities: Vec<InsertedMove>,
    /// Weight-ordered argument moves of one φ-web (virtualized processing).
    arg_moves: Vec<InsertedMove>,
    /// Destinations of φ-related moves, for the affinity filter.
    phi_move_dsts: ossa_ir::EntitySet<Value>,
    /// Sharing rule: `(value representative, universe index)` pairs.
    grouped: Vec<(Value, u32)>,
    /// Sharing rule: per-representative range into `grouped`.
    range_of: SecondaryMap<Value, (u32, u32)>,
    /// Deduplicated parallel-copy entries of the rewrite phase.
    kept: Vec<KeptCopy>,
    /// The surviving pairs written back into the parallel-copy pool.
    kept_pairs: Vec<ossa_ir::CopyPair>,
    /// Stable merge-sort buffer of the affinity orderings (replaces the std
    /// stable sort's internal allocation — the last steady-state allocation
    /// of the decision phase).
    sort_buf: Vec<InsertedMove>,
}

impl TranslateScratch {
    /// Creates empty scratch buffers; they grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sub-stages of the coalesce phase, reported through the profiling probe
/// installed by [`set_coalesce_probe`]. Each probe call marks the *start* of
/// the named sub-stage for the function being translated;
/// [`CoalesceStage::Done`] closes the last one. The `alloc_profile` bench
/// bin uses this to split the phase's allocation count by sub-stage.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CoalesceStage {
    /// Universe construction, value numbering, class reset, pinned groups.
    Setup,
    /// Building and weight-ordering the affinity work list (φ webs; in
    /// virtualized mode this sub-stage includes the per-φ decisions).
    AffinityBuild,
    /// The interference-test + merge loop over the global affinity list.
    Decide,
    /// The copy-sharing post-optimization (Section III-B).
    Sharing,
    /// Snapshotting the classes into the rewrite maps.
    Snapshot,
    /// Applying the decisions to the function.
    Rewrite,
    /// End marker: the coalesce phase of one function is complete.
    Done,
}

thread_local! {
    static COALESCE_PROBE: Cell<Option<fn(CoalesceStage)>> = const { Cell::new(None) };
}

/// Installs (or, with `None`, removes) a per-thread coalesce sub-stage
/// probe. Profiling instrumentation only: the translation invokes the probe
/// at sub-stage boundaries and never otherwise changes behaviour.
pub fn set_coalesce_probe(probe: Option<fn(CoalesceStage)>) {
    COALESCE_PROBE.with(|p| p.set(probe));
}

#[inline]
fn coalesce_probe(stage: CoalesceStage) {
    COALESCE_PROBE.with(|p| {
        if let Some(probe) = p.get() {
            probe(stage);
        }
    });
}

/// Interference definition used when deciding whether two congruence classes
/// may be coalesced (the Figure 5 variants).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Plain live-range intersection.
    Intersect,
    /// Sreedhar et al. SSA-based coalescing: intersection, except that the
    /// two operands of the candidate copy themselves are not checked.
    SreedharI,
    /// Chaitin's conservative test: live at the other's definition and that
    /// definition is not a copy between the two.
    Chaitin,
    /// The paper's value-based interference: intersection *and* different
    /// value.
    Value,
}

/// How φ-related copies are processed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PhiProcessing {
    /// All copies are inserted first (Method I), then coalesced globally by
    /// decreasing weight — the paper's `Us I`.
    Eager,
    /// φ-functions are processed one at a time; each argument is tested
    /// against the φ-node built so far and its copy is only kept when the
    /// test fails — the paper's Method III / `Us III` behaviour (and the
    /// "independent set" refinement of `Value + IS`).
    Virtualized,
}

/// How interference information is obtained.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InterferenceMode {
    /// Build an explicit bit-matrix interference graph (plus liveness sets).
    Graph,
    /// No interference graph: intersection checks against liveness sets
    /// (the paper's `InterCheck`).
    InterCheck,
    /// No interference graph and no liveness sets: intersection checks on
    /// top of the fast liveness checker (the paper's `InterCheck +
    /// LiveCheck`).
    InterCheckLiveCheck,
}

/// How interference between two congruence classes is checked.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClassCheck {
    /// Pairwise semantics over the two member lists (the reference
    /// [`CongruenceClasses::interfere_quadratic`] definition), executed as a
    /// batched dominance-stack merge-sweep
    /// ([`CongruenceClasses::interfere_sweep`]): verdict-identical to the
    /// all-pairs loop, but pairs with no dominance relation — which cannot
    /// interfere under any strategy — are skipped without a query.
    Quadratic,
    /// The paper's linear merged-walk over the dominance-ordered member
    /// lists (only used with the `Intersect` and `Value` strategies; other
    /// strategies need pair-specific exceptions and fall back to the
    /// quadratic check).
    Linear,
}

/// Options of one out-of-SSA translation run.
#[derive(Clone, Debug)]
pub struct OutOfSsaOptions {
    /// Interference definition for coalescing decisions.
    pub strategy: Strategy,
    /// φ-copy processing order.
    pub phi_processing: PhiProcessing,
    /// Enable the copy-sharing post-optimization (Section III-B).
    pub sharing: bool,
    /// Interference information backend.
    pub interference: InterferenceMode,
    /// Class-to-class interference check.
    pub class_check: ClassCheck,
    /// Sequentialize the remaining parallel copies at the end.
    pub sequentialize: bool,
    /// Skip the profitability-ordered affinity loop entirely; set only by
    /// [`OutOfSsaOptions::minimal_coalescing`].
    minimal: bool,
}

impl Default for OutOfSsaOptions {
    fn default() -> Self {
        Self {
            strategy: Strategy::Value,
            phi_processing: PhiProcessing::Eager,
            sharing: true,
            interference: InterferenceMode::InterCheckLiveCheck,
            class_check: ClassCheck::Linear,
            sequentialize: true,
            minimal: false,
        }
    }
}

impl OutOfSsaOptions {
    /// Figure 5 variant `Intersect`.
    pub fn intersect() -> Self {
        Self {
            strategy: Strategy::Intersect,
            sharing: false,
            class_check: ClassCheck::Quadratic,
            ..Self::default()
        }
    }
    /// Figure 5 variant `Sreedhar I`.
    pub fn sreedhar_i() -> Self {
        Self {
            strategy: Strategy::SreedharI,
            sharing: false,
            class_check: ClassCheck::Quadratic,
            ..Self::default()
        }
    }
    /// Figure 5 variant `Chaitin`.
    pub fn chaitin() -> Self {
        Self {
            strategy: Strategy::Chaitin,
            sharing: false,
            class_check: ClassCheck::Quadratic,
            ..Self::default()
        }
    }
    /// Figure 5 variant `Value`.
    pub fn value() -> Self {
        Self { strategy: Strategy::Value, sharing: false, ..Self::default() }
    }
    /// Figure 5 variant `Sreedhar III` (virtualized processing, Sreedhar's
    /// SSA-based interference rule, interference graph and liveness sets as
    /// in the original method).
    pub fn sreedhar_iii() -> Self {
        Self {
            strategy: Strategy::SreedharI,
            phi_processing: PhiProcessing::Virtualized,
            sharing: false,
            interference: InterferenceMode::Graph,
            class_check: ClassCheck::Quadratic,
            ..Self::default()
        }
    }
    /// Figure 5 variant `Value + IS`.
    pub fn value_is() -> Self {
        Self {
            strategy: Strategy::Value,
            phi_processing: PhiProcessing::Virtualized,
            sharing: false,
            ..Self::default()
        }
    }
    /// Figure 5 variant `Sharing` (`Value + IS` plus copy sharing).
    pub fn sharing() -> Self {
        Self {
            strategy: Strategy::Value,
            phi_processing: PhiProcessing::Virtualized,
            sharing: true,
            ..Self::default()
        }
    }

    /// The seven Figure 5 coalescing variants, in the paper's order — the
    /// single source of truth shared by the bench harness and the oracle
    /// test suites, so a variant added here cannot silently miss coverage.
    pub fn figure5_variants() -> [(&'static str, OutOfSsaOptions); 7] {
        [
            ("Intersect", Self::intersect()),
            ("Sreedhar I", Self::sreedhar_i()),
            ("Chaitin", Self::chaitin()),
            ("Value", Self::value()),
            ("Sreedhar III", Self::sreedhar_iii()),
            ("Value + IS", Self::value_is()),
            ("Sharing", Self::sharing()),
        ]
    }

    /// Figure 6 engine `Us I` with the default (graph + liveness sets)
    /// backend; combine with [`OutOfSsaOptions::with_interference`] and
    /// [`OutOfSsaOptions::with_class_check`] for the other configurations.
    pub fn us_i() -> Self {
        Self {
            strategy: Strategy::Value,
            phi_processing: PhiProcessing::Eager,
            sharing: false,
            interference: InterferenceMode::Graph,
            class_check: ClassCheck::Quadratic,
            ..Self::default()
        }
    }
    /// Figure 6 engine `Us III` (virtualized) with the default backend.
    pub fn us_iii() -> Self {
        Self { phi_processing: PhiProcessing::Virtualized, ..Self::us_i() }
    }

    /// Sets the interference backend.
    pub fn with_interference(mut self, mode: InterferenceMode) -> Self {
        self.interference = mode;
        self
    }
    /// Sets the class-interference check.
    pub fn with_class_check(mut self, check: ClassCheck) -> Self {
        self.class_check = check;
        self
    }
    /// Enables or disables sequentialization of the final parallel copies.
    pub fn with_sequentialize(mut self, sequentialize: bool) -> Self {
        self.sequentialize = sequentialize;
        self
    }
    /// The conservative configuration the retry ladder falls back to: the
    /// coalescing-minimal `Intersect` variant on the sets-based
    /// [`InterferenceMode::InterCheck`] backend with the quadratic class
    /// check — the simplest, most battle-tested path through the engine,
    /// avoiding the fast liveness checker, the value table and copy
    /// sharing. Sequentialization is preserved from `self` so the retry
    /// produces output of the shape the caller asked for.
    pub fn conservative_fallback(&self) -> Self {
        Self {
            strategy: Strategy::Intersect,
            phi_processing: PhiProcessing::Eager,
            sharing: false,
            interference: InterferenceMode::InterCheck,
            class_check: ClassCheck::Quadratic,
            sequentialize: self.sequentialize,
            minimal: false,
        }
    }

    /// The last rung of the service degradation ladder: the
    /// [`OutOfSsaOptions::conservative_fallback`] configuration with the
    /// affinity loop skipped — no coalescing beyond the mandatory
    /// φ-isolation, the least work the translation can do while still
    /// emitting correct (copy-heavy) output. Used when a shedding service
    /// values latency over copy quality.
    pub fn minimal_coalescing(&self) -> Self {
        Self { minimal: true, ..self.conservative_fallback() }
    }
}

/// Memory accounting of one run (Figure 7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Measured bytes of the interference graph (0 when not built).
    pub interference_graph_bytes: usize,
    /// Evaluated bytes of the interference graph bit-matrix formula.
    pub interference_graph_evaluated: usize,
    /// Evaluated bytes of liveness sets stored as ordered sets (0 when the
    /// fast liveness checker is used instead).
    pub liveness_ordered_bytes: usize,
    /// Evaluated bytes of liveness sets stored as bit-sets.
    pub liveness_bitset_bytes: usize,
    /// Measured bytes of the fast liveness checking structures (0 when
    /// liveness sets are used instead).
    pub livecheck_bytes: usize,
    /// Evaluated bytes of the fast liveness checking structures.
    pub livecheck_evaluated: usize,
    /// Size of the restricted variable universe.
    pub universe_size: usize,
    /// Number of basic blocks.
    pub num_blocks: usize,
}

impl MemoryStats {
    /// Total measured footprint (graph + liveness or liveness-check bytes).
    pub fn total_bytes(&self) -> usize {
        self.interference_graph_bytes + self.liveness_ordered_bytes + self.livecheck_bytes
    }

    /// Adds the counters of `other` to `self` (corpus aggregation).
    pub fn absorb(&mut self, other: &MemoryStats) {
        self.interference_graph_bytes += other.interference_graph_bytes;
        self.interference_graph_evaluated += other.interference_graph_evaluated;
        self.liveness_ordered_bytes += other.liveness_ordered_bytes;
        self.liveness_bitset_bytes += other.liveness_bitset_bytes;
        self.livecheck_bytes += other.livecheck_bytes;
        self.livecheck_evaluated += other.livecheck_evaluated;
        self.universe_size += other.universe_size;
        self.num_blocks += other.num_blocks;
    }
}

/// Wall-clock seconds spent in each phase of one translation (or, after
/// [`OutOfSsaStats::absorb`], summed over a corpus). Timing is measurement,
/// not behaviour: it is deliberately ignored by the `PartialEq` of
/// [`OutOfSsaStats`], which the serial/parallel parity tests rely on.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSeconds {
    /// Computing the analyses the decision phase consumes: CFG, dominators,
    /// the liveness backend (sets or fast checker) and the def/use index.
    pub liveness: f64,
    /// Coalescing decisions (value table, interference queries, classes)
    /// plus the rewrite applying them.
    pub coalesce: f64,
    /// Sequentialization of the remaining parallel copies.
    pub sequentialize: f64,
}

impl PhaseSeconds {
    /// Adds the phase times of `other` to `self`.
    pub fn absorb(&mut self, other: &PhaseSeconds) {
        self.liveness += other.liveness;
        self.coalesce += other.coalesce;
        self.sequentialize += other.sequentialize;
    }
}

/// Statistics of one out-of-SSA translation.
#[derive(Clone, Debug, Default)]
pub struct OutOfSsaStats {
    /// φ-functions eliminated.
    pub phis_removed: usize,
    /// Moves inserted by copy insertion (φ-related and pinned-related).
    pub moves_inserted: usize,
    /// Moves removed by coalescing (including sharing).
    pub moves_coalesced: usize,
    /// Copies remaining in the final code (after sequentialization when
    /// enabled).
    pub remaining_copies: usize,
    /// Frequency-weighted remaining copies.
    pub remaining_weighted: f64,
    /// Edges split because of terminator-defined φ arguments.
    pub edges_split: usize,
    /// Variable-to-variable interference queries performed.
    pub interference_queries: u64,
    /// Graceful-degradation marker: 1 when the function's CFG is irreducible
    /// and the requested [`InterferenceMode::InterCheckLiveCheck`] backend
    /// (whose fast checker is only sound on reducible CFGs) was replaced by
    /// the data-flow [`ossa_liveness::LivenessSets`] for this function; 0
    /// otherwise.
    /// Corpus aggregation sums it into a fallback count.
    pub liveness_fallbacks: usize,
    /// Validation failures observed while translating this function: 0 on a
    /// clean run, and under a retry ladder the number of attempts whose
    /// output the validator rejected before one succeeded.
    pub validation_failures: usize,
    /// How this function fared under the retry ladder (always
    /// [`RecoveryOutcome::Clean`] for an unchecked translation).
    pub recovery: RecoveryOutcome,
    /// Memory accounting.
    pub memory: MemoryStats,
    /// Per-phase wall-clock timing of this translation.
    pub phase_seconds: PhaseSeconds,
}

/// Per-function verdict of the retry ladder (see [`Ladder`](crate::Ladder)).
/// A function that exhausts the ladder has no stats: it reports its final
/// error instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The first attempt succeeded — no recovery was needed (also the value
    /// of every unchecked translation).
    #[default]
    Clean,
    /// A retry on a fallback rung succeeded.
    Recovered {
        /// The 1-based attempt the function finally translated on.
        attempt: u32,
    },
}

/// Equality over the *behavioural* counters only: `phase_seconds` is
/// wall-clock measurement and differs between two otherwise identical runs,
/// so it must not break the serial-vs-parallel bit-identity assertions.
impl PartialEq for OutOfSsaStats {
    fn eq(&self, other: &Self) -> bool {
        self.phis_removed == other.phis_removed
            && self.moves_inserted == other.moves_inserted
            && self.moves_coalesced == other.moves_coalesced
            && self.remaining_copies == other.remaining_copies
            && self.remaining_weighted == other.remaining_weighted
            && self.edges_split == other.edges_split
            && self.interference_queries == other.interference_queries
            && self.liveness_fallbacks == other.liveness_fallbacks
            && self.validation_failures == other.validation_failures
            && self.recovery == other.recovery
            && self.memory == other.memory
    }
}

impl OutOfSsaStats {
    /// Adds the counters of `other` to `self` (corpus aggregation).
    pub fn absorb(&mut self, other: &OutOfSsaStats) {
        self.phis_removed += other.phis_removed;
        self.moves_inserted += other.moves_inserted;
        self.moves_coalesced += other.moves_coalesced;
        self.remaining_copies += other.remaining_copies;
        self.remaining_weighted += other.remaining_weighted;
        self.edges_split += other.edges_split;
        self.interference_queries += other.interference_queries;
        self.liveness_fallbacks += other.liveness_fallbacks;
        self.validation_failures += other.validation_failures;
        // `recovery` is a per-function verdict, not a counter — aggregation
        // counts recovered functions via `IsolatedCorpusStats` instead.
        self.memory.absorb(&other.memory);
        self.phase_seconds.absorb(&other.phase_seconds);
    }
}

/// Runs the out-of-SSA translation on `func` in place, owning a fresh
/// analysis cache.
///
/// The input must be in SSA form; the output contains no φ-function and no
/// parallel copy when [`OutOfSsaOptions::sequentialize`] is set.
///
/// # Panics
/// Panics if `func` fails SSA verification in debug builds (the translation
/// itself assumes a well-formed input).
pub fn translate_out_of_ssa(func: &mut Function, options: &OutOfSsaOptions) -> OutOfSsaStats {
    translate_out_of_ssa_scratch(
        func,
        options,
        &mut FunctionAnalyses::new(),
        &mut TranslateScratch::new(),
    )
}

/// Runs the out-of-SSA translation on `func` in place, sharing the analyses
/// in `analyses` and reusing the caller's [`TranslateScratch`] — the step
/// the engine drives, with one cache and one scratch per worker hoisted out
/// of the per-function loop.
///
/// The CFG-level analyses the caller already computed (CFG, dominators,
/// loops, the fast liveness checker) are reused unless copy insertion splits
/// an edge; the instruction-dependent ones (liveness sets, the def/use
/// index) are always rebuilt after copy insertion. On return the cache holds
/// analyses of the *translated* function with only the instruction-dependent
/// parts dropped, so a downstream consumer (e.g. the register allocator) can
/// keep using it.
pub fn translate_out_of_ssa_scratch(
    func: &mut Function,
    options: &OutOfSsaOptions,
    analyses: &mut FunctionAnalyses,
    scratch: &mut TranslateScratch,
) -> OutOfSsaStats {
    debug_assert!(ossa_ir::verify_ssa(func).is_ok(), "input must be valid SSA");
    crate::fault::enter_phase(&func.name, crate::fault::TranslatePhase::Coalesce);

    let mut stats = OutOfSsaStats { phis_removed: func.count_phis(), ..OutOfSsaStats::default() };

    // Phase A: live-range splitting for renaming constraints, then Method I
    // copy insertion. Copy insertion may split edges (the br_dec corner
    // case), which invalidates every analysis; otherwise it only edits
    // instructions, which invalidates the instruction-dependent ones. The
    // insertion result is scratch-owned and recycled: taken out by value
    // here so `scratch` stays borrowable for `decide`, restored at the end.
    let mut insertion = std::mem::take(&mut scratch.insertion);
    insertion.reset();
    reserve_translation_growth(func, &mut insertion);
    isolate_pinned_values(func, &mut insertion);
    insert_phi_copies_into(func, &mut insertion);
    stats.moves_inserted = insertion.moves.len();
    stats.edges_split = insertion.edges_split;
    if insertion.edges_split > 0 {
        analyses.invalidate_cfg();
    } else {
        analyses.invalidate_instructions();
    }

    // Force the analyses the decision phase consumes, timed as the
    // "liveness" phase (CFG, dominators, the liveness backend and the
    // def/use index — everything below is then cache hits).
    //
    // Graceful degradation: the fast liveness checker's reduced graph is
    // only acyclic — hence its queries only sound — on *reducible* CFGs, so
    // an irreducible function demotes `InterCheckLiveCheck` to the data-flow
    // sets backend (`InterCheck`) for this function only, recorded in
    // `liveness_fallbacks`. The verdict is one cached O(edges) scan.
    crate::fault::enter_phase(&func.name, crate::fault::TranslatePhase::Liveness);
    let phase_start = Instant::now();
    let interference = {
        let func = &*func;
        let _ = analyses.domtree(func);
        let _ = analyses.frequencies(func);
        let _ = analyses.live_range_info(func);
        let mut interference = options.interference;
        if interference == InterferenceMode::InterCheckLiveCheck && !analyses.is_reducible(func) {
            interference = InterferenceMode::InterCheck;
            stats.liveness_fallbacks = 1;
        }
        match interference {
            InterferenceMode::Graph | InterferenceMode::InterCheck => {
                let _ = analyses.liveness_sets(func);
            }
            InterferenceMode::InterCheckLiveCheck => {
                let _ = analyses.fast_liveness(func);
            }
        }
        interference
    };
    stats.phase_seconds.liveness = phase_start.elapsed().as_secs_f64();

    // Phase B: analyses + coalescing decisions (no mutation of `func`). The
    // decisions land in the scratch-owned snapshot maps, whose storage is
    // recycled across functions. Like the insertion result, the universe is
    // taken out of the scratch by value for the duration of `decide`.
    crate::fault::enter_phase(&func.name, crate::fault::TranslatePhase::Coalesce);
    let phase_start = Instant::now();
    coalesce_probe(CoalesceStage::Setup);
    let mut universe = std::mem::take(&mut scratch.universe);
    let mut universe_seen = std::mem::take(&mut scratch.universe_seen);
    let mut plain_copies = std::mem::take(&mut scratch.plain_copies);
    let mut parallel_sites = std::mem::take(&mut scratch.parallel_sites);
    {
        let func = &*func;
        let domtree = analyses.domtree(func);
        let freqs = analyses.frequencies(func);
        let info = analyses.live_range_info(func);
        copy_related_universe_and_sites_into(
            func,
            &mut universe,
            &mut universe_seen,
            &mut plain_copies,
            &mut parallel_sites,
        );
        let universe = &universe[..];
        let plain_copies = &plain_copies[..];
        let parallel_sites = &parallel_sites[..];

        match interference {
            InterferenceMode::Graph | InterferenceMode::InterCheck => {
                let liveness = analyses.liveness_sets(func);
                let intersect = IntersectionTest::new(func, domtree, liveness, info);
                let graph = (interference == InterferenceMode::Graph)
                    .then(|| InterferenceGraph::build(func, universe, &intersect, None));
                let mut mem = MemoryStats {
                    liveness_ordered_bytes: footprint::liveness_ordered_sets_bytes(
                        liveness.total_entries(),
                        4,
                    ),
                    liveness_bitset_bytes: footprint::liveness_bit_sets_bytes(
                        universe.len(),
                        analyses.cfg(func).num_reachable(),
                    ),
                    universe_size: universe.len(),
                    num_blocks: analyses.cfg(func).num_reachable(),
                    ..MemoryStats::default()
                };
                if let Some(graph) = &graph {
                    mem.interference_graph_bytes = graph.footprint_bytes();
                    mem.interference_graph_evaluated = graph.evaluated_bytes();
                }
                stats.memory = mem;
                decide(
                    func,
                    options,
                    &insertion,
                    domtree,
                    freqs,
                    &intersect,
                    graph.as_ref(),
                    universe,
                    plain_copies,
                    parallel_sites,
                    scratch,
                );
            }
            // Only reached when the CFG is reducible: the irreducible case
            // was demoted to `InterCheck` above.
            InterferenceMode::InterCheckLiveCheck => {
                let cfg = analyses.cfg(func);
                let checker = analyses.fast_liveness(func);
                let fast = checker.query(cfg, domtree, info);
                stats.memory = MemoryStats {
                    livecheck_bytes: checker.footprint_bytes(),
                    livecheck_evaluated: footprint::liveness_check_bytes(cfg.num_reachable()),
                    universe_size: universe.len(),
                    num_blocks: cfg.num_reachable(),
                    ..MemoryStats::default()
                };
                let intersect = IntersectionTest::new(func, domtree, &fast, info);
                decide(
                    func,
                    options,
                    &insertion,
                    domtree,
                    freqs,
                    &intersect,
                    None,
                    universe,
                    plain_copies,
                    parallel_sites,
                    scratch,
                );
            }
        }
    }
    stats.interference_queries = scratch.decisions.queries;
    stats.moves_coalesced = scratch.decisions.moves_coalesced;
    scratch.universe = universe;
    scratch.universe_seen = universe_seen;
    scratch.plain_copies = plain_copies;
    scratch.parallel_sites = parallel_sites;
    scratch.insertion = insertion;

    // Phase C: rewrite with the chosen classes, drop φs, sequentialize. These
    // are instruction-level mutations: the CFG caches (and the fast liveness
    // precomputation) stay valid, so the frequencies used below and by later
    // consumers are not recomputed.
    coalesce_probe(CoalesceStage::Rewrite);
    rewrite(func, &scratch.decisions, &mut scratch.kept, &mut scratch.kept_pairs);
    coalesce_probe(CoalesceStage::Done);
    stats.phase_seconds.coalesce = phase_start.elapsed().as_secs_f64();
    crate::fault::enter_phase(&func.name, crate::fault::TranslatePhase::Sequentialize);
    let phase_start = Instant::now();
    if options.sequentialize {
        sequentialize_function_with(func, &mut scratch.seq);
    }
    stats.phase_seconds.sequentialize = phase_start.elapsed().as_secs_f64();
    analyses.invalidate_instructions();
    let (remaining, weighted) = count_copies(func, analyses);
    stats.remaining_copies = remaining;
    stats.remaining_weighted = weighted;
    debug_assert!(ossa_ir::verify_cfg(func).is_ok(), "output must stay structurally valid");
    debug_assert_eq!(func.count_phis(), 0);
    stats
}

/// Outcome of the decision phase: the final congruence classes and the moves
/// deleted by the sharing rule. Lives inside [`TranslateScratch`] so that
/// its dense maps are recycled across the functions of a corpus; every field
/// is rebuilt from scratch semantics by [`decide`] for each function.
#[derive(Debug, Default)]
struct Decisions {
    /// Class representative of every value (`None` = itself).
    class_rep: SecondaryMap<Value, Option<Value>>,
    /// Register labels to propagate, per class representative.
    labels: Vec<(Value, u32)>,
    removed_moves: Vec<(Inst, Value)>,
    /// Value table of the decision phase, used by the rewrite to prove that
    /// deduplicated parallel-copy destinations carry equal values.
    values: ValueTable,
    /// Values with at least one use before the rewrite, used to pick which
    /// of two deduplicated destinations must keep its copy.
    used: ossa_ir::EntitySet<Value>,
    queries: u64,
    moves_coalesced: usize,
}

#[allow(clippy::too_many_arguments)]
fn decide<L: BlockLiveness>(
    func: &Function,
    options: &OutOfSsaOptions,
    insertion: &CopyInsertion,
    domtree: &DominatorTree,
    freqs: &ossa_ir::BlockFrequencies,
    intersect: &IntersectionTest<'_, L>,
    graph: Option<&InterferenceGraph>,
    universe: &[Value],
    plain_copies: &[InsertedMove],
    parallel_sites: &[(Block, u32, Inst)],
    scratch: &mut TranslateScratch,
) {
    // Split the scratch into its independent pieces; every map is brought
    // back to fresh-construction semantics for this function while keeping
    // its heap allocations from previous functions.
    let TranslateScratch {
        equal_anc,
        classes,
        decisions,
        move_location,
        pinned,
        group,
        affinities,
        arg_moves,
        phi_move_dsts,
        grouped,
        range_of,
        sort_buf,
        ..
    } = scratch;
    let Decisions {
        class_rep,
        labels: out_labels,
        removed_moves,
        values: values_slot,
        used,
        queries: out_queries,
        moves_coalesced: out_moves_coalesced,
    } = decisions;
    values_slot.compute_into(func, domtree);
    let values: &ValueTable = values_slot;
    classes.reset_for(func, domtree, intersect.info(), universe);
    let scratch = equal_anc;
    let mut moves_coalesced = 0usize;
    let no_anc = EqualAncOut::new();

    // Pre-coalesce all values pinned to the same register into one labeled
    // class (Section III-D). The `(register, value)` pairs are distinct, so
    // the unstable sort is a deterministic total order that groups each
    // register's values in value order — exactly the member order the
    // per-register scan produced — and pinned groups of different registers
    // are disjoint singleton classes at this point, so the register-sorted
    // group order leaves every decision unchanged while replacing the scan
    // that was quadratic in distinct pinned registers.
    // Every pinned value is a universe member (the universe scan collects
    // them explicitly), so the scan runs over the universe instead of all
    // values; the sort restores the same total order either way.
    pinned.clear();
    for &value in universe {
        if let Some(reg) = func.pinned_reg(value) {
            pinned.push((reg, value));
        }
    }
    pinned.sort_unstable();
    let mut start = 0usize;
    for end in 1..=pinned.len() {
        if end == pinned.len() || pinned[end].0 != pinned[start].0 {
            group.clear();
            group.extend(pinned[start..end].iter().map(|&(_, v)| v));
            classes.merge_group(group);
            start = end;
        }
    }

    // φ-web handling. In eager mode the φ moves seed the affinity work list
    // directly (the list the seed called `phi_move_set`).
    coalesce_probe(CoalesceStage::AffinityBuild);
    affinities.clear();
    match options.phi_processing {
        PhiProcessing::Eager => {
            // Pre-coalesce the whole primed web (Lemma 1), then treat the φ
            // moves like any other affinity.
            for web in &insertion.webs {
                classes.merge_group(&web.members);
                affinities.extend(web.moves.iter().copied());
            }
        }
        PhiProcessing::Virtualized => {
            // Process φ-functions one at a time: each related move is tested
            // against the φ-node built so far; its primed value joins the
            // node either way (materialized copy or coalesced). The result
            // move is considered last, and candidates are additionally
            // checked against the *virtual* locations of the remaining
            // argument copies so that materializing one of them later cannot
            // invalidate the class (the lost-copy situation).
            parallel_copy_locations_into(move_location, func);
            for web in &insertion.webs {
                let node = web.members[0];
                let result_move = web.moves[0];
                arg_moves.clear();
                arg_moves.extend_from_slice(&web.moves[1..]);
                sort_moves_by_weight_desc(arg_moves, sort_buf, freqs);
                for m in arg_moves.iter().chain(std::iter::once(&result_move)) {
                    // The primed value of this move (its dst for argument
                    // copies, its src for the result copy).
                    let (primed, original) =
                        if web.members.contains(&m.dst) { (m.dst, m.src) } else { (m.src, m.dst) };
                    if !classes.same_class(primed, node) {
                        classes.merge(node, primed, &no_anc);
                    }
                    if classes.same_class(original, node) {
                        moves_coalesced += 1;
                        continue;
                    }
                    let skip =
                        (options.strategy == Strategy::SreedharI).then_some((primed, original));
                    let interferes = classes_interfere(
                        options, classes, node, original, intersect, values, graph, skip, scratch,
                    );
                    let virtual_conflict = !interferes
                        && virtual_copy_conflict(
                            options,
                            classes,
                            original,
                            m,
                            &web.moves[1..],
                            move_location,
                            intersect,
                            values,
                        );
                    if !interferes && !virtual_conflict {
                        classes.merge(node, original, scratch);
                        moves_coalesced += 1;
                    }
                }
            }
        }
    }

    // Remaining affinities: φ moves (eager mode) plus pinned-isolation moves
    // and pre-existing copies, ordered by decreasing weight. φ moves are
    // recognized by destination (every inserted move defines a distinct SSA
    // value), replacing a webs×moves scan that was quadratic in φ count.
    phi_move_dsts.reset();
    for web in &insertion.webs {
        for m in &web.moves {
            phi_move_dsts.insert(m.dst);
        }
    }
    for m in &insertion.moves {
        if !phi_move_dsts.contains(m.dst) {
            affinities.push(*m);
        }
    }
    // Pre-existing plain copies in the function are affinities too. The
    // fused universe scan collected them in the same block/instruction
    // order the instruction walk here used to produce.
    affinities.extend_from_slice(plain_copies);
    sort_moves_by_weight_desc(affinities, sort_buf, freqs);
    coalesce_probe(CoalesceStage::Decide);
    // Minimal coalescing abandons the whole loop: only the φ-isolation
    // merges above happen.
    let tried = if options.minimal { 0 } else { affinities.len() };
    for &m in &affinities[..tried] {
        if classes.same_class(m.dst, m.src) {
            moves_coalesced += 1;
            continue;
        }
        let skip = (options.strategy == Strategy::SreedharI).then_some((m.dst, m.src));
        let interferes = classes_interfere(
            options, classes, m.dst, m.src, intersect, values, graph, skip, scratch,
        );
        if !interferes {
            classes.merge(m.dst, m.src, scratch);
            moves_coalesced += 1;
        }
    }

    // Copy-sharing post-optimization (Section III-B).
    coalesce_probe(CoalesceStage::Sharing);
    removed_moves.clear();
    if options.sharing {
        // Group the copy-related universe by value representative — one
        // sorted array plus per-representative ranges instead of one `Vec`
        // per representative. The sort is stable in universe order within a
        // group (the seed's push order), which matters: candidate order is
        // decision-relevant. `range_of` is recycled without clearing: every
        // key it is queried with below is `values.value_of(a)` for a
        // universe member `a`, and every such representative gets its range
        // written by this loop first — stale entries of a previous function
        // are never read.
        grouped.clear();
        grouped.extend(universe.iter().enumerate().map(|(i, &v)| (values.value_of(v), i as u32)));
        grouped.sort_unstable();
        range_of.resize(func.num_values());
        let mut start = 0usize;
        for end in 1..=grouped.len() {
            if end == grouped.len() || grouped[end].0 != grouped[start].0 {
                range_of[grouped[start].0] = (start as u32, end as u32);
                start = end;
            }
        }
        // The parallel-copy sites come from the fused universe scan, in the
        // same block/instruction order the nested walk here used to visit.
        for &(block, pos, inst) in parallel_sites {
            {
                let pos = pos as usize;
                let InstData::ParallelCopy { copies } = func.inst(inst) else { continue };
                for copy in func.copy_list(*copies) {
                    let (a, b) = (copy.src, copy.dst);
                    if classes.same_class(a, b) {
                        continue; // already coalesced, move will disappear
                    }
                    let (lo, hi) = *range_of.get(values.value_of(a));
                    for &(_, ci) in &grouped[lo as usize..hi as usize] {
                        let c = universe[ci as usize];
                        if c == a || c == b || classes.same_class(c, a) {
                            continue;
                        }
                        // A candidate defined by this very parallel copy
                        // cannot justify dropping one of its moves: two
                        // moves of the same copy would each justify removing
                        // the other, deleting both.
                        if intersect.info().def(c).is_some_and(|d| d.inst == inst) {
                            continue;
                        }
                        if !intersect.is_live_after(block, pos, c) {
                            continue;
                        }
                        if classes.same_class(c, b) {
                            // Rule 1: b already receives the value through c.
                            removed_moves.push((inst, b));
                            moves_coalesced += 1;
                            break;
                        }
                        // Rule 2: coalesce the classes of b and c (value rule)
                        // and drop the copy.
                        let interferes = classes_interfere(
                            options, classes, b, c, intersect, values, graph, None, scratch,
                        );
                        if !interferes {
                            classes.merge(b, c, scratch);
                            removed_moves.push((inst, b));
                            moves_coalesced += 1;
                            break;
                        }
                    }
                }
            }
        }
    }

    // Snapshot the classes into the scratch-owned dense maps for the rewrite
    // phase. Only copy-related universe members can ever be merged (every
    // merge endpoint is a φ/copy operand or a pinned value, and
    // `copy_related_universe_and_sites_into` collects both), so the
    // union-find and def/use lookups run over the universe only; every other
    // value keeps the `None` entry written by the wholesale clear below,
    // which the rewrite reads as "renames to itself". The clear also
    // guarantees stale entries from a previous function are never observed.
    // The rename target is the class root.
    coalesce_probe(CoalesceStage::Snapshot);
    class_rep.resize(func.num_values());
    for slot in class_rep.values_mut() {
        *slot = None;
    }
    out_labels.clear();
    used.reset();
    for &value in universe {
        let rep = classes.representative(value);
        class_rep[value] = Some(rep);
        if value == rep {
            if let Some(reg) = classes.label(value) {
                out_labels.push((rep, reg));
            }
        }
        if !intersect.info().uses().uses_of(value).is_empty() {
            used.insert(value);
        }
    }
    *out_queries = classes.queries();
    *out_moves_coalesced = moves_coalesced;
}

/// Stable merge sort of a move list by decreasing block frequency, through a
/// caller-owned merge buffer. Behaviourally identical to
/// `items.sort_by(|a, b| freq(b.block).partial_cmp(&freq(a.block))…)` —
/// a stable sort's output is uniquely determined by its comparator — but
/// without the std stable sort's internal allocation (its merge buffer is
/// heap-allocated above ~20 elements), which was the last steady-state
/// allocation of the decision phase.
fn sort_moves_by_weight_desc(
    items: &mut [InsertedMove],
    buf: &mut Vec<InsertedMove>,
    freqs: &ossa_ir::BlockFrequencies,
) {
    let n = items.len();
    if n < 2 {
        return;
    }
    let cmp = |a: &InsertedMove, b: &InsertedMove| {
        let (wa, wb) = (freqs.frequency(a.block), freqs.frequency(b.block));
        wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut width = 1;
    while width < n {
        buf.clear();
        let mut start = 0;
        while start < n {
            let mid = (start + width).min(n);
            let end = (start + 2 * width).min(n);
            let (mut l, mut r) = (start, mid);
            while l < mid && r < end {
                // `<=` keeps the left run's element on ties: stability.
                if cmp(&items[l], &items[r]) == std::cmp::Ordering::Greater {
                    buf.push(items[r]);
                    r += 1;
                } else {
                    buf.push(items[l]);
                    l += 1;
                }
            }
            buf.extend_from_slice(&items[l..mid]);
            buf.extend_from_slice(&items[r..end]);
            start = end;
        }
        items.copy_from_slice(buf);
        width *= 2;
    }
}

/// Records the location (block, position) of every parallel-copy destination
/// into the reusable `locations` map, used by the virtualized processing to
/// reason about copies that are not yet committed.
fn parallel_copy_locations_into(
    locations: &mut SecondaryMap<Value, Option<(Block, usize)>>,
    func: &Function,
) {
    locations.truncate(func.num_values());
    for slot in locations.values_mut() {
        *slot = None;
    }
    locations.resize(func.num_values());
    for block in func.blocks() {
        for (pos, &inst) in func.block_insts(block).iter().enumerate() {
            if let InstData::ParallelCopy { copies } = func.inst(inst) {
                for copy in func.copy_list(*copies) {
                    locations[copy.dst] = Some((block, pos));
                }
            }
        }
    }
}

/// Checks whether coalescing the class of `candidate` into the φ-node would
/// conflict with an argument copy of the same φ if that copy later has to be
/// materialized: the materialized primed value lives from the predecessor's
/// parallel copy to the φ, so any class member live at that point (with a
/// different value) would interfere with it.
#[allow(clippy::too_many_arguments)]
fn virtual_copy_conflict<L: BlockLiveness>(
    options: &OutOfSsaOptions,
    classes: &CongruenceClasses,
    candidate: Value,
    current_move: &InsertedMove,
    arg_moves: &[InsertedMove],
    move_location: &SecondaryMap<Value, Option<(Block, usize)>>,
    intersect: &IntersectionTest<'_, L>,
    values: &ValueTable,
) -> bool {
    let members = classes.members(candidate);
    for arg in arg_moves {
        if arg == current_move {
            continue;
        }
        let Some((block, pos)) = *move_location.get(arg.dst) else { continue };
        for &x in members {
            if x == arg.src {
                continue;
            }
            if options.strategy == Strategy::Value && values.same_value(x, arg.src) {
                continue;
            }
            if intersect.is_live_after(block, pos, x) {
                return true;
            }
        }
    }
    false
}

/// Decides whether the classes of `a` and `b` interfere under `options`.
/// When the linear check runs, `scratch` is left holding the
/// `equal_anc_out` chains the caller must pass to a subsequent merge; other
/// paths leave it cleared.
#[allow(clippy::too_many_arguments)]
fn classes_interfere<L: BlockLiveness>(
    options: &OutOfSsaOptions,
    classes: &mut CongruenceClasses,
    a: Value,
    b: Value,
    intersect: &IntersectionTest<'_, L>,
    values: &ValueTable,
    graph: Option<&InterferenceGraph>,
    skip_pair: Option<(Value, Value)>,
    scratch: &mut EqualAncOut,
) -> bool {
    scratch.clear();
    // Resolve both class roots once; every class query below (labels,
    // members) re-finds its argument, and a root resolves in one parent
    // probe — so the walks run on `(ra, rb)` instead of repeating the full
    // path per lookup. The classes of `a` and `b` are unchanged, so every
    // verdict is too.
    let (ra, rb) = (classes.find(a), classes.find(b));
    if classes.labels_conflict(ra, rb) {
        return true;
    }
    let use_values = options.strategy == Strategy::Value;

    // The linear check is only valid when classes are internally
    // intersection-free up to value equality, which holds for the Intersect
    // and Value strategies.
    if options.class_check == ClassCheck::Linear
        && skip_pair.is_none()
        && graph.is_none()
        && matches!(options.strategy, Strategy::Intersect | Strategy::Value)
    {
        classes.interfere_linear(ra, rb, intersect, use_values.then_some(values), scratch)
    } else {
        // Pairwise semantics, executed as a batched merge-sweep over the
        // dominance-ordered member lists: verdict-identical to the all-pairs
        // loop (see [`CongruenceClasses::interfere_sweep`]), with pairs
        // lacking a dominance relation skipped unqueried.
        let pair_intersects = |x: Value, y: Value| -> bool {
            match graph {
                Some(g) if g.contains(x) && g.contains(y) => g.interfere(x, y),
                _ => intersect.intersect(x, y),
            }
        };
        let mut pair_interferes = |x: Value, y: Value| -> bool {
            match options.strategy {
                Strategy::Intersect | Strategy::SreedharI => pair_intersects(x, y),
                Strategy::Chaitin => intersect.chaitin_interfere(x, y),
                Strategy::Value => pair_intersects(x, y) && !values.same_value(x, y),
            }
        };
        classes.interfere_sweep(ra, rb, skip_pair, &mut pair_interferes, scratch)
    }
}

/// One entry of the parallel-copy deduplication scratch of [`rewrite`].
#[derive(Debug)]
struct KeptCopy {
    pair: ossa_ir::CopyPair,
    orig_src: Value,
    used: bool,
}

/// Rewrites `func` according to the coalescing decisions: every value is
/// renamed to its class representative, φ-functions are removed, coalesced
/// moves disappear and shared moves are dropped. The walk is position-based
/// (removals shift the remainder of the block into place) so no block or
/// instruction list is snapshotted, and the parallel-copy storage is edited
/// in place.
fn rewrite(
    func: &mut Function,
    decisions: &Decisions,
    kept: &mut Vec<KeptCopy>,
    kept_pairs: &mut Vec<ossa_ir::CopyPair>,
) {
    let rep = |v: Value| (*decisions.class_rep.get(v)).unwrap_or(v);

    for bi in 0..func.num_blocks() {
        let block = ossa_ir::Block::from_index(bi);
        let mut pos = 0;
        while pos < func.block_len(block) {
            let inst = func.block_insts(block)[pos];
            if func.inst(inst).is_phi() {
                func.remove_inst(block, inst);
                continue; // same position now holds the next instruction
            }
            if matches!(func.inst(inst), InstData::ParallelCopy { .. }) {
                // Coalescing may map two destinations of one parallel copy
                // to the same representative: either both carry the same
                // value (value-based merge — either copy may be kept), or at
                // least one destination is *dead* (an empty live range never
                // interferes, so merges can pull it in) — then the copy of
                // the used destination must be the one kept. Two *used*
                // destinations with different values can only come from
                // pinning two simultaneously-live values to one register:
                // unsatisfiable, and refusing loudly beats the seed's silent
                // miscompilation.
                kept.clear();
                let InstData::ParallelCopy { copies } = func.inst(inst) else { unreachable!() };
                let removed = |dst: Value| {
                    decisions.removed_moves.iter().any(|&(i, d)| i == inst && d == dst)
                };
                for c in func.copy_list(*copies).iter().filter(|c| !removed(c.dst)) {
                    let pair = ossa_ir::CopyPair { dst: rep(c.dst), src: rep(c.src) };
                    if pair.dst == pair.src {
                        continue;
                    }
                    let this_used = decisions.used.contains(c.dst);
                    match kept.iter_mut().find(|k| k.pair.dst == pair.dst) {
                        None => kept.push(KeptCopy { pair, orig_src: c.src, used: this_used }),
                        Some(first) => {
                            if decisions.values.same_value(first.orig_src, c.src) {
                                first.used |= this_used;
                            } else if first.used && this_used {
                                panic!(
                                    "parallel copy destinations {} coalesced with different \
                                     values ({} vs {}): unsatisfiable register constraints \
                                     in the input",
                                    pair.dst, first.orig_src, c.src
                                );
                            } else if this_used {
                                // The earlier duplicate was dead; this copy
                                // provides the value the uses actually read.
                                *first = KeptCopy { pair, orig_src: c.src, used: true };
                            }
                            // else: this duplicate is dead, drop it.
                        }
                    }
                }
                if kept.is_empty() {
                    func.remove_inst(block, inst);
                    continue;
                }
                // Write the surviving moves back into the instruction's pool
                // block in place (the rewrite only ever shrinks the list).
                kept_pairs.clear();
                kept_pairs.extend(kept.iter().map(|k| k.pair));
                func.set_parallel_copies(inst, kept_pairs);
                pos += 1;
                continue;
            }
            func.map_inst_uses(inst, rep);
            func.map_inst_defs(inst, rep);
            // Plain copies that became self-copies disappear.
            if let InstData::Copy { dst, src } = *func.inst(inst) {
                if dst == src {
                    func.remove_inst(block, inst);
                    continue;
                }
            }
            pos += 1;
        }
    }

    // Propagate class labels (register pins) to the representatives.
    for &(root, reg) in &decisions.labels {
        func.pin_value(root, reg);
    }
}

/// Counts the remaining copies and their frequency-weighted cost, using the
/// cached block frequencies.
fn count_copies(func: &Function, analyses: &FunctionAnalyses) -> (usize, f64) {
    let freqs = analyses.frequencies(func);
    let mut count = 0usize;
    let mut weighted = 0.0f64;
    for block in func.blocks() {
        for &inst in func.block_insts(block) {
            let copies = match func.inst(inst) {
                InstData::Copy { .. } => 1,
                InstData::ParallelCopy { copies } => copies.len(),
                _ => 0,
            };
            count += copies;
            weighted += copies as f64 * freqs.frequency(block);
        }
    }
    (count, weighted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_interp::{same_behaviour, Interpreter};
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::BinaryOp;

    /// The lost-copy problem (paper Figure 4a), with an SSA loop counter so
    /// that executions terminate.
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
        let i_next = b.declare_value();
        let x2 = b.phi(vec![(entry, x1), (header, x3)]);
        let i = b.phi(vec![(entry, p), (header, i_next)]);
        let one = b.iconst(1);
        b.func_mut()
            .append_inst(header, InstData::Binary { op: BinaryOp::Add, dst: x3, args: [x2, one] });
        b.func_mut().append_inst(
            header,
            InstData::Binary { op: BinaryOp::Sub, dst: i_next, args: [i, one] },
        );
        let zero = b.iconst(0);
        let c = b.cmp(ossa_ir::CmpOp::Gt, i_next, zero);
        b.branch(c, header, exit);
        b.switch_to_block(exit);
        b.ret(Some(x2));
        b.finish()
    }

    /// The swap problem (paper Figure 3a), with an SSA loop counter.
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
        let i_next = b.declare_value();
        b.phi_to(a2, vec![(entry, a1), (header, b2)]);
        b.phi_to(b2, vec![(entry, b1), (header, a2)]);
        let i = b.phi(vec![(entry, p), (header, i_next)]);
        let one = b.iconst(1);
        b.func_mut().append_inst(
            header,
            InstData::Binary { op: BinaryOp::Sub, dst: i_next, args: [i, one] },
        );
        let zero = b.iconst(0);
        let c = b.cmp(ossa_ir::CmpOp::Gt, i_next, zero);
        b.branch(c, header, exit);
        b.switch_to_block(exit);
        let ten = b.iconst(10);
        let scaled = b.binary(BinaryOp::Mul, a2, ten);
        let s = b.binary(BinaryOp::Add, scaled, b2);
        b.ret(Some(s));
        b.finish()
    }

    fn all_variants() -> Vec<(&'static str, OutOfSsaOptions)> {
        vec![
            ("intersect", OutOfSsaOptions::intersect()),
            ("sreedhar_i", OutOfSsaOptions::sreedhar_i()),
            ("chaitin", OutOfSsaOptions::chaitin()),
            ("value", OutOfSsaOptions::value()),
            ("sreedhar_iii", OutOfSsaOptions::sreedhar_iii()),
            ("value_is", OutOfSsaOptions::value_is()),
            ("sharing", OutOfSsaOptions::sharing()),
            ("us_i", OutOfSsaOptions::us_i()),
            ("us_iii", OutOfSsaOptions::us_iii()),
            (
                "us_i_linear_livecheck",
                OutOfSsaOptions::us_i()
                    .with_interference(InterferenceMode::InterCheckLiveCheck)
                    .with_class_check(ClassCheck::Linear),
            ),
        ]
    }

    #[test]
    fn lost_copy_translation_preserves_behaviour_for_all_variants() {
        let original = lost_copy();
        for (name, options) in all_variants() {
            let mut translated = original.clone();
            let stats = translate_out_of_ssa(&mut translated, &options);
            assert_eq!(translated.count_phis(), 0, "{name}: phis remain");
            for input in [0, 1, 2, 5] {
                let a = Interpreter::new().run(&original, &[input]).unwrap();
                let b = Interpreter::new().run(&translated, &[input]).unwrap();
                assert!(
                    same_behaviour(&a, &b),
                    "{name}: behaviour differs on input {input}\noriginal:\n{}\ntranslated:\n{}",
                    original.display(),
                    translated.display()
                );
            }
            assert!(stats.phis_removed >= 1);
        }
    }

    #[test]
    fn swap_translation_preserves_behaviour_for_all_variants() {
        let original = swap_problem();
        for (name, options) in all_variants() {
            let mut translated = original.clone();
            translate_out_of_ssa(&mut translated, &options);
            for input in [1, 2, 3, 6] {
                let a = Interpreter::new().run(&original, &[input]).unwrap();
                let b = Interpreter::new().run(&translated, &[input]).unwrap();
                assert!(
                    same_behaviour(&a, &b),
                    "{name}: behaviour differs on input {input}\noriginal:\n{}\ntranslated:\n{}",
                    original.display(),
                    translated.display()
                );
            }
        }
    }

    #[test]
    fn value_based_coalescing_removes_more_copies_than_intersection() {
        let mut by_intersect = lost_copy();
        let mut by_value = lost_copy();
        let a = translate_out_of_ssa(&mut by_intersect, &OutOfSsaOptions::intersect());
        let b = translate_out_of_ssa(&mut by_value, &OutOfSsaOptions::sharing());
        assert!(
            b.remaining_copies <= a.remaining_copies,
            "value/sharing ({}) should not be worse than intersect ({})",
            b.remaining_copies,
            a.remaining_copies
        );
    }

    #[test]
    fn swap_problem_keeps_a_cycle_worth_of_copies() {
        // The swap needs a parallel-copy cycle; after sequentialization this
        // materializes as up to three copies but cannot disappear entirely.
        let mut f = swap_problem();
        let stats = translate_out_of_ssa(&mut f, &OutOfSsaOptions::sharing());
        assert!(stats.remaining_copies >= 2, "a swap cannot be fully coalesced");
        assert!(stats.remaining_copies <= 4);
    }

    #[test]
    fn lost_copy_keeps_exactly_one_copy_with_value_strategy() {
        // Figure 4d of the paper: all copies but one can be removed.
        let mut f = lost_copy();
        let stats = translate_out_of_ssa(&mut f, &OutOfSsaOptions::sharing());
        assert_eq!(stats.remaining_copies, 1, "{}", f.display());
    }

    #[test]
    fn memory_stats_reflect_backend_choice() {
        let mut with_graph = lost_copy();
        let g = translate_out_of_ssa(&mut with_graph, &OutOfSsaOptions::us_i());
        assert!(g.memory.interference_graph_bytes > 0);
        assert!(g.memory.liveness_ordered_bytes > 0);
        assert_eq!(g.memory.livecheck_bytes, 0);

        let mut with_livecheck = lost_copy();
        let l = translate_out_of_ssa(
            &mut with_livecheck,
            &OutOfSsaOptions::us_i().with_interference(InterferenceMode::InterCheckLiveCheck),
        );
        assert_eq!(l.memory.interference_graph_bytes, 0);
        assert_eq!(l.memory.liveness_ordered_bytes, 0);
        assert!(l.memory.livecheck_bytes > 0);
    }

    #[test]
    fn pinned_values_keep_their_register_labels() {
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
        let original = f.clone();
        let stats = translate_out_of_ssa(&mut f, &OutOfSsaOptions::default());
        assert!(stats.moves_inserted >= 2);
        // The translated code still has at least one value pinned to each
        // register label.
        let pinned_regs: Vec<u32> = f.values().filter_map(|v| f.pinned_reg(v)).collect();
        assert!(pinned_regs.contains(&0));
        assert!(pinned_regs.contains(&1));
        // Behaviour is preserved.
        for input in [0, 3, 9] {
            let a = Interpreter::new().run(&original, &[input]).unwrap();
            let b = Interpreter::new().run(&f, &[input]).unwrap();
            assert!(same_behaviour(&a, &b));
        }
    }

    #[test]
    fn coalesced_parallel_copy_destinations_are_deduplicated() {
        // Two destinations of one parallel copy that carry the same value
        // can be coalesced into one class (here forced by pinning both to
        // the same register); the rewrite must emit that destination once,
        // not produce an ill-formed duplicate-destination parallel copy.
        // This is the situation the seed only caught with a debug_assert —
        // release builds silently mis-sequentialized it.
        let mut b = FunctionBuilder::new("dup-dst", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.iconst(7);
        let x = b.declare_value();
        let y = b.declare_value();
        b.parallel_copy(vec![
            ossa_ir::CopyPair { dst: x, src: a },
            ossa_ir::CopyPair { dst: y, src: a },
        ]);
        let s = b.binary(BinaryOp::Add, x, y);
        b.ret(Some(s));
        let mut f = b.finish();
        // x and y share a register pin, so they are pre-coalesced; a is
        // pinned elsewhere, which keeps it out of their class.
        f.pin_value(x, 1);
        f.pin_value(y, 1);
        f.pin_value(a, 0);
        let original = f.clone();
        translate_out_of_ssa(&mut f, &OutOfSsaOptions::default());
        let want = Interpreter::new().run(&original, &[]).unwrap();
        let got = Interpreter::new().run(&f, &[]).unwrap();
        assert!(same_behaviour(&want, &got), "\n{}", f.display());
    }

    #[test]
    #[should_panic(expected = "unsatisfiable register constraints")]
    fn conflicting_pinned_parallel_copy_destinations_are_rejected() {
        // Two destinations of one parallel copy with *different*-valued
        // sources, force-merged by pinning both to the same register: no
        // correct allocation exists, and the rewrite must refuse to silently
        // drop one of the copies (the seed miscompiled this in release).
        let mut b = FunctionBuilder::new("dup-conflict", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.iconst(7);
        let c = b.iconst(9);
        let x = b.declare_value();
        let y = b.declare_value();
        b.parallel_copy(vec![
            ossa_ir::CopyPair { dst: x, src: a },
            ossa_ir::CopyPair { dst: y, src: c },
        ]);
        let s = b.binary(BinaryOp::Add, x, y);
        b.ret(Some(s));
        let mut f = b.finish();
        f.pin_value(x, 1);
        f.pin_value(y, 1);
        translate_out_of_ssa(&mut f, &OutOfSsaOptions::default());
    }

    #[test]
    fn cached_translation_matches_fresh_translation() {
        // Translating through a shared (pre-warmed) analysis cache must give
        // exactly the same code and statistics as a fresh run.
        let original = lost_copy();
        for (name, options) in all_variants() {
            let mut fresh = original.clone();
            let fresh_stats = translate_out_of_ssa(&mut fresh, &options);

            let mut cached = original.clone();
            let mut analyses = FunctionAnalyses::new();
            // Pre-warm the cache as an upstream phase would.
            let _ = analyses.liveness_sets(&cached);
            let _ = analyses.fast_liveness(&cached);
            let cached_stats = translate_out_of_ssa_scratch(
                &mut cached,
                &options,
                &mut analyses,
                &mut TranslateScratch::new(),
            );

            assert_eq!(fresh, cached, "{name}: translated code differs");
            assert_eq!(fresh_stats, cached_stats, "{name}: stats differ");
        }
    }
}
