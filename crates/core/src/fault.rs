//! Fault taxonomy and isolation primitives of the translation engine.
//!
//! The out-of-SSA hot paths stay panic-based internally — threading `Result`
//! through the lazily initialized analysis caches would tax every
//! happy-path caller — so fault isolation happens at the *per-function
//! boundary*: the checked engine step runs each function under
//! [`catch_translate`], which converts any unwind into a typed
//! [`TranslateError`]:
//!
//! * a [`ossa_liveness::fuel::FuelExhausted`] payload (a fixpoint budget from
//!   [`Limits::max_fixpoint_iters`] ran dry) becomes
//!   [`TranslateError::ResourceExhausted`];
//! * a [`ossa_liveness::fuel::Cancelled`] payload (the request's wall-clock
//!   deadline passed — checked at every phase boundary and fixpoint tick)
//!   becomes [`TranslateError::DeadlineExceeded`];
//! * anything else becomes [`TranslateError::Panicked`], tagged with the
//!   [`TranslatePhase`] the pipeline had most recently entered (a
//!   thread-local marker written by [`enter_phase`] at each phase boundary).
//!
//! Structural problems caught *before* the pipeline runs — verifier
//! rejections and [`Limits`] size checks — are reported without unwinding as
//! [`TranslateError::Malformed`] and [`TranslateError::ResourceExhausted`].
//!
//! The `failpoints` cargo feature adds a deterministic, seeded fault
//! injector (the `failpoints` module) that fires at the same phase
//! boundaries; it is compiled out of default builds entirely.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ossa_ir::Function;
use ossa_liveness::fuel::{Cancelled, FuelExhausted};

/// The pipeline phase a fault was attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TranslatePhase {
    /// Input validation (structural verifier, limit checks) before any
    /// transformation runs.
    Verify,
    /// SSA construction / copy propagation / dead-code elimination — the
    /// pre-translation passes of the full pipeline.
    Ssa,
    /// Liveness analysis (data-flow sets or the fast checker).
    Liveness,
    /// Copy insertion, interference and aggressive coalescing.
    Coalesce,
    /// Parallel-copy sequentialization.
    Sequentialize,
    /// Register allocation.
    Regalloc,
    /// Post-translation output validation (structural re-verification or
    /// the differential interpreter check).
    Validate,
}

impl TranslatePhase {
    /// All phases, in pipeline order.
    pub const ALL: [TranslatePhase; 7] = [
        TranslatePhase::Verify,
        TranslatePhase::Ssa,
        TranslatePhase::Liveness,
        TranslatePhase::Coalesce,
        TranslatePhase::Sequentialize,
        TranslatePhase::Regalloc,
        TranslatePhase::Validate,
    ];

    fn as_str(self) -> &'static str {
        match self {
            TranslatePhase::Verify => "verify",
            TranslatePhase::Ssa => "ssa",
            TranslatePhase::Liveness => "liveness",
            TranslatePhase::Coalesce => "coalesce",
            TranslatePhase::Sequentialize => "sequentialize",
            TranslatePhase::Regalloc => "regalloc",
            TranslatePhase::Validate => "validate",
        }
    }
}

impl fmt::Display for TranslatePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The bounded resource a [`TranslateError::ResourceExhausted`] ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// [`Limits::max_blocks`].
    Blocks,
    /// [`Limits::max_values`].
    Values,
    /// [`Limits::max_insts`].
    Instructions,
    /// [`Limits::max_fixpoint_iters`].
    FixpointIterations,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Blocks => "blocks",
            Resource::Values => "values",
            Resource::Instructions => "instructions",
            Resource::FixpointIterations => "fixpoint iterations",
        })
    }
}

/// A per-function translation failure. One function's error never affects
/// its corpus neighbours: the checked engines record it and translate the
/// rest bit-identically to a fault-free run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// The input failed structural validation (CFG/SSA verifier).
    Malformed {
        /// The phase that rejected the input (normally [`TranslatePhase::Verify`]).
        phase: TranslatePhase,
        /// The verifier's report.
        detail: String,
    },
    /// A [`Limits`] bound was exceeded.
    ResourceExhausted {
        /// Which bound.
        resource: Resource,
        /// The configured limit.
        limit: u64,
        /// What the function actually needed (for the up-front size checks;
        /// equals `limit` for fuel, which stops at the bound).
        observed: u64,
    },
    /// The request's wall-clock deadline (a cancellation token installed via
    /// [`ossa_liveness::fuel::set_deadline`]) passed mid-translation. Unlike
    /// [`TranslateError::ResourceExhausted`] — a deterministic property of
    /// the function under the configured [`Limits`] — a deadline is a
    /// property of the *request*: the same function may well succeed when
    /// resubmitted under a fresh deadline, so service layers treat this as
    /// shed load, not as a poisoned input.
    DeadlineExceeded {
        /// The phase the pipeline had most recently entered when the
        /// cancellation token tripped.
        phase: TranslatePhase,
    },
    /// The pipeline panicked mid-translation.
    Panicked {
        /// The phase the pipeline had most recently entered.
        phase: TranslatePhase,
        /// The panic message.
        message: String,
    },
    /// The translation completed without crashing but its *output* failed
    /// post-translation validation — the paper's silent-miscompilation
    /// hazard (lost copies, mis-ordered swaps) made loud. The function must
    /// not be used; the recovery ladder may retry it on a conservative
    /// engine configuration.
    ValidationFailed {
        /// The phase the failure is attributed to (always
        /// [`TranslatePhase::Validate`]; kept explicit so the variant slots
        /// into the phase-tagged taxonomy like its siblings).
        phase: TranslatePhase,
        /// The validator's report: the structural violation, or the first
        /// behavioural divergence between the pre-translation function and
        /// the translated output.
        detail: String,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Malformed { phase, detail } => {
                write!(f, "malformed input (phase {phase}): {detail}")
            }
            TranslateError::ResourceExhausted { resource, limit, observed } => {
                write!(f, "resource exhausted: {observed} {resource} exceeds the limit of {limit}")
            }
            TranslateError::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded in phase {phase}")
            }
            TranslateError::Panicked { phase, message } => {
                write!(f, "translation panicked in phase {phase}: {message}")
            }
            TranslateError::ValidationFailed { phase, detail } => {
                write!(f, "output validation failed (phase {phase}): {detail}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

impl TranslateError {
    /// The phase the error is attributed to (`None` for resource exhaustion,
    /// which is a property of the whole function, not of one phase).
    pub fn phase(&self) -> Option<TranslatePhase> {
        match self {
            TranslateError::Malformed { phase, .. }
            | TranslateError::DeadlineExceeded { phase }
            | TranslateError::Panicked { phase, .. }
            | TranslateError::ValidationFailed { phase, .. } => Some(*phase),
            TranslateError::ResourceExhausted { .. } => None,
        }
    }
}

/// Resource bounds of an isolated translation. All bounds default to `None`
/// (unbounded), so `Limits::default()` never rejects a function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of blocks of the input function.
    pub max_blocks: Option<u64>,
    /// Maximum number of SSA values of the input function.
    pub max_values: Option<u64>,
    /// Maximum number of instructions of the input function.
    pub max_insts: Option<u64>,
    /// Fixpoint-pass budget of the liveness sets solver — bounds the only
    /// loops of the pipeline whose trip count is data-dependent rather than
    /// structural, so a pathological input returns
    /// [`TranslateError::ResourceExhausted`] instead of hanging a worker.
    /// Only translations that compute liveness sets spend it: the default
    /// `InterCheckLiveCheck` translation of a reducible function runs no
    /// fixpoint, while the `Graph` and `InterCheck` modes, the fallback
    /// rungs and the irreducible-CFG demotion do.
    pub max_fixpoint_iters: Option<u64>,
}

impl Limits {
    /// No bounds at all (the `Default`).
    pub const UNBOUNDED: Limits =
        Limits { max_blocks: None, max_values: None, max_insts: None, max_fixpoint_iters: None };

    /// Checks the up-front size bounds against `func`. The fuel bound is not
    /// checked here — it is installed around the pipeline run and trips
    /// during execution.
    pub fn check_function(&self, func: &Function) -> Result<(), TranslateError> {
        let checks = [
            (Resource::Blocks, self.max_blocks, func.num_blocks() as u64),
            (Resource::Values, self.max_values, func.num_values() as u64),
            (Resource::Instructions, self.max_insts, func.num_insts() as u64),
        ];
        for (resource, limit, observed) in checks {
            if let Some(limit) = limit {
                if observed > limit {
                    return Err(TranslateError::ResourceExhausted { resource, limit, observed });
                }
            }
        }
        Ok(())
    }
}

thread_local! {
    /// The phase the current thread's pipeline most recently entered, for
    /// attributing a caught panic. Reset to `Verify` at each isolated
    /// function boundary.
    static PHASE: Cell<TranslatePhase> = const { Cell::new(TranslatePhase::Verify) };
}

/// Marks the current thread's pipeline as having entered `phase`, checks the
/// request's cancellation token (so a deadline aborts at the next phase
/// boundary even between fixpoint loops), and — with the `failpoints`
/// feature — asks the injector whether to stall or fire here. Called at
/// every phase boundary of the translation; the cost without failpoints and
/// without an installed deadline is two thread-local reads.
#[inline]
pub fn enter_phase(func_name: &str, phase: TranslatePhase) {
    PHASE.set(phase);
    ossa_liveness::fuel::cancel_tick();
    #[cfg(feature = "failpoints")]
    failpoints::fire(func_name, phase);
    #[cfg(not(feature = "failpoints"))]
    let _ = func_name;
}

/// The phase the current thread's pipeline most recently entered.
pub fn current_phase() -> TranslatePhase {
    PHASE.get()
}

/// Runs `f` with panic isolation, converting any unwind into a typed
/// [`TranslateError`] (see the module docs for the mapping). The caller must
/// treat its analysis caches and scratch as poisoned on `Err` — an unwind
/// can leave them mid-mutation — and rebuild them fresh.
pub fn catch_translate<R>(f: impl FnOnce() -> R) -> Result<R, TranslateError> {
    PHASE.set(TranslatePhase::Verify);
    catch_unwind(AssertUnwindSafe(f)).map_err(error_from_payload)
}

/// Maps a caught panic payload to a [`TranslateError`].
fn error_from_payload(payload: Box<dyn Any + Send>) -> TranslateError {
    if let Some(fuel) = payload.downcast_ref::<FuelExhausted>() {
        return TranslateError::ResourceExhausted {
            resource: Resource::FixpointIterations,
            limit: fuel.limit,
            observed: fuel.limit,
        };
    }
    if payload.downcast_ref::<Cancelled>().is_some() {
        return TranslateError::DeadlineExceeded { phase: current_phase() };
    }
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    TranslateError::Panicked { phase: current_phase(), message }
}

/// Deterministic, seeded fault injection at the pipeline's phase
/// boundaries. Compiled in only with the `failpoints` cargo feature and
/// inert until [`failpoints::configure`] is called, so instrumented builds
/// behave identically to default builds when no injection is armed.
#[cfg(feature = "failpoints")]
pub mod failpoints {
    use super::TranslatePhase;
    use std::cell::Cell;
    use std::sync::RwLock;

    /// An armed injection campaign.
    #[derive(Clone, Copy, Debug)]
    pub struct FailpointConfig {
        /// Seed mixed into the per-site hash: different seeds poison
        /// different (but reproducible) subsets of a corpus.
        pub seed: u64,
        /// Injection probability in 1/1000ths, applied per (function, phase)
        /// site: 0 never fires, 1000 always fires.
        pub rate_per_mille: u32,
        /// Restrict firing to one phase (`None`: every phase is eligible,
        /// each hashed independently).
        pub phase: Option<TranslatePhase>,
    }

    static CONFIG: RwLock<Option<FailpointConfig>> = RwLock::new(None);

    /// Arms the injector process-wide. Tests serialise access (the harness
    /// config is global state, like a panic hook).
    pub fn configure(config: FailpointConfig) {
        *CONFIG.write().unwrap() = Some(config);
    }

    /// Disarms the injector.
    pub fn clear() {
        *CONFIG.write().unwrap() = None;
    }

    /// An armed stall campaign: selected (function, phase) sites sleep for
    /// `millis` instead of panicking, modelling a wedged or pathologically
    /// slow worker. The sleep is sliced and checks the cancellation token
    /// between slices, so a request deadline bounds even an injected stall —
    /// exactly the overload scenario the service watchdogs exist for.
    #[derive(Clone, Copy, Debug)]
    pub struct StallConfig {
        /// Seed mixed into the per-site hash (independent of the panic
        /// injector's subset under the same seed — see [`should_stall`]).
        pub seed: u64,
        /// Stall probability in 1/1000ths, applied per (function, phase).
        pub rate_per_mille: u32,
        /// Restrict stalling to one phase (`None`: every phase eligible).
        pub phase: Option<TranslatePhase>,
        /// How long a selected site stalls, in milliseconds.
        pub millis: u64,
    }

    static STALL: RwLock<Option<StallConfig>> = RwLock::new(None);

    /// Arms the stall injector process-wide.
    pub fn configure_stall(config: StallConfig) {
        *STALL.write().unwrap() = Some(config);
    }

    /// Disarms the stall injector.
    pub fn clear_stall() {
        *STALL.write().unwrap() = None;
    }

    /// Pure site predicate for stalls, mirroring [`should_fail`]: would the
    /// armed campaign stall at this (function, phase) site? Tests precompute
    /// the stalled subset of a corpus from this.
    pub fn should_stall(func_name: &str, phase: TranslatePhase) -> bool {
        let Some(config) = *STALL.read().unwrap() else {
            return false;
        };
        if config.phase.is_some_and(|p| p != phase) {
            return false;
        }
        site_selected(config.seed, config.rate_per_mille, func_name, 0x40 | phase as u8)
    }

    /// Sleeps out an injected stall in 1 ms slices, checking the request's
    /// cancellation token between slices: a stall never outlives the
    /// deadline by more than one slice.
    fn stall_here(millis: u64) {
        let slice = std::time::Duration::from_millis(1);
        for _ in 0..millis {
            ossa_liveness::fuel::cancel_tick();
            std::thread::sleep(slice);
        }
        ossa_liveness::fuel::cancel_tick();
    }

    /// Pure site predicate: would the armed campaign fire at this
    /// (function, phase) site? Depends only on the config and the
    /// arguments — never on thread schedule or visit order — so a test can
    /// precompute the exact poisoned subset of a corpus and assert the
    /// engine reports exactly that subset.
    pub fn should_fail(func_name: &str, phase: TranslatePhase) -> bool {
        let Some(config) = *CONFIG.read().unwrap() else {
            return false;
        };
        if config.phase.is_some_and(|p| p != phase) {
            return false;
        }
        site_selected(config.seed, config.rate_per_mille, func_name, phase as u8)
    }

    /// Whether a campaign selects the site (`func_name`, `tag`): FNV-1a over
    /// (seed, name, tag byte), stable across runs and platforms. The tag is
    /// the phase for panics, `0x40 | phase` for stalls and `0x80 | kind` for
    /// corruption; the biases keep the three tag ranges disjoint, so the
    /// campaigns poison independent subsets under one seed.
    fn site_selected(seed: u64, rate_per_mille: u32, func_name: &str, tag: u8) -> bool {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |byte: u8| hash = (hash ^ byte as u64).wrapping_mul(0x1000_0000_01b3);
        for byte in seed.to_le_bytes() {
            mix(byte);
        }
        for byte in func_name.bytes() {
            mix(byte);
        }
        mix(tag);
        (hash % 1000) < rate_per_mille as u64
    }

    /// Phase-boundary hook: panics with a deterministic message when the
    /// armed campaign selects this site. Entering `Verify` marks a fresh
    /// per-function attempt, resetting the one-corruption-per-function
    /// budget. Injected faults model *transient first-attempt* failures:
    /// nothing fires on retries (see [`set_attempt`]), so recovery campaigns
    /// can assert the conservative retry heals every poisoned function.
    pub fn fire(func_name: &str, phase: TranslatePhase) {
        if phase == TranslatePhase::Verify {
            CORRUPTED.set(false);
        }
        if current_attempt() == 0 && should_stall(func_name, phase) {
            let millis = STALL.read().unwrap().map(|c| c.millis).unwrap_or(0);
            stall_here(millis);
        }
        if current_attempt() == 0 && should_fail(func_name, phase) {
            panic!("failpoint: injected fault in {func_name} at phase {phase}");
        }
    }

    /// The silent-miscompile species a corruption campaign injects into the
    /// sequentialized output — the two historical out-of-SSA bug families
    /// the paper opens with.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum CorruptionKind {
        /// Drop one inserted copy from a sequentialized parallel-copy
        /// window (the *lost-copy* bug).
        DropCopy,
        /// Swap two dependent copies inside a sequentialized window,
        /// clobbering a source before it is read (the *swap* bug).
        SwapCopies,
    }

    /// An armed output-corruption campaign. Orthogonal to
    /// [`FailpointConfig`]: corruption never panics — it silently mangles
    /// the emitted copies so only a post-translation validator can tell.
    #[derive(Clone, Copy, Debug)]
    pub struct CorruptionConfig {
        /// Seed mixed into the per-function hash.
        pub seed: u64,
        /// Corruption probability in 1/1000ths, applied per function.
        pub rate_per_mille: u32,
        /// Which miscompile to inject.
        pub kind: CorruptionKind,
    }

    static CORRUPTION: RwLock<Option<CorruptionConfig>> = RwLock::new(None);

    thread_local! {
        /// Ladder rung of the function currently translating on this
        /// thread. Injection (panics and corruption alike) only arms on
        /// rung 0.
        static ATTEMPT: Cell<u32> = const { Cell::new(0) };
        /// Whether the current function has already spent its
        /// one-corruption budget (reset at each `Verify` boundary).
        static CORRUPTED: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms the corruption injector process-wide.
    pub fn configure_corruption(config: CorruptionConfig) {
        *CORRUPTION.write().unwrap() = Some(config);
    }

    /// Disarms the corruption injector.
    pub fn clear_corruption() {
        *CORRUPTION.write().unwrap() = None;
    }

    /// Records the ladder rung of the function about to translate on this
    /// thread. The ladder walker calls this around each attempt; tests
    /// never need to.
    pub fn set_attempt(rung: u32) {
        ATTEMPT.set(rung);
    }

    /// The rung most recently recorded via [`set_attempt`].
    pub fn current_attempt() -> u32 {
        ATTEMPT.get()
    }

    /// Pure site predicate for corruption, mirroring [`should_fail`]: would
    /// the armed campaign corrupt this function's output? Tests precompute
    /// the candidate set from this.
    pub fn should_corrupt(func_name: &str, kind: CorruptionKind) -> bool {
        let Some(config) = *CORRUPTION.read().unwrap() else {
            return false;
        };
        if config.kind != kind {
            return false;
        }
        site_selected(config.seed, config.rate_per_mille, func_name, 0x80 | kind as u8)
    }

    /// Emission-site hook: `true` exactly once per (function, attempt-0)
    /// when the armed campaign selects this function, consuming the
    /// per-function budget so a function with many parallel-copy windows is
    /// mangled in only one place.
    pub fn corrupt_here(func_name: &str, kind: CorruptionKind) -> bool {
        if current_attempt() != 0 || CORRUPTED.get() || !should_corrupt(func_name, kind) {
            return false;
        }
        CORRUPTED.set(true);
        true
    }

    /// Installs (once, process-wide) a panic hook that suppresses the
    /// default stderr report for injected-failpoint panics, so the
    /// fault-injection tests don't bury their output under expected
    /// backtraces. Other panics still report through the previous hook.
    pub fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.starts_with("failpoint:"));
                if !injected {
                    previous(info);
                }
            }));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_maps_str_panics_to_the_marked_phase() {
        let err = catch_translate(|| {
            enter_phase("f", TranslatePhase::Coalesce);
            panic!("boom");
        })
        .unwrap_err();
        assert_eq!(
            err,
            TranslateError::Panicked {
                phase: TranslatePhase::Coalesce,
                message: "boom".to_string()
            }
        );
    }

    #[test]
    fn catch_resets_the_phase_marker_per_invocation() {
        let _ = catch_translate(|| {
            enter_phase("f", TranslatePhase::Regalloc);
            panic!("first");
        });
        // A panic before any enter_phase call is attributed to Verify, not
        // to the previous function's last phase.
        let err = catch_translate(|| panic!("second")).unwrap_err();
        assert_eq!(err.phase(), Some(TranslatePhase::Verify));
    }

    #[test]
    fn catch_maps_cancellation_to_deadline_exceeded_with_phase() {
        let err = catch_translate(|| {
            enter_phase("f", TranslatePhase::Liveness);
            std::panic::panic_any(Cancelled);
        })
        .unwrap_err();
        assert_eq!(err, TranslateError::DeadlineExceeded { phase: TranslatePhase::Liveness });
        assert_eq!(err.phase(), Some(TranslatePhase::Liveness));
        assert_eq!(err.to_string(), "deadline exceeded in phase liveness");
    }

    #[test]
    fn expired_deadline_aborts_at_the_next_phase_boundary() {
        use std::time::{Duration, Instant};
        ossa_liveness::fuel::set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        let err = catch_translate(|| {
            enter_phase("f", TranslatePhase::Coalesce);
        })
        .unwrap_err();
        ossa_liveness::fuel::set_deadline(None);
        assert_eq!(err, TranslateError::DeadlineExceeded { phase: TranslatePhase::Coalesce });
    }

    #[test]
    fn deadline_and_fuel_exhaustion_are_distinguishable() {
        // Satellite regression: the two time/resource budgets must map to
        // distinct taxonomy variants — a service retries a deadline miss on
        // another rung but treats fuel exhaustion as a property of the input.
        use std::time::{Duration, Instant};
        ossa_liveness::fuel::set_fixpoint_fuel(Some(0));
        let fuel_err = catch_translate(ossa_liveness::fuel::fixpoint_tick).unwrap_err();
        ossa_liveness::fuel::set_fixpoint_fuel(None);
        ossa_liveness::fuel::set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        let deadline_err = catch_translate(ossa_liveness::fuel::cancel_tick).unwrap_err();
        ossa_liveness::fuel::set_deadline(None);
        assert!(matches!(fuel_err, TranslateError::ResourceExhausted { .. }));
        assert!(matches!(deadline_err, TranslateError::DeadlineExceeded { .. }));
        assert_ne!(fuel_err, deadline_err);
    }

    #[test]
    fn catch_maps_fuel_exhaustion_to_resource_exhausted() {
        ossa_liveness::fuel::set_fixpoint_fuel(Some(0));
        let err = catch_translate(ossa_liveness::fuel::fixpoint_tick).unwrap_err();
        ossa_liveness::fuel::set_fixpoint_fuel(None);
        assert_eq!(
            err,
            TranslateError::ResourceExhausted {
                resource: Resource::FixpointIterations,
                limit: 0,
                observed: 0,
            }
        );
    }

    #[test]
    fn limits_check_reports_the_first_exceeded_bound() {
        let mut b = ossa_ir::builder::FunctionBuilder::new("limited", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        b.ret(None);
        let func = b.finish();

        assert_eq!(Limits::default().check_function(&func), Ok(()));
        assert_eq!(Limits::UNBOUNDED.check_function(&func), Ok(()));
        let limits = Limits { max_blocks: Some(0), ..Limits::default() };
        assert_eq!(
            limits.check_function(&func),
            Err(TranslateError::ResourceExhausted {
                resource: Resource::Blocks,
                limit: 0,
                observed: 1,
            })
        );
    }

    #[test]
    fn errors_render_for_humans() {
        let err = TranslateError::ResourceExhausted {
            resource: Resource::Instructions,
            limit: 10,
            observed: 42,
        };
        assert_eq!(err.to_string(), "resource exhausted: 42 instructions exceeds the limit of 10");
        let err = TranslateError::Panicked {
            phase: TranslatePhase::Sequentialize,
            message: "boom".to_string(),
        };
        assert_eq!(err.to_string(), "translation panicked in phase sequentialize: boom");
        let err = TranslateError::ValidationFailed {
            phase: TranslatePhase::Validate,
            detail: "diverged on inputs [1, 2]".to_string(),
        };
        assert_eq!(
            err.to_string(),
            "output validation failed (phase validate): diverged on inputs [1, 2]"
        );
        assert_eq!(err.phase(), Some(TranslatePhase::Validate));
    }
}
