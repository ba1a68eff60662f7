//! Deadline vs. fuel distinguishability, and the regression contract of
//! both: a request that runs out of *time* (`DeadlineExceeded`, a property
//! of the request) and a function that runs out of *fuel*
//! (`ResourceExhausted`, a deterministic property of the function under its
//! `Limits`) must surface as different typed errors — and neither may
//! poison the pristine-snapshot retry path: the same worker must translate
//! the same input bit-identically once the budget pressure is lifted.

use std::sync::Mutex;
use std::time::Instant;

use out_of_ssa::cfggen::{generate_ssa_function, GenConfig};
use out_of_ssa::destruct::{
    Engine, EngineWorker, InterferenceMode, Ladder, Limits, OutOfSsaOptions, Resource,
    TranslateError, ValidationMode,
};
use out_of_ssa::ir::Function;
use out_of_ssa::liveness::fuel;
use out_of_ssa::service::{ServiceConfig, ServiceError, TranslationService};

/// The failpoint configuration (used by the gated test below) is
/// process-wide; every test in this binary serialises on this.
static SERIAL: Mutex<()> = Mutex::new(());

fn input(seed: u64) -> Function {
    generate_ssa_function(format!("dl_{seed}"), &GenConfig::default(), seed).0
}

/// Options whose liveness comes from the data-flow sets, the solver that
/// still iterates and so spends fixpoint fuel.
fn sets_options() -> OutOfSsaOptions {
    OutOfSsaOptions::default().with_interference(InterferenceMode::InterCheck)
}

fn reference(seed: u64, validation: ValidationMode) -> Function {
    let options = OutOfSsaOptions::default();
    let engine = Engine::new(Ladder::retrying(options, validation, 0));
    let mut func = input(seed);
    EngineWorker::new().try_translate(&mut func, &engine).expect("healthy input translates");
    func
}

#[test]
fn fuel_and_deadline_failures_are_distinguishable_and_leave_the_worker_clean() {
    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let engine = Engine::new(OutOfSsaOptions::default());
    let mut worker = EngineWorker::new();
    let pristine = input(3);

    // The default engine runs no fixpoint (its liveness checker's
    // precomputation does not iterate), so even a zero budget translates.
    let dry = Limits { max_fixpoint_iters: Some(0), ..Limits::UNBOUNDED };
    let mut unfuelled = pristine.clone();
    worker.try_translate(&mut unfuelled, &engine.clone().with_limits(dry)).unwrap();

    // Fuel: a deterministic property of the function under its limits,
    // spent by the liveness sets solver.
    let sets = Engine::new(sets_options());
    let starved = Limits { max_fixpoint_iters: Some(1), ..Limits::UNBOUNDED };
    let mut victim = pristine.clone();
    let fuel_err = worker.try_translate(&mut victim, &sets.with_limits(starved)).unwrap_err();
    assert!(
        matches!(
            fuel_err,
            TranslateError::ResourceExhausted { resource: Resource::FixpointIterations, .. }
        ),
        "got {fuel_err:?}"
    );

    // Deadline: a property of the request — same function, same limits,
    // but an already-expired cancellation token.
    fuel::set_deadline(Some(Instant::now()));
    let mut victim = pristine.clone();
    let deadline_err = worker.try_translate(&mut victim, &engine).unwrap_err();
    fuel::set_deadline(None);
    assert!(
        matches!(deadline_err, TranslateError::DeadlineExceeded { .. }),
        "got {deadline_err:?}"
    );
    assert_ne!(fuel_err, deadline_err, "the two exhaustions must stay distinguishable");

    // Neither failure mode wedged the worker: with pressure lifted, the
    // same (quarantined, rebuilt) state translates the same input
    // bit-identically to a fresh worker.
    let mut healed = pristine.clone();
    worker.try_translate(&mut healed, &engine).expect("translates once pressure is lifted");
    let mut fresh = pristine.clone();
    EngineWorker::new().try_translate(&mut fresh, &engine).unwrap();
    assert_eq!(healed, fresh, "post-failure worker output diverged");
}

#[test]
fn fuel_exhaustion_through_the_service_is_typed_and_the_worker_is_recycled() {
    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let validation = ValidationMode::Structural;
    let expected = reference(3, validation);

    let service = TranslationService::start(ServiceConfig {
        workers: 1,
        options: sets_options(),
        validation,
        retries: 2,
        limits: Limits { max_fixpoint_iters: Some(1), ..Limits::UNBOUNDED },
        ..ServiceConfig::default()
    });
    // Every ladder rung enforces the same limits, so the whole ladder
    // fails with the *resource* error, not a deadline.
    let response = service.submit(input(3)).expect("admitted").wait();
    match &response.outcome {
        Err(ServiceError::Translate(TranslateError::ResourceExhausted {
            resource: Resource::FixpointIterations,
            ..
        })) => {}
        other => panic!("expected fixpoint exhaustion, got {other:?}"),
    }
    let returned = response.returned.expect("input handed back restored");
    assert_eq!(returned, input(3), "returned function must be the pristine input");
    let stats = service.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.deadline_exceeded, 0, "fuel exhaustion is not a deadline expiry");

    // A second service without the starved limits — same story, healthy.
    let service = TranslationService::start(ServiceConfig {
        workers: 1,
        validation,
        ..ServiceConfig::default()
    });
    let completed = service.submit(input(3)).expect("admitted").wait().outcome.unwrap();
    assert_eq!(completed.func, expected);
    service.shutdown();
}

/// The satellite regression: a deadline expiring *mid-translation* (forced
/// deterministically by a stall failpoint) fails typed through the whole
/// retry ladder, the worker is recycled rather than quarantined, and the
/// very same worker then translates the very same input bit-identically
/// once the pressure is gone — the pristine-clone retry path is intact.
#[cfg(feature = "failpoints")]
#[test]
fn deadline_expiry_leaves_the_pristine_retry_path_intact() {
    use std::time::Duration;

    use out_of_ssa::destruct::fault::failpoints;
    use out_of_ssa::destruct::TranslatePhase;

    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let validation = ValidationMode::Structural;
    let expected = reference(5, validation);

    let service = TranslationService::start(ServiceConfig {
        workers: 1,
        validation,
        retries: 2,
        ..ServiceConfig::default()
    });

    // Every coalesce entry stalls 200ms; the request has 40ms. The stall
    // is sliced and checks the cancellation token, so the deadline trips
    // mid-stall; the retry rungs start past the deadline and fail at their
    // first phase boundary — the final error is still the deadline.
    failpoints::configure_stall(failpoints::StallConfig {
        seed: 1,
        rate_per_mille: 1000,
        phase: Some(TranslatePhase::Coalesce),
        millis: 200,
    });
    let response = service
        .submit_with_deadline(input(5), Some(Duration::from_millis(40)))
        .expect("admitted")
        .wait();
    failpoints::clear_stall();
    match &response.outcome {
        Err(ServiceError::Translate(TranslateError::DeadlineExceeded { .. })) => {}
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    assert!(response.returned.is_some(), "input handed back restored");

    // Same service, same (recycled, not quarantined) worker, same input,
    // no stall, no deadline: completes bit-identically to a fresh engine.
    let completed =
        service.submit(input(5)).expect("admitted").wait().outcome.expect("pressure lifted");
    assert_eq!(completed.rung, 0);
    assert_eq!(completed.func, expected, "post-deadline worker output diverged");

    let stats = service.shutdown();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}
