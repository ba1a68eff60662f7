//! Deadline regressions. A request that runs out of *time*
//! (`DeadlineExceeded`, a property of the request) must surface as a typed
//! error distinct from a size limit (`ResourceExhausted`, a deterministic
//! property of the function under its `Limits`), and neither may poison the
//! pristine-snapshot retry path: the same worker must translate the same
//! input bit-identically once the pressure is lifted. The liveness sets
//! solver, the one analysis that iterates, must stop on a deadline between
//! its passes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use out_of_ssa::cfggen::{generate_ssa_function, GenConfig};
use out_of_ssa::destruct::{
    Engine, EngineWorker, Ladder, Limits, OutOfSsaOptions, Resource, TranslateError, ValidationMode,
};
use out_of_ssa::ir::Function;
use out_of_ssa::liveness::deadline::{self, Cancelled};
use out_of_ssa::liveness::{FunctionAnalyses, LivenessSets};
use out_of_ssa::service::{ServiceConfig, ServiceError, TranslationService};

/// The failpoint configuration (used by the gated test below) is
/// process-wide; every test in this binary serialises on this.
static SERIAL: Mutex<()> = Mutex::new(());

fn input(seed: u64) -> Function {
    generate_ssa_function(format!("dl_{seed}"), &GenConfig::default(), seed).0
}

fn reference(seed: u64, validation: ValidationMode) -> Function {
    let options = OutOfSsaOptions::default();
    let engine = Engine::new(Ladder::retrying(options, validation, 0));
    let mut func = input(seed);
    EngineWorker::new().try_translate(&mut func, &engine).expect("healthy input translates");
    func
}

#[test]
fn deadline_failure_is_typed_and_leaves_the_worker_clean() {
    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let engine = Engine::new(OutOfSsaOptions::default());
    let mut worker = EngineWorker::new();
    let pristine = input(3);

    // An already-expired cancellation token.
    deadline::set_deadline(Some(Instant::now()));
    let mut victim = pristine.clone();
    let err = worker.try_translate(&mut victim, &engine).unwrap_err();
    deadline::set_deadline(None);
    assert!(matches!(err, TranslateError::DeadlineExceeded { .. }), "got {err:?}");

    // The failure did not wedge the worker: with the deadline cleared, the
    // same (quarantined, rebuilt) state translates the same input
    // bit-identically to a fresh worker.
    let mut healed = pristine.clone();
    worker.try_translate(&mut healed, &engine).expect("translates once pressure is lifted");
    let mut fresh = pristine.clone();
    EngineWorker::new().try_translate(&mut fresh, &engine).unwrap();
    assert_eq!(healed, fresh, "post-failure worker output diverged");
}

#[test]
fn size_limit_exhaustion_through_the_service_is_typed_and_returns_the_input() {
    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let validation = ValidationMode::Structural;
    let expected = reference(3, validation);

    let service = TranslationService::start(ServiceConfig {
        workers: 1,
        validation,
        // Rejects every function before it translates, on every rung.
        limits: Limits { max_insts: Some(0), ..Limits::default() },
        ..ServiceConfig::default()
    });
    // Every ladder rung enforces the same limits, so the whole ladder
    // fails with the *resource* error, not a deadline.
    let response = service.submit(input(3)).expect("admitted").wait();
    match &response.outcome {
        Err(ServiceError::Translate(TranslateError::ResourceExhausted {
            resource: Resource::Instructions,
            ..
        })) => {}
        other => panic!("expected instruction-limit exhaustion, got {other:?}"),
    }
    let returned = response.returned.expect("input handed back restored");
    assert_eq!(returned, input(3), "returned function must be the pristine input");
    let stats = service.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.deadline_exceeded, 0, "a size limit is not a deadline expiry");

    // A second service without the limits — same story, healthy.
    let service = TranslationService::start(ServiceConfig {
        workers: 1,
        validation,
        ..ServiceConfig::default()
    });
    let completed = service.submit(input(3)).expect("admitted").wait().outcome.unwrap();
    assert_eq!(completed.func, expected);
    service.shutdown();
}

#[test]
fn an_expired_deadline_stops_the_liveness_sets_solver_between_passes() {
    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let func = input(3);
    let mut analyses = FunctionAnalyses::new();
    assert!(analyses.loops(&func).num_loops() > 0, "the solver must have a loop to iterate");

    // The CFG is built; the deadline can only trip inside the solver, the
    // one analysis that checks it.
    deadline::set_deadline(Some(Instant::now()));
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        analyses.liveness_sets(&func);
    }));
    deadline::set_deadline(None);
    let payload = unwound.expect_err("an expired deadline stops the solver");
    assert!(payload.downcast_ref::<Cancelled>().is_some(), "typed cancellation payload");
    let counts = analyses.counts();
    assert_eq!(counts.liveness_sets, 1, "the solver started");
    assert_eq!(counts.ir.cfg, 1, "the CFG was not recomputed");

    // The cache the unwind left behind serves correct sets once the
    // deadline is cleared and the cache invalidated.
    analyses.invalidate_cfg();
    let sets = analyses.liveness_sets(&func);
    let reference = LivenessSets::of(&func);
    for block in func.blocks() {
        assert_eq!(sets.ordered_live_in(block), reference.ordered_live_in(block), "{block}");
        assert_eq!(sets.ordered_live_out(block), reference.ordered_live_out(block), "{block}");
    }
}

/// A deadline expiring *mid-translation* (forced deterministically by a
/// stall failpoint) fails typed through the whole retry ladder and
/// quarantines the worker's caches like any failed attempt, and the very
/// same worker then translates the very same input bit-identically once
/// the pressure is gone — the pristine-clone retry path is intact.
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

    // Same service, same (quarantined, rebuilt) worker, same input, no
    // stall, no deadline: completes bit-identically to a fresh engine.
    let completed =
        service.submit(input(5)).expect("admitted").wait().outcome.expect("pressure lifted");
    assert_eq!(completed.rung, 0);
    assert_eq!(completed.func, expected, "post-deadline worker output diverged");

    let stats = service.shutdown();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}
