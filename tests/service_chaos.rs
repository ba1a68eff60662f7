//! Chaos campaigns against the translation service (`--features
//! failpoints`): deterministic seeded stall and panic injection prove the
//! overload model end to end — every accepted request completes or fails
//! *typed*, survivors are bit-identical to a fault-free run, and deadlines
//! bound even a wedged worker.
//!
//! The injectors are process-global, so this lives in its own test binary
//! and the campaigns serialise on a local mutex.
#![cfg(feature = "failpoints")]

use std::sync::Mutex;
use std::time::Duration;

use out_of_ssa::cfggen::{generate_ssa_function, GenConfig};
use out_of_ssa::destruct::fault::failpoints;
use out_of_ssa::destruct::{
    Engine, EngineWorker, Ladder, OutOfSsaOptions, TranslateError, TranslatePhase, ValidationMode,
};
use out_of_ssa::ir::Function;
use out_of_ssa::service::{ServiceConfig, ServiceError, TranslationService};

/// Serialises the campaigns: the failpoint configuration is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

const CORPUS: u64 = 24;

fn input(seed: u64) -> Function {
    generate_ssa_function(format!("chaos_{seed}"), &GenConfig::default(), seed).0
}

/// Fault-free reference translation under `options` + `validation` (what
/// the service's rung of that configuration must reproduce bit-for-bit).
fn reference(seed: u64, options: &OutOfSsaOptions, validation: ValidationMode) -> Function {
    let engine = Engine::new(Ladder::retrying(options.clone(), validation, 0));
    let mut func = input(seed);
    EngineWorker::new().try_translate(&mut func, &engine).expect("healthy input translates");
    func
}

/// The seeds whose function would stall at *some* phase under the armed
/// campaign (precomputed from the pure site predicate).
fn stalled_seeds() -> Vec<u64> {
    (0..CORPUS)
        .filter(|seed| {
            let name = format!("chaos_{seed}");
            TranslatePhase::ALL.iter().any(|&phase| failpoints::should_stall(&name, phase))
        })
        .collect()
}

#[test]
fn stalls_with_tight_deadlines_fail_typed_and_never_corrupt_survivors() {
    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let options = OutOfSsaOptions::default();
    let validation = ValidationMode::Structural;
    let expected: Vec<_> = (0..CORPUS).map(|s| reference(s, &options, validation)).collect();

    failpoints::configure_stall(failpoints::StallConfig {
        seed: 7,
        rate_per_mille: 70,
        phase: None,
        millis: 120,
    });
    let stalled = stalled_seeds();
    assert!(!stalled.is_empty(), "campaign selects at least one stall victim");
    assert!(stalled.len() < CORPUS as usize, "campaign leaves healthy requests too");

    // Deadline far below the stall: a stalled rung cannot finish, and the
    // cancellation token trips mid-stall, so every stalled request must
    // fail typed (in the stall, or expired in the queue behind one).
    let service = TranslationService::start(ServiceConfig {
        workers: 2,
        queue_capacity: CORPUS as usize,
        validation,
        ..ServiceConfig::default()
    });
    let deadline = Some(Duration::from_millis(40));
    let tickets: Vec<_> = (0..CORPUS)
        .map(|seed| service.submit_with_deadline(input(seed), deadline).expect("admitted"))
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    failpoints::clear_stall();

    for (seed, response) in responses.iter().enumerate() {
        match &response.outcome {
            Ok(completed) => {
                // A survivor is always full-fidelity rung 0 here (a retry
                // rung would have started past the expired deadline), and
                // bit-identical to the fault-free engine.
                assert_eq!(completed.rung, 0, "request {seed}");
                assert_eq!(completed.func, expected[seed], "request {seed} corrupted");
                assert!(
                    !stalled.contains(&(seed as u64)),
                    "request {seed} stalled 120ms yet beat a 40ms deadline"
                );
            }
            Err(ServiceError::ExpiredInQueue) => {
                assert!(response.returned.is_some(), "expired input handed back");
            }
            Err(ServiceError::Translate(error)) => {
                assert!(
                    matches!(error, TranslateError::DeadlineExceeded { .. }),
                    "request {seed}: stalls under deadline surface as deadline expiry, got {error}"
                );
                assert!(response.returned.is_some(), "failed input handed back restored");
            }
            Err(other) => panic!("request {seed}: unexpected outcome {other}"),
        }
    }
    // Every stall victim failed typed; none hung, none delivered garbage.
    for &seed in &stalled {
        assert!(
            responses[seed as usize].outcome.is_err(),
            "stalled request {seed} cannot complete under a 40ms deadline"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.accepted, CORPUS);
    assert_eq!(stats.resolved(), CORPUS);
    assert!(stats.deadline_exceeded + stats.expired_in_queue >= stalled.len() as u64);
    // The watchdogs bound tail latency: nothing waited out the full stall
    // pipeline (histogram p99 is a conservative upper bound).
    assert!(stats.total.quantile(0.99) < 5.0, "p99 {}", stats.total.quantile(0.99));
}

#[test]
fn stalls_with_generous_deadlines_only_delay_and_every_output_is_identical() {
    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let options = OutOfSsaOptions::default();
    let validation = ValidationMode::Structural;
    let expected: Vec<_> = (0..CORPUS).map(|s| reference(s, &options, validation)).collect();

    failpoints::configure_stall(failpoints::StallConfig {
        seed: 7,
        rate_per_mille: 70,
        phase: None,
        millis: 120,
    });
    assert!(!stalled_seeds().is_empty());

    let service = TranslationService::start(ServiceConfig {
        workers: 2,
        queue_capacity: CORPUS as usize,
        validation,
        ..ServiceConfig::default()
    });
    let deadline = Some(Duration::from_secs(30));
    let tickets: Vec<_> = (0..CORPUS)
        .map(|seed| service.submit_with_deadline(input(seed), deadline).expect("admitted"))
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    failpoints::clear_stall();

    // A stall under a generous deadline is pure delay: every request
    // completes on rung 0 and every output is bit-identical.
    for (seed, response) in responses.iter().enumerate() {
        let completed = response.outcome.as_ref().expect("stall is delay, not failure");
        assert_eq!(completed.rung, 0, "request {seed}");
        assert_eq!(completed.func, expected[seed], "request {seed} corrupted by a stall");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, CORPUS);
    assert_eq!(stats.failed + stats.deadline_exceeded + stats.expired_in_queue, 0);
    assert!(stats.total.quantile(0.99) < 10.0);
}

#[test]
fn injected_panics_are_healed_by_the_ladder_and_recoveries_are_conservative() {
    let _guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let options = OutOfSsaOptions::default();
    let validation = ValidationMode::Structural;
    let full: Vec<_> = (0..CORPUS).map(|s| reference(s, &options, validation)).collect();
    // Rung 1 of the service ladder: conservative options, validation
    // dropped a tier (Structural → Off).
    let conservative: Vec<_> = (0..CORPUS)
        .map(|s| reference(s, &OutOfSsaOptions::conservative_fallback(), ValidationMode::Off))
        .collect();

    failpoints::configure(failpoints::FailpointConfig {
        seed: 11,
        rate_per_mille: 400,
        phase: Some(TranslatePhase::Coalesce),
    });
    let poisoned: Vec<u64> = (0..CORPUS)
        .filter(|seed| failpoints::should_fail(&format!("chaos_{seed}"), TranslatePhase::Coalesce))
        .collect();
    assert!(!poisoned.is_empty() && poisoned.len() < CORPUS as usize);

    failpoints::silence_injected_panics();
    let service = TranslationService::start(ServiceConfig {
        workers: 2,
        queue_capacity: CORPUS as usize,
        validation,
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> =
        (0..CORPUS).map(|seed| service.submit(input(seed)).expect("admitted")).collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    failpoints::clear();

    for (seed, response) in responses.iter().enumerate() {
        let completed = response.outcome.as_ref().expect("the ladder heals injected panics");
        if poisoned.contains(&(seed as u64)) {
            // Injection fires on rung 0 only; the conservative retry rung
            // healed it and its output matches the conservative reference.
            assert_eq!(completed.rung, 1, "request {seed}");
            assert_eq!(completed.func, conservative[seed], "request {seed}");
        } else {
            assert_eq!(completed.rung, 0, "request {seed}");
            assert_eq!(completed.func, full[seed], "request {seed}");
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, CORPUS);
    assert_eq!(stats.recovered, poisoned.len() as u64);
}
