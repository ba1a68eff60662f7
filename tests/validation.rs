//! Self-checking translation at integration level: the validating engines
//! must be bit-identical to the pass-through engines on healthy corpora, and
//! — under `--features failpoints` — the differential validator must catch
//! every injected output corruption (the paper's lost-copy and swap bug
//! families) while the recovery ladder heals every poisoned function on the
//! conservative retry.

use out_of_ssa::cfggen::{generate_function, generate_ssa_function, GenConfig};
use out_of_ssa::destruct::{Engine, Ladder, OutOfSsaOptions, RecoveryOutcome, ValidationMode};
use out_of_ssa::ir::Function;
use out_of_ssa::Pipeline;
use std::sync::{Mutex, MutexGuard};

/// The failpoint injectors are process-global: an armed campaign would
/// poison any test running beside it, so every test in this binary
/// serialises on this lock.
fn serialised() -> MutexGuard<'static, ()> {
    static CAMPAIGN: Mutex<()> = Mutex::new(());
    CAMPAIGN.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small corpus of distinct healthy SSA functions.
fn corpus(n: usize) -> Vec<Function> {
    (0..n as u64)
        .map(|seed| generate_ssa_function(format!("sc{seed}"), &GenConfig::small(), seed).0)
        .collect()
}

/// A `threads`-worker engine walking `options` at `validation` with
/// `retries` conservative retries.
fn checked(
    options: &OutOfSsaOptions,
    validation: ValidationMode,
    retries: u32,
    threads: usize,
) -> Engine {
    Engine::new(Ladder::retrying(options.clone(), validation, retries)).with_threads(threads)
}

#[test]
fn validating_engines_match_passthrough_on_a_healthy_corpus() {
    let _guard = serialised();
    let options = OutOfSsaOptions::default();
    let mut reference = corpus(12);
    let reference_stats = checked(&options, ValidationMode::Off, 0, 1).try_run(&mut reference);
    assert_eq!(reference_stats.num_errors(), 0);

    for mode in [ValidationMode::Structural, ValidationMode::Differential] {
        for threads in [1, 3] {
            let mut outputs = corpus(12);
            let stats = checked(&options, mode, 1, threads).try_run(&mut outputs);
            assert_eq!(stats.num_errors(), 0, "{mode:?}/{threads}");
            assert_eq!(stats.validation_failures(), 0, "{mode:?}/{threads}");
            assert_eq!(stats.recovered_functions(), 0, "{mode:?}/{threads}");
            assert_eq!(outputs, reference, "{mode:?}/{threads}: outputs diverged");
            for (result, expected) in stats.results.iter().zip(&reference_stats.results) {
                let (stats, expected) = (result.as_ref().unwrap(), expected.as_ref().unwrap());
                assert_eq!(stats.recovery, RecoveryOutcome::Clean);
                assert_eq!(stats, expected, "{mode:?}/{threads}: stats diverged");
            }
        }
    }
}

#[test]
fn validating_pipeline_matches_plain_runs_on_healthy_input() {
    let _guard = serialised();
    // The pipeline ingests pre-SSA (virtual-register) code.
    let func = generate_function("sc_pipe", &GenConfig::small(), 17);

    let mut plain = func.clone();
    let report = Pipeline::new(OutOfSsaOptions::default()).run(&mut plain);

    let mut checked = func.clone();
    let options = OutOfSsaOptions::default();
    let mut pipeline = Pipeline::new(Ladder::retrying(options, ValidationMode::Differential, 1));
    let checked_report = pipeline.try_run(&mut checked).unwrap();
    assert_eq!(checked, plain);
    assert_eq!(checked_report.translation, report.translation);
    assert_eq!(checked_report.translation.recovery, RecoveryOutcome::Clean);
}

/// Corruption and recovery campaigns — the `failpoints` feature only.
#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use out_of_ssa::destruct::fault::failpoints::{
        clear, clear_corruption, configure, configure_corruption, should_corrupt, should_fail,
        silence_injected_panics, CorruptionConfig, CorruptionKind, FailpointConfig,
    };
    use out_of_ssa::destruct::{validate_structural, TranslateError, TranslatePhase};

    const N: usize = 16;

    /// Campaign parameters, tuned (by sweeping seeds against this corpus) so
    /// that every function the campaign structurally corrupts also
    /// *behaviourally* diverges on the differential argument sets — i.e. the
    /// injected miscompiles are real lost-copy/swap bugs, not dead-code
    /// perturbations the validator rightly accepts.
    fn campaigns() -> [CorruptionConfig; 2] {
        [
            CorruptionConfig { seed: 1, rate_per_mille: 400, kind: CorruptionKind::DropCopy },
            // Swappable windows (two *dependent* adjacent copies) are rare in
            // this corpus; select every function and let the window predicate
            // pick out the ones where the swap bug can exist at all.
            CorruptionConfig { seed: 0, rate_per_mille: 1000, kind: CorruptionKind::SwapCopies },
        ]
    }

    /// Translates the corpus fault-free (injectors must be disarmed).
    fn fault_free(options: &OutOfSsaOptions) -> Vec<Function> {
        let mut funcs = corpus(N);
        let stats = checked(options, ValidationMode::Off, 0, 1).try_run(&mut funcs);
        assert_eq!(stats.num_errors(), 0);
        funcs
    }

    #[test]
    fn corruption_is_silent_without_validation_and_caught_exactly_by_differential() {
        let _guard = serialised();
        let options = OutOfSsaOptions::default();
        clear();
        clear_corruption();
        let reference = fault_free(&options);

        for config in campaigns() {
            let kind = config.kind;
            configure_corruption(config);

            // Without validation the corruption is a *silent* miscompile:
            // the engine reports zero errors while a nonempty strict subset
            // of the corpus is mangled — the paper's motivating failure mode.
            let mut victims = corpus(N);
            let silent = checked(&options, ValidationMode::Off, 0, 1).try_run(&mut victims);
            assert_eq!(silent.num_errors(), 0, "{kind:?}: corruption must not crash");
            let corrupted: Vec<usize> = (0..N).filter(|&i| victims[i] != reference[i]).collect();
            assert!(
                !corrupted.is_empty() && corrupted.len() < N,
                "{kind:?}: campaign must corrupt a strict subset, hit {corrupted:?}"
            );
            for &i in &corrupted {
                assert!(should_corrupt(&format!("sc{i}"), kind), "{kind:?}: unpredicted hit {i}");
            }

            // With differential validation, exactly the corrupted functions
            // are rejected as ValidationFailed at the Validate phase, and
            // every healthy neighbour stays bit-identical to the fault-free
            // run.
            for threads in [1, 3] {
                let mut outputs = corpus(N);
                let engine = checked(&options, ValidationMode::Differential, 0, threads);
                let stats = engine.try_run(&mut outputs);
                let caught: Vec<usize> = stats.errors().map(|(i, _)| i).collect();
                assert_eq!(caught, corrupted, "{kind:?}/{threads}: caught set differs");
                assert_eq!(stats.validation_failures(), corrupted.len(), "{kind:?}/{threads}");
                for (i, error) in stats.errors() {
                    assert!(
                        matches!(error, TranslateError::ValidationFailed { .. }),
                        "{kind:?}/{threads}: function {i}: {error:?}"
                    );
                    assert_eq!(error.phase(), Some(TranslatePhase::Validate));
                }
                for i in 0..N {
                    if !corrupted.contains(&i) {
                        assert_eq!(outputs[i], reference[i], "{kind:?}/{threads}: neighbour {i}");
                    }
                }
            }
            clear_corruption();
        }
    }

    #[test]
    fn structural_validation_catches_dropped_copies_without_the_interpreter() {
        let _guard = serialised();
        let options = OutOfSsaOptions::default();
        clear();
        clear_corruption();
        let reference = fault_free(&options);

        // Corrupt as many functions as possible so the structural catch rate
        // is measured across every drop-corruptible copy window.
        let config =
            CorruptionConfig { seed: 1, rate_per_mille: 1000, kind: CorruptionKind::DropCopy };
        configure_corruption(config);
        let mut victims = corpus(N);
        let silent = checked(&options, ValidationMode::Off, 0, 1).try_run(&mut victims);
        assert_eq!(silent.num_errors(), 0);
        let corrupted: Vec<usize> = (0..N).filter(|&i| victims[i] != reference[i]).collect();
        assert!(!corrupted.is_empty(), "campaign must corrupt something");

        // The must-define data flow predicts exactly which mangled outputs
        // the upgraded Structural mode catches: those where the dropped copy
        // leaves a use not defined on every path. (A drop shadowed by
        // another reaching def stays structurally healthy — only the
        // differential oracle can see it — hence "most", not "all".)
        let expected_caught: Vec<usize> = corrupted
            .iter()
            .copied()
            .filter(|&i| validate_structural(&victims[i]).is_err())
            .collect();
        assert!(
            !expected_caught.is_empty(),
            "the structural upgrade must catch dropped copies in this campaign"
        );

        for threads in [1, 3] {
            let mut outputs = corpus(N);
            let stats =
                checked(&options, ValidationMode::Structural, 0, threads).try_run(&mut outputs);
            let caught: Vec<usize> = stats.errors().map(|(i, _)| i).collect();
            assert_eq!(caught, expected_caught, "threads={threads}: caught set differs");
            for (i, error) in stats.errors() {
                assert!(
                    matches!(error, TranslateError::ValidationFailed { .. }),
                    "threads={threads}: function {i}: {error:?}"
                );
            }
            // Functions the structural check cannot see stay silently
            // corrupted (that residue is Differential's job); healthy
            // neighbours stay bit-identical.
            for i in 0..N {
                if !corrupted.contains(&i) {
                    assert_eq!(outputs[i], reference[i], "threads={threads}: neighbour {i}");
                }
            }
        }
        clear_corruption();
    }

    #[test]
    fn conservative_retry_heals_every_corrupted_function() {
        let _guard = serialised();
        let options = OutOfSsaOptions::default();
        clear();
        clear_corruption();
        let reference = fault_free(&options);
        let conservative = fault_free(&OutOfSsaOptions::conservative_fallback());

        for config in campaigns() {
            let kind = config.kind;

            // The corrupted subset, observed through the unvalidating engine.
            configure_corruption(config);
            let mut victims = corpus(N);
            checked(&options, ValidationMode::Off, 0, 1).try_run(&mut victims);
            let corrupted: Vec<usize> = (0..N).filter(|&i| victims[i] != reference[i]).collect();
            assert!(!corrupted.is_empty(), "{kind:?}: campaign must corrupt something");

            // Injected corruption models a transient first-attempt fault:
            // with one conservative retry, every poisoned function heals.
            for threads in [1, 3] {
                let mut healed = corpus(N);
                let engine = checked(&options, ValidationMode::Differential, 1, threads);
                let stats = engine.try_run(&mut healed);
                assert_eq!(stats.num_errors(), 0, "{kind:?}/{threads}: retry must heal all");
                assert_eq!(stats.recovered_functions(), corrupted.len(), "{kind:?}/{threads}");
                assert_eq!(stats.validation_failures(), corrupted.len(), "{kind:?}/{threads}");
                for i in 0..N {
                    let fn_stats = stats.results[i].as_ref().unwrap();
                    if corrupted.contains(&i) {
                        // Healed on the conservative configuration: the
                        // output is bit-identical to a fault-free run of
                        // that configuration.
                        assert_eq!(
                            fn_stats.recovery,
                            RecoveryOutcome::Recovered { attempt: 2 },
                            "{kind:?}/{threads}: function {i}"
                        );
                        assert_eq!(fn_stats.validation_failures, 1);
                        assert_eq!(healed[i], conservative[i], "{kind:?}/{threads}: survivor {i}");
                    } else {
                        assert_eq!(fn_stats.recovery, RecoveryOutcome::Clean);
                        assert_eq!(fn_stats.validation_failures, 0);
                        assert_eq!(healed[i], reference[i], "{kind:?}/{threads}: neighbour {i}");
                    }
                }
            }
            clear_corruption();
        }
    }

    #[test]
    fn injected_panics_recover_on_the_conservative_retry() {
        let _guard = serialised();
        silence_injected_panics();
        let options = OutOfSsaOptions::default();
        clear();
        clear_corruption();
        let reference = fault_free(&options);
        let conservative = fault_free(&OutOfSsaOptions::conservative_fallback());

        // The recovery ladder fires on *any* TranslateError: the same panic
        // campaign the fault-injection suite runs, now with one retry.
        configure(FailpointConfig {
            seed: 0xB0155,
            rate_per_mille: 350,
            phase: Some(TranslatePhase::Coalesce),
        });
        let poisoned: Vec<usize> =
            (0..N).filter(|&i| should_fail(&format!("sc{i}"), TranslatePhase::Coalesce)).collect();
        assert!(
            !poisoned.is_empty() && poisoned.len() < N,
            "campaign must poison a strict subset, hit {poisoned:?}"
        );

        for threads in [1, 3] {
            let mut healed = corpus(N);
            let stats = checked(&options, ValidationMode::Off, 1, threads).try_run(&mut healed);
            assert_eq!(stats.num_errors(), 0, "threads={threads}: retry must heal all");
            assert_eq!(stats.recovered_functions(), poisoned.len(), "threads={threads}");
            for i in 0..N {
                let fn_stats = stats.results[i].as_ref().unwrap();
                if poisoned.contains(&i) {
                    assert_eq!(
                        fn_stats.recovery,
                        RecoveryOutcome::Recovered { attempt: 2 },
                        "threads={threads}: function {i}"
                    );
                    assert_eq!(healed[i], conservative[i], "threads={threads}: survivor {i}");
                } else {
                    assert_eq!(fn_stats.recovery, RecoveryOutcome::Clean);
                    assert_eq!(healed[i], reference[i], "threads={threads}: neighbour {i}");
                }
            }
        }
        clear();
    }

    #[test]
    fn pipeline_rejects_and_then_recovers_a_corrupted_function() {
        let _guard = serialised();
        clear();
        clear_corruption();
        let options = OutOfSsaOptions::default();

        // Find a pre-SSA function whose pipeline translation emits at least
        // one sequentialized copy window — i.e. where the drop-copy campaign
        // can actually mangle the output.
        configure_corruption(CorruptionConfig {
            seed: 1,
            rate_per_mille: 1000,
            kind: CorruptionKind::DropCopy,
        });
        let victim = (0..32u64)
            .map(|seed| generate_function(format!("pc{seed}"), &GenConfig::small(), seed))
            .find(|func| {
                clear_corruption();
                let mut healthy = func.clone();
                Pipeline::new(options.clone()).run(&mut healthy);
                configure_corruption(CorruptionConfig {
                    seed: 1,
                    rate_per_mille: 1000,
                    kind: CorruptionKind::DropCopy,
                });
                let mut mangled = func.clone();
                Pipeline::new(options.clone()).run(&mut mangled);
                mangled != healthy
            })
            .expect("some generated function has a corruptible copy window");

        // Fault-free references, computed with the injector disarmed.
        clear_corruption();
        let mut healthy = victim.clone();
        Pipeline::new(options.clone()).run(&mut healthy);
        let mut conservative = victim.clone();
        Pipeline::new(OutOfSsaOptions::conservative_fallback()).run(&mut conservative);

        configure_corruption(CorruptionConfig {
            seed: 1,
            rate_per_mille: 1000,
            kind: CorruptionKind::DropCopy,
        });

        // Without recovery, the differential validator rejects the run.
        let differential =
            |retries| Ladder::retrying(options.clone(), ValidationMode::Differential, retries);
        let mut pipeline = Pipeline::new(differential(0));
        let mut func = victim.clone();
        let err = pipeline.try_run(&mut func).unwrap_err();
        assert!(matches!(err, TranslateError::ValidationFailed { .. }), "{err:?}");
        assert_eq!(err.phase(), Some(TranslatePhase::Validate));

        // With one retry, the same pipeline object heals the function on the
        // conservative configuration.
        let mut pipeline = Pipeline::new(differential(1));
        let mut func = victim.clone();
        let report = pipeline.try_run(&mut func).unwrap();
        assert_eq!(report.translation.recovery, RecoveryOutcome::Recovered { attempt: 2 });
        assert_eq!(report.translation.validation_failures, 1);
        assert_eq!(func, conservative, "recovered output must match the conservative run");
        clear_corruption();

        // And with the injector disarmed, the same pipeline translates the
        // victim cleanly again (its caches were quarantined, not wedged).
        let mut func = victim.clone();
        let report = pipeline.try_run(&mut func).unwrap();
        assert_eq!(report.translation.recovery, RecoveryOutcome::Clean);
        assert_eq!(func, healthy);
    }
}
