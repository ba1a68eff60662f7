//! Fault isolation at integration level: the checked engine entry points
//! must contain per-function failures — malformed inputs, exceeded resource
//! limits, injected panics — while translating every healthy neighbour
//! bit-identically to a fault-free run.
//!
//! The injection campaigns themselves live in the `failpoints` module at the
//! bottom, compiled only under `--features failpoints` (the fault-injection
//! CI job); the limit/verifier tests here run in every configuration.

use out_of_ssa::cfggen::{generate_function, generate_ssa_function, GenConfig};
use out_of_ssa::destruct::{
    Engine, EngineWorker, Limits, OutOfSsaOptions, Resource, TranslateError, TranslatePhase,
};
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
        .map(|seed| generate_ssa_function(format!("fi{seed}"), &GenConfig::small(), seed).0)
        .collect()
}

#[test]
fn isolated_engine_matches_the_plain_engine_on_a_healthy_corpus() {
    let _guard = serialised();
    let engine = Engine::new(OutOfSsaOptions::default());
    let mut plain = corpus(12);
    let plain_stats = engine.run(&mut plain);

    let mut isolated = corpus(12);
    let stats = engine.try_run(&mut isolated);
    assert_eq!(stats.num_errors(), 0);
    assert_eq!(isolated, plain);
    for (result, expected) in stats.results.iter().zip(&plain_stats.per_function) {
        assert_eq!(result.as_ref().unwrap(), expected);
    }
}

#[test]
fn size_limits_reject_only_the_oversized_functions() {
    let _guard = serialised();
    let engine = Engine::new(OutOfSsaOptions::default());
    let mut plain = corpus(8);
    engine.run(&mut plain);

    // Pick a bound between the smallest and largest function so the corpus
    // splits into both accepted and rejected functions.
    let sizes: Vec<u64> = corpus(8).iter().map(|f| f.num_insts() as u64).collect();
    let limit = (sizes.iter().min().unwrap() + sizes.iter().max().unwrap()) / 2;
    assert!(sizes.iter().any(|&s| s > limit) && sizes.iter().any(|&s| s <= limit));

    let mut bounded = corpus(8);
    let limits = Limits { max_insts: Some(limit), ..Limits::default() };
    let stats = engine.with_limits(limits).try_run(&mut bounded);
    for (i, (result, &size)) in stats.results.iter().zip(&sizes).enumerate() {
        if size > limit {
            // Rejected up front: the function is left untouched (still has
            // its φs) and the error carries the observed size.
            assert_eq!(
                result.as_ref().unwrap_err(),
                &TranslateError::ResourceExhausted {
                    resource: Resource::Instructions,
                    limit,
                    observed: size,
                }
            );
        } else {
            // Accepted: bit-identical to the fault-free run.
            assert!(result.is_ok());
            assert_eq!(bounded[i], plain[i], "healthy function {i} diverged");
        }
    }
}

#[test]
fn malformed_input_is_reported_as_a_verify_error() {
    let _guard = serialised();
    // A *pre-SSA* function (mutable virtual registers, multiple definitions
    // per value) is structurally fine but violates the SSA invariants the
    // translation engine's contract requires.
    let mut pre_ssa = generate_function("malformed", &GenConfig::small(), 1);
    let engine = Engine::new(OutOfSsaOptions::default());
    let err = EngineWorker::new().try_translate(&mut pre_ssa, &engine).unwrap_err();
    let TranslateError::Malformed { phase, detail } = err else {
        panic!("expected Malformed, got {err:?}");
    };
    assert_eq!(phase, TranslatePhase::Verify);
    assert!(!detail.is_empty());
}

#[test]
fn a_phi_in_the_entry_block_is_reported_as_a_verify_error() {
    use out_of_ssa::interp::{InterpError, Interpreter};
    use out_of_ssa::ir::builder::FunctionBuilder;
    use out_of_ssa::ir::BinaryOp;
    let _guard = serialised();
    // entry: v0 = φ(); v1 = param 0; v2 = add v0, v1; return v2
    let mut b = FunctionBuilder::new("entry_phi", 1);
    let entry = b.create_block();
    b.set_entry(entry);
    b.switch_to_block(entry);
    let phi = b.phi(vec![]);
    let x = b.param(0);
    let sum = b.binary(BinaryOp::Add, phi, x);
    b.ret(Some(sum));
    let mut func = b.finish();
    assert_eq!(Interpreter::new().run(&func, &[1]).unwrap_err(), InterpError::PhiInEntry(entry));

    // Translated, the φ would vanish and leave a read of an undefined value.
    let engine = Engine::new(OutOfSsaOptions::default());
    let err = EngineWorker::new().try_translate(&mut func, &engine).unwrap_err();
    let TranslateError::Malformed { phase, detail } = err else {
        panic!("expected Malformed, got {err:?}");
    };
    assert_eq!(phase, TranslatePhase::Verify);
    assert_eq!(detail, "bb0/inst0: phi in the entry block");
}

#[test]
fn a_poisoned_function_never_affects_its_corpus_neighbours() {
    let _guard = serialised();
    let engine = Engine::new(OutOfSsaOptions::default());
    let mut plain = corpus(6);
    engine.run(&mut plain);

    // Swap one healthy function for a malformed (pre-SSA) one and run both
    // the serial and a two-worker checked translation.
    for threads in [1, 2] {
        let mut poisoned = corpus(6);
        poisoned[2] = generate_function("fi2", &GenConfig::small(), 2);
        let stats = engine.clone().with_threads(threads).try_run(&mut poisoned);
        assert_eq!(stats.num_errors(), 1);
        let (index, error) = stats.errors().next().unwrap();
        assert_eq!(index, 2);
        assert_eq!(error.phase(), Some(TranslatePhase::Verify));
        for (i, func) in poisoned.iter().enumerate() {
            if i != 2 {
                assert_eq!(func, &plain[i], "threads={threads}: neighbour {i} diverged");
            }
        }
    }
}

#[test]
fn pooled_streaming_discards_the_poisoned_slot_and_keeps_neighbours_identical() {
    use out_of_ssa::cfggen::{generate_function_into, generate_ssa_function_into};
    use out_of_ssa::ir::FunctionPool;
    let _guard = serialised();

    let engine = Engine::new(OutOfSsaOptions::default());
    let mut plain = corpus(6);
    engine.run(&mut plain);

    // A pooled source that hands out function 2 as a malformed (pre-SSA)
    // function, built into recycled pool slots like every healthy neighbour.
    let mut worker = EngineWorker::new();
    let mut next = 0u64;
    let mut source = |pool: &mut FunctionPool| -> Option<Function> {
        if next == 6 {
            return None;
        }
        let seed = next;
        next += 1;
        let slot = pool.checkout();
        if seed == 2 {
            Some(generate_function_into(slot, format!("fi{seed}"), &GenConfig::small(), seed))
        } else {
            Some(generate_ssa_function_into(slot, format!("fi{seed}"), &GenConfig::small(), seed).0)
        }
    };

    let mut failures = Vec::new();
    let stats = engine.try_run_stream(&mut source, &mut worker, |index, result| match result {
        Ok(func) => {
            assert_eq!(func, &plain[index], "survivor {index} diverged from fault-free run");
        }
        Err(error) => failures.push((index, error.phase())),
    });
    assert_eq!(stats.num_errors(), 1);
    assert_eq!(failures, vec![(2, Some(TranslatePhase::Verify))]);

    // The quarantined slot is discarded, never recycled: its replacement is
    // freshly allocated, so of six checkouts only four can come from the
    // free list (the first of the run and the first after the discard miss).
    let pool_stats = worker.pool.stats();
    assert_eq!(pool_stats.checkouts, 6);
    assert_eq!(pool_stats.retired, 5, "five healthy functions retired");
    assert_eq!(pool_stats.discarded, 1, "the poisoned slot was discarded");
    assert_eq!(pool_stats.recycled, 4, "discarded storage never re-enters the free list");
    assert_eq!(worker.pool.free_len(), 1);
}

#[test]
fn pipeline_try_run_matches_run_and_contains_failures() {
    let _guard = serialised();
    // Healthy input: try_run is bit-identical to run.
    let func = generate_function("plumb", &GenConfig::small(), 5);
    let mut via_run = func.clone();
    let report = Pipeline::new(OutOfSsaOptions::default()).run(&mut via_run);
    let mut via_try = func.clone();
    let mut pipeline = Pipeline::new(OutOfSsaOptions::default());
    let try_report = pipeline.try_run(&mut via_try).unwrap();
    assert_eq!(via_try, via_run);
    assert_eq!(try_report.translation, report.translation);

    // Structurally broken input (a block without a terminator) is rejected
    // at Verify, and the same pipeline object keeps translating healthy
    // functions identically afterwards (its caches were quarantined).
    let mut builder = out_of_ssa::ir::builder::FunctionBuilder::new("broken", 0);
    let entry = builder.create_block();
    builder.set_entry(entry);
    builder.switch_to_block(entry);
    let v = builder.declare_value();
    builder.iconst_to(v, 1);
    let mut broken = builder.finish();
    let err = pipeline.try_run(&mut broken).unwrap_err();
    assert_eq!(err.phase(), Some(TranslatePhase::Verify));

    let mut after = func.clone();
    pipeline.try_run(&mut after).unwrap();
    assert_eq!(after, via_run);

    // An oversized input trips the configured limit.
    let limit = func.num_insts() as u64 - 1;
    let mut pipeline = Pipeline::new(OutOfSsaOptions::default())
        .with_limits(Limits { max_insts: Some(limit), ..Limits::default() });
    let mut big = func.clone();
    let err = pipeline.try_run(&mut big).unwrap_err();
    assert_eq!(
        err,
        TranslateError::ResourceExhausted {
            resource: Resource::Instructions,
            limit,
            observed: limit + 1,
        }
    );
}

/// Deterministic injection campaigns — the `failpoints` feature only.
#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use out_of_ssa::destruct::fault::failpoints::{
        clear, configure, should_fail, silence_injected_panics, FailpointConfig,
    };

    const SEED: u64 = 0xB0155;
    const RATE: u32 = 350;

    fn armed() -> FailpointConfig {
        FailpointConfig { seed: SEED, rate_per_mille: RATE, phase: Some(TranslatePhase::Coalesce) }
    }

    fn engine(threads: usize) -> Engine {
        Engine::new(OutOfSsaOptions::default()).with_threads(threads)
    }

    #[test]
    fn injected_faults_poison_exactly_the_predicted_subset() {
        let _guard = serialised();
        silence_injected_panics();

        // Fault-free reference run.
        clear();
        let mut reference = corpus(16);
        let reference_stats = engine(1).try_run(&mut reference);
        assert_eq!(reference_stats.num_errors(), 0);

        // The poisoned subset is a pure function of (seed, name, phase):
        // precompute it, then demand the engine reports exactly that subset.
        configure(armed());
        let predicted: Vec<bool> =
            corpus(16).iter().map(|f| should_fail(&f.name, TranslatePhase::Coalesce)).collect();
        let k = predicted.iter().filter(|&&p| p).count();
        assert!((1..16).contains(&k), "campaign must poison a strict subset, hit {k}/16");

        for threads in [1, 3] {
            let mut victims = corpus(16);
            let stats = engine(threads).try_run(&mut victims);
            assert_eq!(stats.num_errors(), k, "threads={threads}");
            for (i, (result, &poisoned)) in stats.results.iter().zip(&predicted).enumerate() {
                if poisoned {
                    let err = result.as_ref().unwrap_err();
                    assert_eq!(err.phase(), Some(TranslatePhase::Coalesce), "function {i}");
                    assert!(matches!(err, TranslateError::Panicked { .. }), "function {i}");
                } else {
                    // Healthy neighbours are bit-identical to the fault-free
                    // run — worker state poisoned by an unwind never leaks.
                    assert_eq!(
                        result.as_ref().unwrap(),
                        reference_stats.results[i].as_ref().unwrap()
                    );
                    assert_eq!(
                        victims[i], reference[i],
                        "threads={threads}: function {i} diverged"
                    );
                }
            }
        }
        clear();
    }

    #[test]
    fn pooled_streaming_matches_batch_verdicts_and_discards_every_poisoned_slot() {
        use out_of_ssa::cfggen::generate_ssa_function_into;
        use out_of_ssa::ir::{Function, FunctionPool};

        let _guard = serialised();
        silence_injected_panics();

        configure(armed());
        let mut batch = corpus(16);
        let batch_stats = engine(2).try_run(&mut batch);
        let k = batch_stats.num_errors();
        assert!((1..16).contains(&k), "campaign must poison a strict subset, hit {k}/16");

        // The same campaign through the pooled streaming engine: identical
        // verdicts to the two-worker batch, surviving functions
        // bit-identical, and exactly one discarded pool slot per injected
        // fault.
        let mut worker = EngineWorker::new();
        let mut next = 0u64;
        let mut source = |pool: &mut FunctionPool| -> Option<Function> {
            if next == 16 {
                return None;
            }
            let seed = next;
            next += 1;
            let slot = pool.checkout();
            Some(generate_ssa_function_into(slot, format!("fi{seed}"), &GenConfig::small(), seed).0)
        };
        let stats =
            engine(1).try_run_stream(&mut source, &mut worker, |index, result| match result {
                Ok(func) => {
                    assert!(batch_stats.results[index].is_ok(), "verdict {index} differs");
                    assert_eq!(func, &batch[index], "survivor {index} differs from batch");
                }
                Err(error) => {
                    assert_eq!(Some(error), batch_stats.results[index].as_ref().err());
                }
            });
        clear();

        assert_eq!(stats.results, batch_stats.results);
        let pool_stats = worker.pool.stats();
        assert_eq!(pool_stats.checkouts, 16);
        assert_eq!(pool_stats.discarded as usize, k, "one discarded slot per fault");
        assert_eq!(pool_stats.retired as usize, 16 - k);
    }

    #[test]
    fn injection_is_deterministic_across_runs() {
        let _guard = serialised();
        silence_injected_panics();

        configure(armed());
        let run = |threads| {
            let mut funcs = corpus(12);
            let stats = engine(threads).try_run(&mut funcs);
            (funcs, stats.results)
        };
        let (funcs_a, results_a) = run(3);
        let (funcs_b, results_b) = run(3);
        let (funcs_c, results_c) = run(1);
        clear();

        // Same campaign, same corpus: identical verdicts and identical
        // surviving functions, independent of worker count and schedule.
        assert_eq!(results_a, results_b);
        assert_eq!(results_a, results_c);
        assert_eq!(funcs_a, funcs_b);
        assert_eq!(funcs_a, funcs_c);
    }
}
