//! Cross-crate integration tests: the full pipeline on the simulated corpus.

use out_of_ssa::cfggen::{
    generate_ssa_function, pin_call_conventions, spec_like_corpus, GenConfig,
};
use out_of_ssa::destruct::{
    translate_out_of_ssa, ClassCheck, Engine, EngineWorker, InterferenceMode, OutOfSsaOptions,
};
use out_of_ssa::interp::{same_behaviour, Interpreter};
use out_of_ssa::ir::{verify_cfg, verify_ssa};
use out_of_ssa::regalloc::{allocate, check_allocation};
use out_of_ssa::ssa::is_conventional;

/// The shared Figure 5 list (single source of truth, so a new bench variant
/// cannot silently miss oracle coverage) plus the engine-only configurations
/// that matter for behaviour.
fn variants() -> Vec<(&'static str, OutOfSsaOptions)> {
    let mut variants: Vec<(&'static str, OutOfSsaOptions)> =
        OutOfSsaOptions::figure5_variants().into_iter().collect();
    variants.extend([
        ("us_i_graph", OutOfSsaOptions::us_i()),
        ("us_iii_graph", OutOfSsaOptions::us_iii()),
        (
            "us_i_fast",
            OutOfSsaOptions::us_i()
                .with_interference(InterferenceMode::InterCheckLiveCheck)
                .with_class_check(ClassCheck::Linear),
        ),
    ]);
    variants
}

#[test]
fn every_variant_preserves_behaviour_on_generated_functions() {
    let inputs: Vec<Vec<i64>> =
        vec![vec![0, 0, 0], vec![1, 2, 3], vec![7, -3, 11], vec![42, 5, -9]];
    for seed in 0..12u64 {
        let (original, _) = generate_ssa_function(format!("prop{seed}"), &GenConfig::small(), seed);
        verify_ssa(&original).expect("generated SSA is valid");
        let expected: Vec<_> = inputs
            .iter()
            .map(|args| Interpreter::new().run(&original, args).expect("original runs"))
            .collect();
        for (name, options) in variants() {
            let mut translated = original.clone();
            let stats = translate_out_of_ssa(&mut translated, &options);
            verify_cfg(&translated).expect("translated code is structurally valid");
            assert_eq!(translated.count_phis(), 0, "{name}: phis remain for seed {seed}");
            assert!(stats.remaining_copies <= stats.moves_inserted + 4);
            for (args, want) in inputs.iter().zip(&expected) {
                let got = Interpreter::new().run(&translated, args).expect("translated runs");
                assert!(
                    same_behaviour(want, &got),
                    "{name}: seed {seed} differs on {args:?}\n{}",
                    translated.display()
                );
            }
        }
    }
}

#[test]
fn copy_insertion_restores_conventionality_on_the_corpus() {
    let corpus = spec_like_corpus(0.1, false);
    let mut checked = 0;
    for workload in &corpus {
        for func in workload.functions.iter().take(2) {
            let mut inserted = func.clone();
            out_of_ssa::destruct::insert_phi_copies(&mut inserted);
            verify_ssa(&inserted).expect("valid SSA after insertion");
            assert!(is_conventional(&inserted), "{} not CSSA after Method I", func.name);
            checked += 1;
        }
    }
    assert!(checked >= 11, "checked only {checked} corpus functions");
}

#[test]
fn linear_and_quadratic_class_checks_coalesce_equally_well() {
    for seed in 20..30u64 {
        let (original, _) = generate_ssa_function(format!("lin{seed}"), &GenConfig::small(), seed);
        let mut linear = original.clone();
        let mut quadratic = original.clone();
        let l = translate_out_of_ssa(
            &mut linear,
            &OutOfSsaOptions::value().with_class_check(ClassCheck::Linear),
        );
        let q = translate_out_of_ssa(
            &mut quadratic,
            &OutOfSsaOptions::value().with_class_check(ClassCheck::Quadratic),
        );
        assert_eq!(
            l.remaining_copies, q.remaining_copies,
            "seed {seed}: linear and quadratic checks disagree"
        );
    }
}

#[test]
fn value_strategy_never_leaves_more_copies_than_intersection() {
    let corpus = spec_like_corpus(0.08, false);
    let mut total_intersect = 0usize;
    let mut total_value = 0usize;
    for workload in &corpus {
        for func in workload.functions.iter().take(2) {
            let mut a = func.clone();
            let mut b = func.clone();
            total_intersect +=
                translate_out_of_ssa(&mut a, &OutOfSsaOptions::intersect()).remaining_copies;
            total_value +=
                translate_out_of_ssa(&mut b, &OutOfSsaOptions::sharing()).remaining_copies;
        }
    }
    assert!(
        total_value <= total_intersect,
        "value/sharing left {total_value} copies vs {total_intersect} for intersection"
    );
}

#[test]
fn pinned_pipeline_allocates_and_preserves_behaviour() {
    for seed in 40..46u64 {
        let (mut func, _) = generate_ssa_function(format!("pin{seed}"), &GenConfig::small(), seed);
        pin_call_conventions(&mut func);
        let original = func.clone();
        translate_out_of_ssa(&mut func, &OutOfSsaOptions::default());
        let allocation = allocate(&func, 8);
        check_allocation(&func, &allocation, 8).expect("allocation verifies");
        for args in [vec![3, 1, 4], vec![-2, 0, 6]] {
            let a = Interpreter::new().run(&original, &args).expect("original");
            let b = Interpreter::new().run(&func, &args).expect("translated");
            assert!(same_behaviour(&a, &b), "seed {seed} differs");
        }
    }
}

#[test]
fn batch_corpus_translation_matches_serial_per_function() {
    // The corpus engine (parallel) must produce exactly the same functions
    // and statistics as the serial per-function entry point.
    let corpus = spec_like_corpus(0.08, true);
    let functions: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();

    let options = OutOfSsaOptions::default();
    let mut serial = functions.clone();
    let serial_stats: Vec<_> =
        serial.iter_mut().map(|f| translate_out_of_ssa(f, &options)).collect();

    let engine = Engine::new(options);
    let mut batch = functions.clone();
    let batch_stats = engine.run(&mut batch);
    assert_eq!(serial_stats, batch_stats.per_function);
    assert_eq!(serial, batch);

    // The serial batch path and an explicit two-thread run agree as well.
    let mut batch_serial = functions.clone();
    let a = engine.clone().with_threads(1).run(&mut batch_serial);
    let mut batch_two = functions.clone();
    let b = engine.with_threads(2).run(&mut batch_two);
    assert_eq!(a.per_function, b.per_function);
    assert_eq!(batch_serial, batch_two);
}

#[test]
fn streaming_engine_is_bit_identical_to_batch_on_the_full_corpus() {
    // Acceptance bar of the streaming front end: on the scale-1.0 corpus —
    // the same corpus the Figure 5/6 numbers are produced from — the pooled
    // streaming engine's output (functions and statistics) is bit-identical
    // to the batch engine's, for every one of the seven Figure 5 variants.
    let corpus = spec_like_corpus(1.0, true);
    let functions: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();

    let mut worker = EngineWorker::new();
    for (name, options) in OutOfSsaOptions::figure5_variants() {
        let engine = Engine::new(options);
        let mut batch = functions.clone();
        let batch_stats = engine.run(&mut batch);
        // The stream copies one function at a time into a recycled pool
        // slot; the corpus is never materialized for it.
        let mut queue = functions.iter();
        let mut source = |pool: &mut out_of_ssa::ir::FunctionPool| {
            queue.next().map(|f| pool.checkout_clone_of(f))
        };
        let stream_stats = engine.run_stream(&mut source, &mut worker, |index, func, _| {
            assert_eq!(func, &batch[index], "{name}: streamed function {} differs", func.name);
        });
        assert_eq!(stream_stats.per_function, batch_stats.per_function, "{name}: stats differ");
    }
}

#[test]
fn memory_footprint_shrinks_without_graph_and_liveness_sets() {
    // The Figure 7 claim, at integration level: the fast-liveness backend
    // needs far less memory than the interference-graph backend.
    let corpus = spec_like_corpus(0.1, false);
    let mut graph_bytes = 0usize;
    let mut livecheck_bytes = 0usize;
    for workload in &corpus {
        for func in workload.functions.iter().take(2) {
            let mut a = func.clone();
            let mut b = func.clone();
            let ga = translate_out_of_ssa(&mut a, &OutOfSsaOptions::us_i());
            let gb = translate_out_of_ssa(
                &mut b,
                &OutOfSsaOptions::us_i()
                    .with_interference(InterferenceMode::InterCheckLiveCheck)
                    .with_class_check(ClassCheck::Linear),
            );
            graph_bytes += ga.memory.total_bytes();
            livecheck_bytes += gb.memory.total_bytes();
        }
    }
    assert!(
        livecheck_bytes * 2 < graph_bytes,
        "expected a large footprint reduction: graph={graph_bytes}B livecheck={livecheck_bytes}B"
    );
}
