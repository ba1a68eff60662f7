//! A miniature JIT middle-end over a simulated SPEC-like workload, built on
//! the unified [`Pipeline`] pass manager: non-SSA input → SSA construction →
//! copy propagation (which breaks conventionality) → dead-code elimination →
//! CSSA check → calling-convention pins → out-of-SSA translation →
//! linear-scan register allocation — all passes sharing **one** analysis
//! cache with per-pass invalidation, its storage recycled across functions.
//!
//! The same queue is also drained through the batch engine (`Engine::run`,
//! parallel workers) and the pooled streaming front end
//! (`Engine::run_stream`, fed one function at a time as a JIT queue would);
//! all three flavours must agree bit-for-bit.
//!
//! Run with `cargo run --example jit_pipeline`.

use out_of_ssa::cfggen::{generate_function, pin_call_conventions, GenConfig};
use out_of_ssa::destruct::{Engine, EngineWorker, OutOfSsaOptions};
use out_of_ssa::interp::{same_behaviour, Interpreter};
use out_of_ssa::ir::FunctionPool;
use out_of_ssa::regalloc::check_allocation;
use out_of_ssa::ssa::{construct_ssa, eliminate_dead_code, propagate_copies};
use out_of_ssa::Pipeline;

fn main() {
    let config = GenConfig { num_stmts: 60, num_vars: 10, ..GenConfig::default() };
    let num_funcs = 8u64;
    let options = OutOfSsaOptions::default();

    // 1. Front end: functions in mutable virtual-register form.
    let references: Vec<_> = (0..num_funcs)
        .map(|seed| generate_function(format!("jit::fn{seed}"), &config, seed))
        .collect();

    // 2. The unified pipeline, one function after the other through the same
    //    `Pipeline` — its analysis cache and translation scratch are
    //    invalidated (not reallocated) between functions.
    let mut pipeline = Pipeline::new(options.clone()).with_registers(8);
    let mut funcs = references.clone();
    let reports: Vec<_> = funcs
        .iter_mut()
        .map(|func| {
            pipeline.run_with(func, |f| {
                pin_call_conventions(f);
            })
        })
        .collect();

    // 3. The batch and streaming engines get the same middle-end output (here
    //    rebuilt with the standalone passes) and must reproduce the
    //    pipeline's back end exactly: batch from a materialized slice on the
    //    parallel worker pool, streaming one function at a time through a
    //    pooled source, as a JIT queue would feed it.
    let mut ssa_forms = references.clone();
    for func in &mut ssa_forms {
        construct_ssa(func);
        propagate_copies(func);
        eliminate_dead_code(func);
        pin_call_conventions(func);
    }
    let engine = Engine::new(options);
    let mut batch = ssa_forms.clone();
    let corpus_stats = engine.run(&mut batch);
    let mut queue = ssa_forms.iter();
    let mut source = |pool: &mut FunctionPool| queue.next().map(|f| pool.checkout_clone_of(f));
    let mut streamed = Vec::new();
    let stream_stats = engine.run_stream(&mut source, &mut EngineWorker::new(), |_, func, _| {
        streamed.push(func.clone());
    });

    let mut total_spills = 0usize;
    let mut total_copies = 0usize;
    for (seed, report) in reports.iter().enumerate() {
        assert_eq!(&funcs[seed], &batch[seed], "pipeline and batch disagree on fn{seed}");
        assert_eq!(&streamed[seed], &batch[seed], "streaming and batch disagree on fn{seed}");
        assert_eq!(report.translation, corpus_stats.per_function[seed]);
        assert_eq!(stream_stats.per_function[seed], corpus_stats.per_function[seed]);

        let allocation = report.allocation.as_ref().expect("allocation configured");
        check_allocation(&funcs[seed], allocation, 8).expect("allocation verifies");

        // 4. The whole pipeline preserves behaviour, at every stage.
        for args in [[1, 2, 3], [5, 0, -3], [9, 9, 9]] {
            let a = Interpreter::new().run(&references[seed], &args).expect("reference runs");
            let c = Interpreter::new().run(&ssa_forms[seed], &args).expect("ssa form runs");
            let b = Interpreter::new().run(&funcs[seed], &args).expect("translated runs");
            assert!(
                same_behaviour(&a, &b) && same_behaviour(&c, &b),
                "pipeline miscompiled fn{seed}"
            );
        }

        println!(
            "fn{seed}: {} phis, {} copies propagated, conventional after opt: {}, {} copies \
             remain, {} registers used, {} spills",
            report.construction.phis_inserted,
            report.copy_propagation.copies_removed,
            report.conventional_after_opt.unwrap_or(false),
            report.translation.remaining_copies,
            allocation.registers_used(),
            allocation.spills
        );
        total_spills += allocation.spills;
        total_copies += report.translation.remaining_copies;
    }

    let counts = pipeline.counts();
    println!(
        "\ntranslated {} functions (batch on {} threads, stream on {}); total remaining copies: \
         {total_copies}, total spills: {total_spills}",
        reports.len(),
        corpus_stats.threads,
        stream_stats.threads,
    );
    println!(
        "pipeline analysis computations over {} CFG versions: cfg {}, domtree {}, frontiers {}, \
         fast-liveness {}, liveness-sets {} / {} instruction versions — nothing computed twice \
         per version",
        counts.ir.cfg_versions,
        counts.ir.cfg,
        counts.ir.domtree,
        counts.ir.frontiers,
        counts.fast_liveness,
        counts.liveness_sets,
        counts.inst_versions,
    );
}
