//! Figure 6 reproduction: out-of-SSA translation time for the different
//! engine configurations, normalized to `Sreedhar III`, plus the batch
//! corpus engine (serial vs parallel) and a machine-readable
//! `BENCH_fig6.json` for the performance trajectory of future changes.

use std::fmt::Write as _;

use ossa_bench::alloc::allocation_count;
use ossa_bench::{
    corpus, format_normalized, quality_report, run_variant_seed_style, speed_report, DEFAULT_SCALE,
};
use ossa_destruct::{Engine, Ladder, OutOfSsaOptions, PhaseSeconds, ValidationMode};

/// Counting allocator: the JSON reports how many heap allocations each
/// serial engine performs over the corpus, so allocation regressions on the
/// hot paths are as visible as time regressions.
#[global_allocator]
static ALLOC: ossa_bench::alloc::CountingAllocator = ossa_bench::alloc::CountingAllocator;

fn main() {
    let scale =
        std::env::args().nth(1).and_then(|s| s.parse::<f64>().ok()).unwrap_or(DEFAULT_SCALE);
    let corpus = corpus(scale);
    let names: Vec<&str> = corpus.iter().map(|w| w.name).collect();

    // Warm up once so allocation effects do not dominate the first engine.
    let _ = speed_report(&corpus[..1.min(corpus.len())]);
    let report = speed_report(&corpus);

    println!("Figure 6 — time to go out of SSA (ratio vs Sreedhar III), scale {scale}\n");
    let rows: Vec<(String, Vec<f64>)> =
        report.iter().map(|row| (row.engine.to_string(), row.seconds.clone())).collect();
    println!("{}", format_normalized(&names, &rows));

    println!("absolute time per engine (seconds, sum over corpus, serial batch engine):");
    for row in &report {
        let total: f64 = row.seconds.iter().sum();
        println!("  {:<44} {total:.4}", row.engine);
    }

    // Batch corpus engine: the seed-style serial loop (per-function API,
    // fresh analyses per call; clones excluded from all timed regions so the
    // comparison measures the engine, not the harness) vs the batch engine,
    // serial and parallel, over the *flattened* corpus — one `Engine::run`
    // call, so the worker pool is spawned once and sized by the whole corpus
    // rather than per workload. Three samples each, minimum taken, to damp
    // scheduler noise.
    let options = OutOfSsaOptions::default();
    let serial_engine = Engine::new(options.clone()).with_threads(1);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let flat: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();
    let min3 = |f: &dyn Fn() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    // Allocation counts: one untimed pass per serial engine, counting the
    // translation only — both input clones happen before the counter is
    // sampled, so the numbers compare the engines, not the harness.
    let seed_style_allocs = {
        let mut work = flat.clone();
        let before = allocation_count();
        for func in &mut work {
            let _ = ossa_destruct::translate_out_of_ssa(func, &options);
        }
        allocation_count() - before
    };
    let (batch_allocs, batch_queries) = {
        let mut work = flat.clone();
        let before = allocation_count();
        let stats = serial_engine.run(&mut work);
        (allocation_count() - before, stats.total().interference_queries)
    };
    // Pooled streaming engine: three passes over the corpus through one
    // persistent worker and source. Pass 0 warms every pool and cache;
    // passes 1 and 2 are steady state. The gated metric is steady-state
    // allocations *per translated function*, measured at 1× (pass 1) and at
    // 2× the corpus (passes 1+2, i.e. the same stream drained twice) — with
    // flat steady-state heap traffic the two are equal up to jitter, no
    // matter how much longer the 2× stream is. Strictly single-threaded:
    // the allocation counter is thread-local.
    let stream_profile = ossa_bench::streaming_allocation_passes(scale, &options, 3);
    let stream_warmup_allocs = stream_profile.pass_allocations[0];
    let stream_steady_1x = stream_profile.steady_state_per_function(1);
    let stream_steady_2x = stream_profile.steady_state_per_function(2);
    let time_batch = |threads: usize| -> f64 {
        let mut work = flat.clone();
        let start = std::time::Instant::now();
        let _ = Engine::new(options.clone()).with_threads(threads).run(&mut work);
        start.elapsed().as_secs_f64()
    };
    // Self-checking engine: the same serial batch run under Structural
    // output validation (CFG re-verification + translation postconditions on
    // every function). The gated trajectory number tracks what "always
    // validate" would cost a JIT.
    let validating = Engine::new(Ladder::retrying(options.clone(), ValidationMode::Structural, 0))
        .with_threads(1);
    let time_batch_validated = || -> f64 {
        let mut work = flat.clone();
        let start = std::time::Instant::now();
        let _ = validating.try_run(&mut work);
        start.elapsed().as_secs_f64()
    };
    // Recovery counters of one validated run: all zero on a healthy corpus
    // (validation rejects nothing, nothing recovers); the fallback counter
    // reports how many functions demoted the fast liveness checker.
    let (validation_failures, recovered_functions, liveness_fallbacks) = {
        let mut work = flat.clone();
        let stats = validating.try_run(&mut work);
        (stats.validation_failures(), stats.recovered_functions(), stats.total().liveness_fallbacks)
    };
    // Seed-style and batch-serial are sampled interleaved (five rounds,
    // minimum kept) so scheduler or frequency drift hits both equally
    // instead of biasing whichever ran later, and both at per-workload
    // granularity (clone excluded) so the input locality is identical — the
    // remaining difference is exactly the engine: per-worker caches and
    // scratch reused across functions versus rebuilt for every function.
    // Each batch-serial phase is the minimum over the same five rounds of
    // that round's phase time summed over the workloads.
    let mut seed_style = f64::INFINITY;
    let mut serial = f64::INFINITY;
    let mut phase = PhaseSeconds {
        liveness: f64::INFINITY,
        coalesce: f64::INFINITY,
        sequentialize: f64::INFINITY,
    };
    for _ in 0..5 {
        let s: f64 = corpus.iter().map(|w| run_variant_seed_style(w, &options).1).sum();
        seed_style = seed_style.min(s);
        let mut round = PhaseSeconds::default();
        let b: f64 = corpus
            .iter()
            .map(|w| {
                let (stats, seconds) = ossa_bench::run_variant(w, &options);
                round.absorb(&stats.phase_seconds);
                seconds
            })
            .sum();
        serial = serial.min(b);
        phase.liveness = phase.liveness.min(round.liveness);
        phase.coalesce = phase.coalesce.min(round.coalesce);
        phase.sequentialize = phase.sequentialize.min(round.sequentialize);
    }
    let parallel: f64 = min3(&|| time_batch(0));
    let validated: f64 = min3(&time_batch_validated);
    let speedup = seed_style / parallel.max(1e-12);
    println!("\nbatch engine over the corpus (default options):");
    println!("  seed-style serial loop  {seed_style:.4}s  ({seed_style_allocs} allocations)");
    println!("  batch engine (serial)   {serial:.4}s  ({batch_allocs} allocations)");
    println!("  batch engine (parallel) {parallel:.4}s  ({threads} threads, {speedup:.2}x vs seed style)");
    let PhaseSeconds { liveness, coalesce, sequentialize } = phase;
    println!("  batch serial phases     liveness {liveness:.4}s, coalesce {coalesce:.4}s, sequentialize {sequentialize:.4}s");
    println!("  batch serial interference queries {batch_queries}");
    println!("  batch engine (serial, validated) {validated:.4}s  (structural output validation)");
    println!(
        "  self-checking counters: {validation_failures} validation failures, \
         {recovered_functions} recovered, {liveness_fallbacks} liveness fallbacks"
    );
    println!(
        "  pooled streaming: warm-up {stream_warmup_allocs} allocations, steady state \
         {stream_steady_1x:.3} allocations/function at 1x, {stream_steady_2x:.3} at 2x \
         ({} functions/pass)",
        stream_profile.functions_per_pass
    );

    // Figure 5 static-copy counts per coalescing variant: the ROADMAP's
    // quality check tracks the Sreedhar III vs Sharing ordering anomaly
    // across PRs through these (deterministic, so they double as a cheap
    // behaviour fingerprint in the committed baseline).
    let static_copies: Vec<(&str, usize)> = quality_report(&corpus)
        .into_iter()
        .map(|row| (row.variant, row.copies.iter().sum::<usize>()))
        .collect();
    println!("\nFigure 5 static copies per variant (sum over corpus):");
    for &(name, copies) in &static_copies {
        println!("  {name:<14} {copies}");
    }

    // Machine-readable trajectory.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"engines\": [");
    for (i, row) in report.iter().enumerate() {
        let total: f64 = row.seconds.iter().sum();
        let comma = if i + 1 < report.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"seconds\": {:.6}}}{comma}",
            row.engine, total
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"figure5_static_copies\": [");
    for (i, &(name, copies)) in static_copies.iter().enumerate() {
        let comma = if i + 1 < static_copies.len() { "," } else { "" };
        let _ = writeln!(json, "    {{\"name\": \"{name}\", \"copies\": {copies}}}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"seed_style_serial_seconds\": {seed_style:.6},");
    let _ = writeln!(json, "  \"batch_serial_seconds\": {serial:.6},");
    let _ = writeln!(json, "  \"batch_parallel_seconds\": {parallel:.6},");
    let _ = writeln!(json, "  \"batch_threads\": {threads},");
    let _ = writeln!(json, "  \"batch_speedup_vs_seed_style\": {speedup:.3},");
    let _ = writeln!(json, "  \"phase_seconds\": {{");
    let _ = writeln!(json, "    \"liveness\": {liveness:.6},");
    let _ = writeln!(json, "    \"coalesce\": {coalesce:.6},");
    let _ = writeln!(json, "    \"sequentialize\": {sequentialize:.6}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"seed_style_serial_allocations\": {seed_style_allocs},");
    let _ = writeln!(json, "  \"batch_serial_allocations\": {batch_allocs},");
    let _ = writeln!(
        json,
        "  \"streaming_functions_per_pass\": {},",
        stream_profile.functions_per_pass
    );
    let _ = writeln!(json, "  \"streaming_warmup_allocations\": {stream_warmup_allocs},");
    let _ = writeln!(json, "  \"streaming_steady_state_allocations\": {stream_steady_1x:.4},");
    let _ = writeln!(json, "  \"streaming_steady_state_allocations_2x\": {stream_steady_2x:.4},");
    let _ = writeln!(json, "  \"batch_serial_interference_queries\": {batch_queries},");
    let _ = writeln!(json, "  \"batch_serial_validated_seconds\": {validated:.6},");
    let _ = writeln!(json, "  \"validation_failures\": {validation_failures},");
    let _ = writeln!(json, "  \"recovered_functions\": {recovered_functions},");
    let _ = writeln!(json, "  \"liveness_fallbacks\": {liveness_fallbacks},");
    let pool = &stream_profile.pool;
    let _ = writeln!(json, "  \"pool\": {{");
    let _ = writeln!(json, "    \"checkouts\": {},", pool.checkouts);
    let _ = writeln!(json, "    \"recycled\": {},", pool.recycled);
    let _ = writeln!(json, "    \"retired\": {},", pool.retired);
    let _ = writeln!(json, "    \"discarded\": {}", pool.discarded);
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    let path = "BENCH_fig6.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(err) => eprintln!("\nfailed to write {path}: {err}"),
    }
}
