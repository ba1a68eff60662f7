//! `large-functions`: optimized-SSA functions about five times the size of
//! the corpus's gcc functions (400 statements, 24 variables, nesting depth
//! 5, call pins), streamed through the serial engine with one persistent
//! `EngineWorker`.
//!
//! Why: coalescing plus liveness is most of the time and per-function fixed
//! costs are negligible, so a change to the coalescer's decisions or to the
//! liveness queries shows here. The `ssa`, `regalloc` and `service` layers
//! do no work on this workload.

use std::cell::Cell;
use std::time::Instant;

use out_of_ssa::cfggen::{generate_ssa_function, pin_call_conventions, GenConfig};
use out_of_ssa::destruct::{
    translate_out_of_ssa_scratch, translate_stream_pooled_serial, EngineWorker, OutOfSsaOptions,
    OutOfSsaStats, TranslateScratch,
};
use out_of_ssa::ir::{Function, FunctionPool};
use out_of_ssa::liveness::FunctionAnalyses;

use crate::layers::{write_analysis_counts, LayerTimes, PassCounts};
use crate::stats::{per, per_item_quiet, quantile, quiet_throughput};
use crate::{alloc, behaves_like, mix_seed, peak_heap_mb, timed_setup, Outcome, RunConfig};

/// Functions per pass.
const FUNCTIONS: usize = 192;
const BASE_SEED: u64 = 400_000;

fn config() -> GenConfig {
    GenConfig { num_stmts: 400, num_vars: 24, max_depth: 5, ..GenConfig::default() }
}

fn inputs(seed: u64) -> Vec<Function> {
    (0..FUNCTIONS)
        .map(|i| {
            let name = format!("large{i}");
            let (mut func, _) =
                generate_ssa_function(name, &config(), mix_seed(BASE_SEED + i as u64, seed));
            pin_call_conventions(&mut func);
            func
        })
        .collect()
}

struct Bench {
    inputs: Vec<Function>,
    worker: EngineWorker,
    /// Engine outputs and statistics of the latest pass that kept them.
    outputs: Vec<Function>,
    stats: Vec<OutOfSsaStats>,
    /// The traced replay's own state and outputs.
    analyses: FunctionAnalyses,
    scratch: TranslateScratch,
    replayed: Vec<Function>,
}

struct Pass {
    seconds: f64,
    allocations: u64,
    counts: PassCounts,
}

impl Bench {
    fn new(seed: u64) -> Self {
        let inputs = inputs(seed);
        let mut bench = Self {
            outputs: inputs.clone(),
            replayed: inputs.clone(),
            stats: vec![OutOfSsaStats::default(); inputs.len()],
            inputs,
            worker: EngineWorker::new(),
            analyses: FunctionAnalyses::new(),
            scratch: TranslateScratch::new(),
        };
        // Warm-up: fills the worker's pool and grows its caches.
        bench.pass(&mut Vec::new(), true);
        bench
    }

    /// Streams every input once through the serial pooled engine. Each
    /// function is timed from the moment its input copy is in the pool slot
    /// to the moment the engine hands the translation to the consumer, so
    /// copying inputs stays outside the timed region (and out of the
    /// allocation count). With `keep`, outputs and statistics are copied out
    /// after each function's timer stops.
    fn pass(&mut self, latencies_us: &mut Vec<f64>, keep: bool) -> Pass {
        let Self { inputs, worker, outputs, stats, .. } = self;
        let options = OutOfSsaOptions::default();
        let ready = Cell::new(Instant::now());
        let copy_allocs = Cell::new(0);
        let mut next = 0;
        let mut source = |pool: &mut FunctionPool| {
            let input = inputs.get(next)?;
            next += 1;
            let allocs_before = alloc::allocations();
            let slot = pool.checkout_clone_of(input);
            copy_allocs.set(copy_allocs.get() + alloc::allocations() - allocs_before);
            ready.set(Instant::now());
            Some(slot)
        };
        let mut pass = Pass { seconds: 0.0, allocations: 0, counts: PassCounts::default() };
        let allocs_before = alloc::allocations();
        translate_stream_pooled_serial(&mut source, worker, &options, |i, func, fn_stats| {
            let seconds = ready.get().elapsed().as_secs_f64();
            pass.seconds += seconds;
            latencies_us.push(seconds * 1e6);
            pass.counts.add_translation(fn_stats);
            if keep {
                outputs[i].clone_from(func);
                stats[i] = fn_stats.clone();
            }
        });
        pass.allocations = alloc::allocations() - allocs_before - copy_allocs.get();
        pass
    }

    /// Replays the engine's per-function driver call by call and checks each
    /// result is identical to the latest kept engine output.
    fn traced_pass(&mut self, times: &mut LayerTimes, out: &mut Outcome) {
        let options = OutOfSsaOptions::default();
        for (func, input) in self.replayed.iter_mut().zip(&self.inputs) {
            func.clone_from(input);
        }
        for (i, func) in self.replayed.iter_mut().enumerate() {
            let allocs_before = alloc::allocations();
            let start = Instant::now();
            self.analyses.invalidate_cfg();
            let stats =
                translate_out_of_ssa_scratch(func, &options, &mut self.analyses, &mut self.scratch);
            let seconds = start.elapsed().as_secs_f64();
            times.destruct_allocs += alloc::allocations() - allocs_before;
            times.translate_s += seconds;
            times.traced_wall_s += seconds;
            times.functions += 1;
            times.add_phases(&stats);
            if *func != self.outputs[i] || stats != self.stats[i] {
                out.invalid(format!("traced replay of {} differs from the engine", func.name));
            }
        }
    }
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (mut bench, setup_s) = timed_setup(|| Bench::new(config.seed));
    let n = bench.inputs.len();
    let first = bench.pass(&mut Vec::new(), false).counts;

    let mut latencies_us = Vec::with_capacity(n * 1024);
    let (mut total_allocs, mut passes) = (0u64, 0usize);
    let mut times = LayerTimes::default();
    let counts_before = bench.analyses.counts();
    let start = Instant::now();
    while passes == 0 || start.elapsed() < config.seconds {
        let pass = bench.pass(&mut latencies_us, config.trace);
        if pass.counts != first {
            out.fail(format!("pass {passes} counted {:?}, the first {first:?}", pass.counts));
        }
        if config.trace {
            times.untraced_s += pass.seconds;
            bench.traced_pass(&mut times, &mut out);
        }
        total_allocs += pass.allocations;
        passes += 1;
    }
    out.attempted = (passes * n) as u64;

    // Check the outputs of one more (untimed) pass against the inputs.
    bench.pass(&mut Vec::new(), true);
    let mut mismatches = 0;
    for (input, output) in bench.inputs.iter().zip(&bench.outputs) {
        if !behaves_like(input, output, config.seed) {
            mismatches += 1;
            out.fail(format!("{}: output behaves differently from its input", input.name));
        }
    }
    // Every pass compiles the same inputs deterministically (its counts
    // are checked above), so a mismatching function failed on every pass.
    out.failed += (mismatches * (passes - 1)) as u64;
    out.set("interp.checked_fns", n as f64);
    out.set("interp.mismatches", mismatches as f64);

    if config.trace {
        times.write_layers(&mut out);
        times.write_ratios(&mut out);
        first.write_layers(&mut out);
        write_analysis_counts(&mut out, &counts_before, &bench.analyses.counts(), passes);
        let pool = bench.worker.pool.stats();
        out.set("engine.pool_recycled_ratio", per(pool.recycled as f64, pool.checkouts as usize));
    } else {
        out.set("setup_s", setup_s);
        let mut per_function = per_item_quiet(&latencies_us, n);
        let throughput = quiet_throughput(&per_function);
        out.set("throughput_fps", throughput);
        out.set("latency_p50_us", quantile(&mut per_function, 0.5));
        out.set("latency_p99_us", quantile(&mut per_function, 0.99));
        // A closed loop on one thread sustains exactly its throughput.
        out.set("max_rate_fps", throughput);
        out.set("remaining_copies", first.remaining_copies as f64);
        out.set("allocs_per_fn", total_allocs as f64 / out.attempted as f64);
        out.set("peak_heap_mb", peak_heap_mb());
        out.set("success_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    }
    eprintln!(
        "large-functions: {passes} passes of {n} functions ({} queries each pass), {} latency samples",
        first.queries,
        latencies_us.len()
    );
    out
}
