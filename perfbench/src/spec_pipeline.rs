//! `spec-pipeline`: the SPEC CINT2000-like corpus (scale 1.0, 200 pre-SSA
//! functions; three seeded draws of it per pass) streamed pass after pass
//! through one persistent `Pipeline` with default options,
//! calling-convention pins as the hook, the CSSA check and 8-register
//! allocation, on one thread.
//!
//! Why: it is the only path that runs every compile layer in the paper's
//! JIT shape (SSA construction, copy propagation, DCE, the CSSA check, the
//! translation and register allocation), and more than half its time is
//! outside the translation.

use std::time::Instant;

use out_of_ssa::cfggen::{
    generate_function, pin_call_conventions, spec_config, spec_num_functions, SPEC_BENCHMARKS,
};
use out_of_ssa::destruct::fault::{enter_phase, TranslatePhase};
use out_of_ssa::destruct::{translate_out_of_ssa_scratch, OutOfSsaOptions, TranslateScratch};
use out_of_ssa::ir::Function;
use out_of_ssa::liveness::FunctionAnalyses;
use out_of_ssa::pipeline::{Pipeline, PipelineReport};
use out_of_ssa::regalloc::{allocate_cached, check_allocation, Allocation};
use out_of_ssa::ssa::{
    construct_ssa_cached, eliminate_dead_code_cached, is_conventional_cached,
    propagate_copies_keeping_cached,
};

use crate::layers::{write_analysis_counts, LayerTimes, PassCounts};
use crate::stats::{per_item_quiet, quantile, quiet_throughput};
use crate::{alloc, behaves_like, mix_seed, peak_heap_mb, timed_setup, Outcome, RunConfig};

/// Architectural registers of the allocation pass.
const REGISTERS: u32 = 8;
/// Corpus scale: the full-size corpus.
const SCALE: f64 = 1.0;
/// Draws of the corpus per pass. One draw has 200 functions, so its p99
/// latency and copy count hang on its two or three largest functions and
/// vary from seed to seed; three draws steady both.
const DRAWS: u64 = 3;

/// The corpus draws for `seed`: every SPEC benchmark's function count and
/// generator shape, with per-function seeds derived from the run seed.
/// Seed 0's first draw is the repository's fixed corpus.
fn inputs(seed: u64) -> Vec<Function> {
    (0..DRAWS)
        .flat_map(|draw| {
            SPEC_BENCHMARKS.iter().flat_map(move |spec| {
                let config = spec_config(spec, SCALE);
                (0..spec_num_functions(spec, SCALE)).map(move |i| {
                    let name = format!("{}::fn{i}#{draw}", spec.name);
                    let fn_seed = mix_seed(spec.seed + i as u64, seed.wrapping_mul(DRAWS) + draw);
                    generate_function(name, &config, fn_seed)
                })
            })
        })
        .collect()
}

fn pipeline() -> Pipeline {
    Pipeline::new(OutOfSsaOptions::default()).with_registers(REGISTERS)
}

fn hook(func: &mut Function) {
    pin_call_conventions(func);
}

struct Bench {
    inputs: Vec<Function>,
    /// Pipeline outputs of the latest untraced pass.
    outputs: Vec<Function>,
    allocations: Vec<Option<Allocation>>,
    pipeline: Pipeline,
    /// The traced replay's own state and outputs.
    analyses: FunctionAnalyses,
    scratch: TranslateScratch,
    replayed: Vec<Function>,
}

/// One untraced pass: its compile seconds, allocations and counters.
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
            allocations: vec![None; inputs.len()],
            inputs,
            pipeline: pipeline(),
            analyses: FunctionAnalyses::new(),
            scratch: TranslateScratch::new(),
        };
        // Warm-up: grows the pipeline's caches and scratch to the corpus's
        // high-water mark.
        bench.pass(&mut Vec::new());
        bench
    }

    /// Compiles every input once through the pipeline, timing each call.
    /// Inputs are copied into the output slots before timing starts.
    fn pass(&mut self, latencies_us: &mut Vec<f64>) -> Pass {
        for (out, input) in self.outputs.iter_mut().zip(&self.inputs) {
            out.clone_from(input);
        }
        let mut pass = Pass { seconds: 0.0, allocations: 0, counts: PassCounts::default() };
        for (func, allocation) in self.outputs.iter_mut().zip(&mut self.allocations) {
            let allocs_before = alloc::allocations();
            let start = Instant::now();
            let mut report = self.pipeline.run_with(func, hook);
            let seconds = start.elapsed().as_secs_f64();
            pass.allocations += alloc::allocations() - allocs_before;
            pass.seconds += seconds;
            latencies_us.push(seconds * 1e6);
            count_report(&mut pass.counts, &report);
            *allocation = report.allocation.take();
        }
        pass
    }

    /// Replays the pipeline's pass order call by call on the inputs, timing
    /// each layer, and checks each result is identical to the latest
    /// untraced pass's output.
    fn traced_pass(&mut self, times: &mut LayerTimes, out: &mut Outcome) {
        for (func, input) in self.replayed.iter_mut().zip(&self.inputs) {
            func.clone_from(input);
        }
        for (i, func) in self.replayed.iter_mut().enumerate() {
            let wall = Instant::now();
            let allocation = replay(func, &mut self.analyses, &mut self.scratch, times);
            times.traced_wall_s += wall.elapsed().as_secs_f64();
            times.functions += 1;
            let expected = self.allocations[i].as_ref().expect("untraced pass allocated");
            if *func != self.outputs[i]
                || allocation.spills != expected.spills
                || allocation.locations != expected.locations
            {
                out.invalid(format!(
                    "traced replay of {} differs from Pipeline::run_with",
                    func.name
                ));
            }
        }
    }
}

fn count_report(counts: &mut PassCounts, report: &PipelineReport) {
    counts.add_translation(&report.translation);
    counts.phis_inserted += report.construction.phis_inserted;
    counts.copies_propagated += report.copy_propagation.copies_removed;
    counts.dead_removed += report.dead_code.insts_removed;
    counts.spills += report.allocation.as_ref().map_or(0, |a| a.spills);
}

/// `Pipeline::run_with`'s pass order, one layer call at a time, with the
/// pipeline's configuration (default options, no kept copies, CSSA check,
/// pins as the hook, [`REGISTERS`] registers).
fn replay(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut TranslateScratch,
    times: &mut LayerTimes,
) -> Allocation {
    let options = OutOfSsaOptions::default();
    let mut clock = Clock::start();
    analyses.invalidate_cfg();
    enter_phase(&func.name, TranslatePhase::Ssa);
    construct_ssa_cached(func, analyses);
    clock.lap(&mut times.construct_s, &mut times.ssa_allocs);
    propagate_copies_keeping_cached(func, 0, analyses);
    clock.lap(&mut times.copyprop_s, &mut times.ssa_allocs);
    eliminate_dead_code_cached(func, analyses);
    clock.lap(&mut times.dce_s, &mut times.ssa_allocs);
    std::hint::black_box(is_conventional_cached(func, analyses));
    clock.lap(&mut times.cssa_check_s, &mut times.ssa_allocs);
    hook(func);
    analyses.invalidate_instructions();
    let mut hook_allocs = 0;
    clock.lap(&mut times.hook_s, &mut hook_allocs);
    let stats = translate_out_of_ssa_scratch(func, &options, analyses, scratch);
    clock.lap(&mut times.translate_s, &mut times.destruct_allocs);
    enter_phase(&func.name, TranslatePhase::Regalloc);
    let allocation = allocate_cached(func, REGISTERS, analyses);
    clock.lap(&mut times.regalloc_s, &mut times.regalloc_allocs);
    times.add_phases(&stats);
    allocation
}

/// Consecutive spans of one traced call sequence.
struct Clock {
    at: Instant,
    allocs: u64,
}

impl Clock {
    fn start() -> Self {
        Self { at: Instant::now(), allocs: alloc::allocations() }
    }

    /// Adds the time and allocations since the previous lap.
    fn lap(&mut self, seconds: &mut f64, allocs: &mut u64) {
        let now = Instant::now();
        let count = alloc::allocations();
        *seconds += (now - self.at).as_secs_f64();
        *allocs += count - self.allocs;
        self.at = now;
        self.allocs = count;
    }
}

/// Replays every output of the latest untraced pass against its input and
/// checks its register allocation.
fn check_outputs(bench: &Bench, seed: u64, out: &mut Outcome) -> usize {
    let mut mismatches = 0;
    for ((input, output), allocation) in
        bench.inputs.iter().zip(&bench.outputs).zip(&bench.allocations)
    {
        let allocation = allocation.as_ref().expect("allocation configured");
        if !behaves_like(input, output, seed) {
            mismatches += 1;
            out.fail(format!("{}: output behaves differently from its input", input.name));
        } else if let Err(error) = check_allocation(output, allocation, REGISTERS) {
            mismatches += 1;
            out.fail(format!("{}: invalid register allocation: {error}", input.name));
        }
    }
    out.set("interp.checked_fns", bench.inputs.len() as f64);
    out.set("interp.mismatches", mismatches as f64);
    mismatches
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (mut bench, setup_s) = timed_setup(|| Bench::new(config.seed));
    let n = bench.inputs.len();
    let first = bench.pass(&mut Vec::new()).counts;

    let mut latencies_us = Vec::with_capacity(n * 512);
    let (mut total_allocs, mut passes) = (0u64, 0usize);
    let mut times = LayerTimes::default();
    let counts_before = bench.analyses.counts();
    let start = Instant::now();
    while passes == 0 || start.elapsed() < config.seconds {
        let pass = bench.pass(&mut latencies_us);
        if pass.counts != first {
            out.fail(format!("pass {passes} counted {:?}, the first {first:?}", pass.counts));
        }
        if config.trace {
            // The untraced pass just run is the reference for the replay.
            times.untraced_s += pass.seconds;
            bench.traced_pass(&mut times, &mut out);
        }
        total_allocs += pass.allocations;
        passes += 1;
    }
    out.attempted = (passes * n) as u64;
    let mismatches = check_outputs(&bench, config.seed, &mut out);
    // Every pass compiles the same inputs deterministically (its counts
    // are checked above), so a mismatching function failed on every pass.
    out.failed += (mismatches * (passes - 1)) as u64;

    if config.trace {
        times.write_layers(&mut out);
        times.write_ratios(&mut out);
        first.write_layers(&mut out);
        write_analysis_counts(&mut out, &counts_before, &bench.analyses.counts(), passes);
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
        "spec-pipeline: {passes} passes of {n} functions, {} latency samples",
        latencies_us.len()
    );
    out
}
