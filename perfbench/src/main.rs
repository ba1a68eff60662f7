//! The translator's benchmark: one command per workload, end-to-end metrics
//! with tracing off (`--trace 0`) and per-layer metrics from a separate
//! traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-pipeline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every metric is printed as `name = value unit`; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The process exits non-zero when any output fails its check. See
//! `perfbench/README.md` for the workloads, the metric map and the
//! tolerances.

mod alloc;
mod jit_service;
mod large_functions;
mod layers;
mod spec_pipeline;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use out_of_ssa::interp::{argument_sets, same_behaviour, Interpreter};
use out_of_ssa::ir::Function;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported with tracing off on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_fps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("max_rate_fps", "1/s"),
    ("remaining_copies", "count"),
    ("allocs_per_fn", "count"),
    ("peak_heap_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, reported by the traced run on every workload (a layer
/// a workload does not exercise reads 0).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ssa.construct_s", "s/fn"),
    ("ssa.copyprop_s", "s/fn"),
    ("ssa.dce_s", "s/fn"),
    ("ssa.cssa_check_s", "s/fn"),
    ("ssa.allocs", "count/fn"),
    ("ssa.phis_inserted", "count"),
    ("ssa.copies_propagated", "count"),
    ("ssa.dead_removed", "count"),
    ("pipeline.hook_s", "s/fn"),
    ("destruct.translate_s", "s/fn"),
    ("destruct.liveness_s", "s/fn"),
    ("destruct.coalesce_s", "s/fn"),
    ("destruct.sequentialize_s", "s/fn"),
    ("destruct.unattributed_s", "s/fn"),
    ("destruct.ns_per_query", "ns"),
    ("destruct.interference_queries", "count"),
    ("destruct.queries_per_fn", "count/fn"),
    ("destruct.remaining_weighted", "count"),
    ("destruct.moves_inserted", "count"),
    ("destruct.moves_coalesced", "count"),
    ("destruct.coalesce_ratio", "ratio"),
    ("destruct.footprint_bytes", "B/fn"),
    ("destruct.allocs", "count/fn"),
    ("destruct.edges_split", "count"),
    ("destruct.liveness_fallbacks", "count"),
    ("liveness.sets_computes", "count"),
    ("liveness.fast_computes", "count"),
    ("liveness.incremental_repairs", "count"),
    ("liveness.block_recomputes", "count"),
    ("ir.cfg_computes", "count"),
    ("ir.domtree_computes", "count"),
    ("regalloc.allocate_s", "s/fn"),
    ("regalloc.allocs", "count/fn"),
    ("regalloc.spills", "count"),
    ("engine.pool_recycled_ratio", "ratio"),
    ("service.submit_p99_us", "us"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.translate_p50_us", "us"),
    ("service.translate_p99_us", "us"),
    ("service.reply_p99_us", "us"),
    ("service.isolation_overhead_us", "us"),
    ("service.max_queue_depth", "count"),
    ("service.refused", "count"),
    ("service.shed", "count"),
    ("service.expired", "count"),
    ("service.degraded_rungs", "count"),
    ("pipeline.layer_sum_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.gen_late_p99_us", "us"),
    ("interp.checked_fns", "count"),
    ("interp.mismatches", "count"),
];

/// How far `pipeline.layer_sum_ratio` may stray from 1 before a traced run
/// fails: the traced layers must account for the untraced time.
pub const LAYER_SUM_TOLERANCE: f64 = 0.15;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Argument sets each translated function is replayed on by the oracle.
const ORACLE_SETS: usize = 4;

/// Command-line parameters of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload hands back: metric values by name, operation counts and
/// the reasons, if any, the run is not correct.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check: it counts in `failed` and makes the run exit
    /// non-zero.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records a violated benchmark invariant that is not an operation
    /// failure (the run is invalid, not the output wrong).
    pub fn invalid(&mut self, problem: String) {
        self.problems.push(problem);
    }
}

/// Derives a generator seed from a workload's base seed and the run seed.
/// Seed 0 leaves the base unchanged.
pub fn mix_seed(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The output oracle: `translated` must behave like `reference` on
/// deterministic argument sets derived from `seed`.
pub fn behaves_like(reference: &Function, translated: &Function, seed: u64) -> bool {
    let interp = Interpreter::new();
    argument_sets(seed, ORACLE_SETS, reference.num_params as usize).iter().all(|args| {
        match (interp.run(reference, args), interp.run(translated, args)) {
            (Ok(a), Ok(b)) => same_behaviour(&a, &b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    })
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last state with the
/// median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        // The previous state is dropped outside the timed region.
        drop(state.take());
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up ran"), stats::median(&mut times))
}

/// Peak live heap of the whole process so far, in megabytes.
pub fn peak_heap_mb() -> f64 {
    alloc::peak_bytes() as f64 / 1e6
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad("whole seconds"))?;
                if !(1..=60).contains(&s) {
                    return Err(bad("1 to 60 seconds"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunConfig {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(Duration::from_secs(10)),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut human = String::new();
    let mut json = String::new();
    for (i, &(name, unit)) in declared.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            // A layer the workload does not run reads 0; an end-to-end
            // metric must always be measured.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        writeln!(human, "{name} = {value} {unit}").expect("writing to a String cannot fail");
        let sep = if i == 0 { "" } else { ", " };
        write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    Ok(format!(
        "{human}{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    ))
}

fn main() -> ExitCode {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <spec-pipeline|large-functions|jit-service> \
                 --seed <n> --seconds <1-60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "spec-pipeline" => spec_pipeline::run(&config),
        "large-functions" => large_functions::run(&config),
        "jit-service" => jit_service::run(&config),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: {workload}: {problem}");
    }
    match render(&outcome, config.trace) {
        Ok(text) => println!("{text}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.failed == 0 && outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names declared under `key` in the repository's
    /// `BENCHMARK.json`, in order.
    fn declared_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let section = &text[start..];
        let end = section.find(']').expect("list closes");
        section[..end]
            .split("\"name\"")
            .skip(1)
            .map(|entry| entry.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_declared_ones() {
        let names = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(declared_names("end_to_end"), names(END_TO_END));
        assert_eq!(declared_names("per_layer"), names(PER_LAYER));
    }

    #[test]
    fn render_ends_with_one_json_line() {
        let mut outcome = Outcome { attempted: 10, ..Outcome::default() };
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let text = render(&outcome, false).expect("all metrics present");
        let last = text.lines().last().expect("non-empty");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        outcome.metrics.remove("setup_s");
        assert!(render(&outcome, false).is_err());
        // Per-layer metrics a workload does not touch read 0.
        assert!(render(&outcome, true).expect("zeros allowed").contains("\"ssa.dce_s\""));
    }

    #[test]
    fn seed_zero_keeps_the_base_seed() {
        assert_eq!(mix_seed(164_000, 0), 164_000);
        assert_ne!(mix_seed(164_000, 1), mix_seed(164_000, 2));
    }
}
