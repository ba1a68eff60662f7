//! Bit-identity fingerprint of the translated corpus.
//!
//! For every Figure 5 variant, and for the two fallback rungs of the retry
//! ladder (`OutOfSsaOptions::conservative_fallback()` and
//! `OutOfSsaOptions::minimal_coalescing()`), translates the full corpus through the serial batch
//! engine and prints an FNV-1a hash of the printed form of every translated
//! function together with the behavioural counters (interference queries,
//! remaining copies). Two builds producing the same fingerprints make
//! exactly the same coalescing decisions on the whole corpus — the cheap way
//! to prove a performance change is behaviour-preserving.
//!
//! A last `Pipeline` row gates the whole compile flow: the corpus's pre-SSA
//! functions run through one `Pipeline` with default options, the
//! calling-convention pins as the hook and 8-register allocation, and the
//! hash also covers each function's CSSA verdict and register allocation.
//!
//! Usage:
//!
//! * `fingerprint [scale]` — print the fingerprints;
//! * `fingerprint [scale] --write <path>` — also write them to `<path>`
//!   (the committed `FINGERPRINT_baseline.txt`);
//! * `fingerprint [scale] --check <path>` — compare against `<path>` and
//!   exit non-zero on any mismatch, which is how CI fails the build on a
//!   bit-identity regression.

use std::fmt::Write as _;
use std::process::ExitCode;

use ossa_cfggen::{
    generate_function, pin_call_conventions, spec_config, spec_num_functions, SPEC_BENCHMARKS,
};
use ossa_destruct::{Engine, OutOfSsaOptions};
use out_of_ssa::pipeline::Pipeline;
use out_of_ssa::regalloc::Location;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// The `Pipeline` row: the pre-SSA corpus (the functions `spec_like_corpus`
/// converts to SSA) through one pipeline, hashing each function's printed
/// output, CSSA verdict and allocation (locations in value order, spills).
fn pipeline_row(scale: f64) -> String {
    let mut text = String::new();
    let mut pipeline = Pipeline::new(OutOfSsaOptions::default()).with_registers(8);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut queries, mut copies, mut coalesced, mut spills) = (0, 0, 0, 0);
    for spec in &SPEC_BENCHMARKS {
        let config = spec_config(spec, scale);
        for i in 0..spec_num_functions(spec, scale) {
            let name = format!("{}::fn{i}", spec.name);
            let mut func = generate_function(name, &config, spec.seed + i as u64);
            let report = pipeline.run_with(&mut func, |f| {
                pin_call_conventions(f);
            });
            let allocation = report.allocation.expect("registers configured");
            text.clear();
            let _ = writeln!(text, "{}cssa {:?}", func.display(), report.conventional_after_opt);
            for (value, location) in allocation.locations.iter() {
                let _ = match location {
                    Some(Location::Reg(r)) => writeln!(text, "{value} r{r}"),
                    Some(Location::Spill(s)) => writeln!(text, "{value} s{s}"),
                    None => continue,
                };
            }
            let _ = writeln!(text, "spills {}", allocation.spills);
            fnv1a(&mut hash, text.as_bytes());
            queries += report.translation.interference_queries;
            copies += report.translation.remaining_copies;
            coalesced += report.translation.moves_coalesced;
            spills += allocation.spills;
        }
    }
    format!(
        "Pipeline       hash {hash:016x}  queries {queries:>9}  copies {copies:>6}  \
         coalesced {coalesced:>6}  spills {spills:>5}"
    )
}

fn main() -> ExitCode {
    // Strict argument handling: this binary is a CI gate, so a malformed
    // invocation (missing operand, typo'd flag) must fail loudly instead of
    // silently skipping the comparison and exiting green.
    let mut scale = 1.0f64;
    let mut check: Option<String> = None;
    let mut write: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => match args.next() {
                Some(path) => check = Some(path),
                None => {
                    eprintln!("fingerprint: --check requires a baseline path");
                    return ExitCode::FAILURE;
                }
            },
            "--write" => match args.next() {
                Some(path) => write = Some(path),
                None => {
                    eprintln!("fingerprint: --write requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => match other.parse::<f64>() {
                Ok(s) => scale = s,
                Err(_) => {
                    eprintln!(
                        "fingerprint: unrecognized argument {other:?} \
                         (usage: fingerprint [scale] [--check <path>] [--write <path>])"
                    );
                    return ExitCode::FAILURE;
                }
            },
        }
    }

    let corpus = ossa_cfggen::spec_like_corpus(scale, true);
    let functions: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();
    println!("fingerprint over {} functions at scale {scale}", functions.len());

    let mut text = String::new();
    let mut report = String::new();
    let mut per_workload: Vec<(&str, Vec<u64>)> = Vec::new();
    let rungs = [
        ("Conservative", OutOfSsaOptions::conservative_fallback()),
        ("Minimal", OutOfSsaOptions::minimal_coalescing()),
    ];
    for (name, options) in OutOfSsaOptions::figure5_variants().into_iter().chain(rungs) {
        let mut work = functions.clone();
        let stats = Engine::new(options).with_threads(1).run(&mut work);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for func in &work {
            text.clear();
            let _ = write!(text, "{}", func.display());
            fnv1a(&mut hash, text.as_bytes());
        }
        let total = stats.total();
        let line = format!(
            "{name:<14} hash {hash:016x}  queries {:>9}  copies {:>6}  coalesced {:>6}",
            total.interference_queries, total.remaining_copies, total.moves_coalesced
        );
        println!("{line}");
        let _ = writeln!(report, "{line}");
        // Per-workload query slices: `per_function` follows the flattened
        // corpus order, so summing it workload by workload localizes the
        // per-variant total without a second translation pass.
        let mut queries = Vec::with_capacity(corpus.len());
        let mut at = 0usize;
        for workload in &corpus {
            let n = workload.functions.len();
            queries
                .push(stats.per_function[at..at + n].iter().map(|s| s.interference_queries).sum());
            at += n;
        }
        per_workload.push((name, queries));
    }
    let line = pipeline_row(scale);
    println!("{line}");
    let _ = writeln!(report, "{line}");

    // Per-workload interference-query breakdown (stdout only; the committed
    // baseline keeps the stable per-variant format above). This is the
    // localization handle the ROADMAP's decision differ needs for the
    // Sreedhar III vs Sharing static-copy anomaly: a divergence shows up
    // here as a workload whose query ratio between the two variants is an
    // outlier, narrowing the function range to diff first.
    println!("\nper-workload interference queries:");
    print!("{:<14}", "");
    for workload in &corpus {
        print!(" {:>10}", workload.name);
    }
    println!();
    for (name, queries) in &per_workload {
        print!("{name:<14}");
        for q in queries {
            print!(" {q:>10}");
        }
        println!();
    }

    if let Some(path) = write {
        match std::fs::write(&path, &report) {
            Ok(()) => println!("wrote {path}"),
            Err(err) => {
                eprintln!("fingerprint: cannot write {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = check {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("fingerprint: cannot read baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        if baseline.trim_end() != report.trim_end() {
            eprintln!("fingerprint: MISMATCH against {path} — translated output changed");
            eprintln!("--- baseline\n{baseline}--- current\n{report}");
            return ExitCode::FAILURE;
        }
        println!("fingerprint: matches {path}");
    }
    ExitCode::SUCCESS
}
