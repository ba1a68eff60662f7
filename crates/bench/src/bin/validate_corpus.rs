//! Full-corpus self-check: translate the benchmark corpus under
//! *Differential* validation with one conservative retry, and fail the
//! process if any function fails validation, needs the retry, or comes out
//! of the engine with an error.
//!
//! This is the CI end of the self-checking-translation design: every
//! function's pre-translation behaviour is replayed against its translated
//! output on the shared deterministic argument sets, so a silent miscompile
//! anywhere in the translation (the lost-copy/swap hazards the paper's
//! algorithms exist to avoid) turns into a red job instead of wrong code.
//! A miscompile of the default options that the conservative retry heals
//! fails the run too: the retry hides it from the output, not from CI. On
//! a healthy engine the run reports zero validation failures and zero
//! recoveries; the report JSON records the counters either way so the CI
//! artifact shows exactly what the oracle replayed.
//!
//! Usage: `validate_corpus [scale] [--json PATH]` (default scale 1.0,
//! default report `VALIDATE_corpus.json`).

use std::process::ExitCode;

use ossa_destruct::{Engine, Ladder, OutOfSsaOptions, ValidationMode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut json_path = "VALIDATE_corpus.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                if let Some(path) = args.get(i + 1) {
                    json_path = path.clone();
                }
                i += 2;
            }
            other => {
                match other.parse::<f64>() {
                    Ok(s) => scale = s,
                    Err(_) => {
                        eprintln!("unknown argument: {other}");
                        eprintln!("usage: validate_corpus [scale] [--json PATH]");
                        return ExitCode::from(2);
                    }
                }
                i += 1;
            }
        }
    }

    let corpus = ossa_bench::corpus(scale);
    let mut work: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();
    let total_functions = work.len();
    let options = OutOfSsaOptions::default();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let engine = Engine::new(Ladder::retrying(options, ValidationMode::Differential, 1))
        .with_threads(threads);

    println!(
        "validate_corpus: {total_functions} functions at scale {scale}, differential \
         validation, 1 conservative retry, {threads} threads"
    );
    let start = std::time::Instant::now();
    let stats = engine.try_run(&mut work);
    let seconds = start.elapsed().as_secs_f64();

    let errors: Vec<(usize, String)> = stats
        .results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e.to_string())))
        .collect();
    let validation_failures = stats.validation_failures();
    let recovered = stats.recovered_functions();
    let liveness_fallbacks = stats.total().liveness_fallbacks;

    println!("  translated {total_functions} functions in {seconds:.3}s");
    println!(
        "  {validation_failures} validation failures, {recovered} recovered, \
         {} errors, {liveness_fallbacks} liveness fallbacks",
        errors.len()
    );
    for (i, err) in &errors {
        eprintln!("  function #{i} failed: {err}");
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str("  \"mode\": \"differential\",\n");
    json.push_str(&format!("  \"functions\": {total_functions},\n"));
    json.push_str(&format!("  \"seconds\": {seconds:.6},\n"));
    json.push_str(&format!("  \"validation_failures\": {validation_failures},\n"));
    json.push_str(&format!("  \"recovered_functions\": {recovered},\n"));
    json.push_str(&format!("  \"liveness_fallbacks\": {liveness_fallbacks},\n"));
    json.push_str(&format!("  \"errors\": {}\n", errors.len()));
    json.push_str("}\n");
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(err) => eprintln!("failed to write {json_path}: {err}"),
    }

    if errors.is_empty() && validation_failures == 0 && recovered == 0 {
        println!("validate_corpus: every function validated on the default options");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "validate_corpus: {validation_failures} validation failure(s), {recovered} \
             function(s) healed by the retry, {} error(s)",
            errors.len()
        );
        ExitCode::FAILURE
    }
}
