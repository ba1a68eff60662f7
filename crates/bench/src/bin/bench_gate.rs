//! CI bench regression gate.
//!
//! Compares the serial-translation seconds of a freshly produced
//! `BENCH_fig6.json` against the committed `BENCH_baseline.json` and exits
//! non-zero when the current numbers regress beyond a tolerance, failing the
//! CI job. Checked:
//!
//! 1. `batch_serial_seconds`, `seed_style_serial_seconds` and
//!    `batch_serial_validated_seconds` (the self-checking engine: serial
//!    batch under Structural output validation) each within
//!    `(1 + tolerance)` of the committed baseline (absolute trajectory);
//! 2. `batch_serial_seconds ≤ seed_style_serial_seconds × 1.10` (the batch
//!    engine must not fall behind the naive per-function loop — the
//!    regression an earlier PR fixed);
//! 3. the per-phase seconds (`liveness`/`coalesce`/`sequentialize`) each
//!    within tolerance of the baseline, with a 1 ms absolute floor so the
//!    sub-millisecond phases do not flap on scheduler jitter — a phase-local
//!    regression can no longer hide behind an improvement elsewhere;
//! 4. the serial allocation counts (`seed_style`/`batch`) and
//!    the serial interference-query count
//!    (`batch_serial_interference_queries`) within a fixed 2% tolerance
//!    (`ALLOC_TOLERANCE`) of the baseline — both counters are
//!    deterministic and machine-independent, so the wide timing tolerance
//!    of hosted runners must not apply: steady-state allocation-freedom and
//!    the coalescer's batched-query reduction cannot silently regress even
//!    when timing jitter masks them;
//! 5. the pooled streaming engine's steady-state allocations per translated
//!    function (`streaming_steady_state_allocations`) within the allocation
//!    tolerance of the baseline, and — machine-independently, within the
//!    current report alone — *flat across corpus scale*: the per-function
//!    count measured over 2× the corpus
//!    (`streaming_steady_state_allocations_2x`) must match the 1× count
//!    within the allocation tolerance plus a half-allocation floor. A
//!    steady-state cost that grows with how many functions have already
//!    streamed through (a leaked cache, storage that is not recycled)
//!    fails here even on a noisy runner;
//! 6. the per-phase timing, allocation-count and Figure 5 static-copy
//!    fields are present, so the perf trajectory never silently loses
//!    instrumentation;
//! 7. the saturated translation service: `service_throughput_fns_per_sec`
//!    as a **lower** bound, at least `(1 − tolerance)` × the baseline, and
//!    the per-request translate p99 `service_p99_seconds` as an upper
//!    bound, within `(1 + tolerance)` of the baseline plus 2 ms.
//!
//! Usage: `bench_gate [current.json] [baseline.json]`, defaulting to
//! `BENCH_fig6.json` and `BENCH_baseline.json`. The tolerance defaults to
//! 0.15 and can be overridden with `BENCH_GATE_TOLERANCE` (a fraction, e.g.
//! `0.25`) for noisier machines.

use std::process::ExitCode;

/// Relative tolerance of the deterministic counts (allocations,
/// interference queries). They do not vary with the machine, so they keep
/// this tight bound however far `BENCH_GATE_TOLERANCE` widens the timing
/// checks.
const ALLOC_TOLERANCE: f64 = 0.02;

/// Extracts the number following `"key":` in `json`. Whitespace-tolerant,
/// no external dependencies (the build environment is offline).
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Collects every `"key": <number>` field name of `json`, in order of
/// appearance (the same dependency-free scanning discipline as
/// [`extract_number`]).
fn numeric_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        let key = &after[..end];
        let tail = after[end + 1..].trim_start();
        if let Some(value) = tail.strip_prefix(':') {
            let value = value.trim_start();
            if value.starts_with(|c: char| c.is_ascii_digit() || c == '-')
                && !keys.iter().any(|k| k == key)
            {
                keys.push(key.to_string());
            }
        }
        rest = &after[end + 1..];
    }
    keys
}

/// Prints a field-by-field comparison of every numeric field of the two
/// reports — run when a *gated* field is missing, so the CI log shows at a
/// glance which side lost which instrumentation (a renamed field shows up as
/// one MISSING on each side) instead of a bare per-key error.
fn print_field_diff(current: &str, current_path: &str, baseline: &str, baseline_path: &str) {
    eprintln!("numeric-field diff ({current_path} vs {baseline_path}):");
    let mut keys = numeric_keys(current);
    for key in numeric_keys(baseline) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for key in &keys {
        match (extract_number(current, key), extract_number(baseline, key)) {
            (Some(cur), Some(base)) => eprintln!("  {key}: {cur} vs {base}"),
            (Some(cur), None) => eprintln!("  {key}: {cur} vs MISSING from {baseline_path}"),
            (None, Some(base)) => eprintln!("  {key}: MISSING from {current_path} vs {base}"),
            (None, None) => {}
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        eprintln!("usage: bench_gate [current.json] [baseline.json]");
        return ExitCode::from(2);
    }
    let current_path = args.first().cloned().unwrap_or_else(|| "BENCH_fig6.json".to_string());
    let baseline_path = args.get(1).cloned().unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let tolerance: f64 =
        std::env::var("BENCH_GATE_TOLERANCE").ok().and_then(|t| t.parse().ok()).unwrap_or(0.15);

    let read = |path: &str| -> Option<String> {
        match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(err) => {
                eprintln!("bench_gate: cannot read {path}: {err}");
                None
            }
        }
    };
    let (Some(current), Some(baseline)) = (read(&current_path), read(&baseline_path)) else {
        return ExitCode::FAILURE;
    };

    let mut failures = 0u32;
    let mut missing_fields = false;

    // The seconds comparisons are meaningless across different corpus
    // scales: a report regenerated at a smaller scale would pass trivially.
    match (extract_number(&current, "scale"), extract_number(&baseline, "scale")) {
        (Some(cur), Some(base)) if cur == base => {}
        (cur, base) => {
            eprintln!(
                "scale mismatch: current {cur:?} vs baseline {base:?} — regenerate {current_path} \
                 at the baseline's scale"
            );
            failures += 1;
        }
    }

    // One upper-bound comparison for every baseline-gated key but the
    // service throughput. `tol` is the relative tolerance (timing or
    // allocation); `floor` is an absolute slack added to the limit — 0 for
    // the totals and counts, 1 ms for the per-phase seconds and 2 ms for
    // the service p99, whose baselines are sub-millisecond or a few
    // milliseconds and would otherwise flap on scheduler jitter.
    let mut check_vs_baseline = |key: &str, unit: &str, tol: f64, floor: f64| match (
        extract_number(&current, key),
        extract_number(&baseline, key),
    ) {
        (Some(cur), Some(base)) => {
            let limit = base * (1.0 + tol) + floor;
            let verdict = if cur <= limit { "ok" } else { "REGRESSION" };
            println!(
                "{key}: current {cur:.6}{unit} vs baseline {base:.6}{unit} (limit {limit:.6}{unit}) — {verdict}"
            );
            if cur > limit {
                failures += 1;
            }
        }
        (cur, _) => {
            eprintln!(
                "{key}: missing from {}",
                if cur.is_none() { &current_path } else { &baseline_path }
            );
            failures += 1;
            missing_fields = true;
        }
    };
    check_vs_baseline("batch_serial_seconds", "s", tolerance, 0.0);
    check_vs_baseline("seed_style_serial_seconds", "s", tolerance, 0.0);
    // The self-checking engine (serial batch under Structural output
    // validation): tracked against the baseline so the cost of "always
    // validate" stays on the trajectory — a validator that quietly turns
    // quadratic fails here, not in a user's JIT.
    check_vs_baseline("batch_serial_validated_seconds", "s", tolerance, 0.0);
    // Per-phase bounds: a regression localized to one phase must fail even
    // when another phase's improvement hides it in the total.
    check_vs_baseline("liveness", "s", tolerance, 0.001);
    check_vs_baseline("coalesce", "s", tolerance, 0.001);
    check_vs_baseline("sequentialize", "s", tolerance, 0.001);
    check_vs_baseline("seed_style_serial_allocations", "", ALLOC_TOLERANCE, 0.0);
    check_vs_baseline("batch_serial_allocations", "", ALLOC_TOLERANCE, 0.0);
    // Interference queries are as deterministic as allocation counts: the
    // decide() loop issues them in a fixed order, so the 2% tolerance only
    // absorbs deliberate, reviewed churn — a lost batching optimisation
    // (e.g. the merge-sweep falling back to per-pair tests) fails here even
    // when the timing gate's jitter headroom would hide it.
    check_vs_baseline("batch_serial_interference_queries", "", ALLOC_TOLERANCE, 0.0);
    // Pooled streaming steady state, per translated function. The
    // half-allocation floor keeps a near-zero baseline from turning harmless
    // sub-allocation jitter into a failure while still catching any real
    // per-function cost.
    check_vs_baseline("streaming_steady_state_allocations", "", ALLOC_TOLERANCE, 0.5);
    // Saturated service tail latency. The 2 ms absolute floor covers one
    // scheduler preemption landing inside the timed window on a shared
    // runner (the p99 is a fraction of a millisecond, so a relative
    // tolerance alone would flap); a real tail regression — a lock convoy,
    // serialized workers — is well above it.
    check_vs_baseline("service_p99_seconds", "s", tolerance, 0.002);

    // Service throughput is the one lower-bounded field: the saturated
    // service must keep up with the baseline within the timing tolerance.
    let key = "service_throughput_fns_per_sec";
    match (extract_number(&current, key), extract_number(&baseline, key)) {
        (Some(cur), Some(base)) => {
            let floor = base * (1.0 - tolerance);
            let verdict = if cur >= floor { "ok" } else { "REGRESSION" };
            println!(
                "{key}: current {cur:.1} vs baseline {base:.2} (floor {floor:.1}) fns/s — {verdict}"
            );
            if cur < floor {
                failures += 1;
            }
        }
        (cur, _) => {
            eprintln!(
                "{key}: missing from {}",
                if cur.is_none() { &current_path } else { &baseline_path }
            );
            failures += 1;
            missing_fields = true;
        }
    }

    // Steady-state flatness across corpus scale, current report only (both
    // numbers come from the same run on the same machine, so no timing
    // tolerance applies): per-function allocations over 2× the corpus must
    // match the 1× measurement. This is the O(1)-heap-traffic invariant —
    // if translating function N+1 costs more because N functions already
    // streamed through, the 2× number exceeds the 1× number.
    match (
        extract_number(&current, "streaming_steady_state_allocations_2x"),
        extract_number(&current, "streaming_steady_state_allocations"),
    ) {
        (Some(at_2x), Some(at_1x)) => {
            let limit = at_1x * (1.0 + ALLOC_TOLERANCE) + 0.5;
            let verdict = if at_2x <= limit { "ok" } else { "REGRESSION" };
            println!(
                "streaming steady-state flatness: {at_2x:.4} allocs/function at 2x vs {at_1x:.4} \
                 at 1x (limit {limit:.4}) — {verdict}"
            );
            if at_2x > limit {
                failures += 1;
            }
        }
        (at_2x, _) => {
            eprintln!(
                "streaming flatness check: {} missing from {current_path}",
                if at_2x.is_none() {
                    "streaming_steady_state_allocations_2x"
                } else {
                    "streaming_steady_state_allocations"
                }
            );
            failures += 1;
            missing_fields = true;
        }
    }

    // Relative invariants, independent of machine speed, between two keys of
    // the *current* report (both sides sampled interleaved, min-of-5, so a
    // systematic gap is well above shared-runner noise at 10% slack).
    let mut check_relative = |num_key: &str, den_key: &str, slack: f64| match (
        extract_number(&current, num_key),
        extract_number(&current, den_key),
    ) {
        (Some(num), Some(den)) => {
            let verdict = if num <= den * slack { "ok" } else { "REGRESSION" };
            println!("{num_key} ≤ {slack:.2} × {den_key}: {num:.6}s vs {den:.6}s — {verdict}");
            if num > den * slack {
                failures += 1;
            }
        }
        (num, _) => {
            eprintln!(
                "relative check {num_key} vs {den_key}: {} missing from {current_path}",
                if num.is_none() { num_key } else { den_key }
            );
            failures += 1;
        }
    };
    // The batch engine must not fall behind the seed-style per-function loop
    // (the regression an earlier PR fixed).
    check_relative("batch_serial_seconds", "seed_style_serial_seconds", 1.10);

    // Instrumentation presence: the Figure 5 static-copy counts (the
    // ROADMAP quality check tracks the Sreedhar III vs Sharing ordering
    // across PRs through them). The timing and allocation fields are
    // already exercised by the baseline comparisons above.
    if !current.contains("\"figure5_static_copies\"") {
        eprintln!("figure5_static_copies: instrumentation field missing from {current_path}");
        failures += 1;
    }

    // A gated field went missing: show the full numeric-field diff so the
    // CI log localizes the lost (or renamed) instrumentation immediately.
    if missing_fields {
        print_field_diff(&current, &current_path, &baseline, &baseline_path);
    }

    if failures > 0 {
        eprintln!("bench_gate: {failures} check(s) failed (tolerance {tolerance})");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all checks passed (tolerance {tolerance})");
        ExitCode::SUCCESS
    }
}
