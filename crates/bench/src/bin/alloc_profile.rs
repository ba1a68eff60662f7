//! Allocation and wall-clock profile of the coalesce phase, by sub-stage.
//!
//! Runs a warm serial pass of the unchecked step over the SPEC-like corpus
//! with the [`ossa_destruct::set_coalesce_probe`] hook installed, and splits
//! the coalesce phase into its sub-stages (setup / affinity build / decide /
//! sharing / snapshot / rewrite), counting allocations and wall-clock per
//! sub-stage. "Warm" means one analysis cache and one scratch, grown by a
//! first pass over the corpus, as a long-running worker sees them.
//!
//! Usage: `alloc_profile [scale] [--json PATH]` (default scale 1.0).
//! `--json PATH` writes the drill-down as a JSON report (uploaded as a CI
//! artifact next to `BENCH_fig6.json`).

use std::cell::RefCell;
use std::time::Instant;

use ossa_bench::alloc::allocation_count;
use ossa_destruct::{
    set_coalesce_probe, translate_out_of_ssa_scratch, CoalesceStage, OutOfSsaOptions,
    TranslateScratch,
};
use ossa_liveness::FunctionAnalyses;

#[global_allocator]
static ALLOC: ossa_bench::alloc::CountingAllocator = ossa_bench::alloc::CountingAllocator;

/// Probed sub-stages of the coalesce phase, in pipeline order.
const STAGE_NAMES: [&str; 6] =
    ["setup", "affinity_build", "decide", "sharing", "snapshot", "rewrite"];

/// Per-sub-stage accumulators of the coalesce drill-down. The probe fires at
/// sub-stage starts; the allocation and time deltas between two firings are
/// attributed to the earlier stage, and `CoalesceStage::Done` closes the
/// last one, so inter-function driver work is attributed to no stage.
struct ProbeState {
    last: Option<(usize, u64, Instant)>,
    allocs: [u64; STAGE_NAMES.len()],
    nanos: [u64; STAGE_NAMES.len()],
}

thread_local! {
    static PROBE_STATE: RefCell<ProbeState> = const {
        RefCell::new(ProbeState {
            last: None,
            allocs: [0; STAGE_NAMES.len()],
            nanos: [0; STAGE_NAMES.len()],
        })
    };
}

fn stage_index(stage: CoalesceStage) -> Option<usize> {
    match stage {
        CoalesceStage::Setup => Some(0),
        CoalesceStage::AffinityBuild => Some(1),
        CoalesceStage::Decide => Some(2),
        CoalesceStage::Sharing => Some(3),
        CoalesceStage::Snapshot => Some(4),
        CoalesceStage::Rewrite => Some(5),
        CoalesceStage::Done => None,
    }
}

fn coalesce_stage_probe(stage: CoalesceStage) {
    let allocs_now = allocation_count();
    let now = Instant::now();
    PROBE_STATE.with(|state| {
        let mut state = state.borrow_mut();
        if let Some((idx, allocs_then, then)) = state.last {
            state.allocs[idx] += allocs_now - allocs_then;
            state.nanos[idx] += now.duration_since(then).as_nanos() as u64;
        }
        state.last = stage_index(stage).map(|idx| (idx, allocs_now, now));
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json_path = args.get(i + 1).cloned();
                i += 2;
            }
            other => {
                if let Ok(s) = other.parse::<f64>() {
                    scale = s;
                } else {
                    eprintln!("unknown argument: {other}");
                    eprintln!("usage: alloc_profile [scale] [--json PATH]");
                    std::process::exit(2);
                }
                i += 1;
            }
        }
    }
    let corpus = ossa_cfggen::spec_like_corpus(scale, true);
    let functions: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();
    coalesce_drilldown(&functions, &OutOfSsaOptions::default(), scale, json_path.as_deref());
}

/// A warm serial pass of the unchecked step with the sub-stage probe
/// installed, reporting allocations and wall-clock per coalesce sub-stage,
/// optionally as JSON.
fn coalesce_drilldown(
    functions: &[ossa_ir::Function],
    options: &OutOfSsaOptions,
    scale: f64,
    json_path: Option<&str>,
) {
    // One analysis cache and one scratch for both passes: the warm-up pass
    // (no probe) grows them to the corpus's high-water marks, so the probed
    // pass sees the recycled storage a long-running worker translates in.
    let mut analyses = FunctionAnalyses::new();
    let mut scratch = TranslateScratch::new();
    let mut pass = |work: &mut [ossa_ir::Function]| {
        for func in work {
            analyses.invalidate_cfg();
            let _ = translate_out_of_ssa_scratch(func, options, &mut analyses, &mut scratch);
        }
    };
    pass(&mut functions.to_vec());
    let mut work = functions.to_vec();
    set_coalesce_probe(Some(coalesce_stage_probe));
    let before = allocation_count();
    pass(&mut work);
    let warm_pass_allocs = allocation_count() - before;
    set_coalesce_probe(None);
    let (allocs, nanos) = PROBE_STATE.with(|state| (state.borrow().allocs, state.borrow().nanos));

    let stage_allocs: u64 = allocs.iter().sum();
    let stage_nanos: u64 = nanos.iter().sum();
    println!("coalesce allocation drill-down at scale {scale} over {} functions", functions.len());
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        println!("  {name:<15} {:>6} allocations  {:>9.3} ms", allocs[i], nanos[i] as f64 / 1e6);
    }
    println!(
        "  {:<15} {stage_allocs:>6} allocations  {:>9.3} ms",
        "coalesce total",
        stage_nanos as f64 / 1e6
    );
    println!("  warm serial pass total (all phases): {warm_pass_allocs} allocations");

    if let Some(path) = json_path {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str(&format!("  \"scale\": {scale},\n"));
        json.push_str("  \"phase\": \"coalesce\",\n");
        json.push_str(&format!("  \"functions\": {},\n", functions.len()));
        json.push_str("  \"stages\": {\n");
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            json.push_str(&format!(
                "    \"{name}\": {{ \"allocations\": {}, \"seconds\": {:.6} }}{}\n",
                allocs[i],
                nanos[i] as f64 / 1e9,
                if i + 1 < STAGE_NAMES.len() { "," } else { "" }
            ));
        }
        json.push_str("  },\n");
        json.push_str(&format!(
            "  \"total\": {{ \"allocations\": {stage_allocs}, \"seconds\": {:.6} }},\n",
            stage_nanos as f64 / 1e9
        ));
        json.push_str(&format!("  \"warm_pass_allocations\": {warm_pass_allocs}\n"));
        json.push_str("}\n");
        std::fs::write(path, json).expect("write drill-down JSON");
        println!("wrote {path}");
    }
}
