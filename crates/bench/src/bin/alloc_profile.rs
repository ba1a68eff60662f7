//! Per-phase allocation profile of the serial batch engine.
//!
//! Splits the batch-serial allocation count of `fig6_speed` into its
//! translation phases by driving them separately over the same corpus with
//! the counting allocator: copy insertion (isolation + Method I), the
//! analyses (CFG/domtree/frequencies + liveness backend + def/use index),
//! the decision phase, and sequentialization. The phases are re-driven
//! through the public pipeline entry points, so the split is approximate at
//! the boundaries but pins down where an allocation regression lives.
//!
//! Usage: `alloc_profile [scale] [--phase coalesce] [--json PATH]`
//! (default scale 1.0).
//!
//! With `--phase coalesce` the run instead splits the coalesce phase of a
//! warm serial pass by sub-stage (setup / affinity build / decide / sharing
//! / snapshot / rewrite) through the [`ossa_destruct::set_coalesce_probe`]
//! hook, counting allocations and wall-clock per sub-stage; `--json PATH`
//! writes that drill-down as a JSON report (uploaded as a CI artifact next
//! to `BENCH_fig6.json`).

use std::cell::RefCell;
use std::time::Instant;

use ossa_bench::alloc::allocation_count;
use ossa_destruct::{
    insertion, set_coalesce_probe, translate_out_of_ssa_scratch, CoalesceStage, Engine,
    OutOfSsaOptions, TranslateScratch,
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
    let mut phase: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--phase" => {
                phase = args.get(i + 1).cloned();
                i += 2;
            }
            "--json" => {
                json_path = args.get(i + 1).cloned();
                i += 2;
            }
            other => {
                if let Ok(s) = other.parse::<f64>() {
                    scale = s;
                } else {
                    eprintln!("unknown argument: {other}");
                    eprintln!("usage: alloc_profile [scale] [--phase coalesce] [--json PATH]");
                    std::process::exit(2);
                }
                i += 1;
            }
        }
    }
    if let Some(name) = &phase {
        if name != "coalesce" {
            eprintln!("unknown --phase {name}; only `coalesce` is supported");
            std::process::exit(2);
        }
    }
    let options = OutOfSsaOptions::default();
    let corpus = ossa_cfggen::spec_like_corpus(scale, true);
    let functions: Vec<_> = corpus.iter().flat_map(|w| w.functions.iter().cloned()).collect();

    if phase.is_some() {
        coalesce_drilldown(&functions, &options, scale, json_path.as_deref());
        return;
    }
    let engine = Engine::new(options.clone()).with_threads(1);

    // Warm-up run so lazy statics are out of the way. `Engine::run` starts
    // fresh workers on every call, so the counted run is a cold batch-serial
    // pass, like `fig6_speed`'s batch-serial allocation count.
    {
        let mut work = functions.clone();
        let _ = engine.run(&mut work);
    }

    // Whole batch-serial translation.
    let total = {
        let mut work = functions.clone();
        let before = allocation_count();
        let _ = engine.run(&mut work);
        allocation_count() - before
    };

    // Copy insertion alone (isolation + Method I) with recycled storage.
    let (insert_only, isolate_only) = {
        let mut work = functions.clone();
        let mut iso_work = functions.clone();
        let mut result = insertion::CopyInsertion::default();
        // Warm the recycled insertion storage.
        {
            let mut warm = functions[0].clone();
            result.reset();
            insertion::isolate_pinned_values(&mut warm, &mut result);
            insertion::insert_phi_copies_into(&mut warm, &mut result);
        }
        let before = allocation_count();
        for func in &mut iso_work {
            result.reset();
            insertion::isolate_pinned_values(func, &mut result);
        }
        let isolate_only = allocation_count() - before;
        let before = allocation_count();
        for func in &mut work {
            result.reset();
            insertion::isolate_pinned_values(func, &mut result);
            insertion::insert_phi_copies_into(func, &mut result);
        }
        (allocation_count() - before, isolate_only)
    };

    // Translation with sequentialization disabled: total minus this is the
    // sequentialization share.
    let no_seq = {
        let mut work = functions.clone();
        let opts = options.clone().with_sequentialize(false);
        let mut analyses = FunctionAnalyses::new();
        let mut scratch = TranslateScratch::new();
        {
            let mut warm = functions[0].clone();
            analyses.invalidate_cfg();
            let _ = translate_out_of_ssa_scratch(&mut warm, &opts, &mut analyses, &mut scratch);
        }
        let before = allocation_count();
        for func in &mut work {
            analyses.invalidate_cfg();
            let _ = translate_out_of_ssa_scratch(func, &opts, &mut analyses, &mut scratch);
        }
        allocation_count() - before
    };

    // Analyses alone over one recycled cache (pre-insertion shapes, so a
    // lower bound on the in-pipeline analysis share).
    let analyses_only = {
        let work = functions.clone();
        let mut analyses = FunctionAnalyses::new();
        {
            let warm = &functions[0];
            analyses.invalidate_cfg();
            let _ = analyses.frequencies(warm);
            let _ = analyses.live_range_info(warm);
            let _ = analyses.fast_liveness(warm);
        }
        let before = allocation_count();
        for func in &work {
            analyses.invalidate_cfg();
            let _ = analyses.frequencies(func);
            let _ = analyses.live_range_info(func);
            let _ = analyses.fast_liveness(func);
        }
        allocation_count() - before
    };

    // Sub-analysis increments (each loop adds one analysis to the forced
    // set; the delta is that analysis's share).
    let analysis_steps = {
        let work = functions.clone();
        let mut analyses = FunctionAnalyses::new();
        let force = |upto: usize, analyses: &mut FunctionAnalyses| -> u64 {
            {
                let warm = &functions[0];
                analyses.invalidate_cfg();
                let _ = analyses.domtree(warm);
                if upto >= 1 {
                    let _ = analyses.frequencies(warm);
                }
                if upto >= 2 {
                    let _ = analyses.live_range_info(warm);
                }
                if upto >= 3 {
                    let _ = analyses.fast_liveness(warm);
                }
            }
            let before = allocation_count();
            for func in &work {
                analyses.invalidate_cfg();
                let _ = analyses.domtree(func);
                if upto >= 1 {
                    let _ = analyses.frequencies(func);
                }
                if upto >= 2 {
                    let _ = analyses.live_range_info(func);
                }
                if upto >= 3 {
                    let _ = analyses.fast_liveness(func);
                }
            }
            allocation_count() - before
        };
        let domtree = force(0, &mut analyses);
        let freqs = force(1, &mut analyses);
        let info = force(2, &mut analyses);
        let fast = force(3, &mut analyses);
        (domtree, freqs, info, fast)
    };

    println!("allocation profile at scale {scale} over {} functions", functions.len());
    println!("  analyses alone (pre-insertion shapes) {analyses_only}");
    println!(
        "    cfg+domtree {}  +freqs {}  +def/use {}  +fastliveness {}",
        analysis_steps.0, analysis_steps.1, analysis_steps.2, analysis_steps.3
    );
    println!("  batch serial total          {total}");
    println!("  copy insertion alone        {insert_only}");
    println!("  isolation alone             {isolate_only}");
    println!("  without sequentialization   {no_seq}");
    println!("  sequentialization share     {}", total.saturating_sub(no_seq));
    println!("  per function (total)        {:.1}", total as f64 / functions.len() as f64);
}

/// The `--phase coalesce` drill-down: a warm serial pass of the unchecked
/// step with the sub-stage probe installed, reporting allocations and
/// wall-clock per coalesce sub-stage, optionally as JSON.
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
