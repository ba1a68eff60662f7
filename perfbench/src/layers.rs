//! Per-layer bookkeeping shared by the workloads: the deterministic counters
//! of one pass over a workload's inputs, and the traced time and
//! allocations of each layer call made from the benchmark's own code.

use out_of_ssa::destruct::OutOfSsaStats;
use out_of_ssa::liveness::AnalysisCounts;

use crate::stats::{layer_sum_ratio, per, within_tolerance};
use crate::{Outcome, LAYER_SUM_TOLERANCE};

/// Counters of one pass over a workload's inputs. Translation is
/// deterministic, so every pass of a run must produce the same counts; the
/// workloads check that.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassCounts {
    pub functions: usize,
    pub remaining_copies: usize,
    pub remaining_weighted: f64,
    pub moves_inserted: usize,
    pub moves_coalesced: usize,
    pub queries: u64,
    pub edges_split: usize,
    pub liveness_fallbacks: usize,
    pub footprint_bytes: usize,
    pub phis_inserted: usize,
    pub copies_propagated: usize,
    pub dead_removed: usize,
    pub spills: usize,
}

impl PassCounts {
    /// Adds one function's translation statistics.
    pub fn add_translation(&mut self, stats: &OutOfSsaStats) {
        self.functions += 1;
        self.remaining_copies += stats.remaining_copies;
        self.remaining_weighted += stats.remaining_weighted;
        self.moves_inserted += stats.moves_inserted;
        self.moves_coalesced += stats.moves_coalesced;
        self.queries += stats.interference_queries;
        self.edges_split += stats.edges_split;
        self.liveness_fallbacks += stats.liveness_fallbacks;
        self.footprint_bytes += stats.memory.total_bytes();
    }

    /// The per-pass counters of the `ssa`, `destruct` and `regalloc` layers.
    pub fn write_layers(&self, out: &mut Outcome) {
        out.set("destruct.remaining_weighted", self.remaining_weighted);
        out.set("ssa.phis_inserted", self.phis_inserted as f64);
        out.set("ssa.copies_propagated", self.copies_propagated as f64);
        out.set("ssa.dead_removed", self.dead_removed as f64);
        out.set("destruct.interference_queries", self.queries as f64);
        out.set("destruct.queries_per_fn", per(self.queries as f64, self.functions));
        out.set("destruct.moves_inserted", self.moves_inserted as f64);
        out.set("destruct.moves_coalesced", self.moves_coalesced as f64);
        out.set("destruct.coalesce_ratio", per(self.moves_coalesced as f64, self.moves_inserted));
        out.set("destruct.footprint_bytes", per(self.footprint_bytes as f64, self.functions));
        out.set("destruct.edges_split", self.edges_split as f64);
        out.set("destruct.liveness_fallbacks", self.liveness_fallbacks as f64);
        out.set("regalloc.spills", self.spills as f64);
    }
}

/// Seconds and allocations of each traced layer call, summed over the
/// traced functions, next to the untraced time of the same functions.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub functions: usize,
    /// Untraced end-to-end seconds of the same functions.
    pub untraced_s: f64,
    /// Wall seconds of the traced calls, instrumentation included.
    pub traced_wall_s: f64,
    pub construct_s: f64,
    pub copyprop_s: f64,
    pub dce_s: f64,
    pub cssa_check_s: f64,
    pub hook_s: f64,
    pub translate_s: f64,
    pub regalloc_s: f64,
    /// The translation's own phase clock ([`OutOfSsaStats::phase_seconds`]).
    pub liveness_s: f64,
    pub coalesce_s: f64,
    pub sequentialize_s: f64,
    pub queries: u64,
    pub ssa_allocs: u64,
    pub destruct_allocs: u64,
    pub regalloc_allocs: u64,
}

impl LayerTimes {
    /// Adds the translation's own phase clock and query count.
    pub fn add_phases(&mut self, stats: &OutOfSsaStats) {
        self.liveness_s += stats.phase_seconds.liveness;
        self.coalesce_s += stats.phase_seconds.coalesce;
        self.sequentialize_s += stats.phase_seconds.sequentialize;
        self.queries += stats.interference_queries;
    }

    fn spans(&self) -> [f64; 7] {
        [
            self.construct_s,
            self.copyprop_s,
            self.dce_s,
            self.cssa_check_s,
            self.hook_s,
            self.translate_s,
            self.regalloc_s,
        ]
    }

    /// Writes the per-function layer times and allocations.
    pub fn write_layers(&self, out: &mut Outcome) {
        let n = self.functions;
        out.set("ssa.construct_s", per(self.construct_s, n));
        out.set("ssa.copyprop_s", per(self.copyprop_s, n));
        out.set("ssa.dce_s", per(self.dce_s, n));
        out.set("ssa.cssa_check_s", per(self.cssa_check_s, n));
        out.set("ssa.allocs", per(self.ssa_allocs as f64, n));
        out.set("pipeline.hook_s", per(self.hook_s, n));
        out.set("destruct.translate_s", per(self.translate_s, n));
        out.set("destruct.liveness_s", per(self.liveness_s, n));
        out.set("destruct.coalesce_s", per(self.coalesce_s, n));
        out.set("destruct.sequentialize_s", per(self.sequentialize_s, n));
        let unattributed =
            self.translate_s - self.liveness_s - self.coalesce_s - self.sequentialize_s;
        out.set("destruct.unattributed_s", per(unattributed, n));
        out.set("destruct.ns_per_query", per(self.coalesce_s * 1e9, self.queries as usize));
        out.set("destruct.allocs", per(self.destruct_allocs as f64, n));
        out.set("regalloc.allocate_s", per(self.regalloc_s, n));
        out.set("regalloc.allocs", per(self.regalloc_allocs as f64, n));
    }

    /// Writes `pipeline.layer_sum_ratio` (checked by [`check_layer_sum`])
    /// and `bench.trace_overhead_ratio`.
    pub fn write_ratios(&self, out: &mut Outcome) {
        check_layer_sum(out, layer_sum_ratio(&self.spans(), self.untraced_s));
        out.set("bench.trace_overhead_ratio", self.traced_wall_s / self.untraced_s);
    }
}

/// Writes `pipeline.layer_sum_ratio` and marks the run invalid when it is
/// outside [`LAYER_SUM_TOLERANCE`]: the traced layers must account for the
/// untraced time.
pub fn check_layer_sum(out: &mut Outcome, ratio: f64) {
    out.set("pipeline.layer_sum_ratio", ratio);
    if !within_tolerance(ratio, LAYER_SUM_TOLERANCE) {
        out.invalid(format!(
            "traced layers sum to {ratio:.3} of the untraced time \
             (tolerance ±{LAYER_SUM_TOLERANCE})"
        ));
    }
}

/// Writes the analysis-cache compute counters accumulated between `before`
/// and `after`, divided by `passes` (per pass over the inputs).
pub fn write_analysis_counts(
    out: &mut Outcome,
    before: &AnalysisCounts,
    after: &AnalysisCounts,
    passes: usize,
) {
    let delta = |a: u64, b: u64| per((b - a) as f64, passes);
    out.set("liveness.sets_computes", delta(before.liveness_sets, after.liveness_sets));
    out.set("liveness.fast_computes", delta(before.fast_liveness, after.fast_liveness));
    out.set(
        "liveness.incremental_repairs",
        delta(before.liveness_incremental_repairs, after.liveness_incremental_repairs),
    );
    out.set(
        "liveness.block_recomputes",
        delta(before.liveness_block_recomputes, after.liveness_block_recomputes),
    );
    out.set("ir.cfg_computes", delta(before.ir.cfg, after.ir.cfg));
    out.set("ir.domtree_computes", delta(before.ir.domtree, after.ir.domtree));
}
