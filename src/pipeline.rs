//! The unified pass pipeline: one analysis cache from SSA construction to
//! register allocation.
//!
//! The paper frames out-of-SSA translation as one stage of a compiler
//! pipeline whose engineering cost is dominated by recomputed analyses.
//! [`Pipeline`] is the pass-manager layer that makes the compute-once claim
//! hold for the *whole* flow, not just the translation: it owns a single
//! [`EngineWorker`] — one [`FunctionAnalyses`] cache, one SSA-pass scratch,
//! one translation scratch, one verifier scratch and one function pool —
//! and one [`RegallocScratch`], and runs
//!
//! 0. [`verify_cfg_scratch`] — the structural check of the input, in the
//!    `try_run*` entry points only,
//! 1. [`construct_ssa_scratch`] — pruned SSA construction,
//! 2. [`propagate_copies_keeping_scratch`] — the optimization that breaks
//!    conventionality,
//! 3. [`eliminate_dead_code_scratch`],
//! 4. [`is_conventional_scratch`] — the CSSA check (optional),
//! 5. a caller-provided renaming-constraint hook (e.g. calling-convention
//!    pins),
//! 6. [`translate_out_of_ssa_scratch`] — the paper's translation,
//! 7. [`allocate_scratch`] — linear-scan register allocation (optional),
//!
//! with precise two-tier invalidation declared per pass: passes that only
//! touch the instruction stream (construction, copy propagation, DCE, copy
//! insertion, sequentialization) drop only the instruction-dependent caches,
//! while CFG mutations (edge splitting inside the translation) drop
//! everything. The result, provable through
//! [`FunctionAnalyses::counts`], is that every analysis is computed at most
//! once per (function, CFG version) — and the instruction-dependent ones at
//! most once per instruction version.
//!
//! Reusing one `Pipeline` across many functions additionally recycles the
//! analysis storage (CFG, dominator tree, frontiers, fast-liveness bit-sets,
//! congruence classes, decision maps) and every pass's working buffers:
//! invalidation hands the allocations to the next computation instead of
//! freeing them. Once warm, the only heap allocation of a run is the
//! [`Allocation`] it returns.
//!
//! # Examples
//!
//! ```
//! use out_of_ssa::cfggen::{generate_function, GenConfig};
//! use out_of_ssa::destruct::OutOfSsaOptions;
//! use out_of_ssa::pipeline::Pipeline;
//!
//! let mut pipeline = Pipeline::new(OutOfSsaOptions::default()).with_registers(8);
//! let mut func = generate_function("demo", &GenConfig::small(), 42);
//! let report = pipeline.run(&mut func);
//! assert_eq!(func.count_phis(), 0);
//! assert!(report.allocation.is_some());
//! ```

use ossa_destruct::fault::{self, TranslatePhase};
use ossa_destruct::{
    translate_out_of_ssa_scratch, EngineWorker, Ladder, Limits, OutOfSsaOptions, OutOfSsaStats,
    TranslateError,
};
use ossa_ir::{verify_cfg_scratch, Function};
use ossa_liveness::{AnalysisCounts, FunctionAnalyses};
use ossa_regalloc::{allocate_scratch, Allocation, RegallocScratch};
use ossa_ssa::{
    construct_ssa_scratch, eliminate_dead_code_scratch, is_conventional_scratch,
    propagate_copies_keeping_scratch, CopyPropagation, DeadCodeElimination, SsaConstruction,
};

/// Report of one [`Pipeline::run`]: the per-pass statistics in pass order.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// SSA construction statistics.
    pub construction: SsaConstruction,
    /// Copy-propagation statistics.
    pub copy_propagation: CopyPropagation,
    /// Dead-code-elimination statistics.
    pub dead_code: DeadCodeElimination,
    /// Whether the function was still in conventional SSA form after the
    /// optimizations (`None` when the check is disabled). Copy propagation
    /// generally breaks conventionality — that is what the translation has
    /// to repair.
    pub conventional_after_opt: Option<bool>,
    /// Out-of-SSA translation statistics.
    pub translation: OutOfSsaStats,
    /// Register allocation (`None` when no register count is configured).
    pub allocation: Option<Allocation>,
}

/// The retry ladder records its verdict in the translation statistics.
impl AsMut<OutOfSsaStats> for PipelineReport {
    fn as_mut(&mut self) -> &mut OutOfSsaStats {
        &mut self.translation
    }
}

/// The pass pipeline: one engine worker — analysis cache, translation
/// scratch and function pool — and the register allocator's scratch, owned
/// across passes *and* across functions.
///
/// See the [module documentation](self) for the flow and the invalidation
/// contract.
#[derive(Debug)]
pub struct Pipeline {
    ladder: Ladder,
    limits: Limits,
    passes: Passes,
    worker: EngineWorker,
    /// Not rebuilt by a failed attempt's quarantine: every allocation
    /// resets it before use.
    regalloc: RegallocScratch,
}

/// The pass configuration of a [`Pipeline`] apart from the translation.
#[derive(Clone, Copy, Debug)]
struct Passes {
    num_regs: Option<u32>,
    check_conventional: bool,
}

impl Pipeline {
    /// Creates a pipeline translating with `ladder` (plain
    /// [`OutOfSsaOptions`] are one unvalidated rung); no register
    /// allocation, full copy propagation, CSSA check enabled.
    ///
    /// [`Pipeline::run`] is the unchecked fast path and uses only the first
    /// rung's options. The `try_run*` entry points walk the whole ladder:
    /// each rung validates the pipeline's output against a pristine
    /// snapshot of the pre-SSA input at its [`ValidationMode`] — the whole
    /// SSA-construction, optimization and destruction stack must preserve
    /// behaviour — and any failure (panic, limit, validation) re-runs the
    /// whole pipeline on the restored input with the next rung.
    ///
    /// [`ValidationMode`]: ossa_destruct::ValidationMode
    pub fn new(ladder: impl Into<Ladder>) -> Self {
        Self {
            ladder: ladder.into(),
            limits: Limits::default(),
            passes: Passes { num_regs: None, check_conventional: true },
            worker: EngineWorker::new(),
            regalloc: RegallocScratch::new(),
        }
    }

    /// Sets the resource bounds enforced by [`Pipeline::try_run`] (the
    /// panic-free entry point); [`Pipeline::run`] ignores them.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Enables register allocation with `num_regs` architectural registers
    /// as the final pass.
    pub fn with_registers(mut self, num_regs: u32) -> Self {
        self.passes.num_regs = Some(num_regs);
        self
    }

    /// Enables or disables the CSSA check between the optimizations and the
    /// translation. It is a read-only diagnostic: disabling it skips its
    /// intersection queries. On a reducible CFG they query the fast liveness
    /// checker, which the default translation builds anyway; on an
    /// irreducible one, the liveness sets.
    pub fn with_cssa_check(mut self, check: bool) -> Self {
        self.passes.check_conventional = check;
        self
    }

    /// The shared analysis cache (for inspection; the compute counters in
    /// particular).
    pub fn analyses(&self) -> &FunctionAnalyses {
        &self.worker.analyses
    }

    /// The cumulative analysis compute counters across everything this
    /// pipeline has run.
    pub fn counts(&self) -> AnalysisCounts {
        self.worker.analyses.counts()
    }

    /// Runs the full pipeline on `func` (in virtual-register form) in place.
    pub fn run(&mut self, func: &mut Function) -> PipelineReport {
        self.run_with(func, |_| {})
    }

    /// Like [`Pipeline::run`], applying `constrain` between the SSA
    /// optimizations and the translation — the hook where renaming
    /// constraints (calling-convention pins, dedicated registers) are
    /// imposed.
    ///
    /// The hook is meant for pinning values ([`Function::pin_value`]): pins
    /// are not an analysis input. It must not change the block structure
    /// (the cache's debug-build shape stamp catches that). Instruction-level
    /// edits in the hook are tolerated — the pipeline drops every
    /// instruction-dependent cache right after the hook — but the CSSA
    /// verdict in the report describes the pre-hook code.
    pub fn run_with(
        &mut self,
        func: &mut Function,
        constrain: impl FnOnce(&mut Function),
    ) -> PipelineReport {
        let Self { ladder, passes, worker, regalloc, .. } = self;
        // A new function: drop (and recycle) everything from the previous one.
        worker.analyses.invalidate_cfg();
        passes.run(func, constrain, ladder.options(), worker, regalloc)
    }

    /// Fault-isolated [`Pipeline::run`]: the input is structurally verified
    /// and checked against the configured [`Limits`] up front, and the whole
    /// pipeline runs under a panic boundary, so a malformed, oversized or
    /// panicking function returns a typed [`TranslateError`] instead of
    /// unwinding into the caller. A deadline the caller installed with
    /// [`ossa_liveness::deadline::set_deadline`] spans the whole ladder and
    /// surfaces as [`TranslateError::DeadlineExceeded`].
    ///
    /// On `Err`, the pipeline's caches are quarantined (rebuilt fresh — an
    /// unwind can leave them mid-mutation) and `func` may have been
    /// partially rewritten; the pipeline itself stays usable and later
    /// functions translate bit-identically to a fault-free run. The happy
    /// path of [`Pipeline::run`] is untouched: it performs no catching, no
    /// release-mode verification and no limit checks.
    pub fn try_run(&mut self, func: &mut Function) -> Result<PipelineReport, TranslateError> {
        self.try_run_with(func, |_| {})
    }

    /// Like [`Pipeline::try_run`], applying `constrain` between the SSA
    /// optimizations and the translation (the [`Pipeline::run_with`] hook).
    /// The hook is `FnMut` because a retry re-runs the whole pipeline —
    /// including the hook — on the restored pristine input.
    pub fn try_run_with(
        &mut self,
        func: &mut Function,
        mut constrain: impl FnMut(&mut Function),
    ) -> Result<PipelineReport, TranslateError> {
        let Self { ladder, limits, passes, worker, regalloc } = self;
        let pristine = ladder.needs_snapshot().then(|| worker.pool.checkout_clone_of(func));
        let walk = ladder.walk(0, func, pristine.as_ref(), |func, rung, _| {
            // The differential reference is the pre-SSA *input*.
            worker.attempt(func, rung, limits, pristine.as_ref(), |worker, func| {
                // The pipeline ingests virtual-register (pre-SSA) code, so
                // only the structural verifier applies here; SSA invariants
                // are established by the construction pass itself, which
                // reuses the CFG the verifier computed into the cache.
                worker.analyses.invalidate_cfg();
                verify_cfg_scratch(func, &worker.analyses, &mut worker.verify).map_err(
                    |errors| TranslateError::Malformed {
                        phase: TranslatePhase::Verify,
                        detail: errors.to_string(),
                    },
                )?;
                Ok(passes.run(func, &mut constrain, &rung.options, worker, regalloc))
            })
        });
        if let Some(pristine) = pristine {
            worker.pool.retire(pristine);
        }
        walk.result
    }
}

impl Passes {
    fn run(
        self,
        func: &mut Function,
        constrain: impl FnOnce(&mut Function),
        options: &OutOfSsaOptions,
        worker: &mut EngineWorker,
        regalloc: &mut RegallocScratch,
    ) -> PipelineReport {
        // The caller invalidated the cache for this function.
        let EngineWorker { analyses, ssa, scratch, .. } = worker;

        // Middle end, in the worker's recycled SSA scratch. These are all
        // instruction-only mutations, and each pass invalidates only the
        // instruction-level analyses, so the CFG analyses computed by the
        // first pass survive until the translation splits an edge (if ever).
        fault::enter_phase(&func.name, TranslatePhase::Ssa);
        let construction = construct_ssa_scratch(func, analyses, ssa);
        let copy_propagation = propagate_copies_keeping_scratch(func, 0, analyses, ssa);
        let dead_code = eliminate_dead_code_scratch(func, analyses, ssa);
        let conventional_after_opt =
            self.check_conventional.then(|| is_conventional_scratch(func, analyses, ssa));

        // Renaming constraints (pins, possibly instruction edits; see the
        // doc contract). The hook may edit instructions, so it ends an
        // instruction version like any other pass: the def/use index (and,
        // on an irreducible CFG, the liveness sets) cached by the CSSA check
        // are dropped, while the fast liveness checker reads only the CFG and
        // survives. Pins-only hooks pay nothing extra: the translation
        // rebuilds both after its copy insertion anyway.
        constrain(func);
        analyses.invalidate_instructions();

        // Back end over the same cache.
        let translation = translate_out_of_ssa_scratch(func, options, analyses, scratch);
        fault::enter_phase(&func.name, TranslatePhase::Regalloc);
        let allocation = self.num_regs.map(|regs| allocate_scratch(func, regs, analyses, regalloc));

        PipelineReport {
            construction,
            copy_propagation,
            dead_code,
            conventional_after_opt,
            translation,
            allocation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_cfggen::{generate_function, pin_call_conventions, GenConfig};
    use ossa_destruct::translate_out_of_ssa;
    use ossa_interp::{same_behaviour, ExecError, Interpreter};
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::BinaryOp;
    use ossa_regalloc::{allocate, check_allocation};
    use ossa_ssa::{construct_ssa, eliminate_dead_code, is_conventional, propagate_copies};

    #[test]
    fn pipeline_matches_the_manual_pass_sequence() {
        let options = OutOfSsaOptions::default();
        let mut pipeline = Pipeline::new(options.clone()).with_registers(8);
        for seed in 0..6u64 {
            let config = GenConfig::small();
            let reference = generate_function(format!("p{seed}"), &config, seed);

            // Manual flow: fresh analyses in every pass.
            let mut manual = reference.clone();
            let construction = construct_ssa(&mut manual);
            let prop = propagate_copies(&mut manual);
            let dce = eliminate_dead_code(&mut manual);
            let conventional = is_conventional(&manual);
            pin_call_conventions(&mut manual);
            let translation = translate_out_of_ssa(&mut manual, &options);
            let allocation = allocate(&manual, 8);

            // Pipeline flow: one shared cache, reused across seeds.
            let mut piped = reference.clone();
            let report = pipeline.run_with(&mut piped, |f| {
                pin_call_conventions(f);
            });

            assert_eq!(manual, piped, "seed {seed}: translated code differs");
            assert_eq!(report.construction, construction);
            assert_eq!(report.copy_propagation, prop);
            assert_eq!(report.dead_code, dce);
            assert_eq!(report.conventional_after_opt, Some(conventional));
            assert_eq!(report.translation, translation);
            let piped_alloc = report.allocation.expect("allocation configured");
            assert_eq!(piped_alloc.locations, allocation.locations, "seed {seed}");
            assert_eq!(piped_alloc.spills, allocation.spills, "seed {seed}");
            check_allocation(&piped, &piped_alloc, 8).expect("allocation verifies");

            // End-to-end behaviour against the pre-SSA reference.
            for args in [[1, 2, 3], [0, -4, 9]] {
                let a = Interpreter::new().run(&reference, &args).expect("reference runs");
                let b = Interpreter::new().run(&piped, &args).expect("pipeline output runs");
                assert!(same_behaviour(&a, &b), "seed {seed} differs on {args:?}");
            }
        }
    }

    /// Asserts that between `before` and `after` every analysis was computed
    /// at most once per version it saw.
    fn assert_computed_once_per_version(before: &AnalysisCounts, after: &AnalysisCounts) {
        let cfg_versions = after.ir.cfg_versions - before.ir.cfg_versions + 1;
        let inst_versions = after.inst_versions - before.inst_versions + 1;
        assert!(after.ir.cfg - before.ir.cfg <= cfg_versions, "cfg recomputed");
        assert!(after.ir.domtree - before.ir.domtree <= cfg_versions, "domtree recomputed");
        assert!(after.ir.frontiers - before.ir.frontiers <= cfg_versions, "frontiers recomputed");
        assert!(after.ir.loops - before.ir.loops <= cfg_versions, "loops recomputed");
        assert!(
            after.ir.frequencies - before.ir.frequencies <= cfg_versions,
            "frequencies recomputed"
        );
        assert!(
            after.fast_liveness - before.fast_liveness <= cfg_versions,
            "fast liveness recomputed for an unchanged CFG"
        );
        assert!(
            after.liveness_sets - before.liveness_sets <= inst_versions,
            "liveness sets recomputed for unchanged instructions"
        );
        assert!(
            after.live_range_info - before.live_range_info <= inst_versions,
            "def/use index recomputed for unchanged instructions"
        );
    }

    #[test]
    fn no_analysis_is_computed_twice_per_version() {
        let mut pipeline = Pipeline::new(OutOfSsaOptions::default()).with_registers(8);
        for seed in 0..8u64 {
            let mut func = generate_function(format!("count{seed}"), &GenConfig::small(), seed);
            let before = pipeline.counts();
            pipeline.run_with(&mut func, |f| {
                pin_call_conventions(f);
            });
            assert_computed_once_per_version(&before, &pipeline.counts());
        }
    }

    /// `x` is defined on one path only and carried around a loop:
    ///
    /// ```text
    /// entry:  p, n = params; one = const 1; br p, def, header
    /// def:    x = const 7; jump header
    /// header: br n, body, exit
    /// body:   x = x + one; n = n - one; jump header
    /// exit:   return x
    /// ```
    fn partially_defined_loop_variable() -> Function {
        let mut b = FunctionBuilder::new("partial", 2);
        let [entry, def, header, body, exit] = [(); 5].map(|_| b.create_block());
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let n = b.param(1);
        let one = b.iconst(1);
        b.branch(p, def, header);
        b.switch_to_block(def);
        let x = b.iconst(7);
        b.jump(header);
        b.switch_to_block(header);
        b.branch(n, body, exit);
        b.switch_to_block(body);
        b.binary_to(BinaryOp::Add, x, x, one);
        b.binary_to(BinaryOp::Sub, n, n, one);
        b.jump(header);
        b.switch_to_block(exit);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn construction_recomputes_liveness_after_inserting_entry_definitions() {
        // The one path on which construction edits the function before it
        // is done reading liveness: `x` is live-in at the entry, so it gets
        // a zero entry definition and the liveness sets are recomputed for
        // φ placement. Register allocation computes them a third time.
        let input = partially_defined_loop_variable();
        let mut func = input.clone();
        let mut pipeline = Pipeline::new(OutOfSsaOptions::default()).with_registers(8);
        let before = pipeline.counts();
        let report = pipeline.run(&mut func);
        let after = pipeline.counts();
        assert_computed_once_per_version(&before, &after);
        assert_eq!(after.liveness_sets - before.liveness_sets, 3);
        check_allocation(&func, &report.allocation.expect("allocation configured"), 8)
            .expect("allocation verifies");

        for (args, expected) in [([1, 3], 10), ([1, 0], 7), ([0, 2], 2), ([0, 0], 0)] {
            let output = Interpreter::new().run(&func, &args).expect("output runs");
            assert_eq!(output.returned, Some(expected), "{args:?}");
            match Interpreter::new().run(&input, &args) {
                Ok(reference) => assert!(same_behaviour(&reference, &output), "{args:?}"),
                // Where the input reads `x` undefined, the output reads the
                // zero entry definition instead.
                Err(err) => {
                    assert_eq!(args[0], 0, "{args:?}: {err}");
                    assert!(matches!(err, ExecError::UndefinedValue(_)), "{args:?}: {err}");
                }
            }
        }
    }

    #[test]
    fn an_entry_block_with_a_predecessor_is_rejected_as_malformed() {
        // entry: a = const 64; f = load a; store a, 1; br f, use, def
        // def:   x = const 5; jump entry
        // use:   return x
        // The interpreter returns 5. A zero entry definition of `x` would
        // run again on the way back from `def` and overwrite it.
        let mut b = FunctionBuilder::new("entry_loop", 0);
        let [entry, def, use_block] = [(); 3].map(|_| b.create_block());
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.iconst(64);
        let f = b.load(a);
        let stored = b.iconst(1);
        b.store(a, stored);
        b.branch(f, use_block, def);
        b.switch_to_block(def);
        let x = b.iconst(5);
        b.jump(entry);
        b.switch_to_block(use_block);
        b.ret(Some(x));
        let mut func = b.finish();
        assert_eq!(Interpreter::new().run(&func, &[]).expect("input runs").returned, Some(5));

        let err = Pipeline::new(OutOfSsaOptions::default())
            .try_run(&mut func)
            .expect_err("the entry block has a predecessor");
        let TranslateError::Malformed { phase, detail } = err else {
            panic!("expected Malformed, got {err:?}");
        };
        assert_eq!(phase, TranslatePhase::Verify);
        assert!(detail.contains("entry block has a predecessor"), "{detail}");
    }

    #[test]
    fn liveness_sets_are_computed_twice_per_reducible_function() {
        // Once for pruned SSA construction and once for register
        // allocation: the CSSA check and the translation query the fast
        // checker instead.
        let mut pipeline = Pipeline::new(OutOfSsaOptions::default()).with_registers(8);
        for seed in 0..12u64 {
            let config = if seed % 2 == 0 { GenConfig::small() } else { GenConfig::default() };
            let mut func = generate_function(format!("sets{seed}"), &config, seed);
            assert!(FunctionAnalyses::new().is_reducible(&func), "seed {seed}: irreducible");
            let before = pipeline.counts().liveness_sets;
            let report = pipeline.run_with(&mut func, |f| {
                pin_call_conventions(f);
            });
            assert!(report.conventional_after_opt.is_some());
            assert_eq!(pipeline.counts().liveness_sets - before, 2, "seed {seed}");
        }
    }

    #[test]
    fn deadline_aborts_try_run_with_a_typed_error_and_is_restored() {
        use ossa_liveness::deadline::set_deadline;
        use std::time::Instant;

        let mut pipeline = Pipeline::new(OutOfSsaOptions::default());
        let mut func = generate_function("dl", &GenConfig::small(), 3);
        // A caller-installed deadline (as a service worker installs one per
        // request) that has already passed.
        set_deadline(Some(Instant::now()));
        let result = pipeline.try_run(&mut func);
        set_deadline(None);
        let err = result.expect_err("an expired deadline aborts the run");
        assert!(matches!(err, TranslateError::DeadlineExceeded { .. }), "got {err:?}");
        // With the deadline cleared, the same (quarantined) pipeline
        // translates the input like a fresh one.
        let mut healed = generate_function("dl", &GenConfig::small(), 3);
        pipeline.try_run(&mut healed).expect("no deadline");
        let mut fresh = generate_function("dl", &GenConfig::small(), 3);
        Pipeline::new(OutOfSsaOptions::default()).try_run(&mut fresh).unwrap();
        assert_eq!(healed, fresh);
    }

    #[test]
    fn pipeline_without_allocation_or_check_still_translates() {
        let mut pipeline = Pipeline::new(OutOfSsaOptions::sharing()).with_cssa_check(false);
        let mut func = generate_function("bare", &GenConfig::small(), 7);
        let report = pipeline.run(&mut func);
        assert_eq!(func.count_phis(), 0);
        assert!(report.allocation.is_none());
        assert!(report.conventional_after_opt.is_none());
        assert!(report.translation.phis_removed >= 1);
    }
}
