//! Seeded random generator of structured, always-terminating functions.
//!
//! The generator produces *pre-SSA* functions (mutable virtual registers, no
//! φ-functions) made of nested if/else regions, bounded counted loops
//! (optionally using the `br_dec` hardware-loop terminator), calls, loads and
//! stores. [`to_optimized_ssa`] then converts a generated function to pruned
//! SSA and runs copy propagation — the combination that produces the
//! non-conventional SSA the out-of-SSA translation is evaluated on.

use ossa_ir::builder::FunctionBuilder;
use ossa_ir::entity::Value;
use ossa_ir::{BinaryOp, CmpOp, Function, InstData};
use ossa_liveness::FunctionAnalyses;
use ossa_ssa::{
    construct_ssa, construct_ssa_scratch, eliminate_dead_code, eliminate_dead_code_scratch,
    propagate_copies_keeping, propagate_copies_keeping_scratch, SsaScratch,
};

use crate::rng::SmallRng;

/// Recycled working storage for repeated function generation.
///
/// Holds the generator's own buffers (the variable pool, call-argument
/// assembly) plus an [`SsaScratch`] for the SSA conversion passes. Create one
/// per worker and thread it through [`generate_function_into_scratch`] /
/// [`to_optimized_ssa_cached`] / [`generate_ssa_function_into_cached`]: after
/// one warm-up function, generating and SSA-converting a function through a
/// recycled [`Function`] slot allocates nothing.
#[derive(Debug, Default)]
pub struct GenScratch {
    vars: Vec<Value>,
    args: Vec<Value>,
    /// Working storage for the SSA passes (construction, copy propagation,
    /// dead-code elimination).
    pub ssa: SsaScratch,
}

impl GenScratch {
    /// Creates empty scratch storage. Nothing is allocated until first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Tuning knobs for the random function generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Number of mutable virtual registers the function computes with.
    pub num_vars: usize,
    /// Rough number of statements to generate (controls function size).
    pub num_stmts: usize,
    /// Maximum nesting depth of if/else and loop regions.
    pub max_depth: usize,
    /// Probability of emitting a call statement.
    pub call_density: f64,
    /// Probability of emitting a load/store statement.
    pub memory_density: f64,
    /// Whether counted loops may use the `br_dec` terminator.
    pub enable_brdec: bool,
    /// Number of function parameters.
    pub num_params: u32,
    /// Probability of emitting an *irreducible* region — a bounded
    /// multi-entry loop (the entry branches into both halves of a cycle, so
    /// neither half dominates the other). Defaults to `0.0`, and the
    /// generator consumes **no** RNG draws for the knob at `0.0`, so every
    /// default-config seed produces bit-identical functions to builds
    /// without the knob (the corpus fingerprints do not move).
    pub irreducible_density: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            num_vars: 8,
            num_stmts: 40,
            max_depth: 3,
            call_density: 0.08,
            memory_density: 0.08,
            enable_brdec: true,
            num_params: 3,
            irreducible_density: 0.0,
        }
    }
}

impl GenConfig {
    /// A small configuration for quick tests.
    pub fn small() -> Self {
        Self { num_vars: 4, num_stmts: 12, max_depth: 2, ..Self::default() }
    }

    /// A larger configuration for benchmarks.
    pub fn large() -> Self {
        Self { num_vars: 16, num_stmts: 160, max_depth: 4, ..Self::default() }
    }
}

struct Gen<'a> {
    b: FunctionBuilder,
    cfg: &'a GenConfig,
    rng: SmallRng,
    vars: &'a mut Vec<Value>,
    args_buf: &'a mut Vec<Value>,
    callee_counter: u32,
}

impl<'a> Gen<'a> {
    fn random_var(&mut self) -> Value {
        self.vars[self.rng.below(self.vars.len())]
    }

    fn random_binop(&mut self) -> BinaryOp {
        BinaryOp::ALL[self.rng.below(BinaryOp::ALL.len())]
    }

    fn random_cmp(&mut self) -> CmpOp {
        CmpOp::ALL[self.rng.below(CmpOp::ALL.len())]
    }

    /// Emits one simple (non-control-flow) statement in the current block.
    fn gen_simple_stmt(&mut self) {
        let roll: f64 = self.rng.gen_f64();
        if roll < self.cfg.call_density {
            // dst = call f(args)
            let dst = self.random_var();
            let num_args = self.rng.range_inclusive(0, 3usize.min(self.vars.len()));
            self.args_buf.clear();
            for _ in 0..num_args {
                let arg = self.random_var();
                self.args_buf.push(arg);
            }
            let callee = self.callee_counter % 5;
            self.callee_counter += 1;
            let block = self.b.current_block();
            let args = self.b.func_mut().make_value_list(self.args_buf.as_slice());
            self.b.func_mut().append_inst(block, InstData::Call { dst: Some(dst), callee, args });
        } else if roll < self.cfg.call_density + self.cfg.memory_density {
            // Either a store or a load through a pool variable address.
            let addr = self.random_var();
            if self.rng.gen_bool(0.5) {
                let value = self.random_var();
                let block = self.b.current_block();
                self.b.func_mut().append_inst(block, InstData::Store { addr, value });
            } else {
                let dst = self.random_var();
                let block = self.b.current_block();
                self.b.func_mut().append_inst(block, InstData::Load { dst, addr });
            }
        } else if roll < self.cfg.call_density + self.cfg.memory_density + 0.25 {
            // dst = var (a copy: fodder for copy propagation)
            let dst = self.random_var();
            let src = self.random_var();
            if dst != src {
                self.b.copy_to(dst, src);
            } else {
                let imm = self.rng.range_i64(-8, 8);
                self.b.iconst_to(dst, imm);
            }
        } else {
            // dst = a op b, with b either a variable or a constant.
            let dst = self.random_var();
            let lhs = self.random_var();
            let op = self.random_binop();
            if self.rng.gen_bool(0.3) {
                let imm = self.rng.range_i64(-16, 16);
                let tmp = self.b.declare_value();
                self.b.iconst_to(tmp, imm);
                self.b.binary_to(op, dst, lhs, tmp);
            } else {
                let rhs = self.random_var();
                self.b.binary_to(op, dst, lhs, rhs);
            }
        }
    }

    /// Generates a region of roughly `budget` statements at nesting `depth`,
    /// starting in the current block. Leaves the builder positioned in the
    /// block where control continues.
    fn gen_region(&mut self, budget: usize, depth: usize) {
        let mut remaining = budget;
        while remaining > 0 {
            // The irreducible knob rolls first, but only when enabled: at
            // density 0.0 this consumes no RNG draw, so the default stream —
            // and with it every committed corpus fingerprint — is unchanged.
            if self.cfg.irreducible_density > 0.0
                && depth < self.cfg.max_depth
                && remaining >= 6
                && self.rng.gen_f64() < self.cfg.irreducible_density
            {
                let inner = remaining / 2;
                self.gen_irreducible_loop(inner, depth);
                remaining = remaining.saturating_sub(inner + 3);
                continue;
            }
            let roll: f64 = self.rng.gen_f64();
            if depth < self.cfg.max_depth && roll < 0.12 && remaining >= 6 {
                let inner = remaining / 2;
                self.gen_if_else(inner, depth);
                remaining = remaining.saturating_sub(inner + 2);
            } else if depth < self.cfg.max_depth && roll < 0.22 && remaining >= 6 {
                let inner = remaining / 2;
                self.gen_counted_loop(inner, depth);
                remaining = remaining.saturating_sub(inner + 3);
            } else {
                self.gen_simple_stmt();
                remaining -= 1;
            }
        }
    }

    /// `if (var cmp const) { ... } else { ... }` followed by a join block.
    fn gen_if_else(&mut self, budget: usize, depth: usize) {
        let scrutinee = self.random_var();
        let cmp = self.random_cmp();
        let threshold = self.rng.range_i64(-4, 4);
        let tval = self.b.declare_value();
        self.b.iconst_to(tval, threshold);
        let cond = self.b.declare_value();
        let block = self.b.current_block();
        self.b
            .func_mut()
            .append_inst(block, InstData::Cmp { op: cmp, dst: cond, args: [scrutinee, tval] });
        let then_bb = self.b.create_block();
        let else_bb = self.b.create_block();
        let join = self.b.create_block();
        self.b.branch(cond, then_bb, else_bb);

        self.b.switch_to_block(then_bb);
        self.gen_region(budget / 2, depth + 1);
        self.b.jump(join);

        self.b.switch_to_block(else_bb);
        self.gen_region(budget - budget / 2, depth + 1);
        self.b.jump(join);

        self.b.switch_to_block(join);
    }

    /// A loop executing a small constant number of iterations, either with an
    /// explicit decrement-and-compare or with the `br_dec` terminator.
    fn gen_counted_loop(&mut self, budget: usize, depth: usize) {
        let iterations = self.rng.range_i64(1, 5);
        // Dedicated counter variable, never touched by the loop body.
        let counter = self.b.declare_value();
        self.b.iconst_to(counter, iterations);

        let header = self.b.create_block();
        let exit = self.b.create_block();
        self.b.jump(header);
        self.b.switch_to_block(header);
        self.gen_region(budget, depth + 1);

        let use_brdec = self.cfg.enable_brdec && self.rng.gen_bool(0.4);
        if use_brdec {
            let block = self.b.current_block();
            self.b.func_mut().append_inst(
                block,
                InstData::BrDec { counter, dec: counter, loop_dest: header, exit_dest: exit },
            );
        } else {
            let one = self.b.declare_value();
            self.b.iconst_to(one, 1);
            self.b.binary_to(BinaryOp::Sub, counter, counter, one);
            let zero = self.b.declare_value();
            self.b.iconst_to(zero, 0);
            let cond = self.b.declare_value();
            let block = self.b.current_block();
            self.b.func_mut().append_inst(
                block,
                InstData::Cmp { op: CmpOp::Gt, dst: cond, args: [counter, zero] },
            );
            self.b.branch(cond, header, exit);
        }
        self.b.switch_to_block(exit);
    }

    /// A bounded *multi-entry* loop — the canonical irreducible shape. The
    /// current block branches into both halves `a` and `b` of the cycle
    /// `a → b → a`, so neither half dominates the other and the retreating
    /// edge closing the cycle fails the reducibility criterion (its target
    /// does not dominate its source). A dedicated counter decremented in `b`
    /// bounds the trip count, keeping generated functions terminating by
    /// construction; every path around the cycle passes through `b`.
    fn gen_irreducible_loop(&mut self, budget: usize, depth: usize) {
        let iterations = self.rng.range_i64(1, 5);
        // Dedicated counter variable, never touched by the loop body.
        let counter = self.b.declare_value();
        self.b.iconst_to(counter, iterations);

        // The entry comparison picks which half of the cycle runs first.
        let scrutinee = self.random_var();
        let cmp = self.random_cmp();
        let threshold = self.rng.range_i64(-4, 4);
        let tval = self.b.declare_value();
        self.b.iconst_to(tval, threshold);
        let entry_cond = self.b.declare_value();
        let block = self.b.current_block();
        self.b.func_mut().append_inst(
            block,
            InstData::Cmp { op: cmp, dst: entry_cond, args: [scrutinee, tval] },
        );
        let a = self.b.create_block();
        let b = self.b.create_block();
        let exit = self.b.create_block();
        self.b.branch(entry_cond, a, b);

        // First half: statements, then fall into the second half.
        self.b.switch_to_block(a);
        self.gen_region(budget / 2, depth + 1);
        self.b.jump(b);

        // Second half: statements, decrement the counter, then either take
        // the retreating edge back to `a` or leave the cycle.
        self.b.switch_to_block(b);
        self.gen_region(budget - budget / 2, depth + 1);
        let one = self.b.declare_value();
        self.b.iconst_to(one, 1);
        self.b.binary_to(BinaryOp::Sub, counter, counter, one);
        let zero = self.b.declare_value();
        self.b.iconst_to(zero, 0);
        let back_cond = self.b.declare_value();
        let block = self.b.current_block();
        self.b.func_mut().append_inst(
            block,
            InstData::Cmp { op: CmpOp::Gt, dst: back_cond, args: [counter, zero] },
        );
        self.b.branch(back_cond, a, exit);

        self.b.switch_to_block(exit);
    }
}

/// Generates one pre-SSA function named `name` from `seed`.
pub fn generate_function(name: impl Into<String>, config: &GenConfig, seed: u64) -> Function {
    let mut scratch = GenScratch::new();
    generate_with(FunctionBuilder::new(name, config.num_params), config, seed, &mut scratch)
}

/// Like [`generate_function`], building through the recycled storage of
/// `func` ([`FunctionBuilder::reuse`]): blocks, instructions, values and the
/// operand arenas are reset in O(current function) and reused, and the
/// result is bit-identical to a fresh [`generate_function`] build.
pub fn generate_function_into(
    func: Function,
    name: impl AsRef<str>,
    config: &GenConfig,
    seed: u64,
) -> Function {
    let mut scratch = GenScratch::new();
    generate_function_into_scratch(func, name, config, seed, &mut scratch)
}

/// Like [`generate_function_into`], additionally recycling the generator's
/// working buffers from `scratch`. With a warm `func` slot (e.g. from a
/// [`ossa_ir::FunctionPool`]) and warm scratch, generation allocates
/// nothing; the result stays bit-identical to a fresh build.
pub fn generate_function_into_scratch(
    func: Function,
    name: impl AsRef<str>,
    config: &GenConfig,
    seed: u64,
    scratch: &mut GenScratch,
) -> Function {
    generate_with(FunctionBuilder::reuse(func, name, config.num_params), config, seed, scratch)
}

fn generate_with(
    builder: FunctionBuilder,
    config: &GenConfig,
    seed: u64,
    scratch: &mut GenScratch,
) -> Function {
    scratch.vars.clear();
    let mut gen = Gen {
        b: builder,
        cfg: config,
        rng: SmallRng::seed_from_u64(seed),
        vars: &mut scratch.vars,
        args_buf: &mut scratch.args,
        callee_counter: 0,
    };

    let entry = gen.b.create_block();
    gen.b.set_entry(entry);
    gen.b.switch_to_block(entry);

    // Initialize the variable pool from parameters and constants so that the
    // function's behaviour depends on its inputs.
    for i in 0..config.num_vars {
        let var = gen.b.declare_value();
        if (i as u32) < config.num_params {
            let param = gen.b.param(i as u32);
            gen.b.copy_to(var, param);
        } else {
            gen.b.iconst_to(var, i as i64 + 1);
        }
        gen.vars.push(var);
    }

    gen.gen_region(config.num_stmts, 0);

    // Return a mix of the pool so most variables are live at the end (this
    // keeps loop-carried φ results live past their loops, the lost-copy
    // shape the out-of-SSA translation must handle).
    let mut acc = gen.vars[0];
    for i in 1..gen.vars.len() {
        let var = gen.vars[i];
        let sum = gen.b.declare_value();
        gen.b.binary_to(BinaryOp::Add, sum, acc, var);
        acc = sum;
    }
    gen.b.ret(Some(acc));
    gen.b.finish()
}

/// Statistics about the SSA conversion of a generated function.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimizedSsaStats {
    /// φ-functions inserted by SSA construction.
    pub phis: usize,
    /// Copies removed by copy propagation.
    pub copies_propagated: usize,
    /// Instructions removed by dead-code elimination.
    pub dead_removed: usize,
}

/// Converts a pre-SSA function into optimized (generally non-conventional)
/// SSA: construction, copy propagation, dead-code elimination. A third of
/// the copies are deliberately left in place (real optimizers never remove
/// all of them), which is where the coalescing strategies differ.
pub fn to_optimized_ssa(func: &mut Function) -> OptimizedSsaStats {
    let construction = construct_ssa(func);
    let prop = propagate_copies_keeping(func, 3);
    let dce = eliminate_dead_code(func);
    OptimizedSsaStats {
        phis: construction.phis_inserted,
        copies_propagated: prop.copies_removed,
        dead_removed: dce.insts_removed,
    }
}

/// Like [`to_optimized_ssa`], sharing the analysis cache in `analyses` and
/// recycling every working buffer from `scratch`.
///
/// This is the fix for the historical waste of the `*_into` path: the plain
/// [`to_optimized_ssa`] re-derives a fresh analysis cache inside SSA
/// construction even when the caller already owns a recycled one. Here the
/// CFG-level analyses are computed once into `analyses` and the
/// instruction-level caches are invalidated exactly when a pass changed the
/// instruction stream (the same contract as the `*_cached` passes). With
/// warm scratch and a recycled `func` slot the whole conversion allocates
/// nothing; the result is bit-identical to [`to_optimized_ssa`].
pub fn to_optimized_ssa_cached(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut GenScratch,
) -> OptimizedSsaStats {
    let phis = construct_ssa_scratch(func, analyses, &mut scratch.ssa).phis_inserted;
    let prop = propagate_copies_keeping_scratch(func, 3, analyses, &mut scratch.ssa);
    let dce = eliminate_dead_code_scratch(func, analyses, &mut scratch.ssa);
    OptimizedSsaStats {
        phis,
        copies_propagated: prop.copies_removed,
        dead_removed: dce.insts_removed,
    }
}

/// Generates a function and converts it to optimized SSA in one call.
pub fn generate_ssa_function(
    name: impl Into<String>,
    config: &GenConfig,
    seed: u64,
) -> (Function, OptimizedSsaStats) {
    let mut func = generate_function(name, config, seed);
    let stats = to_optimized_ssa(&mut func);
    (func, stats)
}

/// Like [`generate_ssa_function`], building through the recycled storage of
/// `func`; the result is bit-identical to the fresh entry point.
pub fn generate_ssa_function_into(
    func: Function,
    name: impl AsRef<str>,
    config: &GenConfig,
    seed: u64,
) -> (Function, OptimizedSsaStats) {
    let mut analyses = FunctionAnalyses::new();
    let mut scratch = GenScratch::new();
    generate_ssa_function_into_cached(func, name, config, seed, &mut analyses, &mut scratch)
}

/// Generates a function into the recycled storage of `func` and converts it
/// to optimized SSA through the shared `analyses` cache and recycled
/// `scratch` buffers — the pooled streaming path's builder protocol. After
/// one warm-up cycle, building the next function through a retired pool slot
/// allocates nothing; results are bit-identical to [`generate_ssa_function`].
pub fn generate_ssa_function_into_cached(
    func: Function,
    name: impl AsRef<str>,
    config: &GenConfig,
    seed: u64,
    analyses: &mut FunctionAnalyses,
    scratch: &mut GenScratch,
) -> (Function, OptimizedSsaStats) {
    let mut func = generate_function_into_scratch(func, name, config, seed, scratch);
    // The slot now holds an entirely different function: every cached
    // analysis (CFG-level included) is stale.
    analyses.invalidate_cfg();
    let stats = to_optimized_ssa_cached(&mut func, analyses, scratch);
    (func, stats)
}

/// Pins the results and first arguments of calls to architectural registers,
/// emulating calling-convention renaming constraints. Returns the number of
/// values pinned.
pub fn pin_call_conventions(func: &mut Function) -> usize {
    use ossa_ir::instruction::callconv;
    let mut pinned = 0;
    // Pinning never changes the layout or the block instruction lists, so
    // everything is walked by index; the covered argument prefix is bounded
    // by the number of argument registers, so a fixed buffer suffices and
    // the pass allocates nothing.
    let mut covered = [Value::from_index(0); callconv::NUM_ARG_REGS];
    for bi in 0..func.layout().len() {
        let block = func.layout()[bi];
        for ii in 0..func.block_len(block) {
            let inst = func.block_insts(block)[ii];
            if let InstData::Call { dst, args, .. } = *func.inst(inst) {
                let mut covered_len = 0usize;
                for &arg in func.value_list(args).iter().take(callconv::NUM_ARG_REGS) {
                    covered[covered_len] = arg;
                    covered_len += 1;
                }
                if let Some(dst) = dst {
                    func.pin_value(dst, callconv::RETURN_REG);
                    pinned += 1;
                }
                for (i, &arg) in covered[..covered_len].iter().enumerate() {
                    if func.pinned_reg(arg).is_none() {
                        func.pin_value(arg, callconv::arg_reg(i));
                        pinned += 1;
                    }
                }
            }
        }
    }
    pinned
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::{verify_cfg, verify_ssa};

    #[test]
    fn generated_functions_are_structurally_valid() {
        for seed in 0..20 {
            let f = generate_function(format!("gen{seed}"), &GenConfig::small(), seed);
            verify_cfg(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generated_functions_convert_to_valid_ssa() {
        for seed in 0..20 {
            let (f, stats) = generate_ssa_function(format!("gen{seed}"), &GenConfig::small(), seed);
            verify_ssa(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Not a hard guarantee per seed, but the small config reliably
            // produces some copies to propagate.
            let _ = stats;
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_function("f", &GenConfig::default(), 42);
        let c = generate_function("f", &GenConfig::default(), 42);
        assert_eq!(a.display().to_string(), c.display().to_string());
        let d = generate_function("f", &GenConfig::default(), 43);
        assert_ne!(a.display().to_string(), d.display().to_string());
    }

    #[test]
    fn larger_configs_produce_larger_functions() {
        let small = generate_function("s", &GenConfig::small(), 7);
        let large = generate_function("l", &GenConfig::large(), 7);
        assert!(large.num_attached_insts() > small.num_attached_insts());
        assert!(large.num_blocks() >= small.num_blocks());
    }

    #[test]
    fn most_seeds_produce_phis_after_ssa_conversion() {
        let mut with_phis = 0;
        for seed in 0..10 {
            let (f, _) = generate_ssa_function("g", &GenConfig::default(), seed);
            if f.count_phis() > 0 {
                with_phis += 1;
            }
        }
        assert!(with_phis >= 8, "only {with_phis}/10 seeds produced phis");
    }

    #[test]
    fn pinning_marks_call_operands() {
        // Find a seed that generates at least one call.
        let config = GenConfig { call_density: 0.5, ..GenConfig::default() };
        let (mut f, _) = generate_ssa_function("calls", &config, 3);
        let pinned = pin_call_conventions(&mut f);
        assert!(pinned > 0);
        assert!(f.values().any(|v| f.pinned_reg(v).is_some()));
    }

    #[test]
    fn irreducible_knob_emits_multi_entry_loops() {
        use ossa_ir::{ControlFlowGraph, DominatorTree};
        let config = GenConfig { irreducible_density: 0.6, ..GenConfig::default() };
        let mut irreducible = 0;
        for seed in 0..10 {
            let f = generate_function("irr", &config, seed);
            verify_cfg(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let cfg = ControlFlowGraph::compute(&f);
            let domtree = DominatorTree::compute(&f, &cfg);
            if !cfg.is_reducible(&domtree) {
                irreducible += 1;
            }
            // Irreducible functions still convert to valid SSA: dominance
            // frontiers are defined on arbitrary flow graphs.
            let (ssa, _) = generate_ssa_function("irr", &config, seed);
            verify_ssa(&ssa).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        assert!(irreducible >= 8, "only {irreducible}/10 seeds produced an irreducible CFG");
    }

    #[test]
    fn default_config_stays_reducible() {
        // The knob defaults to 0.0 and must not perturb the default stream:
        // every default-config function keeps a reducible CFG (the corpus
        // fingerprint gate pins the exact bytes; this pins the shape).
        use ossa_ir::{ControlFlowGraph, DominatorTree};
        for seed in 0..10 {
            let f = generate_function("red", &GenConfig::default(), seed);
            let cfg = ControlFlowGraph::compute(&f);
            let domtree = DominatorTree::compute(&f, &cfg);
            assert!(cfg.is_reducible(&domtree), "seed {seed} produced an irreducible CFG");
        }
    }

    #[test]
    fn generated_functions_terminate_under_interpretation() {
        // Termination by construction: loops are bounded by small constants.
        // (Executed via the integration tests with the interpreter; here we
        // just bound the static loop structure.)
        for seed in 0..10 {
            let f = generate_function("t", &GenConfig::default(), seed);
            let freqs = ossa_ir::BlockFrequencies::compute(&f);
            for block in f.blocks() {
                // max_depth 3 loops => static frequency at most 10^3.
                assert!(freqs.frequency(block) <= 1000.0 + f64::EPSILON);
            }
        }
    }
}
