//! Property-style tests on the core invariants.
//!
//! The offline build environment has no `proptest`, so the properties are
//! exercised with the workspace's own deterministic PRNG
//! (`ossa_cfggen::rng::SmallRng`) over a fixed number of cases per property.

use out_of_ssa::cfggen::rng::SmallRng;
use out_of_ssa::cfggen::{generate_function, generate_ssa_function, GenConfig};
use out_of_ssa::destruct::{
    insert_phi_copies, minimum_copies, translate_out_of_ssa, try_sequentialize, Engine,
    OutOfSsaOptions,
};
use out_of_ssa::interp::{same_behaviour, Interpreter};
use out_of_ssa::ir::entity::EntityRef;
use out_of_ssa::ir::{
    ControlFlowGraph, CopyPair, DefSite, DominatorTree, Function, InstData, Value,
};
use out_of_ssa::liveness::sets::live_in_by_search;
use out_of_ssa::liveness::{
    BlockLiveness, FastLiveness, FunctionAnalyses, IntersectionTest, LiveRangeInfo, LivenessSets,
    UseSite,
};
use out_of_ssa::ssa::{
    construct_ssa, cssa_violations_cached, is_conventional_cached, propagate_copies, CssaViolation,
    PhiCongruence,
};

/// The seven Figure 5 variants, in the paper's order — read from the shared
/// single source of truth so a variant added to the bench list is
/// automatically exercised against the interpreter oracle here.
fn figure5_variants() -> Vec<(&'static str, OutOfSsaOptions)> {
    OutOfSsaOptions::figure5_variants().into_iter().collect()
}

/// Generates a well-formed random parallel copy: unique destinations,
/// arbitrary sources drawn from a small universe.
fn random_parallel_copy(rng: &mut SmallRng) -> Vec<CopyPair> {
    let n = rng.range_inclusive(1, 7);
    (0..n)
        .map(|dst| (dst, rng.below(n + 2)))
        .filter(|&(dst, src)| dst != src)
        .map(|(dst, src)| CopyPair { dst: Value::new(dst), src: Value::new(src) })
        .collect()
}

/// Algorithm 1 emits a sequence equivalent to the parallel copy and uses the
/// minimum number of copies.
#[test]
fn sequentialization_is_correct_and_minimal() {
    let mut rng = SmallRng::seed_from_u64(0x5e9);
    for case in 0..256 {
        let moves = random_parallel_copy(&mut rng);
        let temp = Value::new(100);
        let seq = try_sequentialize(&moves, temp).expect("unique destinations by construction");
        assert_eq!(
            seq.copies.len(),
            minimum_copies(&moves),
            "case {case}: non-minimal sequentialization of {moves:?}"
        );

        // Simulate both with distinct tokens per value.
        let mut initial = std::collections::HashMap::new();
        for m in &moves {
            initial.entry(m.dst).or_insert_with(|| 1000 + m.dst.index() as i64);
            initial.entry(m.src).or_insert_with(|| 1000 + m.src.index() as i64);
        }
        initial.insert(temp, -1);
        let mut parallel = initial.clone();
        let reads: Vec<(Value, i64)> = moves.iter().map(|m| (m.dst, initial[&m.src])).collect();
        for (dst, v) in reads {
            parallel.insert(dst, v);
        }
        let mut sequential = initial.clone();
        for c in &seq.copies {
            let v = sequential[&c.src];
            sequential.insert(c.dst, v);
        }
        for (&value, &expected) in &parallel {
            if value != temp {
                assert_eq!(sequential[&value], expected, "case {case}: {value} differs");
            }
        }
    }
}

/// Every Figure 5 variant preserves the observable behaviour of randomly
/// generated programs, checked against the pre-translation interpreter
/// oracle.
#[test]
fn every_variant_preserves_behaviour_on_generated_cfgs() {
    for seed in 0..40u64 {
        let (original, _) = generate_ssa_function(format!("p{seed}"), &GenConfig::small(), seed);
        // The shared deterministic argument sets (also used by the runtime
        // differential validator), re-seeded per function.
        let arg_sets = out_of_ssa::interp::argument_sets(2009 ^ seed, 3, 3);
        let oracle: Vec<_> = arg_sets
            .iter()
            .map(|args| Interpreter::new().run(&original, args).expect("original runs"))
            .collect();
        for (name, options) in figure5_variants() {
            let mut translated = original.clone();
            translate_out_of_ssa(&mut translated, &options);
            assert_eq!(translated.count_phis(), 0, "{name}: phis remain for seed {seed}");
            for (args, want) in arg_sets.iter().zip(&oracle) {
                let got = Interpreter::new().run(&translated, args).expect("translated runs");
                assert!(
                    same_behaviour(want, &got),
                    "{name}: seed {seed} differs on {args:?}\n{}",
                    translated.display()
                );
            }
        }
    }
}

/// The eager and virtualized engines produce code with identical behaviour
/// (the paper's claim that virtualization does not change code quality
/// guarantees, only engineering).
#[test]
fn eager_and_virtualized_agree_behaviourally() {
    for seed in 500..540u64 {
        let (original, _) = generate_ssa_function(format!("v{seed}"), &GenConfig::small(), seed);
        let mut eager = original.clone();
        let mut virt = original.clone();
        translate_out_of_ssa(&mut eager, &OutOfSsaOptions::value());
        translate_out_of_ssa(&mut virt, &OutOfSsaOptions::value_is());
        for args in [vec![1, 2, 3], vec![-5, 4, 0]] {
            let a = Interpreter::new().run(&eager, &args).expect("eager runs");
            let b = Interpreter::new().run(&virt, &args).expect("virtualized runs");
            let reference = Interpreter::new().run(&original, &args).expect("original runs");
            assert!(same_behaviour(&reference, &a), "seed {seed}: eager differs");
            assert!(same_behaviour(&reference, &b), "seed {seed}: virtualized differs");
        }
    }
}

/// Returns `true` if every retreating edge of `func` has a target that
/// dominates its source — the reducibility condition under which the fast
/// liveness checker is specified (its docs call this out; the data-flow
/// [`LivenessSets`] remains the oracle for arbitrary graphs).
fn is_reducible(func: &Function, cfg: &ControlFlowGraph, domtree: &DominatorTree) -> bool {
    func.blocks().filter(|&b| cfg.is_reachable(b)).all(|block| {
        cfg.succs(block).iter().all(|&succ| {
            domtree.rpo_index(succ) > domtree.rpo_index(block) || domtree.dominates(succ, block)
        })
    })
}

/// The fast liveness checker is exact: it equals the reference data-flow
/// sets on live-in and live-out, for every reachable block and every value,
/// on generated functions of three shapes — `GenConfig::small()`, the
/// default, and a depth-5 one (200 statements, 16 variables) with deeply
/// nested sibling loops. Irreducible graphs (which the checker's precomputation is documented not
/// to support) are skipped — but must be rare enough that the property
/// still exercises a large sample. The sets also equal, on live-in, an
/// oracle that uses no data flow: a path search from the block to a use
/// that does not cross the definition ([`live_in_by_search`]).
#[test]
fn fast_liveness_matches_reference_dataflow_on_random_cfgs() {
    let deep = GenConfig { num_stmts: 200, num_vars: 16, max_depth: 5, ..GenConfig::default() };
    let shapes = [
        ("live", GenConfig::small(), 200),
        ("big", GenConfig::default(), 200),
        ("deep", deep, 100),
    ];
    for (prefix, config, seeds) in shapes {
        let mut checked = 0usize;
        for seed in 0..seeds {
            let (func, _) = generate_ssa_function(format!("{prefix}{seed}"), &config, seed);
            let cfg = ControlFlowGraph::compute(&func);
            let domtree = DominatorTree::compute(&func, &cfg);
            if !is_reducible(&func, &cfg, &domtree) {
                continue;
            }
            checked += 1;
            let reference = LivenessSets::compute(&func, &cfg);
            let info = LiveRangeInfo::compute(&func);
            let checker = FastLiveness::compute(&func, &cfg, &domtree);
            let fast = checker.query(&cfg, &domtree, &info);
            let searched = live_in_by_search(&func, &cfg);
            for block in func.blocks() {
                if !cfg.is_reachable(block) {
                    continue;
                }
                for value in func.values() {
                    assert_eq!(
                        reference.is_live_in(block, value),
                        searched[value].contains(block),
                        "{prefix}{seed}: path-search live-in mismatch for {value} at {block}\n{}",
                        func.display()
                    );
                    assert_eq!(
                        reference.is_live_in(block, value),
                        fast.is_live_in(block, value),
                        "{prefix}{seed}: live-in mismatch for {value} at {block}\n{}",
                        func.display()
                    );
                    assert_eq!(
                        reference.is_live_out(block, value),
                        fast.is_live_out(block, value),
                        "{prefix}{seed}: live-out mismatch for {value} at {block}\n{}",
                        func.display()
                    );
                }
            }
        }
        assert!(
            checked * 6 >= seeds as usize * 5,
            "only {checked} of {seeds} {prefix} functions were reducible"
        );
    }
}

/// Checks [`LiveRangeInfo`] against a value-by-value scan of `func`: each
/// value's first definition in layout order, and every use in
/// block-traversal order, a φ argument at the end of its predecessor
/// (`usize::MAX`).
fn assert_def_use_index_matches_per_value_scan(func: &Function, context: &str) {
    // Every definition and use of the function, listed once in layout order.
    let mut defs: Vec<(Value, DefSite)> = Vec::new();
    let mut uses: Vec<(Value, UseSite)> = Vec::new();
    for block in func.blocks() {
        for (pos, &inst) in func.block_insts(block).iter().enumerate() {
            let data = func.inst(inst);
            defs.extend(
                data.defs(func.pools()).into_iter().map(|v| (v, DefSite { block, inst, pos })),
            );
            match data.phi_args(func.pools()) {
                Some(args) => uses.extend(
                    args.iter()
                        .map(|arg| (arg.value, UseSite { block: arg.block, pos: usize::MAX })),
                ),
                None => uses.extend(
                    data.uses(func.pools()).into_iter().map(|v| (v, UseSite { block, pos })),
                ),
            }
        }
    }
    let info = LiveRangeInfo::compute(func);
    for value in func.values() {
        let def = defs.iter().find(|&&(v, _)| v == value).map(|&(_, site)| site);
        let value_uses: Vec<UseSite> =
            uses.iter().filter(|&&(v, _)| v == value).map(|&(_, site)| site).collect();
        assert_eq!(info.def(value), def, "{}: definition of {value} {context}", func.name);
        assert_eq!(
            info.uses().uses_of(value),
            value_uses,
            "{}: uses of {value} {context}",
            func.name
        );
    }
}

/// The def/use index equals the per-value scan on generated SSA functions
/// of three shapes, before and after copy insertion — which adds parallel
/// copies and splits the edges whose φ argument a `br_dec` defines.
#[test]
fn def_use_index_matches_a_per_value_scan() {
    let deep = GenConfig { num_stmts: 200, num_vars: 16, max_depth: 5, ..GenConfig::default() };
    let shapes = [
        ("small", GenConfig::small(), 24),
        ("default", GenConfig::default(), 24),
        ("deep", deep, 8),
    ];
    let (mut parallel_copies, mut edges_split) = (0usize, 0usize);
    for (prefix, config, seeds) in shapes {
        for seed in 0..seeds {
            let (mut func, _) = generate_ssa_function(format!("{prefix}{seed}"), &config, seed);
            assert_def_use_index_matches_per_value_scan(&func, "before copy insertion");
            edges_split += insert_phi_copies(&mut func).edges_split;
            parallel_copies += func
                .blocks()
                .flat_map(|block| func.block_insts(block))
                .filter(|&&inst| func.inst_copy_pairs(inst).is_some())
                .count();
            assert_def_use_index_matches_per_value_scan(&func, "after copy insertion");
        }
    }
    assert!(parallel_copies > 0, "no parallel copy was inserted");
    assert!(edges_split > 0, "no br_dec edge was split");
}

/// On larger random CFGs the fast checker is *sound* with respect to the
/// reference data flow: it never reports dead where the reference says
/// live. (Exactness, the converse too, is checked above.)
#[test]
fn fast_liveness_is_sound_on_larger_random_cfgs() {
    let mut checked = 0usize;
    for seed in 0..40u64 {
        let (func, _) = generate_ssa_function(format!("big{seed}"), &GenConfig::default(), seed);
        let cfg = ControlFlowGraph::compute(&func);
        let domtree = DominatorTree::compute(&func, &cfg);
        if !is_reducible(&func, &cfg, &domtree) {
            continue;
        }
        checked += 1;
        let reference = LivenessSets::compute(&func, &cfg);
        let info = LiveRangeInfo::compute(&func);
        let checker = FastLiveness::compute(&func, &cfg, &domtree);
        let fast = checker.query(&cfg, &domtree, &info);
        for block in func.blocks() {
            if !cfg.is_reachable(block) {
                continue;
            }
            for value in func.values() {
                if reference.is_live_in(block, value) {
                    assert!(
                        fast.is_live_in(block, value),
                        "seed {seed}: fast checker misses live-in {value} at {block}"
                    );
                }
                if reference.is_live_out(block, value) {
                    assert!(
                        fast.is_live_out(block, value),
                        "seed {seed}: fast checker misses live-out {value} at {block}"
                    );
                }
            }
        }
    }
    assert!(checked >= 30, "only {checked} of 40 larger random functions were reducible");
}

/// Pins the former FastLiveness over-approximation repro (seed `live27` of
/// [`generate_ssa_function`] with the default [`GenConfig`]): the old
/// checker reported `v65` live-in at `bb4` where the reference data flow
/// says dead. The natural-loop precomputation answers it exactly, so the
/// pin has flipped to "no over-approximation": the checker misses nothing
/// (sound) and reports nothing spurious.
#[test]
fn fast_liveness_live27_over_approximation_is_pinned() {
    let (func, _) = generate_ssa_function("live27", &GenConfig::default(), 27);
    let cfg = ControlFlowGraph::compute(&func);
    let domtree = DominatorTree::compute(&func, &cfg);
    assert!(is_reducible(&func, &cfg, &domtree), "live27 repro must stay reducible");
    let reference = LivenessSets::compute(&func, &cfg);
    let info = LiveRangeInfo::compute(&func);
    let checker = FastLiveness::compute(&func, &cfg, &domtree);
    let fast = checker.query(&cfg, &domtree, &info);
    let mut spurious: Vec<String> = Vec::new();
    for block in func.blocks() {
        if !cfg.is_reachable(block) {
            continue;
        }
        for value in func.values() {
            let (ref_in, fast_in) =
                (reference.is_live_in(block, value), fast.is_live_in(block, value));
            let (ref_out, fast_out) =
                (reference.is_live_out(block, value), fast.is_live_out(block, value));
            // Soundness first: the fast checker must never miss a liveness.
            assert!(fast_in || !ref_in, "live27: fast checker misses live-in {value} at {block}");
            assert!(
                fast_out || !ref_out,
                "live27: fast checker misses live-out {value} at {block}"
            );
            if fast_in && !ref_in {
                spurious.push(format!("live-in {value} at {block}"));
            }
            if fast_out && !ref_out {
                spurious.push(format!("live-out {value} at {block}"));
            }
        }
    }
    assert!(spurious.is_empty(), "live27 over-approximation is back: {spurious:?}");
}

/// The minimal-coalescing rung of the service's degradation ladder skips
/// every affinity: it trades static copies for decision time but never
/// behaviour. It issues no interference query, coalesces at most as many
/// moves as the exhaustive loop, and still matches the interpreter oracle.
#[test]
fn minimal_coalescing_is_sound_and_never_coalesces_more() {
    for seed in 900..920u64 {
        let (original, _) = generate_ssa_function(format!("t{seed}"), &GenConfig::small(), seed);
        let args = vec![3, -7, 11];
        let oracle = Interpreter::new().run(&original, &args).expect("original runs");

        let mut exhaustive = original.clone();
        let exhaustive_stats = translate_out_of_ssa(
            &mut exhaustive,
            &OutOfSsaOptions::default().conservative_fallback(),
        );
        let mut out = original.clone();
        let stats =
            translate_out_of_ssa(&mut out, &OutOfSsaOptions::default().minimal_coalescing());
        assert_eq!(stats.interference_queries, 0, "seed {seed}: minimal coalescing queried");
        assert!(
            stats.moves_coalesced <= exhaustive_stats.moves_coalesced,
            "seed {seed}: minimal coalescing coalesced more than the exhaustive loop"
        );
        assert_eq!(out.count_phis(), 0, "seed {seed}: phis remain");
        let got = Interpreter::new().run(&out, &args).expect("translated runs");
        assert!(
            same_behaviour(&oracle, &got),
            "seed {seed}: minimal coalescing changed behaviour\n{}",
            out.display()
        );
    }
}

/// The batch engine and the serial per-function entry point are
/// bit-identical, for every Figure 5 variant, on a generated corpus.
#[test]
fn batch_engine_matches_serial_translation() {
    let corpus: Vec<Function> = (700..716u64)
        .map(|seed| generate_ssa_function(format!("b{seed}"), &GenConfig::small(), seed).0)
        .collect();
    for (name, options) in figure5_variants() {
        let mut serial = corpus.clone();
        let mut batch = corpus.clone();
        let serial_stats: Vec<_> =
            serial.iter_mut().map(|f| translate_out_of_ssa(f, &options)).collect();
        let batch_stats = Engine::new(options.clone()).run(&mut batch);
        assert_eq!(serial_stats, batch_stats.per_function, "{name}: stats differ");
        for (a, b) in serial.iter().zip(&batch) {
            assert_eq!(a, b, "{name}: translated function {} differs", a.name);
        }
    }
}

/// The φ congruence classes by brute force: connected components of the
/// "same φ-function" graph, each class sorted, the classes sorted.
fn reference_phi_classes(func: &Function) -> Vec<Vec<Value>> {
    let mut edges: Vec<(Value, Value)> = Vec::new();
    for block in func.blocks() {
        for inst in func.phis(block) {
            let data = func.inst(inst);
            let InstData::Phi { dst, .. } = *data else { unreachable!("phi expected") };
            for arg in data.phi_args(func.pools()).expect("phi") {
                edges.push((dst, arg.value));
            }
        }
    }
    let mut members: Vec<Value> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    members.sort();
    members.dedup();
    let mut classes: Vec<Vec<Value>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &start in &members {
        if !seen.insert(start) {
            continue;
        }
        let mut class = vec![start];
        let mut at = 0;
        while at < class.len() {
            let v = class[at];
            at += 1;
            for &(a, b) in &edges {
                for (from, to) in [(a, b), (b, a)] {
                    if from == v && seen.insert(to) {
                        class.push(to);
                    }
                }
            }
        }
        class.sort();
        classes.push(class);
    }
    classes.sort();
    classes
}

/// The CSSA check's backends, early exit and dense congruence classes change
/// no verdict: over generated functions (SSA as built, partly
/// copy-propagated and fully copy-propagated, plus copy-propagated
/// irreducible ones), the classes equal the brute-force components, the
/// violations equal an all-pairs test of every class in order over the
/// liveness sets, and `is_conventional_cached` agrees with both. Reducible
/// functions are checked by querying the fast liveness checker, irreducible
/// ones over the liveness sets.
#[test]
fn cssa_check_matches_a_brute_force_all_pairs_check() {
    let irreducible = GenConfig { irreducible_density: 0.6, ..GenConfig::default() };
    let configs = [GenConfig::small(), GenConfig::default()];
    let (mut conventional, mut violated, mut demoted) = (0, 0, 0);
    for seed in 0..360u64 {
        let config = if seed >= 300 { &irreducible } else { &configs[seed as usize % 2] };
        let func = match seed % 4 {
            0 if seed < 300 => {
                let mut func = generate_function(format!("built{seed}"), config, seed);
                construct_ssa(&mut func);
                func
            }
            1 if seed < 300 => generate_ssa_function(format!("kept{seed}"), config, seed).0,
            _ => {
                let mut func = generate_function(format!("propagated{seed}"), config, seed);
                construct_ssa(&mut func);
                propagate_copies(&mut func);
                func
            }
        };

        let classes = reference_phi_classes(&func);
        assert_eq!(PhiCongruence::compute(&func).classes(), classes, "seed {seed}: classes");

        let cfg = ControlFlowGraph::compute(&func);
        let domtree = DominatorTree::compute(&func, &cfg);
        let sets = LivenessSets::compute(&func, &cfg);
        let info = LiveRangeInfo::compute(&func);
        let intersect = IntersectionTest::new(&func, &domtree, &sets, &info);
        let mut expected = Vec::new();
        for class in &classes {
            for (i, &a) in class.iter().enumerate() {
                for &b in &class[i + 1..] {
                    if intersect.intersect(a, b) {
                        expected.push(CssaViolation { a, b });
                    }
                }
            }
        }

        let analyses = FunctionAnalyses::new();
        assert_eq!(cssa_violations_cached(&func, &analyses), expected, "seed {seed}: violations");
        assert_eq!(
            is_conventional_cached(&func, &analyses),
            expected.is_empty(),
            "seed {seed}: verdict"
        );
        let counts = analyses.counts();
        if is_reducible(&func, &cfg, &domtree) {
            assert_eq!((counts.fast_liveness, counts.liveness_sets), (1, 0), "seed {seed}");
        } else {
            assert_eq!((counts.fast_liveness, counts.liveness_sets), (0, 1), "seed {seed}");
            demoted += 1;
        }
        if expected.is_empty() {
            conventional += 1;
        } else {
            violated += 1;
        }
    }
    assert!(conventional > 20 && violated > 20, "{conventional} CSSA, {violated} not");
    assert!(demoted >= 40, "only {demoted} of 60 irreducible-config functions took the sets path");
}
