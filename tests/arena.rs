//! Arena-backed operand storage: recycling and invariant tests.
//!
//! The IR stores parallel-copy moves, φ arguments and call arguments as
//! ranges into function-owned pools. Two properties keep that sound:
//!
//! * **recycling is invisible** — a function rebuilt through recycled
//!   storage (`build → translate → reset → rebuild`), then translated, is
//!   bit-identical to a freshly built one, for every Figure 5 variant;
//! * **live ranges never overlap** — at any point, the pool blocks of the
//!   attached instructions are pairwise disjoint (the free-list recycling
//!   of retired blocks must never hand out storage a live list still uses).

use out_of_ssa::cfggen::{
    generate_ssa_function, generate_ssa_function_into, pin_call_conventions, GenConfig,
};
use out_of_ssa::destruct::{insert_phi_copies, translate_out_of_ssa, OutOfSsaOptions};
use out_of_ssa::interp::{same_behaviour, Interpreter};
use out_of_ssa::ir::{Function, InstData};

/// Checks that the pool blocks referenced by attached instructions are
/// pairwise disjoint within each pool, and inside the pool bounds.
fn assert_pool_ranges_disjoint(func: &Function, context: &str) {
    let mut copy_ranges: Vec<(usize, usize)> = Vec::new();
    let mut phi_ranges: Vec<(usize, usize)> = Vec::new();
    let mut value_ranges: Vec<(usize, usize)> = Vec::new();
    for block in func.blocks() {
        for &inst in func.block_insts(block) {
            match func.inst(inst) {
                InstData::ParallelCopy { copies } if !copies.is_empty() => {
                    copy_ranges.push((copies.offset(), copies.capacity()));
                    assert!(
                        copies.offset() + copies.len() <= func.pools().copies.len(),
                        "{context}: copy list out of pool bounds"
                    );
                }
                InstData::Phi { args, .. } if !args.is_empty() => {
                    phi_ranges.push((args.offset(), args.capacity()));
                    assert!(
                        args.offset() + args.len() <= func.pools().phis.len(),
                        "{context}: phi list out of pool bounds"
                    );
                }
                InstData::Call { args, .. } if !args.is_empty() => {
                    value_ranges.push((args.offset(), args.capacity()));
                    assert!(
                        args.offset() + args.len() <= func.pools().values.len(),
                        "{context}: call list out of pool bounds"
                    );
                }
                _ => {}
            }
        }
    }
    for (pool, ranges) in
        [("copies", &mut copy_ranges), ("phis", &mut phi_ranges), ("values", &mut value_ranges)]
    {
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            let (a_off, a_cap) = pair[0];
            let (b_off, _) = pair[1];
            assert!(
                a_off + a_cap <= b_off,
                "{context}: overlapping {pool} pool blocks [{a_off}+{a_cap}] and [{b_off}..]"
            );
        }
    }
}

#[test]
fn recycled_function_storage_is_bit_identical_to_fresh_across_variants() {
    // One Function object cycles through build → translate → reset →
    // rebuild; at every round the rebuilt function and its translation must
    // be indistinguishable from a freshly allocated one's.
    let config = GenConfig::small();
    let mut recycled: Option<Function> = None;
    for (round, seed) in (0..4u64).enumerate() {
        for (name, options) in OutOfSsaOptions::figure5_variants() {
            let (fresh, _) = generate_ssa_function(format!("arena{seed}"), &config, seed);
            let (rebuilt, _) = match recycled.take() {
                Some(old) => generate_ssa_function_into(old, format!("arena{seed}"), &config, seed),
                None => generate_ssa_function(format!("arena{seed}"), &config, seed),
            };
            assert_eq!(rebuilt, fresh, "round {round}, {name}: rebuilt function differs");
            assert_eq!(
                rebuilt.display().to_string(),
                fresh.display().to_string(),
                "round {round}, {name}: rebuilt printout differs"
            );

            let mut fresh_t = fresh;
            let mut rebuilt_t = rebuilt;
            pin_call_conventions(&mut fresh_t);
            pin_call_conventions(&mut rebuilt_t);
            let fresh_stats = translate_out_of_ssa(&mut fresh_t, &options);
            let rebuilt_stats = translate_out_of_ssa(&mut rebuilt_t, &options);
            assert_eq!(rebuilt_t, fresh_t, "round {round}, {name}: translation differs");
            assert_eq!(rebuilt_stats, fresh_stats, "round {round}, {name}: stats differ");
            assert_pool_ranges_disjoint(&rebuilt_t, &format!("round {round}, {name}"));

            // The recycled object continues into the next round *after*
            // translation, so the reset has to cope with the retired-list
            // churn of rewrite and sequentialization.
            recycled = Some(rebuilt_t);
        }
    }
}

#[test]
fn pool_ranges_stay_disjoint_through_the_pipeline() {
    let mut live_copies = 0;
    for seed in 0..12u64 {
        let config = GenConfig::small();
        let (mut func, _) = generate_ssa_function(format!("ranges{seed}"), &config, seed);
        assert_pool_ranges_disjoint(&func, &format!("seed {seed}, pre-translation"));
        let original = func.clone();
        // Copy insertion alone: the φs and the parallel copies that isolate
        // them share the function's pools.
        let mut inserted = func.clone();
        insert_phi_copies(&mut inserted);
        live_copies += inserted
            .blocks()
            .flat_map(|block| inserted.block_insts(block))
            .filter(|&&inst| inserted.inst_copy_pairs(inst).is_some_and(|pairs| !pairs.is_empty()))
            .count();
        assert_pool_ranges_disjoint(&inserted, &format!("seed {seed}, after copy insertion"));
        translate_out_of_ssa(&mut func, &OutOfSsaOptions::sharing());
        assert_pool_ranges_disjoint(&func, &format!("seed {seed}, post-translation"));
        // The translated function still behaves like the original.
        for args in [[0, 1, 2], [7, -3, 5]] {
            let a = Interpreter::new().run(&original, &args).expect("original runs");
            let b = Interpreter::new().run(&func, &args).expect("translated runs");
            assert!(same_behaviour(&a, &b), "seed {seed}: behaviour differs");
        }
    }
    assert!(live_copies > 0, "copy insertion left no parallel copy to check");
}

#[test]
fn pooled_checkout_retire_recheckout_is_bit_identical() {
    use out_of_ssa::destruct::{translate_stream_pooled_serial, Engine, EngineWorker};
    use out_of_ssa::ir::FunctionPool;

    let config = GenConfig::small();
    let options = OutOfSsaOptions::default();
    let count = 6u64;

    // Reference: batch translation of freshly allocated functions.
    let mut batch: Vec<Function> = (0..count)
        .map(|seed| {
            let (mut func, _) = generate_ssa_function(format!("pool{seed}"), &config, seed);
            pin_call_conventions(&mut func);
            func
        })
        .collect();
    let batch_stats = Engine::new(options.clone()).with_threads(1).run(&mut batch);

    // Pooled streaming through one persistent worker: after the first pass
    // every checkout re-uses a slot that already went through a full
    // build → translate → retire cycle, so three passes exercise
    // checkout → retire → re-checkout twice over on every slot.
    let mut worker = EngineWorker::new();
    for pass in 0..3usize {
        let mut next = 0u64;
        let mut source = |pool: &mut FunctionPool| -> Option<Function> {
            if next == count {
                return None;
            }
            let seed = next;
            next += 1;
            let slot = pool.checkout();
            let (mut func, _) =
                generate_ssa_function_into(slot, format!("pool{seed}"), &config, seed);
            pin_call_conventions(&mut func);
            Some(func)
        };
        let mut seen = 0usize;
        let stream_stats =
            translate_stream_pooled_serial(&mut source, &mut worker, &options, |index, func, _| {
                assert_eq!(
                    *func, batch[index],
                    "pass {pass}: pooled function {index} differs from batch"
                );
                assert_eq!(
                    func.display().to_string(),
                    batch[index].display().to_string(),
                    "pass {pass}: pooled printout {index} differs from batch"
                );
                assert_pool_ranges_disjoint(func, &format!("pass {pass}, function {index}"));
                seen += 1;
            });
        assert_eq!(seen, count as usize, "pass {pass}: consumer saw every function");
        assert_eq!(
            stream_stats.per_function, batch_stats.per_function,
            "pass {pass}: pooled stream statistics differ from batch"
        );
    }

    // Serial lifecycle accounting: the first pass recycles from the second
    // checkout on (each function is retired before the next checkout), later
    // passes recycle every checkout; nothing is ever discarded and exactly
    // one slot remains parked in the free list.
    let stats = worker.pool.stats();
    assert_eq!(stats.checkouts, 18, "three passes of six checkouts");
    assert_eq!(stats.recycled, 17, "every checkout after the first recycles");
    assert_eq!(stats.retired, 18, "every translated function was retired");
    assert_eq!(stats.discarded, 0, "healthy stream discards nothing");
    assert_eq!(worker.pool.free_len(), 1, "serial stream parks exactly one slot");
}

#[test]
fn remove_inst_retires_lists_for_reuse() {
    use out_of_ssa::ir::builder::FunctionBuilder;
    use out_of_ssa::ir::CopyPair;
    let mut b = FunctionBuilder::new("retire", 0);
    let entry = b.create_block();
    b.set_entry(entry);
    b.switch_to_block(entry);
    let x = b.iconst(1);
    let y = b.declare_value();
    let z = b.declare_value();
    let pc = b.parallel_copy(vec![CopyPair { dst: y, src: x }, CopyPair { dst: z, src: x }]);
    b.ret(Some(y));
    let mut f = b.finish();
    let pool_len = f.pools().copies.len();
    f.remove_inst(entry, pc);
    // A new list of the same size class reuses the retired block: the flat
    // pool does not grow.
    let _ = f.make_copy_list(&[CopyPair { dst: y, src: x }, CopyPair { dst: z, src: x }]);
    assert_eq!(f.pools().copies.len(), pool_len, "retired block was not reused");
}
