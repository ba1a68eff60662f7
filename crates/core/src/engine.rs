//! Batch and streaming out-of-SSA translation over many functions.
//!
//! An [`Engine`] — a [`Ladder`], [`Limits`] and a worker count — translates
//! a slice in place on one or more threads, or drains a [`PooledSource`] on a
//! caller-owned [`EngineWorker`]. The `run*` entry points use the unchecked
//! step; `try_run*` use the checked one, [`EngineWorker::try_translate`],
//! which verifies each function on the worker's analysis cache before
//! translating it on the same cache. Results are bit-identical at any
//! thread count and kept in input order.

use std::sync::{Mutex, PoisonError};

use ossa_ir::{verify_ssa_scratch, Function, FunctionPool, VerifyScratch};
use ossa_liveness::FunctionAnalyses;
use ossa_ssa::SsaScratch;

use crate::coalesce::{
    translate_out_of_ssa_scratch, OutOfSsaOptions, OutOfSsaStats, RecoveryOutcome, TranslateScratch,
};
use crate::fault::{self, Limits, TranslateError, TranslatePhase};
use crate::ladder::{Ladder, Rung};
use crate::validate::{validate_translation, ValidationMode};

/// The recycled state of one engine worker: once every buffer has grown to
/// the high-water mark of the functions seen, translating one more function
/// of comparable size allocates nothing.
#[derive(Debug, Default)]
pub struct EngineWorker {
    /// Cached analyses, invalidated (never reallocated) between functions.
    pub analyses: FunctionAnalyses,
    /// Translation scratch buffers, reused as-is between functions.
    pub scratch: TranslateScratch,
    /// Working storage of the SSA passes, for callers that run them on this
    /// worker before the translation (the pass pipeline).
    pub ssa: SsaScratch,
    /// Working storage of the checked steps' verifier.
    pub verify: VerifyScratch,
    /// Retired `Function` storage, for pooled sources and pristine snapshots.
    pub pool: FunctionPool,
    /// Length of the last stream this worker drained: the next stream's
    /// per-function results are reserved at it, so a warm pass allocates
    /// its results once instead of growing them.
    last_stream_len: usize,
}

impl EngineWorker {
    /// Creates a cold worker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The unchecked step.
    fn translate(&mut self, func: &mut Function, options: &OutOfSsaOptions) -> OutOfSsaStats {
        self.analyses.invalidate_cfg();
        translate_out_of_ssa_scratch(func, options, &mut self.analyses, &mut self.scratch)
    }

    /// The checked step: walks `engine`'s ladder under its limits until a
    /// rung succeeds, with one pristine snapshot from [`EngineWorker::pool`]
    /// when the ladder validates or retries. On `Err`, `func` may be
    /// partially rewritten and must not be used; the worker stays usable.
    pub fn try_translate(
        &mut self,
        func: &mut Function,
        engine: &Engine,
    ) -> Result<OutOfSsaStats, TranslateError> {
        let pristine = engine.ladder.needs_snapshot().then(|| self.pool.checkout_clone_of(func));
        let walk = engine.ladder.walk(0, func, pristine.as_ref(), |func, rung, _| {
            self.try_rung(func, rung, &engine.limits, pristine.as_ref())
        });
        if let Some(pristine) = pristine {
            self.pool.retire(pristine);
        }
        walk.result
    }

    /// One attempt of the checked step on one rung, for callers that walk
    /// their own [`Ladder`] (the translation service).
    pub fn try_rung(
        &mut self,
        func: &mut Function,
        rung: &Rung,
        limits: &Limits,
        pristine: Option<&Function>,
    ) -> Result<OutOfSsaStats, TranslateError> {
        self.attempt(func, rung, limits, pristine, |worker, func| {
            // The verifier computes the CFG and dominator tree into the
            // cache, and the translation's liveness phase finds them built.
            worker.analyses.invalidate_cfg();
            verify_ssa_scratch(func, &worker.analyses, &mut worker.verify).map_err(|errors| {
                TranslateError::Malformed {
                    phase: TranslatePhase::Verify,
                    detail: errors.to_string(),
                }
            })?;
            let EngineWorker { analyses, scratch, .. } = worker;
            Ok(translate_out_of_ssa_scratch(func, &rung.options, analyses, scratch))
        })
    }

    /// The fault boundary of one attempt: checks `limits`, then runs
    /// `translate`, validates against `pristine` at the rung's
    /// [`ValidationMode`], and types any panic. A limit rejection returns
    /// before the boundary and leaves the worker as it was; on any other
    /// `Err` (an expired deadline included) the worker is quarantined: its
    /// caches may be mid-mutation, so they are rebuilt.
    pub fn attempt<R>(
        &mut self,
        func: &mut Function,
        rung: &Rung,
        limits: &Limits,
        pristine: Option<&Function>,
        translate: impl FnOnce(&mut Self, &mut Function) -> Result<R, TranslateError>,
    ) -> Result<R, TranslateError> {
        // The size check reads three counts and touches no cache, so a
        // rejection leaves the worker warm.
        limits.check_function(func)?;
        let result = fault::catch_translate(|| {
            fault::enter_phase(&func.name, TranslatePhase::Verify);
            let output = translate(self, func)?;
            if rung.validation != ValidationMode::Off {
                fault::enter_phase(&func.name, TranslatePhase::Validate);
                let pristine = pristine.expect("validation compares against the pristine input");
                validate_translation(pristine, func, rung.validation)?;
            }
            Ok(output)
        })
        .unwrap_or_else(Err);
        if result.is_err() {
            // Everything but the pool of retired slots may be mid-mutation.
            *self = Self { pool: std::mem::take(&mut self.pool), ..Self::new() };
        }
        result
    }
}

/// A stream of functions built *into* slots checked out of the worker's pool
/// (e.g. by a generator's `*_into` entry point); the engine retires each slot
/// once the consumer has seen its translation. Any
/// `FnMut(&mut FunctionPool) -> Option<Function>` closure is one.
pub trait PooledSource {
    /// Produces the next function of the stream; `None` ends it.
    fn next_into(&mut self, pool: &mut FunctionPool) -> Option<Function>;
}

impl<F: FnMut(&mut FunctionPool) -> Option<Function>> PooledSource for F {
    fn next_into(&mut self, pool: &mut FunctionPool) -> Option<Function> {
        self(pool)
    }
}

/// Statistics of one unchecked run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CorpusStats {
    /// Per-function statistics, in input order.
    pub per_function: Vec<OutOfSsaStats>,
    /// Number of worker threads used.
    pub threads: usize,
}

impl CorpusStats {
    /// Aggregates the per-function statistics into one total.
    pub fn total(&self) -> OutOfSsaStats {
        total(&self.per_function)
    }
}

/// Statistics of one checked run, in input order. Every successful function
/// is bit-identical to a fault-free run: failed workers are quarantined.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IsolatedCorpusStats {
    /// Per-function outcome, in input order.
    pub results: Vec<Result<OutOfSsaStats, TranslateError>>,
    /// Number of worker threads used.
    pub threads: usize,
}

impl IsolatedCorpusStats {
    /// Aggregates the statistics of the successful functions.
    pub fn total(&self) -> OutOfSsaStats {
        total(self.results.iter().flatten())
    }

    /// Number of failed functions.
    pub fn num_errors(&self) -> usize {
        self.errors().count()
    }

    /// The failed functions, as `(input index, error)` pairs.
    pub fn errors(&self) -> impl Iterator<Item = (usize, &TranslateError)> {
        self.results.iter().enumerate().filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }

    /// Number of functions a fallback rung healed.
    pub fn recovered_functions(&self) -> usize {
        self.results.iter().flatten().filter(|s| s.recovery != RecoveryOutcome::Clean).count()
    }

    /// Rejected attempts of functions that eventually succeeded, plus one
    /// per function whose final error is a validation failure.
    pub fn validation_failures(&self) -> usize {
        let failures = |r: &Result<OutOfSsaStats, _>| match r {
            Ok(stats) => stats.validation_failures,
            Err(error) => matches!(error, TranslateError::ValidationFailed { .. }) as usize,
        };
        self.results.iter().map(failures).sum()
    }
}

fn total<'a>(stats: impl IntoIterator<Item = &'a OutOfSsaStats>) -> OutOfSsaStats {
    let mut total = OutOfSsaStats::default();
    for stats in stats {
        total.absorb(stats);
    }
    total
}

/// How to translate many functions: the [`Ladder`] (whose first rung the
/// unchecked entry points use), the [`Limits`] and the worker count.
#[derive(Clone, Debug)]
pub struct Engine {
    ladder: Ladder,
    limits: Limits,
    threads: usize,
}

impl Engine {
    /// Translates with `ladder` (plain [`OutOfSsaOptions`] are one
    /// unvalidated rung), no limits, one worker per core.
    pub fn new(ladder: impl Into<Ladder>) -> Self {
        Self { ladder: ladder.into(), limits: Limits::default(), threads: 0 }
    }

    /// Sets the bounds the checked entry points enforce.
    pub fn with_limits(self, limits: Limits) -> Self {
        Self { limits, ..self }
    }

    /// Sets the worker count of the slice entry points (`0`: one per core;
    /// `1`: the calling thread).
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    fn options(&self) -> &OutOfSsaOptions {
        self.ladder.options()
    }

    /// Translates `funcs` in place with the unchecked step; identical to
    /// [`translate_out_of_ssa`](crate::translate_out_of_ssa) on each.
    pub fn run(&self, funcs: &mut [Function]) -> CorpusStats {
        let (per_function, threads) =
            self.run_slice(funcs, |worker, func| worker.translate(func, self.options()));
        CorpusStats { per_function, threads }
    }

    /// Translates `funcs` in place with the checked step: a malformed,
    /// oversized or panicking function yields an error record instead of
    /// tearing down the run.
    pub fn try_run(&self, funcs: &mut [Function]) -> IsolatedCorpusStats {
        let (results, threads) =
            self.run_slice(funcs, |worker, func| worker.try_translate(func, self));
        IsolatedCorpusStats { results, threads }
    }

    /// Drains `source` on `worker` with the unchecked step: each function is
    /// translated, shown to `consumer`, and retired to the worker's pool.
    pub fn run_stream<S: PooledSource + ?Sized>(
        &self,
        source: &mut S,
        worker: &mut EngineWorker,
        mut consumer: impl FnMut(usize, &Function, &OutOfSsaStats),
    ) -> CorpusStats {
        let mut per_function = Vec::with_capacity(worker.last_stream_len);
        while let Some(mut func) = source.next_into(&mut worker.pool) {
            let stats = worker.translate(&mut func, self.options());
            consumer(per_function.len(), &func, &stats);
            worker.pool.retire(func);
            per_function.push(stats);
        }
        worker.last_stream_len = per_function.len();
        CorpusStats { per_function, threads: 1 }
    }

    /// Like [`Engine::run_stream`], with the checked step. A failed function
    /// reaches `consumer` as `Err` and its slot is *discarded*, so a
    /// partially rewritten body never leaks into a later function.
    pub fn try_run_stream<S: PooledSource + ?Sized>(
        &self,
        source: &mut S,
        worker: &mut EngineWorker,
        mut consumer: impl FnMut(usize, Result<&Function, &TranslateError>),
    ) -> IsolatedCorpusStats {
        let mut results = Vec::with_capacity(worker.last_stream_len);
        while let Some(mut func) = source.next_into(&mut worker.pool) {
            let result = worker.try_translate(&mut func, self);
            consumer(results.len(), result.as_ref().map(|_| &func));
            match result {
                Ok(_) => worker.pool.retire(func),
                Err(_) => worker.pool.discard(func),
            }
            results.push(result);
        }
        worker.last_stream_len = results.len();
        IsolatedCorpusStats { results, threads: 1 }
    }

    /// Runs `step` on `funcs` on fresh workers that pull one function at a
    /// time; returns the results in input order and the worker count.
    fn run_slice<R: Send>(
        &self,
        funcs: &mut [Function],
        step: impl Fn(&mut EngineWorker, &mut Function) -> R + Sync,
    ) -> (Vec<R>, usize) {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        }
        .clamp(1, funcs.len().max(1));
        let capacity = funcs.len().div_ceil(threads);
        let items = Mutex::new(funcs.iter_mut().enumerate());
        // The lock is released before `step` runs.
        let next = || items.lock().unwrap_or_else(PoisonError::into_inner).next();
        let work = || {
            let (mut worker, mut indexed) = (EngineWorker::new(), Vec::with_capacity(capacity));
            while let Some((index, func)) = next() {
                indexed.push((index, step(&mut worker, func)));
            }
            indexed
        };
        let mut indexed = if threads == 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
                // A panic in a worker propagates as itself.
                let joined = workers
                    .into_iter()
                    .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
                joined.flatten().collect()
            })
        };
        indexed.sort_unstable_by_key(|&(index, _)| index);
        (indexed.into_iter().map(|(_, result)| result).collect(), threads)
    }
}

/// Serial pooled streaming translation with `options` on a caller-owned
/// worker: [`Engine::run_stream`] of [`Engine::new`]`(options)`.
pub fn translate_stream_pooled_serial<S: PooledSource + ?Sized>(
    source: &mut S,
    worker: &mut EngineWorker,
    options: &OutOfSsaOptions,
    consumer: impl FnMut(usize, &Function, &OutOfSsaStats),
) -> CorpusStats {
    Engine::new(options.clone()).run_stream(source, worker, consumer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::translate_out_of_ssa;
    use ossa_cfggen::{generate_ssa_function, generate_ssa_function_into, GenConfig};

    fn small_corpus(count: u64) -> Vec<Function> {
        (0..count)
            .map(|seed| generate_ssa_function(format!("c{seed}"), &GenConfig::small(), seed).0)
            .collect()
    }

    /// `small_corpus(count)`, regenerated into recycled pool slots.
    fn pooled_small_source(count: u64) -> impl FnMut(&mut FunctionPool) -> Option<Function> {
        let mut seeds = 0..count;
        move |pool: &mut FunctionPool| {
            let seed = seeds.next()?;
            let config = GenConfig::small();
            Some(generate_ssa_function_into(pool.checkout(), format!("c{seed}"), &config, seed).0)
        }
    }

    #[test]
    fn every_entry_point_matches_per_function_translation() {
        let options = OutOfSsaOptions::sharing();
        let mut serial = small_corpus(10);
        let expected: Vec<_> =
            serial.iter_mut().map(|f| translate_out_of_ssa(f, &options)).collect();
        let engine = Engine::new(options);
        for threads in [0, 1, 4] {
            let (mut batch, mut checked) = (small_corpus(10), small_corpus(10));
            let stats = engine.clone().with_threads(threads).run(&mut batch);
            let results = engine.clone().with_threads(threads).try_run(&mut checked).results;
            assert_eq!((stats.per_function, batch), (expected.clone(), serial.clone()));
            assert_eq!(
                (results, checked),
                (expected.iter().cloned().map(Ok).collect(), serial.clone())
            );
        }
        let mut worker = EngineWorker::new();
        let mut source = pooled_small_source(10);
        let stats =
            engine.run_stream(&mut source, &mut worker, |i, f, _| assert_eq!(f, &serial[i]));
        assert_eq!(stats.per_function, expected);
        let mut source = pooled_small_source(10);
        let checked =
            engine.try_run_stream(&mut source, &mut worker, |i, f| assert_eq!(f, Ok(&serial[i])));
        assert_eq!(checked.results, expected.iter().cloned().map(Ok).collect::<Vec<_>>());
        assert_eq!(engine.with_threads(4).run(&mut []).total(), OutOfSsaStats::default());
    }

    #[test]
    fn total_aggregates_counters() {
        let engine = Engine::new(OutOfSsaOptions::default());
        let stats = engine.run(&mut small_corpus(4));
        let sum = |counter: fn(&OutOfSsaStats) -> usize| -> usize {
            stats.per_function.iter().map(counter).sum()
        };
        let total = stats.total();
        assert_eq!(total.phis_removed, sum(|s| s.phis_removed));
        assert_eq!(total.remaining_copies, sum(|s| s.remaining_copies));
        assert!(total.phis_removed > 0, "the corpus has φs to remove");
        // A checked run aggregates its successes: here, every function.
        assert_eq!(engine.try_run(&mut small_corpus(4)).total(), total);
    }

    #[test]
    fn checked_step_takes_one_pooled_snapshot_per_function() {
        let options = OutOfSsaOptions::default();
        let engine = Engine::new(Ladder::retrying(options.clone(), ValidationMode::Structural, 1));
        let mut worker = EngineWorker::new();
        let corpus = small_corpus(6);
        for func in &corpus {
            let (mut checked, mut plain) = (func.clone(), func.clone());
            let stats = worker.try_translate(&mut checked, &engine).expect("healthy input");
            assert_eq!(stats, translate_out_of_ssa(&mut plain, &options));
            assert_eq!(checked, plain, "checked output differs: {}", func.name);
        }
        // The snapshot slot is retired after every function, so every
        // snapshot after the first recycles it.
        let pool = worker.pool.stats();
        assert_eq!(
            (pool.checkouts, pool.retired, pool.recycled, worker.pool.free_len()),
            (6, 6, 5, 1)
        );
        // A single unvalidated rung takes no snapshot at all.
        worker.try_translate(&mut corpus[0].clone(), &Engine::new(options)).expect("healthy");
        assert_eq!(worker.pool.stats().checkouts, 6);
    }

    #[test]
    fn pooled_serial_recycles_storage_across_passes() {
        let options = OutOfSsaOptions::default();
        let mut worker = EngineWorker::new();
        let mut pass = || {
            let mut source = pooled_small_source(6);
            translate_stream_pooled_serial(&mut source, &mut worker, &options, |_, _, _| {})
        };
        // Each slot is retired before the next checkout, so every checkout
        // after the very first recycles it, and the warm pass is identical.
        assert_eq!(pass().per_function, pass().per_function);
        let pool = worker.pool.stats();
        assert_eq!(
            (pool.checkouts, pool.recycled, pool.retired, worker.pool.free_len()),
            (12, 11, 12, 1)
        );
    }
}
