//! `jit-service`: small (`GenConfig::small()`-shaped, call-pinned) SSA
//! functions submitted open-loop by one generator thread to a
//! `TranslationService` with one worker, first at a nominal rate and then at
//! each rate of a short fixed ladder of absolute arrival rates.
//!
//! Why: translation takes microseconds per function here, so admission, the
//! queue, the stats lock, fault isolation and reply delivery dominate. It
//! is the workload that bypasses coalescing changes (predicted: no change),
//! and it reaches `destruct` through the isolated, policy-driven path
//! rather than `Pipeline::run`'s unchecked one.
//!
//! Each request is timed from its *due* time (when the open-loop schedule
//! says it should be sent) to the moment its reply is observed, so a
//! stalled generator or service is charged to every request it delays.
//! Admission blocks while the queue is full, so a stalled worker delays the
//! generator (and every request behind it) instead of refusing requests;
//! refused, shed, expired and failed requests, which the service then only
//! produces when it fails, count as latency misses.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use out_of_ssa::cfggen::{generate_ssa_function, pin_call_conventions, GenConfig};
use out_of_ssa::destruct::{translate_out_of_ssa_scratch, EngineWorker, OutOfSsaOptions};
use out_of_ssa::ir::Function;
use out_of_ssa::liveness::AnalysisCounts;
use out_of_ssa::service::{
    AdmissionPolicy, ServiceConfig, ServiceResponse, ServiceStats, Ticket, TranslationService,
};

use crate::layers::{write_analysis_counts, LayerTimes, PassCounts};
use crate::stats::{
    due_time, max_rate, median, micros_between, per, per_item_quiet, quantile, windowed_quantile,
    RungOutcome,
};
use crate::{alloc, behaves_like, mix_seed, peak_heap_mb, timed_setup, Outcome, RunConfig};

/// Distinct input functions; requests cycle through them.
const INPUTS: usize = 2_048;
const BASE_SEED: u64 = 12_000;
/// Offered rate of the nominal phase, requests per second.
const NOMINAL_RATE: f64 = 10_000.0;
/// The fixed rate ladder offered after the nominal phase (whose rate is
/// the ladder's lowest rung). The rungs below the overflowing 80,000/s are
/// at most 25% apart, so a host slow enough to drop one rung moves
/// `max_rate_fps` by less than its bound.
const LADDER: [f64; 4] = [20_000.0, 25_000.0, 30_000.0, 80_000.0];
/// Share of the run spent at the nominal rate; the ladder shares the rest.
const NOMINAL_SHARE: f64 = 0.75;
/// p99 due-to-reply latency a rung must meet to count toward
/// `max_rate_fps`.
const P99_LIMIT_US: f64 = 2_000.0;
/// Requests still unanswered at the end of a rung beyond which its backlog
/// counts as growing. A rate above capacity fills the 1,024-deep queue
/// within tens of milliseconds (and then holds the generator in
/// admission); a stall of up to 17 ms at the window's end leaves fewer
/// open at 30,000/s.
const MAX_BACKLOG: usize = 512;
/// Median generator lateness over the nominal phase above which the run is
/// invalid: the generator fell behind for most of the phase, so the offered
/// load was not the nominal one. A host stall delays the requests due
/// during it (their latency is charged from the due time) and the generator
/// catches up within milliseconds, so stalls alone do not reach it.
const GEN_LATE_LIMIT_US: f64 = 500.0;
/// Outputs kept from each ladder rung for the oracle (the nominal phase
/// keeps one per input).
const KEEP_PER_RUNG: usize = 64;
/// Admission queue depth (admission blocks beyond it). A rung above
/// capacity fills it, which the backlog check catches.
const QUEUE_CAPACITY: usize = 1_024;
/// Latency samples per quantile window: 0.1 s at the nominal rate, 10
/// samples beyond p99.
const LATENCY_WINDOW: usize = 1_000;
/// Spare function slots the generator recycles submissions through.
const FREE_SLOTS: usize = 4_096;
/// Open-loop warm-up at the nominal rate during set-up.
const WARM_UP: Duration = Duration::from_millis(100);
/// Head start of an open-loop phase, so its first request is not late.
const LEAD: Duration = Duration::from_micros(200);
/// Timed passes of the direct translation (after one warm-up pass).
const DIRECT_PASSES: usize = 4;

fn inputs(seed: u64) -> Vec<Function> {
    (0..INPUTS)
        .map(|i| {
            let name = format!("jit{i}");
            let seed = mix_seed(BASE_SEED + i as u64, seed);
            let (mut func, _) = generate_ssa_function(name, &GenConfig::small(), seed);
            pin_call_conventions(&mut func);
            func
        })
        .collect()
}

/// The inputs translated directly on one engine worker: the baseline the
/// service's isolation overhead is measured against, and this workload's
/// `destruct` and `liveness` numbers.
struct Direct {
    per_fn_us: Vec<f64>,
    times: LayerTimes,
    counts: PassCounts,
    /// Remaining copies of each input.
    copies: Vec<usize>,
    /// Analysis counters around the last timed pass.
    analyses: (AnalysisCounts, AnalysisCounts),
}

fn direct(inputs: &[Function]) -> Direct {
    let options = OutOfSsaOptions::default();
    let mut worker = EngineWorker::new();
    let mut func = inputs[0].clone();
    let mut result = Direct {
        per_fn_us: Vec::with_capacity(inputs.len() * DIRECT_PASSES),
        times: LayerTimes::default(),
        counts: PassCounts::default(),
        copies: Vec::with_capacity(inputs.len()),
        analyses: Default::default(),
    };
    for pass in 0..=DIRECT_PASSES {
        let counts_before = worker.analyses.counts();
        for input in inputs {
            func.clone_from(input);
            let allocs_before = alloc::allocations();
            let start = Instant::now();
            worker.analyses.invalidate_cfg();
            let stats = translate_out_of_ssa_scratch(
                &mut func,
                &options,
                &mut worker.analyses,
                &mut worker.scratch,
            );
            let seconds = start.elapsed().as_secs_f64();
            let allocs = alloc::allocations() - allocs_before;
            if pass == 0 {
                result.counts.add_translation(&stats);
                result.copies.push(stats.remaining_copies);
                continue;
            }
            result.per_fn_us.push(seconds * 1e6);
            result.times.functions += 1;
            result.times.translate_s += seconds;
            result.times.destruct_allocs += allocs;
            result.times.add_phases(&stats);
        }
        result.analyses = (counts_before, worker.analyses.counts());
    }
    result
}

/// A request in flight.
struct Pending {
    index: usize,
    due: Instant,
    ticket: Ticket,
}

/// What happened to one request. Times are microseconds; a stage the
/// request never reached is `NaN`.
#[derive(Clone, Copy, Debug)]
struct Request {
    /// How late the generator sent it.
    late_us: f64,
    /// Time inside `submit` (timed in the traced phase only).
    submit_us: f64,
    /// Due time to observed reply; `+inf` unless it was translated.
    latency_us: f64,
    /// Queue wait and ladder time as the service reports them.
    queue_us: f64,
    translate_us: f64,
    /// Due-to-reply time outside the service's own clock: generator
    /// lateness, admission and reply delivery.
    reply_us: f64,
    /// Remaining copies of its output (its input's direct-translation value
    /// when it has none).
    copies: usize,
}

/// What one open-loop phase saw, request by request in request order.
struct Offered {
    rate: f64,
    window_s: f64,
    requests: Vec<Request>,
    completed_in_window: usize,
    backlog_at_end: usize,
    /// Requests due within the window that were never sent, because
    /// admission held the generator past the window's end.
    unsent: usize,
    completed: usize,
    refused: usize,
    errors: usize,
    degraded: usize,
    /// Heap allocations (all threads) during the offering window.
    allocations: u64,
    /// Outputs kept for the oracle: (input index, translated function).
    kept: Vec<(usize, Function)>,
    keep_limit: usize,
}

impl Offered {
    fn new(rate: f64, window: Duration, keep_limit: usize) -> Self {
        let expected = (rate * window.as_secs_f64()) as usize + 64;
        Self {
            rate,
            window_s: window.as_secs_f64(),
            requests: Vec::with_capacity(expected),
            completed_in_window: 0,
            backlog_at_end: 0,
            unsent: 0,
            completed: 0,
            refused: 0,
            errors: 0,
            degraded: 0,
            allocations: 0,
            kept: Vec::with_capacity(keep_limit),
            keep_limit,
        }
    }

    /// One field of every request that reached its stage, in request order.
    fn column(&self, field: fn(&Request) -> f64) -> Vec<f64> {
        self.requests.iter().map(field).filter(|v| !v.is_nan()).collect()
    }

    fn rung(&self) -> RungOutcome {
        let mut latencies_us = self.column(|r| r.latency_us);
        latencies_us.extend(std::iter::repeat_n(f64::INFINITY, self.unsent));
        RungOutcome {
            rate: self.rate,
            latencies_us,
            completed_in_window: self.completed_in_window,
            window_s: self.window_s,
            backlog_at_end: self.backlog_at_end,
        }
    }

    /// Requests that got no translation: refused at admission, or answered
    /// with an error (shed, expired, failed).
    fn failed(&self) -> usize {
        self.refused + self.errors
    }

    /// Remaining copies per pass over the inputs, from the whole cycles of
    /// requests through them.
    fn copies_per_pass(&self) -> f64 {
        let cycles = (self.requests.len() / INPUTS).max(1);
        let whole = &self.requests[..(cycles * INPUTS).min(self.requests.len())];
        whole.iter().map(|r| r.copies).sum::<usize>() as f64 / cycles as f64
    }

    /// The share of due-to-reply latency that the clocked stages explain
    /// (generator lateness, queue wait, the worker's ladder time; the rest
    /// is the worker's reply bookkeeping and delivery): per window of
    /// translated requests, then the median over windows, so one stalled
    /// slice does not decide it.
    fn clocked_share(&self) -> f64 {
        let mut shares: Vec<f64> = self
            .requests
            .chunks(LATENCY_WINDOW)
            .filter_map(|window| {
                let translated = window.iter().filter(|r| r.latency_us.is_finite());
                let (clocked, total) = translated.fold((0.0, 0.0), |(c, t), r| {
                    (c + r.late_us + r.queue_us + r.translate_us, t + r.latency_us)
                });
                (total > 0.0).then(|| clocked / total)
            })
            .collect();
        median(&mut shares)
    }
}

struct Bench {
    inputs: Vec<Function>,
    direct: Direct,
    /// `Some` until shut down (by `finish`, or on drop).
    service: Option<TranslationService>,
    free: Vec<Function>,
    /// Allocations made while copying inputs into submission slots, which
    /// `allocs_per_fn` leaves out.
    copy_allocs: u64,
}

impl Bench {
    fn new(seed: u64) -> Self {
        let inputs = inputs(seed);
        let direct = direct(&inputs);
        let service = TranslationService::start(ServiceConfig {
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            admission: AdmissionPolicy::Block,
            ..ServiceConfig::default()
        });
        // Closed-loop warm-up: every input once, filling the worker's pool.
        let mut free = Vec::with_capacity(FREE_SLOTS);
        for input in &inputs {
            let response = service.submit(input.clone()).expect("an idle service admits").wait();
            free.push(match response.outcome {
                Ok(done) => done.func,
                Err(_) => response.returned.expect("a failed request returns its input"),
            });
        }
        while free.len() < FREE_SLOTS {
            free.push(inputs[free.len() % INPUTS].clone());
        }
        let mut bench = Self { inputs, direct, service: Some(service), free, copy_allocs: 0 };
        bench.offer(NOMINAL_RATE, WARM_UP, false, false, 0);
        bench
    }

    fn service(&self) -> &TranslationService {
        self.service.as_ref().expect("service running")
    }

    /// A spare slot holding a copy of input `index`.
    fn prepare(&mut self, index: usize) -> Function {
        let allocs_before = alloc::allocations();
        let mut func = self.free.pop().unwrap_or_else(|| Function::new("", 0));
        func.clone_from(&self.inputs[index]);
        self.copy_allocs += alloc::allocations() - allocs_before;
        func
    }

    /// Offers requests at `rate` for `window`, then waits for every reply.
    /// The next submission is prepared while the generator waits for its
    /// due time; replies are collected in the same wait loop, which yields
    /// the processor so a worker sharing it is not starved. With
    /// `stop_at_end` (a ladder rung, which may exceed capacity) the
    /// generator stops at the window's end and the requests still due count
    /// as unsent; otherwise it sends every request due within the window,
    /// catching up after a stall.
    fn offer(
        &mut self,
        rate: f64,
        window: Duration,
        stop_at_end: bool,
        time_submit: bool,
        keep: usize,
    ) -> Offered {
        let mut offered = Offered::new(rate, window, keep);
        let mut pending = VecDeque::with_capacity(QUEUE_CAPACITY + 1);
        let mut next = self.prepare(0);
        let allocs_before = alloc::allocations() - self.copy_allocs;
        let start = Instant::now() + LEAD;
        let end = start + window;
        for index in 0.. {
            let due = due_time(start, index as u64, rate);
            if due >= end {
                break;
            }
            if stop_at_end && Instant::now() >= end {
                let due_in_window = (window.as_secs_f64() * rate).ceil() as usize;
                offered.unsent = due_in_window.saturating_sub(index);
                break;
            }
            loop {
                self.poll(&mut pending, &mut offered);
                if Instant::now() >= due {
                    break;
                }
                std::thread::yield_now();
            }
            let sent = Instant::now();
            let result = self.service().submit(next);
            let submit_us =
                if time_submit { micros_between(sent, Instant::now()) } else { f64::NAN };
            offered.requests.push(Request {
                late_us: micros_between(due, sent),
                submit_us,
                latency_us: f64::INFINITY,
                queue_us: f64::NAN,
                translate_us: f64::NAN,
                reply_us: f64::NAN,
                copies: self.direct.copies[index % INPUTS],
            });
            match result {
                Ok(ticket) => pending.push_back(Pending { index, due, ticket }),
                Err(refused) => {
                    offered.refused += 1;
                    self.free.push(refused.into_function());
                }
            }
            next = self.prepare((index + 1) % INPUTS);
        }
        offered.allocations = alloc::allocations() - self.copy_allocs - allocs_before;
        offered.completed_in_window = offered.completed;
        offered.window_s = start.elapsed().as_secs_f64();
        offered.backlog_at_end = pending.len();
        self.free.push(next);
        for request in pending.drain(..) {
            let response = request.ticket.wait();
            self.record(&mut offered, request.index, request.due, response, Instant::now());
        }
        offered
    }

    /// Collects the replies that have arrived, oldest first (one worker
    /// serves the queue in order).
    fn poll(&mut self, pending: &mut VecDeque<Pending>, offered: &mut Offered) {
        while let Some(response) = pending.front().and_then(|front| front.ticket.try_wait()) {
            let now = Instant::now();
            let request = pending.pop_front().expect("the front request exists");
            self.record(offered, request.index, request.due, response, now);
        }
    }

    fn record(
        &mut self,
        offered: &mut Offered,
        index: usize,
        due: Instant,
        response: ServiceResponse,
        now: Instant,
    ) {
        let request = &mut offered.requests[index];
        request.queue_us = response.queue_seconds * 1e6;
        match response.outcome {
            Ok(done) => {
                offered.completed += 1;
                let latency = micros_between(due, now);
                request.latency_us = latency;
                request.translate_us = done.translate_seconds * 1e6;
                request.reply_us = latency - response.total_seconds * 1e6;
                request.copies = done.stats.remaining_copies;
                if done.rung > 0 {
                    offered.degraded += 1;
                }
                if offered.kept.len() < offered.keep_limit {
                    offered.kept.push((index % INPUTS, done.func));
                } else {
                    self.free.push(done.func);
                }
            }
            Err(_) => {
                offered.errors += 1;
                self.free.extend(response.returned);
            }
        }
    }

    /// Replays every kept output against its input; returns the number of
    /// mismatches.
    fn check(&self, phases: &[&Offered], seed: u64, out: &mut Outcome) -> usize {
        let mut checked = 0;
        let mut mismatches = 0;
        for (input, output) in phases.iter().flat_map(|p| &p.kept) {
            checked += 1;
            if !behaves_like(&self.inputs[*input], output, seed) {
                mismatches += 1;
                out.fail(format!("{}: output behaves differently from its input", output.name));
            }
        }
        out.set("interp.checked_fns", checked as f64);
        out.set("interp.mismatches", mismatches as f64);
        mismatches
    }

    /// Shuts the service down and returns its final statistics.
    fn finish(&mut self) -> ServiceStats {
        self.service.take().expect("service running").shutdown()
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }
}

/// Requests refused at admission, shed and expired between two snapshots.
fn losses(before: &ServiceStats, after: &ServiceStats) -> (u64, u64, u64) {
    let refused =
        |s: &ServiceStats| s.rejected_queue_full + s.admission_timeouts + s.rejected_shutdown;
    (
        refused(after) - refused(before),
        after.shed - before.shed,
        after.expired_in_queue - before.expired_in_queue,
    )
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (mut bench, setup_s) = timed_setup(|| Bench::new(config.seed));
    let budget = config.seconds.as_secs_f64();
    let stats_before = bench.service().stats();

    // The traced run splits the nominal phase into an untraced and a traced
    // half (submit calls timed); the untraced run follows it with the ladder.
    let (nominal, traced, ladder) = if config.trace {
        let half = Duration::from_secs_f64(budget / 2.0);
        let untraced = bench.offer(NOMINAL_RATE, half, false, false, INPUTS);
        let traced = bench.offer(NOMINAL_RATE, half, false, true, KEEP_PER_RUNG);
        (untraced, Some(traced), Vec::new())
    } else {
        let nominal_window = Duration::from_secs_f64(budget * NOMINAL_SHARE);
        let nominal = bench.offer(NOMINAL_RATE, nominal_window, false, false, INPUTS);
        let rung_window =
            Duration::from_secs_f64(budget * (1.0 - NOMINAL_SHARE) / LADDER.len() as f64);
        let ladder = LADDER
            .iter()
            .map(|&rate| bench.offer(rate, rung_window, true, false, KEEP_PER_RUNG))
            .collect();
        (nominal, None, ladder)
    };
    let stats_after = bench.service().stats();
    let final_stats = bench.finish();

    let mut phases = vec![&nominal];
    phases.extend(&traced);
    phases.extend(&ladder);
    let mismatches = bench.check(&phases, config.seed, &mut out);
    let at_nominal_rate = [Some(&nominal), traced.as_ref()];
    let at_nominal_rate = at_nominal_rate.iter().flatten();
    out.attempted = at_nominal_rate.clone().map(|p| p.requests.len() as u64).sum();
    out.failed = at_nominal_rate.map(|p| p.failed() as u64).sum::<u64>() + mismatches as u64;
    let mut lateness = nominal.column(|r| r.late_us);
    let late_p50 = median(&mut lateness);
    let late_p99 = quantile(&mut lateness, 0.99);
    if late_p50 > GEN_LATE_LIMIT_US {
        out.invalid(format!(
            "the generator fell behind (median lateness {late_p50:.1} us, limit \
             {GEN_LATE_LIMIT_US} us)"
        ));
    }
    // Requests cycle through the inputs, so, as on the closed loops, each
    // input's latency is its quiet value over the cycles, and the
    // percentiles are taken across inputs: the run-to-run state of a shared
    // host (how fast an idle processor wakes) otherwise decides the tail.
    let mut nominal_per_input = per_item_quiet(&nominal.column(|r| r.latency_us), INPUTS);
    let nominal_p50 = median(&mut nominal_per_input);

    if let Some(traced) = traced {
        let (refused, shed, expired) = losses(&stats_before, &stats_after);
        let mut submit = traced.column(|r| r.submit_us);
        let mut queue = traced.column(|r| r.queue_us);
        let mut translate = traced.column(|r| r.translate_us);
        let mut reply = traced.column(|r| r.reply_us);
        out.set("service.submit_p99_us", quantile(&mut submit, 0.99));
        out.set("service.queue_wait_p50_us", quantile(&mut queue, 0.5));
        out.set("service.queue_wait_p99_us", quantile(&mut queue, 0.99));
        let translate_p50 = quantile(&mut translate, 0.5);
        out.set("service.translate_p50_us", translate_p50);
        out.set("service.translate_p99_us", quantile(&mut translate, 0.99));
        out.set("service.reply_p99_us", quantile(&mut reply, 0.99));
        let direct_p50 = median(&mut bench.direct.per_fn_us);
        out.set("service.isolation_overhead_us", translate_p50 - direct_p50);
        out.set("service.max_queue_depth", final_stats.max_queue_depth as f64);
        out.set("service.refused", refused as f64);
        out.set("service.shed", shed as f64);
        out.set("service.expired", expired as f64);
        out.set("service.degraded_rungs", (nominal.degraded + traced.degraded) as f64);
        // Reported, not held to the replay workloads' tolerance: the part
        // no clock covers (the worker's reply bookkeeping and delivery) is a
        // real stage of this path.
        out.set("pipeline.layer_sum_ratio", traced.clocked_share());
        let traced_p50 = median(&mut per_item_quiet(&traced.column(|r| r.latency_us), INPUTS));
        out.set("bench.trace_overhead_ratio", traced_p50 / nominal_p50);
        out.set("bench.gen_late_p99_us", quantile(&mut traced.column(|r| r.late_us), 0.99));
        bench.direct.times.write_layers(&mut out);
        bench.direct.counts.write_layers(&mut out);
        let (before, after) = &bench.direct.analyses;
        write_analysis_counts(&mut out, before, after, 1);
        let pool = final_stats.pool;
        out.set("engine.pool_recycled_ratio", per(pool.recycled as f64, pool.checkouts as usize));
    } else {
        let mut rungs = vec![nominal.rung()];
        rungs.extend(ladder.iter().map(Offered::rung));
        out.set("setup_s", setup_s);
        out.set("throughput_fps", nominal.completed_in_window as f64 / nominal.window_s);
        out.set("latency_p50_us", nominal_p50);
        out.set("latency_p99_us", quantile(&mut nominal_per_input, 0.99));
        out.set("max_rate_fps", max_rate(&rungs, P99_LIMIT_US, MAX_BACKLOG, LATENCY_WINDOW));
        out.set("remaining_copies", nominal.copies_per_pass());
        out.set("allocs_per_fn", nominal.allocations as f64 / nominal.requests.len() as f64);
        out.set("peak_heap_mb", peak_heap_mb());
        out.set("success_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
        for rung in &rungs {
            eprintln!(
                "jit-service: {} /s offered: {:.0} /s achieved, p99 {:.1} us, {} open at the end",
                rung.rate,
                rung.achieved_rate(),
                windowed_quantile(&rung.latencies_us, LATENCY_WINDOW, 0.99),
                rung.backlog_at_end,
            );
        }
        for rung in ladder.iter().filter(|rung| rung.unsent > 0) {
            eprintln!("jit-service: {} /s offered: {} requests unsent", rung.rate, rung.unsent);
        }
    }
    eprintln!(
        "jit-service: {} requests at {NOMINAL_RATE} /s, generator late p50 {late_p50:.1} us, \
         p99 {late_p99:.1} us",
        out.attempted
    );
    out
}
