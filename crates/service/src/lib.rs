//! # ossa-service — overload-resilient out-of-SSA translation service
//!
//! A channel-backed, multi-worker translation service over the checked
//! engine step of [`ossa_destruct`]. Where the engine crate answers
//! "what happens when one *function* misbehaves?" (panic isolation, typed
//! errors, pristine-snapshot retries), this crate answers "what happens
//! when the *load* misbehaves?" — and makes sure the answer is never
//! "unbounded queues, unbounded latency, and a process that falls over".
//!
//! ## The overload model
//!
//! Every request passes through four gates, each with a typed outcome:
//!
//! 1. **Admission** — a bounded queue with a pick-one [`AdmissionPolicy`]:
//!    reject new work ([`SubmitError::QueueFull`]), shed the oldest queued
//!    request ([`ServiceError::Shed`]), or block the submitter until space
//!    opens or the request's deadline passes
//!    ([`SubmitError::AdmissionTimeout`]). The function is returned in every
//!    refusal — nothing is lost.
//! 2. **Deadline** — an optional per-request wall-clock budget spanning
//!    queue wait *and* translation. Expiry in the queue is
//!    [`ServiceError::ExpiredInQueue`]; expiry mid-translation trips the
//!    cancellation token ([`ossa_liveness::deadline::set_deadline`]) at the
//!    next phase boundary or liveness-solver pass and surfaces as
//!    [`TranslateError::DeadlineExceeded`]. Like every attempt that fails
//!    past the size-limit check, it quarantines the worker's analysis
//!    caches and scratch, which are rebuilt fresh; the worker's function
//!    pool survives.
//! 3. **Degradation ladder** — each request walks the engine's
//!    [`Ladder::degrading`] until a rung succeeds or the last rung fails:
//!    the default options at the configured validation, then
//!    [`OutOfSsaOptions::conservative_fallback`](ossa_destruct::OutOfSsaOptions::conservative_fallback)
//!    with validation dropped one tier, then
//!    [`OutOfSsaOptions::minimal_coalescing`](ossa_destruct::OutOfSsaOptions::minimal_coalescing)
//!    with validation off.
//!    Exponential backoff (bounded by the deadline) separates rungs. Under
//!    sustained overload a global degradation level *starts* requests
//!    further up the ladder, trading copy quality for throughput;
//!    hysteresis thresholds govern when the level recovers.
//! 4. **Workers** — persistent [`EngineWorker`]s (analysis caches, scratch,
//!    function pool) that live for the whole service, so steady-state
//!    translation allocates nothing and a faulted request quarantines only
//!    cache state, exactly as the engine's isolation contract specifies.
//!
//! Every accepted request terminates with exactly one reply: a translated
//! function, or a typed error. Shutdown drains the backlog deterministically
//! (each queued request translates or expires — typed either way) before
//! returning the final [`ServiceStats`].

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ossa_destruct::{EngineWorker, Ladder, Limits, OutOfSsaStats, TranslateError, ValidationMode};
use ossa_ir::Function;
use ossa_liveness::deadline;

mod queue;
mod stats;

pub use stats::{LatencyHistogram, ServiceStats};

use queue::{PushRefusal, QueueEntry, SharedQueue};

/// What `submit` does when the bounded queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the new request immediately with [`SubmitError::QueueFull`].
    #[default]
    Reject,
    /// Evict the *oldest* queued request (it receives
    /// [`ServiceError::Shed`]) and admit the new one. Prefers fresh work —
    /// the oldest request has burned the most of its deadline already.
    ShedOldest,
    /// Block the submitter until space opens, bounded by the request's
    /// deadline alone; on expiry, [`SubmitError::AdmissionTimeout`]. A
    /// request without a deadline waits until space opens or the service
    /// shuts down.
    Block,
}

/// Queue-depth thresholds of the global degradation ladder. Disabled by
/// default (thresholds no realistic queue reaches).
///
/// The level moves one step per evaluation (at admission for increases, at
/// dequeue for decreases), so transitions are countable and deterministic
/// under a scripted load: `degrade_depth` pushes level 0 → 1, `severe_depth`
/// pushes 1 → 2, and the level steps back down only once the depth has
/// fallen to `recover_depth` — the gap between `degrade_depth` and
/// `recover_depth` is the hysteresis band that stops the ladder from
/// flapping at the threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradationConfig {
    /// Depth at which the service starts new requests at level ≥ 1
    /// (conservative options, validation dropped a tier).
    pub degrade_depth: usize,
    /// Depth at which the service starts new requests at level 2 (minimal
    /// coalescing, validation off).
    pub severe_depth: usize,
    /// Depth at or below which the level steps back toward 0.
    pub recover_depth: usize,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self { degrade_depth: usize::MAX, severe_depth: usize::MAX, recover_depth: 0 }
    }
}

impl DegradationConfig {
    fn enabled(&self) -> bool {
        self.degrade_depth != usize::MAX || self.severe_depth != usize::MAX
    }
}

/// Configuration of a [`TranslationService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (each owns a persistent [`EngineWorker`]). Clamped to
    /// at least 1.
    pub workers: usize,
    /// Bounded queue capacity. Clamped to at least 1.
    pub queue_capacity: usize,
    /// What `submit` does at capacity.
    pub admission: AdmissionPolicy,
    /// Output validation of ladder rung 0, which translates with the default
    /// options; rung 1 drops it one tier (Differential → Structural → Off),
    /// rung 2 turns it off.
    pub validation: ValidationMode,
    /// Per-function resource limits, enforced on every rung.
    pub limits: Limits,
    /// Global degradation thresholds.
    pub degradation: DegradationConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: 64,
            admission: AdmissionPolicy::Reject,
            validation: ValidationMode::Off,
            limits: Limits::default(),
            degradation: DegradationConfig::default(),
        }
    }
}

/// Why `submit` refused a request. The function is handed back in every
/// variant — a refused request loses nothing.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue was full under [`AdmissionPolicy::Reject`].
    QueueFull(Function),
    /// The request's deadline passed while [`AdmissionPolicy::Block`]
    /// waited for space.
    AdmissionTimeout(Function),
    /// The service is shutting down.
    ShuttingDown(Function),
}

impl SubmitError {
    /// Recovers the refused function.
    pub fn into_function(self) -> Function {
        match self {
            SubmitError::QueueFull(f)
            | SubmitError::AdmissionTimeout(f)
            | SubmitError::ShuttingDown(f) => f,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "submission queue full"),
            SubmitError::AdmissionTimeout(_) => write!(f, "admission wait timed out"),
            SubmitError::ShuttingDown(_) => write!(f, "service shutting down"),
        }
    }
}

/// Why an *accepted* request did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Every ladder rung failed; this is the final rung's error. The input
    /// function, restored to its pre-translation state, is returned in
    /// [`ServiceResponse::returned`].
    Translate(TranslateError),
    /// The request's deadline passed while it waited in the queue; it was
    /// never translated.
    ExpiredInQueue,
    /// The request was evicted by [`AdmissionPolicy::ShedOldest`] to admit
    /// newer work.
    Shed,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Translate(e) => write!(f, "translation failed: {e}"),
            ServiceError::ExpiredInQueue => write!(f, "deadline expired in queue"),
            ServiceError::Shed => write!(f, "shed under overload"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A successfully translated request.
#[derive(Debug)]
pub struct Completed {
    /// The translated function.
    pub func: Function,
    /// Engine statistics of the rung that produced the output, with
    /// `validation_failures` and `recovery` accumulated across the whole
    /// ladder.
    pub stats: OutOfSsaStats,
    /// Global degradation level the request started at (its first rung).
    pub level: u8,
    /// Ladder rung that produced the output (0 = default options, 1 =
    /// conservative, 2 = minimal coalescing).
    pub rung: u8,
    /// Wall-clock seconds spent in the ladder (all rungs and backoffs).
    pub translate_seconds: f64,
}

/// The single reply every accepted request receives.
#[derive(Debug)]
pub struct ServiceResponse {
    /// The id `submit` returned in the [`Ticket`].
    pub id: u64,
    /// Translated function, or a typed reason there is none.
    pub outcome: Result<Completed, ServiceError>,
    /// On error, the input function handed back to the caller: untouched
    /// for [`ServiceError::Shed`] and [`ServiceError::ExpiredInQueue`],
    /// restored from the pristine snapshot for
    /// [`ServiceError::Translate`]. `None` on success (the translated
    /// function is in [`Completed::func`]).
    pub returned: Option<Function>,
    /// Seconds the request waited in the queue.
    pub queue_seconds: f64,
    /// Seconds from admission to reply.
    pub total_seconds: f64,
}

/// A claim on the eventual [`ServiceResponse`] of one accepted request.
pub struct Ticket {
    id: u64,
    rx: Receiver<ServiceResponse>,
}

impl Ticket {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. Every accepted request is replied
    /// to — including across shutdown, which drains the queue with typed
    /// outcomes — so this never blocks forever on a live or draining
    /// service.
    pub fn wait(self) -> ServiceResponse {
        self.rx.recv().expect("service dropped an accepted request without replying")
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<ServiceResponse> {
        self.rx.try_recv().ok()
    }
}

/// Backoff before the first retry rung; doubles per rung, bounded by the
/// request deadline.
const RETRY_BACKOFF: Duration = Duration::from_micros(100);

struct Shared {
    queue: SharedQueue,
    config: ServiceConfig,
    /// The degradation ladder every request walks, built from `config`.
    ladder: Ladder,
    /// Global degradation level (0, 1 or 2); plain reads are racy-but-safe,
    /// transitions serialize under the stats lock.
    level: AtomicU8,
    stats: Mutex<ServiceStats>,
}

impl Shared {
    /// Moves the degradation level one step toward the target the current
    /// queue depth calls for, recording the transition. `depth` must come
    /// from the same locked queue operation that triggered the evaluation
    /// so decisions are atomic with the load they were made under.
    fn reconcile_level(&self, depth: usize) {
        let deg = &self.config.degradation;
        if !deg.enabled() {
            return;
        }
        let mut stats = self.stats.lock().unwrap();
        let current = self.level.load(Ordering::Relaxed);
        let target = if depth >= deg.severe_depth {
            2
        } else if depth >= deg.degrade_depth {
            current.max(1)
        } else if depth <= deg.recover_depth {
            0
        } else {
            current
        };
        let next = match target.cmp(&current) {
            std::cmp::Ordering::Greater => current + 1,
            std::cmp::Ordering::Less => current - 1,
            std::cmp::Ordering::Equal => return,
        };
        self.level.store(next, Ordering::Relaxed);
        if next > current {
            stats.degraded_transitions += 1;
        } else {
            stats.recovered_transitions += 1;
        }
    }

    fn snapshot_stats(&self) -> ServiceStats {
        let mut snapshot = self.stats.lock().unwrap().clone();
        snapshot.level = self.level.load(Ordering::Relaxed);
        snapshot
    }
}

/// A multi-worker out-of-SSA translation service with bounded admission,
/// per-request deadlines and a degradation ladder. See the
/// [module docs](self) for the overload model.
pub struct TranslationService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl TranslationService {
    /// Starts the service: spawns `config.workers` persistent workers and
    /// opens the submission queue.
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: SharedQueue::new(config.queue_capacity),
            ladder: Ladder::degrading(config.validation),
            config,
            level: AtomicU8::new(0),
            stats: Mutex::new(ServiceStats::default()),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ossa-service-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Self { shared, workers: handles, next_id: AtomicU64::new(0) }
    }

    /// Submits a function without a deadline.
    // The refused submission is handed back by value so the caller keeps
    // ownership of the function; the variants are as large as `Function`
    // by design and the path is cold.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, func: Function) -> Result<Ticket, SubmitError> {
        self.submit_with_deadline(func, None)
    }

    /// Submits a function with an explicit deadline budget (`None`:
    /// unbounded) spanning queue wait and translation.
    // The refused submission is handed back by value so the caller keeps
    // ownership of the function; the variants are as large as `Function`
    // by design and the path is cold.
    #[allow(clippy::result_large_err)]
    pub fn submit_with_deadline(
        &self,
        func: Function,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let now = Instant::now();
        let absolute = deadline.map(|d| now + d);
        self.shared.stats.lock().unwrap().submitted += 1;

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        let entry = QueueEntry { id, func, deadline: absolute, enqueued: now, reply: tx };

        let pushed = match self.shared.config.admission {
            AdmissionPolicy::Reject => self.shared.queue.push_reject(entry),
            AdmissionPolicy::ShedOldest => self.shared.queue.push_shed_oldest(entry),
            AdmissionPolicy::Block => self.shared.queue.push_block(entry),
        };

        match pushed {
            Ok(admitted) => {
                {
                    let mut stats = self.shared.stats.lock().unwrap();
                    stats.accepted += 1;
                    stats.max_queue_depth = stats.max_queue_depth.max(admitted.depth as u64);
                    if admitted.shed.is_some() {
                        stats.shed += 1;
                    }
                }
                if let Some(victim) = admitted.shed {
                    let waited = victim.enqueued.elapsed();
                    self.shared.stats.lock().unwrap().total.record(waited);
                    let _ = victim.reply.send(ServiceResponse {
                        id: victim.id,
                        outcome: Err(ServiceError::Shed),
                        returned: Some(victim.func),
                        queue_seconds: waited.as_secs_f64(),
                        total_seconds: waited.as_secs_f64(),
                    });
                }
                self.shared.reconcile_level(admitted.depth);
                Ok(Ticket { id, rx })
            }
            Err(PushRefusal::Full(entry)) => {
                let mut stats = self.shared.stats.lock().unwrap();
                let error = match self.shared.config.admission {
                    AdmissionPolicy::Block => {
                        stats.admission_timeouts += 1;
                        SubmitError::AdmissionTimeout(entry.func)
                    }
                    _ => {
                        stats.rejected_queue_full += 1;
                        SubmitError::QueueFull(entry.func)
                    }
                };
                Err(error)
            }
            Err(PushRefusal::Closed(entry)) => {
                self.shared.stats.lock().unwrap().rejected_shutdown += 1;
                Err(SubmitError::ShuttingDown(entry.func))
            }
        }
    }

    /// Parks the workers without affecting admission — a deterministic
    /// overload throttle for tests; see [`TranslationService::resume`].
    pub fn pause(&self) {
        self.shared.queue.set_paused(true);
    }

    /// Releases workers parked by [`TranslationService::pause`].
    pub fn resume(&self) {
        self.shared.queue.set_paused(false);
    }

    /// A live statistics snapshot. Worker pool traffic is merged only at
    /// shutdown; everything else is current.
    pub fn stats(&self) -> ServiceStats {
        self.shared.snapshot_stats()
    }

    /// Shuts down: closes admission, drains the backlog (every queued
    /// request translates or expires, typed either way), joins the workers
    /// and returns the final statistics with the worker pools merged.
    pub fn shutdown(self) -> ServiceStats {
        self.shared.queue.close();
        for handle in self.workers {
            let _ = handle.join();
        }
        self.shared.snapshot_stats()
    }
}

fn worker_loop(shared: &Shared) {
    let mut engine = EngineWorker::new();
    while let Some((entry, depth)) = shared.queue.pop() {
        shared.reconcile_level(depth);
        serve(shared, &mut engine, entry);
    }
    let pool = engine.pool.stats();
    let mut stats = shared.stats.lock().unwrap();
    stats.pool.checkouts += pool.checkouts;
    stats.pool.recycled += pool.recycled;
    stats.pool.retired += pool.retired;
    stats.pool.discarded += pool.discarded;
}

/// Runs one accepted request through the deadline check and the ladder,
/// and sends its single reply.
fn serve(shared: &Shared, engine: &mut EngineWorker, entry: QueueEntry) {
    let dequeued = Instant::now();
    let waited = dequeued.saturating_duration_since(entry.enqueued);

    if entry.deadline.is_some_and(|d| dequeued >= d) {
        let mut stats = shared.stats.lock().unwrap();
        stats.expired_in_queue += 1;
        stats.queue_wait.record(waited);
        stats.total.record(waited);
        drop(stats);
        let _ = entry.reply.send(ServiceResponse {
            id: entry.id,
            outcome: Err(ServiceError::ExpiredInQueue),
            returned: Some(entry.func),
            queue_seconds: waited.as_secs_f64(),
            total_seconds: waited.as_secs_f64(),
        });
        return;
    }

    let level = shared.level.load(Ordering::Relaxed).min(2) as usize;
    {
        let mut stats = shared.stats.lock().unwrap();
        stats.per_level[level] += 1;
        stats.queue_wait.record(waited);
    }

    let mut func = entry.func;
    let pristine = engine.pool.checkout_clone_of(&func);

    // The deadline is a property of the request: it spans every rung and
    // backoff, and is cleared before the worker touches the next request.
    deadline::set_deadline(entry.deadline);
    let limits = &shared.config.limits;
    let walk = shared.ladder.walk(level, &mut func, Some(&pristine), |func, rung, tries| {
        if tries > 0 {
            let backoff = RETRY_BACKOFF * (1u32 << (tries - 1));
            let bounded = match entry.deadline {
                Some(d) => backoff.min(d.saturating_duration_since(Instant::now())),
                None => backoff,
            };
            if !bounded.is_zero() {
                thread::sleep(bounded);
            }
        }
        engine.try_rung(func, rung, limits, Some(&pristine))
    });
    deadline::set_deadline(None);

    let finished = Instant::now();
    let translate_seconds = finished.saturating_duration_since(dequeued).as_secs_f64();
    let total = finished.saturating_duration_since(entry.enqueued);
    let rung = walk.rung;
    let validation_failures = walk.validation_failures;

    let response = match walk.result {
        Ok(rung_stats) => {
            let mut stats = shared.stats.lock().unwrap();
            stats.completed += 1;
            if rung > level {
                stats.recovered += 1;
            }
            stats.validation_failures += validation_failures as u64;
            stats.translate.record(finished.saturating_duration_since(dequeued));
            stats.total.record(total);
            drop(stats);
            engine.pool.retire(pristine);
            ServiceResponse {
                id: entry.id,
                outcome: Ok(Completed {
                    func,
                    stats: rung_stats,
                    level: level as u8,
                    rung: rung as u8,
                    translate_seconds,
                }),
                returned: None,
                queue_seconds: waited.as_secs_f64(),
                total_seconds: total.as_secs_f64(),
            }
        }
        Err(error) => {
            let mut stats = shared.stats.lock().unwrap();
            stats.failed += 1;
            if matches!(error, TranslateError::DeadlineExceeded { .. }) {
                stats.deadline_exceeded += 1;
            }
            stats.validation_failures += validation_failures as u64;
            stats.translate.record(finished.saturating_duration_since(dequeued));
            stats.total.record(total);
            drop(stats);
            // The final rung left `func` poisoned; hand the caller their
            // input back, restored from the pristine snapshot.
            func.clone_from(&pristine);
            engine.pool.retire(pristine);
            ServiceResponse {
                id: entry.id,
                outcome: Err(ServiceError::Translate(error)),
                returned: Some(func),
                queue_seconds: waited.as_secs_f64(),
                total_seconds: total.as_secs_f64(),
            }
        }
    };
    let _ = entry.reply.send(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_cfggen::{generate_ssa_function, GenConfig};

    fn input(seed: u64) -> Function {
        generate_ssa_function(format!("svc_{seed}"), &GenConfig::default(), seed).0
    }

    #[test]
    fn round_trip_translates_and_replies_once_per_request() {
        let service = TranslationService::start(ServiceConfig {
            workers: 2,
            validation: ValidationMode::Structural,
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> =
            (0..8).map(|seed| service.submit(input(seed)).expect("admitted")).collect();
        for ticket in tickets {
            let response = ticket.wait();
            let completed = response.outcome.expect("healthy input translates");
            assert_eq!(completed.rung, 0);
            assert_eq!(completed.level, 0);
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.accepted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.resolved(), 8);
        assert_eq!(stats.queue_wait.count(), 8);
        // Persistent workers: pristine snapshots recycled through the pool.
        assert!(stats.pool.checkouts >= 8);
        assert!(stats.pool.retired >= 8);
    }

    #[test]
    fn reject_admission_refuses_at_capacity_and_returns_the_function() {
        let service = TranslationService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        service.pause();
        let mut tickets = Vec::new();
        let mut rejected = 0;
        for seed in 0..5 {
            match service.submit(input(seed)) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::QueueFull(func)) => {
                    assert_eq!(func.name, format!("svc_{seed}"));
                    rejected += 1;
                }
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
        assert_eq!(tickets.len(), 2);
        assert_eq!(rejected, 3);
        service.resume();
        for ticket in tickets {
            assert!(ticket.wait().outcome.is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.rejected_queue_full, 3);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn submitting_after_shutdown_is_typed() {
        let service = TranslationService::start(ServiceConfig::default());
        let shared = Arc::clone(&service.shared);
        let stats = service.shutdown();
        assert_eq!(stats.resolved(), 0);
        // The queue is closed; a late push refuses with ShuttingDown.
        let (tx, _rx) = sync_channel(1);
        let refusal = shared.queue.push_reject(QueueEntry {
            id: 99,
            func: input(0),
            deadline: None,
            enqueued: Instant::now(),
            reply: tx,
        });
        assert!(matches!(refusal, Err(PushRefusal::Closed(_))));
    }

    #[test]
    fn degradation_ladder_steps_up_under_scripted_depth_and_recovers() {
        let service = TranslationService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            degradation: DegradationConfig { degrade_depth: 3, severe_depth: 5, recover_depth: 1 },
            ..ServiceConfig::default()
        });
        service.pause();
        let tickets: Vec<_> =
            (0..6).map(|seed| service.submit(input(seed)).expect("admitted")).collect();
        // Depth walked 1..=6: level stepped 0→1 at depth 3 and 1→2 at 5.
        assert_eq!(service.stats().level, 2);
        assert_eq!(service.stats().degraded_transitions, 2);
        service.resume();
        let responses: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        for response in &responses {
            assert!(response.outcome.is_ok());
        }
        // Later requests started at a degraded level, on a higher rung.
        assert!(responses.iter().any(|r| r.outcome.as_ref().unwrap().level > 0));
        let stats = service.shutdown();
        // The drain brought the depth back under recover_depth: the level
        // stepped down (2→1→0 takes two evaluations; at least one ran).
        assert!(stats.recovered_transitions >= 1);
        assert_eq!(stats.completed, 6);
    }
}
