//! The bounded submission queue: a `Mutex` + two `Condvar`s over a
//! `VecDeque`, with the three admission policies and the pause/close
//! lifecycle the service layers on top.
//!
//! The queue is deliberately *not* lock-free: contention here is one push or
//! pop per translated function, which is microseconds of work, and a mutex
//! keeps the admission decisions (full? shed whom? closed?) atomic with the
//! depth they were decided on. What matters for overload behaviour is that
//! the capacity check and the eviction happen under the same lock as the
//! insertion — no TOCTOU window where two producers both shed the same
//! victim or both squeeze past the bound.

use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use ossa_ir::Function;

use crate::ServiceResponse;

/// One accepted request parked in the queue.
pub(crate) struct QueueEntry {
    /// Service-assigned request id, echoed in the response.
    pub id: u64,
    /// The function to translate; ownership round-trips back to the client
    /// in the response, so a rejected or shed request loses nothing.
    pub func: Function,
    /// Absolute deadline spanning queue wait *and* translation.
    pub deadline: Option<Instant>,
    /// When the request was accepted; anchors the latency histograms.
    pub enqueued: Instant,
    /// One-shot reply channel (capacity 1, so the send never blocks).
    pub reply: SyncSender<ServiceResponse>,
}

struct Inner {
    entries: VecDeque<QueueEntry>,
    /// Closed queues accept nothing; pops drain the backlog then return
    /// `None`.
    closed: bool,
    /// Paused queues accept pushes but park consumers — the deterministic
    /// overload throttle the queue-edge tests script depth with.
    paused: bool,
}

/// Why a push was refused. The entry comes back so the caller can return
/// the function to the client.
pub(crate) enum PushRefusal {
    /// The queue was at capacity (Reject admission, or a Block admission
    /// wait that expired).
    Full(QueueEntry),
    /// The queue was closed.
    Closed(QueueEntry),
}

/// What a successful push displaced: under ShedOldest admission at
/// capacity, the oldest queued entry is evicted to admit the new one.
pub(crate) struct Admitted {
    pub shed: Option<QueueEntry>,
    /// Queue depth immediately after the push, for degradation decisions
    /// made atomically with the admission.
    pub depth: usize,
}

pub(crate) struct SharedQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl SharedQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                paused: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Rejecting push: refuses immediately when at capacity.
    // The refused submission is handed back by value so the caller keeps
    // ownership of the function; the variants are as large as `Function`
    // by design and the path is cold.
    #[allow(clippy::result_large_err)]
    pub fn push_reject(&self, entry: QueueEntry) -> Result<Admitted, PushRefusal> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushRefusal::Closed(entry));
        }
        if inner.entries.len() >= self.capacity {
            return Err(PushRefusal::Full(entry));
        }
        Ok(self.admit(&mut inner, entry, None))
    }

    /// Shedding push: at capacity, evicts the oldest queued entry to make
    /// room. Always admits (unless closed).
    // The refused submission is handed back by value so the caller keeps
    // ownership of the function; the variants are as large as `Function`
    // by design and the path is cold.
    #[allow(clippy::result_large_err)]
    pub fn push_shed_oldest(&self, entry: QueueEntry) -> Result<Admitted, PushRefusal> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushRefusal::Closed(entry));
        }
        let shed =
            if inner.entries.len() >= self.capacity { inner.entries.pop_front() } else { None };
        Ok(self.admit(&mut inner, entry, shed))
    }

    /// Blocking push: waits for space until the entry's deadline (forever
    /// if it has none), then refuses with `Full`.
    // The refused submission is handed back by value so the caller keeps
    // ownership of the function; the variants are as large as `Function`
    // by design and the path is cold.
    #[allow(clippy::result_large_err)]
    pub fn push_block(&self, entry: QueueEntry) -> Result<Admitted, PushRefusal> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(PushRefusal::Closed(entry));
            }
            if inner.entries.len() < self.capacity {
                return Ok(self.admit(&mut inner, entry, None));
            }
            match entry.deadline {
                None => inner = self.not_full.wait(inner).unwrap(),
                Some(limit) => {
                    let now = Instant::now();
                    if now >= limit {
                        return Err(PushRefusal::Full(entry));
                    }
                    let (guard, timeout) = self.not_full.wait_timeout(inner, limit - now).unwrap();
                    inner = guard;
                    if timeout.timed_out() && inner.entries.len() >= self.capacity && !inner.closed
                    {
                        return Err(PushRefusal::Full(entry));
                    }
                }
            }
        }
    }

    fn admit(&self, inner: &mut Inner, entry: QueueEntry, shed: Option<QueueEntry>) -> Admitted {
        inner.entries.push_back(entry);
        let depth = inner.entries.len();
        if !inner.paused {
            self.not_empty.notify_one();
        }
        Admitted { shed, depth }
    }

    /// Blocks until an entry is available (and the queue is unpaused) or
    /// the queue is closed *and* drained. Returns the entry with the depth
    /// remaining after the pop.
    pub fn pop(&self) -> Option<(QueueEntry, usize)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.paused {
                if let Some(entry) = inner.entries.pop_front() {
                    let depth = inner.entries.len();
                    self.not_full.notify_one();
                    return Some((entry, depth));
                }
                if inner.closed {
                    return None;
                }
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Parks (or releases) consumers without affecting producers.
    pub fn set_paused(&self, paused: bool) {
        let mut inner = self.inner.lock().unwrap();
        inner.paused = paused;
        if !paused {
            drop(inner);
            self.not_empty.notify_all();
        }
    }

    /// Closes the queue: future pushes refuse, consumers drain the backlog
    /// then observe end-of-stream. Also unpauses, so a paused service shuts
    /// down cleanly.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        inner.paused = false;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}
