//! Request cancellation: a thread-local wall-clock deadline on a
//! translation, so a request past its deadline aborts instead of holding a
//! worker.
//!
//! The liveness computations cannot plumb a `Result` through the lazily
//! initialized analysis caches without taxing every happy-path caller, so
//! an expired deadline is reported by unwinding with the typed payload
//! [`Cancelled`]; the fault-isolated engine entry points
//! (`ossa_destruct::fault`) catch the unwind at the per-function boundary
//! and downcast it back into a typed `DeadlineExceeded` error. With no
//! deadline installed (the default, and the state every non-isolated caller
//! runs in) a tick is a single thread-local read, and the liveness sets
//! solver ticks once per *pass*, not per block, so the happy-path cost is
//! unmeasurable.
//!
//! A deadline is installed *per request* by a service worker and spans
//! every retry attempt of that request.

use std::cell::Cell;
use std::time::Instant;

/// Panic payload of a tripped cancellation token: the wall-clock deadline
/// installed via [`set_deadline`] passed. Carried by unwinding from
/// [`cancel_tick`] to the nearest `catch_unwind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

thread_local! {
    /// Wall-clock cancellation deadline (`None` = no deadline installed).
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Installs (or, with `None`, removes) the wall-clock cancellation deadline
/// of the current thread. Service workers install the deadline per request
/// (spanning every retry attempt of that request) and clear it on the way
/// out.
pub fn set_deadline(deadline: Option<Instant>) {
    DEADLINE.set(deadline);
}

/// Checks the cancellation token; unwinds with [`Cancelled`] when the
/// installed deadline has passed. Called at every pipeline phase boundary
/// (via `ossa_destruct::fault::enter_phase`) and once per pass of the
/// liveness sets solver. With no deadline installed the cost is a single
/// thread-local read.
#[inline]
pub fn cancel_tick() {
    if let Some(deadline) = DEADLINE.get() {
        if Instant::now() >= deadline {
            std::panic::panic_any(Cancelled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_deadline_unwinds_with_cancelled() {
        set_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        let err = std::panic::catch_unwind(cancel_tick).unwrap_err();
        set_deadline(None);
        assert!(err.downcast_ref::<Cancelled>().is_some(), "typed payload");
    }
}
