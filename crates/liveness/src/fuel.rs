//! Fixpoint-iteration fuel and request cancellation: thread-local budgets on
//! a translation, so a pathological (or maliciously constructed) function
//! exhausts a typed resource limit — and a request past its wall-clock
//! deadline aborts — instead of spinning a worker forever.
//!
//! The liveness computations cannot plumb a `Result` through the lazily
//! initialized analysis caches without taxing every happy-path caller, so
//! both budgets are reported by unwinding with a typed payload
//! ([`FuelExhausted`] / [`Cancelled`]); the fault-isolated engine entry
//! points (`ossa_destruct::fault`) catch the unwind at the per-function
//! boundary and downcast it back into a typed `ResourceExhausted` /
//! `DeadlineExceeded` error. With no budget installed (the default, and the
//! state every non-isolated caller runs in) a tick is a single thread-local
//! read — the fixpoint loops tick once per *pass*, not per block, so the
//! happy-path cost is unmeasurable.
//!
//! The two budgets are deliberately independent thread-locals: fuel is
//! re-installed *per attempt* by the isolated engines (each retry gets a
//! fresh fixpoint budget), while a deadline is installed *per request* by a
//! service worker and spans every retry attempt, so they must never reset
//! each other.

use std::cell::Cell;
use std::time::Instant;

/// Panic payload of an exhausted fixpoint budget. Carried by unwinding from
/// [`fixpoint_tick`] to the nearest `catch_unwind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuelExhausted {
    /// The budget that was installed via [`set_fixpoint_fuel`].
    pub limit: u64,
}

/// Panic payload of a tripped cancellation token: the wall-clock deadline
/// installed via [`set_deadline`] passed. Carried by unwinding from
/// [`cancel_tick`] (or [`fixpoint_tick`]) to the nearest `catch_unwind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

thread_local! {
    /// Remaining passes (`None` = unbounded) and the originally installed
    /// budget, for the error report.
    static REMAINING: Cell<Option<u64>> = const { Cell::new(None) };
    static LIMIT: Cell<u64> = const { Cell::new(0) };
    /// Wall-clock cancellation deadline (`None` = no deadline installed).
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Installs (or, with `None`, removes) the fixpoint budget of the current
/// thread. Isolated engine workers install the budget per function and clear
/// it on the way out, so a budgeted run never leaks into a later caller.
pub fn set_fixpoint_fuel(fuel: Option<u64>) {
    LIMIT.set(fuel.unwrap_or(0));
    REMAINING.set(fuel);
}

/// Installs (or, with `None`, removes) the wall-clock cancellation deadline
/// of the current thread. Service workers install the deadline per request
/// (spanning every retry attempt of that request) and clear it on the way
/// out; engine-level fuel installation never touches it.
pub fn set_deadline(deadline: Option<Instant>) {
    DEADLINE.set(deadline);
}

/// The deadline currently installed on this thread, if any.
pub fn current_deadline() -> Option<Instant> {
    DEADLINE.get()
}

/// Checks the cancellation token; unwinds with [`Cancelled`] when the
/// installed deadline has passed. Called at every pipeline phase boundary
/// (via `ossa_destruct::fault::enter_phase`) and at every fixpoint tick.
/// With no deadline installed the cost is a single thread-local read.
#[inline]
pub fn cancel_tick() {
    if let Some(deadline) = DEADLINE.get() {
        if Instant::now() >= deadline {
            std::panic::panic_any(Cancelled);
        }
    }
}

/// Consumes one unit of fuel; unwinds with [`FuelExhausted`] when the budget
/// is spent (and with [`Cancelled`] when a deadline has passed). Called once
/// per fixpoint *pass* by the liveness sets solver.
#[inline]
pub fn fixpoint_tick() {
    cancel_tick();
    if let Some(left) = REMAINING.get() {
        if left == 0 {
            std::panic::panic_any(FuelExhausted { limit: LIMIT.get() });
        }
        REMAINING.set(Some(left - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_by_default() {
        set_fixpoint_fuel(None);
        for _ in 0..10_000 {
            fixpoint_tick();
        }
    }

    #[test]
    fn exhaustion_unwinds_with_the_limit() {
        set_fixpoint_fuel(Some(3));
        let err = std::panic::catch_unwind(|| {
            for _ in 0..10 {
                fixpoint_tick();
            }
        })
        .unwrap_err();
        set_fixpoint_fuel(None);
        let payload = err.downcast_ref::<FuelExhausted>().expect("typed payload");
        assert_eq!(payload.limit, 3);
    }

    #[test]
    fn expired_deadline_unwinds_with_cancelled() {
        set_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        let err = std::panic::catch_unwind(cancel_tick).unwrap_err();
        set_deadline(None);
        assert!(err.downcast_ref::<Cancelled>().is_some(), "typed payload");
    }

    #[test]
    fn deadline_and_fuel_are_independent() {
        // Installing fuel must not clear an armed deadline, and vice versa:
        // the engines re-install fuel per attempt while a service deadline
        // spans the whole request.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        set_deadline(Some(far));
        set_fixpoint_fuel(Some(2));
        assert_eq!(current_deadline(), Some(far));
        set_fixpoint_fuel(None);
        assert_eq!(current_deadline(), Some(far));
        // Expired deadline wins over remaining fuel inside fixpoint_tick.
        set_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        set_fixpoint_fuel(Some(1000));
        let err = std::panic::catch_unwind(fixpoint_tick).unwrap_err();
        set_deadline(None);
        set_fixpoint_fuel(None);
        assert!(err.downcast_ref::<Cancelled>().is_some());
    }
}
