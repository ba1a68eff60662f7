//! A free list of recycled [`Function`] storage for streaming translation.
//!
//! A long-running translator processes an unbounded stream of functions. If
//! every incoming function is built into fresh heap storage, steady-state
//! allocation traffic grows linearly with the stream — even though the
//! translation itself (through recycled `FunctionAnalyses` / scratch state)
//! allocates nothing once warm. The [`FunctionPool`] closes that last gap:
//!
//! 1. **checkout** — pop a retired [`Function`] shell (all of its block,
//!    instruction, value and operand-arena capacity intact) or, on a pool
//!    miss, allocate a brand-new empty one;
//! 2. **build / translate** — the caller constructs the incoming function
//!    *into* the slot (`FunctionBuilder::reuse`, `generate_function_into`)
//!    and translates it in place;
//! 3. **retire** — once the consumer is done with the translated output the
//!    slot returns to the free list, keeping its (now translation-sized)
//!    capacity for the next checkout.
//!
//! After one warm-up cycle per slot, every subsequent build runs inside
//! capacity that already exists: the steady-state allocation count is
//! independent of how many functions flow through the pool.
//!
//! Rebuilding through a recycled slot is bit-identical to a fresh build
//! (`Function::reset` is the proven `truncate`-discipline reset), so pooling
//! never changes translation output — only where the bytes live.
//!
//! A slot whose translation *failed* must not go back on the free list: a
//! faulted pass may have left the function half-rewritten, and the isolation
//! contract (see the engine's quarantine path) treats all state the failed
//! translation touched as poisoned. Use [`FunctionPool::discard`] for those.

use crate::function::Function;

/// Running totals of pool traffic, for tests and allocation profiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total checkouts served (hits + misses).
    pub checkouts: u64,
    /// Checkouts served from the free list (no fresh `Function` allocated).
    pub recycled: u64,
    /// Slots returned to the free list by [`FunctionPool::retire`].
    pub retired: u64,
    /// Poisoned slots dropped by [`FunctionPool::discard`].
    pub discarded: u64,
}

/// A checkout → build/translate → retire free list of [`Function`] storage.
///
/// See the [module docs](self) for the lifecycle. Pools are cheap to create
/// (empty, no allocation) and are typically per-worker: a slot checked out by
/// one worker is built, translated, consumed and retired on that worker, so
/// the pool needs no synchronization.
#[derive(Debug, Default)]
pub struct FunctionPool {
    free: Vec<Function>,
    stats: PoolStats,
}

impl FunctionPool {
    /// Creates an empty pool. No storage is allocated until the first
    /// checkout misses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a function shell out of the pool.
    ///
    /// The returned function is empty (no blocks, instructions or values; a
    /// cleared name and zero parameters) but — when served from the free
    /// list — retains all heap capacity from its previous life. Build into it
    /// with `FunctionBuilder::reuse` or `generate_function_into`; both reset
    /// it again, so checkout order never affects build results.
    pub fn checkout(&mut self) -> Function {
        self.stats.checkouts += 1;
        match self.free.pop() {
            Some(func) => {
                self.stats.recycled += 1;
                func
            }
            None => Function::new("", 0),
        }
    }

    /// Checks out a slot holding an exact copy of `source`, built with the
    /// capacity-reusing `Function::clone_from` — the pristine-snapshot
    /// checkout of the retrying engines and service workers. Served from the
    /// free list, the snapshot reuses the slot's existing buffers, so warm
    /// steady-state snapshotting allocates nothing.
    pub fn checkout_clone_of(&mut self, source: &Function) -> Function {
        let mut slot = self.checkout();
        slot.clone_from(source);
        slot
    }

    /// Returns a slot to the free list, resetting it to the empty shell state
    /// while keeping its heap capacity for the next checkout.
    ///
    /// Only retire functions whose translation completed normally; a slot a
    /// failed translation touched must be [`FunctionPool::discard`]ed.
    pub fn retire(&mut self, mut func: Function) {
        func.reset("", 0);
        self.stats.retired += 1;
        self.free.push(func);
    }

    /// Drops a poisoned slot instead of recycling it.
    ///
    /// This is the pool half of the engine's quarantine contract: when an
    /// isolated translation fails, the per-worker analyses and scratch state
    /// are rebuilt from nothing, and the function the failed pass was
    /// rewriting is discarded here — it never re-enters the free list.
    pub fn discard(&mut self, func: Function) {
        self.stats.discarded += 1;
        drop(func);
    }

    /// Number of retired shells currently available for checkout.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Traffic totals since the pool was created.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn build_into(pool: &mut FunctionPool, imm: i64) -> Function {
        let slot = pool.checkout();
        let mut b = FunctionBuilder::reuse(slot, "f", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let v = b.iconst(imm);
        b.ret(Some(v));
        b.finish()
    }

    #[test]
    fn checkout_miss_then_recycle() {
        let mut pool = FunctionPool::new();
        let f = build_into(&mut pool, 1);
        assert_eq!(pool.stats().checkouts, 1);
        assert_eq!(pool.stats().recycled, 0);
        pool.retire(f);
        assert_eq!(pool.free_len(), 1);

        let g = build_into(&mut pool, 2);
        assert_eq!(pool.stats().checkouts, 2);
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(pool.free_len(), 0);
        pool.retire(g);
    }

    #[test]
    fn recycled_build_is_bit_identical() {
        let mut pool = FunctionPool::new();
        let fresh = build_into(&mut pool, 42);
        let again = build_into(&mut FunctionPool::new(), 42);
        assert_eq!(fresh, again);
        pool.retire(fresh);
        let recycled = build_into(&mut pool, 42);
        assert_eq!(recycled, again);
    }

    #[test]
    fn checkout_clone_of_matches_plain_clone_and_recycles() {
        let mut pool = FunctionPool::new();
        let original = build_into(&mut pool, 9);
        // Miss path: fresh snapshot equals a plain clone.
        let snap = pool.checkout_clone_of(&original);
        assert_eq!(snap, original);
        assert_eq!(snap, original.clone());
        pool.retire(snap);
        // Hit path: a recycled slot resnapshots bit-identically.
        let resnap = pool.checkout_clone_of(&original);
        assert_eq!(resnap, original);
        assert_eq!(pool.stats().recycled, 1);
        pool.retire(resnap);
        pool.retire(original);
    }

    #[test]
    fn discard_never_reenters_free_list() {
        let mut pool = FunctionPool::new();
        let f = build_into(&mut pool, 3);
        pool.discard(f);
        assert_eq!(pool.free_len(), 0);
        assert_eq!(pool.stats().discarded, 1);
        // The next checkout is a miss, not a recycled poisoned slot.
        let _ = pool.checkout();
        assert_eq!(pool.stats().recycled, 0);
    }
}
