//! # ossa-regalloc — a linear-scan register allocator for post-SSA code
//!
//! The paper positions its out-of-SSA translation as the phase that runs
//! right before register allocation in a JIT ("register allocation often
//! relies on linear scan techniques"). This crate provides that downstream
//! consumer: a simple linear-scan allocator over the code produced by
//! `ossa-destruct`, honouring the register pins that the translation
//! preserved (calling conventions, dedicated registers).
//!
//! The allocator assigns every live value either an architectural register
//! or a spill slot; it does not rewrite the code with loads and stores (the
//! `jit_pipeline` example only needs the assignment and the allocation
//! verifier).
//!
//! # Examples
//!
//! ```
//! use ossa_cfggen::{generate_ssa_function, GenConfig};
//! use ossa_destruct::{translate_out_of_ssa, OutOfSsaOptions};
//! use ossa_regalloc::{allocate, check_allocation};
//!
//! let (mut func, _) = generate_ssa_function("demo", &GenConfig::small(), 3);
//! translate_out_of_ssa(&mut func, &OutOfSsaOptions::default());
//! let allocation = allocate(&func, 8);
//! check_allocation(&func, &allocation, 8).expect("allocation is consistent");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ossa_ir::entity::{SecondaryMap, Value};
use ossa_ir::Function;
use ossa_liveness::{FunctionAnalyses, LivenessSets};

/// Where a value lives for its whole lifetime.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Location {
    /// An architectural register.
    Reg(u32),
    /// A spill slot in the stack frame.
    Spill(u32),
}

/// A live interval over the linearised instruction numbering.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Interval {
    /// First program point where the value is live.
    start: u32,
    /// Last program point where the value is live (inclusive).
    end: u32,
}

/// An interval no program point has extended yet: the first
/// [`Interval::extend`] makes it exactly that point.
const UNTOUCHED: Interval = Interval { start: u32::MAX, end: 0 };

impl Interval {
    /// Returns `true` if the two intervals overlap.
    fn overlaps(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Extends the interval to cover `point`.
    fn extend(&mut self, point: u32) {
        self.start = self.start.min(point);
        self.end = self.end.max(point);
    }
}

/// Result of register allocation.
#[derive(Clone, Debug, Default)]
pub struct Allocation {
    /// The location of every value of the allocated function, `None` for a
    /// value that is never live. The map covers all of the function's
    /// values, so two allocations of one function compare equal exactly when
    /// they place every value alike.
    pub locations: SecondaryMap<Value, Option<Location>>,
    /// Number of values spilled.
    pub spills: usize,
}

impl Allocation {
    /// The location of `value`, if it was live at all.
    pub fn location(&self, value: Value) -> Option<Location> {
        *self.locations.get(value)
    }

    /// Number of distinct registers used.
    pub fn registers_used(&self) -> usize {
        let mut regs: Vec<u32> = self
            .locations
            .iter()
            .filter_map(|(_, loc)| match loc {
                Some(Location::Reg(r)) => Some(*r),
                _ => None,
            })
            .collect();
        regs.sort();
        regs.dedup();
        regs.len()
    }
}

/// Recycled working storage of the linear scan: the interval map, the
/// allocation order and the active list. A caller allocating many functions
/// keeps one and passes it to [`allocate_scratch`]; once it has seen the
/// largest function, the scan allocates nothing but the returned
/// [`Allocation`]. Every call resets what it uses first, so a call that
/// unwound part-way leaves nothing the next call can see.
#[derive(Debug)]
pub struct RegallocScratch {
    /// The live interval of every value; [`UNTOUCHED`] for values never
    /// live.
    intervals: SecondaryMap<Value, Interval>,
    /// The live values in allocation order, by `(start, end, value)`.
    by_start: Vec<(Value, Interval)>,
    /// The values holding a register at the current point, as `(end, value,
    /// register)`.
    active: Vec<(u32, Value, u32)>,
}

impl Default for RegallocScratch {
    fn default() -> Self {
        Self {
            intervals: SecondaryMap::with_default(UNTOUCHED),
            by_start: Vec::new(),
            active: Vec::new(),
        }
    }
}

impl RegallocScratch {
    /// Creates empty scratch storage. Nothing is allocated until first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Refills `intervals` with conservative live intervals over a
/// linearisation of the layout. Values never live keep the [`UNTOUCHED`]
/// interval.
fn live_intervals(
    func: &Function,
    liveness: &LivenessSets,
    intervals: &mut SecondaryMap<Value, Interval>,
) {
    intervals.truncate(0);
    intervals.resize(func.num_values());

    // Program points number the (block, inst) pairs in layout order, plus
    // one point past each block's last instruction.
    let mut block_start = 0u32;
    for &block in func.layout() {
        let insts = func.block_insts(block);
        for (offset, &inst) in insts.iter().enumerate() {
            let point = block_start + offset as u32;
            func.for_each_inst_def(inst, |v| intervals[v].extend(point));
            func.for_each_inst_use(inst, |v| intervals[v].extend(point));
        }
        // Extend to block boundaries for values live across the block.
        let block_end = block_start + insts.len() as u32;
        for v in liveness.live_in(block).iter() {
            intervals[v].extend(block_start);
        }
        for v in liveness.live_out(block).iter() {
            intervals[v].extend(block_end);
        }
        block_start = block_end + 1;
    }
}

/// Allocates registers for `func` with `num_regs` architectural registers,
/// computing its analyses from scratch. Pinned values are given their
/// required register; other values get any free register or a spill slot
/// when none is available.
pub fn allocate(func: &Function, num_regs: u32) -> Allocation {
    allocate_cached(func, num_regs, &FunctionAnalyses::new())
}

/// Like [`allocate`], but reads CFG and liveness from a shared analysis
/// cache — e.g. the one the out-of-SSA translation just used, whose
/// CFG-level analyses are still valid for the translated function.
///
/// Working storage comes from a fresh [`RegallocScratch`] per call; a caller
/// allocating many functions keeps one scratch and calls
/// [`allocate_scratch`] instead.
pub fn allocate_cached(func: &Function, num_regs: u32, analyses: &FunctionAnalyses) -> Allocation {
    allocate_scratch(func, num_regs, analyses, &mut RegallocScratch::new())
}

/// Like [`allocate_cached`], with the linear scan's working storage recycled
/// from `scratch`: once warm, the only allocation is the returned map.
pub fn allocate_scratch(
    func: &Function,
    num_regs: u32,
    analyses: &FunctionAnalyses,
    scratch: &mut RegallocScratch,
) -> Allocation {
    let RegallocScratch { intervals, by_start, active } = scratch;
    live_intervals(func, analyses.liveness_sets(func), intervals);
    // Reserved up front, so that a fresh scratch allocates each list once.
    by_start.clear();
    by_start.reserve(intervals.len());
    by_start.extend(
        intervals.iter().filter(|&(_, i)| *i != UNTOUCHED).map(|(v, &interval)| (v, interval)),
    );
    by_start.sort_unstable_by_key(|&(v, i)| (i.start, i.end, v.index()));

    let mut locations = SecondaryMap::with_capacity(func.num_values());
    active.clear();
    active.reserve(num_regs as usize);
    let mut next_spill = 0u32;
    let mut spills = 0usize;

    for &(value, interval) in by_start.iter() {
        active.retain(|&(end, _, _)| end >= interval.start);

        let preferred = func.pinned_reg(value);
        let chosen = match preferred {
            Some(reg) => {
                // Evict any non-pinned value occupying the required register
                // by spilling it.
                if let Some(pos) =
                    active.iter().position(|&(_, v, r)| r == reg && func.pinned_reg(v).is_none())
                {
                    let (_, evicted, _) = active.remove(pos);
                    locations[evicted] = Some(Location::Spill(next_spill));
                    next_spill += 1;
                    spills += 1;
                }
                Some(reg)
            }
            None => (0..num_regs).find(|&reg| active.iter().all(|&(_, _, r)| r != reg)),
        };

        match chosen {
            Some(reg) => {
                locations[value] = Some(Location::Reg(reg));
                active.push((interval.end, value, reg));
            }
            None => {
                locations[value] = Some(Location::Spill(next_spill));
                next_spill += 1;
                spills += 1;
            }
        }
    }

    Allocation { locations, spills }
}

/// Errors reported by [`check_allocation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AllocationError {
    /// A value referenced in the function has no location.
    Unallocated(Value),
    /// Two values with overlapping intervals share a register.
    Conflict(Value, Value, u32),
    /// A pinned value was not assigned its required register.
    PinViolated(Value, u32),
    /// A register number is out of range.
    RegisterOutOfRange(Value, u32),
}

impl std::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationError::Unallocated(v) => write!(f, "value {v} has no location"),
            AllocationError::Conflict(a, b, r) => {
                write!(f, "values {a} and {b} overlap in register r{r}")
            }
            AllocationError::PinViolated(v, r) => {
                write!(f, "pinned value {v} is not in its required register r{r}")
            }
            AllocationError::RegisterOutOfRange(v, r) => {
                write!(f, "value {v} assigned out-of-range register r{r}")
            }
        }
    }
}

impl std::error::Error for AllocationError {}

/// Checks that an allocation is consistent: every referenced value has a
/// location, overlapping intervals never share a register, register pins are
/// honoured and register numbers are within range.
///
/// The live intervals are recomputed from `func` with fresh analyses, so the
/// check trusts nothing of the allocator's but the locations it returned.
///
/// # Errors
/// Returns the first inconsistency found.
pub fn check_allocation(
    func: &Function,
    allocation: &Allocation,
    num_regs: u32,
) -> Result<(), AllocationError> {
    for value in func.referenced_values().iter() {
        if allocation.location(value).is_none() {
            return Err(AllocationError::Unallocated(value));
        }
    }
    for (value, &loc) in allocation.locations.iter() {
        match (loc, func.pinned_reg(value)) {
            (Some(loc), Some(pinned)) if loc != Location::Reg(pinned) => {
                return Err(AllocationError::PinViolated(value, pinned));
            }
            (Some(Location::Reg(r)), None) if r >= num_regs => {
                return Err(AllocationError::RegisterOutOfRange(value, r));
            }
            _ => {}
        }
    }

    let mut intervals = SecondaryMap::with_default(UNTOUCHED);
    live_intervals(func, &LivenessSets::of(func), &mut intervals);
    let mut in_registers: Vec<(u32, Interval, Value)> = allocation
        .locations
        .iter()
        .filter_map(|(value, loc)| match *loc {
            Some(Location::Reg(r)) if intervals[value] != UNTOUCHED => {
                Some((r, intervals[value], value))
            }
            _ => None,
        })
        .collect();
    in_registers.sort_unstable_by_key(|&(r, i, v)| (r, i.start, i.end, v.index()));
    // Within one register, in start order, an interval overlaps some earlier
    // one exactly when it overlaps the earlier one that reaches furthest.
    let mut furthest: Option<(u32, Interval, Value)> = None;
    for &(r, interval, value) in &in_registers {
        match furthest {
            Some((held, reach, holder)) if held == r => {
                if reach.overlaps(&interval) {
                    return Err(AllocationError::Conflict(holder, value, r));
                }
                if interval.end > reach.end {
                    furthest = Some((r, interval, value));
                }
            }
            _ => furthest = Some((r, interval, value)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use ossa_cfggen::{generate_ssa_function, pin_call_conventions, GenConfig};
    use ossa_destruct::{translate_out_of_ssa, OutOfSsaOptions};
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::BinaryOp;

    #[test]
    fn straightline_function_allocates_without_spills() {
        let mut b = FunctionBuilder::new("line", 2);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.param(1);
        let s = b.binary(BinaryOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let allocation = allocate(&f, 4);
        check_allocation(&f, &allocation, 4).unwrap();
        assert_eq!(allocation.spills, 0);
        assert!(allocation.registers_used() <= 3);
    }

    #[test]
    fn spills_appear_when_registers_are_scarce() {
        let mut b = FunctionBuilder::new("pressure", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let values: Vec<_> = (0..6).map(|i| b.iconst(i)).collect();
        // Keep everything live until the end by summing in reverse order.
        let mut acc = values[5];
        for &v in values.iter().rev().skip(1) {
            acc = b.binary(BinaryOp::Add, acc, v);
        }
        b.ret(Some(acc));
        let f = b.finish();
        let allocation = allocate(&f, 2);
        check_allocation(&f, &allocation, 2).unwrap();
        assert!(allocation.spills > 0);
    }

    #[test]
    fn pinned_values_get_their_register() {
        let mut b = FunctionBuilder::new("pinned", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.binary(BinaryOp::Add, x, x);
        b.ret(Some(y));
        let mut f = b.finish();
        f.pin_value(y, 3);
        let allocation = allocate(&f, 8);
        check_allocation(&f, &allocation, 8).unwrap();
        assert_eq!(allocation.location(y), Some(Location::Reg(3)));
    }

    #[test]
    fn full_pipeline_allocation_is_consistent() {
        for seed in 0..5 {
            let (mut f, _) = generate_ssa_function("pipeline", &GenConfig::small(), seed);
            pin_call_conventions(&mut f);
            translate_out_of_ssa(&mut f, &OutOfSsaOptions::default());
            let allocation = allocate(&f, 8);
            check_allocation(&f, &allocation, 8)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", f.display()));
        }
    }

    #[test]
    fn cached_allocation_matches_fresh_allocation() {
        use ossa_destruct::{translate_out_of_ssa_scratch, TranslateScratch};
        for seed in 0..5 {
            let (mut f, _) = generate_ssa_function("cached", &GenConfig::small(), seed);
            let mut analyses = FunctionAnalyses::new();
            let options = OutOfSsaOptions::default();
            translate_out_of_ssa_scratch(
                &mut f,
                &options,
                &mut analyses,
                &mut TranslateScratch::new(),
            );
            // Allocation through the cache the translation just used...
            let cached = allocate_cached(&f, 8, &analyses);
            check_allocation(&f, &cached, 8).unwrap();
            // ...is identical to a from-scratch allocation.
            let fresh = allocate(&f, 8);
            assert_eq!(cached.locations, fresh.locations, "seed {seed}");
            assert_eq!(cached.spills, fresh.spills, "seed {seed}");
        }
    }

    /// The reference interval scan: every value tested against every
    /// block's live-in and live-out set, a map update per def and use.
    fn reference_intervals(func: &Function) -> HashMap<Value, Interval> {
        use ossa_ir::entity::Block;
        use ossa_liveness::{BlockLiveness, LivenessSets};

        let liveness = LivenessSets::of(func);
        let mut block_range: SecondaryMap<Block, (u32, u32)> = SecondaryMap::new();
        block_range.resize(func.num_blocks());
        let mut counter = 0u32;
        for block in func.blocks() {
            let start = counter;
            counter += func.block_len(block) as u32 + 1;
            block_range[block] = (start, counter - 1);
        }
        let mut intervals: HashMap<Value, Interval> = HashMap::new();
        let touch = |value: Value, point: u32, intervals: &mut HashMap<Value, Interval>| {
            let entry = intervals.entry(value).or_insert(Interval { start: point, end: point });
            entry.start = entry.start.min(point);
            entry.end = entry.end.max(point);
        };
        let mut operands: Vec<Value> = Vec::new();
        for block in func.blocks() {
            let (block_start, block_end) = block_range[block];
            for (offset, &inst) in func.block_insts(block).iter().enumerate() {
                operands.clear();
                func.collect_inst_defs(inst, &mut operands);
                func.collect_inst_uses(inst, &mut operands);
                for &v in &operands {
                    touch(v, block_start + offset as u32, &mut intervals);
                }
            }
            for value in func.values() {
                if liveness.is_live_in(block, value) {
                    touch(value, block_start, &mut intervals);
                }
                if liveness.is_live_out(block, value) {
                    touch(value, block_end, &mut intervals);
                }
            }
        }
        intervals
    }

    /// The reference linear scan over [`reference_intervals`]: a fresh
    /// `used` list per interval, locations written straight into the map.
    fn reference_allocation(func: &Function, num_regs: u32) -> (HashMap<Value, Location>, usize) {
        let intervals = reference_intervals(func);
        let mut by_start: Vec<(Value, Interval)> =
            intervals.iter().map(|(&v, &i)| (v, i)).collect();
        by_start.sort_by_key(|&(v, i)| (i.start, i.end, v.index()));
        let mut locations: HashMap<Value, Location> = HashMap::new();
        let mut active: Vec<(u32, Value, u32)> = Vec::new();
        let (mut next_spill, mut spills) = (0u32, 0usize);
        for (value, interval) in by_start {
            active.retain(|&(end, _, _)| end >= interval.start);
            let used: Vec<u32> = active.iter().map(|&(_, _, r)| r).collect();
            let chosen = match func.pinned_reg(value) {
                Some(reg) => {
                    if let Some(pos) = active
                        .iter()
                        .position(|&(_, v, r)| r == reg && func.pinned_reg(v).is_none())
                    {
                        let (_, evicted, _) = active.remove(pos);
                        locations.insert(evicted, Location::Spill(next_spill));
                        next_spill += 1;
                        spills += 1;
                    }
                    Some(reg)
                }
                None => (0..num_regs).find(|r| !used.contains(r)),
            };
            match chosen {
                Some(reg) => {
                    locations.insert(value, Location::Reg(reg));
                    active.push((interval.end, value, reg));
                }
                None => {
                    locations.insert(value, Location::Spill(next_spill));
                    next_spill += 1;
                    spills += 1;
                }
            }
        }
        (locations, spills)
    }

    #[test]
    fn allocation_matches_the_per_value_reference_scan() {
        let sizes = [
            GenConfig::small(),
            GenConfig::default(),
            GenConfig { num_vars: 14, num_stmts: 90, ..GenConfig::default() },
        ];
        let mut funcs: Vec<Function> = (0..60u64)
            .map(|seed| {
                let config = &sizes[seed as usize % sizes.len()];
                let (mut f, _) = generate_ssa_function(format!("ref{seed}"), config, seed);
                pin_call_conventions(&mut f);
                translate_out_of_ssa(&mut f, &OutOfSsaOptions::default());
                f
            })
            .collect();
        // One scratch serves every function, largest first, so each call
        // runs in storage that a larger function left behind.
        funcs.sort_by_key(|f| std::cmp::Reverse(f.num_values()));
        assert!(funcs[0].num_values() > funcs[funcs.len() - 1].num_values());
        let mut scratch = RegallocScratch::new();
        for f in &funcs {
            let name = &f.name;
            let want_intervals = reference_intervals(f);
            for num_regs in [2, 4, 8] {
                let got = allocate_scratch(f, num_regs, &FunctionAnalyses::new(), &mut scratch);
                let got_intervals: HashMap<Value, Interval> = scratch
                    .intervals
                    .iter()
                    .filter(|&(_, i)| *i != UNTOUCHED)
                    .map(|(v, &i)| (v, i))
                    .collect();
                assert_eq!(got_intervals, want_intervals, "{name}, {num_regs} registers");
                let (want_locations, want_spills) = reference_allocation(f, num_regs);
                assert_eq!(got.locations.len(), f.num_values(), "{name}, {num_regs} registers");
                let got_locations: HashMap<Value, Location> =
                    got.locations.iter().filter_map(|(v, loc)| Some((v, (*loc)?))).collect();
                assert_eq!(got_locations, want_locations, "{name}, {num_regs} registers");
                assert_eq!(got.spills, want_spills, "{name}, {num_regs} registers");
                let fresh = allocate_cached(f, num_regs, &FunctionAnalyses::new());
                assert_eq!(fresh.locations, got.locations, "{name}, {num_regs} registers");
            }
        }
    }

    /// `x, y = params; s = add x, y; return s`, with `s` pinned to r3, and
    /// its valid allocation in four registers.
    fn pinned_sum() -> (Function, Allocation, [Value; 3]) {
        let mut b = FunctionBuilder::new("sum", 2);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let y = b.param(1);
        let s = b.binary(BinaryOp::Add, x, y);
        b.ret(Some(s));
        let mut f = b.finish();
        f.pin_value(s, 3);
        let allocation = allocate(&f, 4);
        check_allocation(&f, &allocation, 4).expect("the allocator's own result is valid");
        assert_eq!(allocation.location(x), Some(Location::Reg(0)));
        assert_eq!(allocation.location(y), Some(Location::Reg(1)));
        (f, allocation, [x, y, s])
    }

    #[test]
    fn check_rejects_a_referenced_value_without_location() {
        let (f, mut allocation, [_, y, _]) = pinned_sum();
        allocation.locations[y] = None;
        assert_eq!(check_allocation(&f, &allocation, 4), Err(AllocationError::Unallocated(y)));
    }

    #[test]
    fn check_rejects_overlapping_values_in_one_register() {
        // `x` and `y` are both live at the add.
        let (f, mut allocation, [x, y, _]) = pinned_sum();
        allocation.locations[y] = Some(Location::Reg(0));
        assert_eq!(check_allocation(&f, &allocation, 4), Err(AllocationError::Conflict(x, y, 0)));
    }

    #[test]
    fn check_rejects_a_pinned_value_outside_its_register() {
        let (f, mut allocation, [.., s]) = pinned_sum();
        allocation.locations[s] = Some(Location::Reg(2));
        assert_eq!(check_allocation(&f, &allocation, 4), Err(AllocationError::PinViolated(s, 3)));
        allocation.locations[s] = Some(Location::Spill(0));
        assert_eq!(check_allocation(&f, &allocation, 4), Err(AllocationError::PinViolated(s, 3)));
    }

    #[test]
    fn check_rejects_a_register_beyond_the_register_count() {
        let (f, mut allocation, [x, ..]) = pinned_sum();
        allocation.locations[x] = Some(Location::Reg(4));
        assert_eq!(
            check_allocation(&f, &allocation, 4),
            Err(AllocationError::RegisterOutOfRange(x, 4))
        );
    }

    #[test]
    fn interval_overlap_is_symmetric() {
        let a = Interval { start: 0, end: 5 };
        let b = Interval { start: 5, end: 9 };
        let c = Interval { start: 6, end: 9 };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }
}
