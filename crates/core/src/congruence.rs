//! Congruence classes and interference tests between them.
//!
//! Following Sreedhar et al., coalesced variables are kept in *congruence
//! classes*. Coalescing `a` and `b` is allowed when their classes do not
//! interfere. This module provides:
//!
//! * the class representation: a union-find plus, per class, the member list
//!   kept sorted in pre-DFS order of the dominance tree (ordered by
//!   definition point),
//! * a reference **quadratic** interference test between two classes
//!   (`|X| × |Y|` variable pair queries), and
//! * the paper's **linear** interference test (Section IV-B): a merged walk
//!   of the two ordered lists with a dominance stack, generalized to
//!   value-based interference through "equal intersecting ancestor" chains.
//!
//! Classes may carry a register *label* (pinned variables): two classes with
//! different labels always interfere (Section III-D).
//!
//! All per-value state is held in dense [`SecondaryMap`]s — the class
//! operations sit on the hot path of every coalescing decision. The
//! union-find uses path compression (through interior mutability, so lookups
//! stay `&self`) and links without ranks: a merge always hangs the second
//! operand's root under the first's. Each class therefore has exactly one
//! name, its union-find root ([`CongruenceClasses::find`]), which is also
//! the value the rewrite renames every member to
//! ([`CongruenceClasses::representative`]).

use std::cell::Cell;

use ossa_ir::entity::{SecondaryMap, Value};
use ossa_ir::{DominatorTree, Function};
use ossa_liveness::{BlockLiveness, IntersectionTest, LiveRangeInfo};

use crate::value::ValueTable;

/// Ordering key of a value: the pre-DFS number of its definition block and
/// its position inside the block. Values defined earlier in dominance order
/// come first.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DefOrderKey {
    /// Pre-order number of the defining block in the dominator tree.
    pub block_preorder: u32,
    /// Instruction position within the block.
    pub pos: u32,
    /// Tie-breaker: the value index.
    pub value_index: u32,
    /// Post-order number of the defining block in the dominator-tree DFS.
    /// Carried so dominance between two definition points is a pure key
    /// comparison ([`key_def_dominates`]); last in the struct, so the derived
    /// lexicographic order is unchanged (the `value_index` tie-breaker is
    /// unique, comparisons of distinct values never reach this field).
    pub block_postorder: u32,
}

impl DefOrderKey {
    /// The key of `value`'s definition site in `info`, if it has one.
    pub(crate) fn of(value: Value, info: &LiveRangeInfo, domtree: &DominatorTree) -> Option<Self> {
        let site = info.def(value)?;
        Some(Self {
            block_preorder: domtree.preorder_number(site.block),
            pos: u32::try_from(site.pos).expect("an instruction position fits in u32"),
            value_index: u32::try_from(value.index()).expect("a value index fits in u32"),
            block_postorder: domtree.postorder_number(site.block),
        })
    }
}

/// Definition-point dominance decided from two cached keys: values without a
/// key (no definition) or defined in unreachable blocks (pre-order
/// `u32::MAX`) dominate nothing, same-block points compare by position, and
/// distinct blocks use the DFS interval of the dominator tree.
///
/// This agrees with [`IntersectionTest::def_dominates`] except for two
/// definitions in one unreachable block: the dominator tree compares their
/// positions without a reachability check, while the keys say neither
/// dominates. The class tests, which read the keys, therefore never pair two
/// such values, and may merge values that intersect in code that never runs.
/// They read it as [`DefKey::dominates`].
pub fn key_def_dominates(a: Option<DefOrderKey>, b: Option<DefOrderKey>) -> bool {
    let (Some(a), Some(b)) = (a, b) else { return false };
    if a.block_preorder == u32::MAX || b.block_preorder == u32::MAX {
        return false;
    }
    if a.block_preorder == b.block_preorder {
        return a.pos <= b.pos;
    }
    a.block_preorder < b.block_preorder && b.block_postorder <= a.block_postorder
}

/// An optional [`DefOrderKey`] packed into one integer, so the class walks
/// order and test dominance with integer operations. From the most
/// significant end, 32 bits each: the block pre-order number, the
/// position, the value index plus one, the block post-order number. The
/// integer order is therefore the key's derived order, and "no key", 0,
/// sorts below every key (whose value field is at least 1).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefKey(u128);

impl DefKey {
    /// Packs `key`; `None` becomes the lowest key.
    pub(crate) fn new(key: Option<DefOrderKey>) -> Self {
        let Some(key) = key else { return Self(0) };
        let value = key.value_index.checked_add(1).expect("a value index below u32::MAX");
        Self(
            (key.block_preorder as u128) << 96
                | (key.pos as u128) << 64
                | (value as u128) << 32
                | key.block_postorder as u128,
        )
    }

    /// Returns `true` unless this is the packed `None`.
    #[inline]
    pub(crate) fn is_some(self) -> bool {
        self.0 != 0
    }

    /// [`key_def_dominates`] on the packed keys.
    #[inline]
    pub fn dominates(self, other: Self) -> bool {
        if !self.is_some() || !other.is_some() {
            return false;
        }
        let field = |key: Self, shift: u32| (key.0 >> shift) as u32;
        let (pre, other_pre) = (field(self, 96), field(other, 96));
        if pre == other_pre {
            // One block: unreachable blocks (pre-order `u32::MAX`) share the
            // number, so they compare nothing.
            return pre != u32::MAX && field(self, 64) <= field(other, 64);
        }
        // Distinct numbers: an unreachable side fails one of the tests,
        // since reachable pre- and post-order numbers are below `u32::MAX`.
        pre < other_pre && field(other, 0) <= field(self, 0)
    }
}

/// The dominance-stack walk behind every interference sweep: for each item,
/// pop the stack down to the nearest entry whose definition `dominates` the
/// item's, call `visit(item, tag, stack)`, then push the item. Stops and
/// returns `true` as soon as a visit does.
///
/// When `items` come in dominator-tree pre-order of their definitions, the
/// stack at each visit holds exactly the visited items whose definitions
/// dominate the current one, nearest on top: pre-order visits every
/// dominator before the values it dominates, and the values a definition
/// dominates form one contiguous run, so an entry that still dominates is
/// never popped early. Since two values can only intersect when one
/// definition dominates the other, testing an item against the stack covers
/// every pair that can interfere. The stack may enter non-empty, holding
/// entries that dominate every item.
pub(crate) fn dominance_walk<T: Copy>(
    stack: &mut Vec<(Value, T)>,
    items: impl IntoIterator<Item = (Value, T)>,
    mut dominates: impl FnMut(Value, Value) -> bool,
    mut visit: impl FnMut(Value, T, &[(Value, T)]) -> bool,
) -> bool {
    for (current, tag) in items {
        while let Some(&(top, _)) = stack.last() {
            if dominates(top, current) {
                break;
            }
            stack.pop();
        }
        if visit(current, tag, stack) {
            return true;
        }
        stack.push((current, tag));
    }
    false
}

/// Two definition-ordered member lists merged into one definition-ordered
/// sequence, each value tagged `true` when it came from `red`. On equal keys
/// (values without a key) the red value goes first.
fn merged<'a>(
    mut red: &'a [Value],
    mut blue: &'a [Value],
    keys: &'a SecondaryMap<Value, DefKey>,
) -> impl Iterator<Item = (Value, bool)> + 'a {
    std::iter::from_fn(move || {
        let from_blue = match (red.first(), blue.first()) {
            (Some(&r), Some(&b)) => keys[b] < keys[r],
            (r, _) => r.is_none(),
        };
        let list = if from_blue { &mut blue } else { &mut red };
        let (&value, rest) = list.split_first()?;
        *list = rest;
        Some((value, !from_blue))
    })
}

/// Scratch map recording, for each value walked by the linear interference
/// test, its nearest intersecting equal ancestor in the *other* class
/// (`equal_anc_out` in the paper's Algorithm 2).
///
/// The map is dense and reused across queries: [`EqualAncOut::clear`] resets
/// only the entries touched by the previous query, so the per-query cost is
/// proportional to the class sizes, not to the function.
#[derive(Clone, Debug, Default)]
pub struct EqualAncOut {
    map: SecondaryMap<Value, Option<Value>>,
    touched: Vec<Value>,
    /// Reusable dominance stack (`(value, came from the red list)`) of the
    /// linear test and of [`CongruenceClasses::interfere_sweep`], so repeated
    /// queries neither allocate nor re-derive list membership by scanning.
    dom: Vec<(Value, bool)>,
    /// Where the linear test's singleton fast path found the singleton's
    /// place in the other class's member list: `merge` inserts it there.
    insert_at: Option<(Value, usize)>,
}

impl EqualAncOut {
    /// Creates an empty scratch map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the entries written since the last clear.
    pub fn clear(&mut self) {
        for value in self.touched.drain(..) {
            self.map[value] = None;
        }
        self.insert_at = None;
    }

    /// Returns `true` if no entry has been written since the last clear.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Records the equal intersecting ancestor of `value`. Recording `None`
    /// into a slot that already reads `None` is a no-op: the map is all-`None`
    /// between queries, so `touched` holds exactly the values with a `Some`
    /// record. Most walk steps record `None` (the same-value ancestor path is
    /// the rare one), which keeps the per-query clear cost — and the
    /// chain-combine loop of [`CongruenceClasses::merge`], which iterates
    /// `touched` — proportional to the *meaningful* records only.
    fn set(&mut self, value: Value, anc: Option<Value>) {
        if anc.is_none() && self.map.get(value).is_none() {
            return;
        }
        self.map[value] = anc;
        self.touched.push(value);
    }

    /// The recorded ancestor of `value`, if any.
    pub fn get(&self, value: Value) -> Option<Value> {
        *self.map.get(value)
    }
}

/// The congruence classes of a function's values.
#[derive(Clone, Debug, Default)]
pub struct CongruenceClasses {
    /// Union-find parent links. `Cell` so that [`CongruenceClasses::find`]
    /// can compress paths behind a `&self` borrow.
    parent: SecondaryMap<Value, Cell<Option<Value>>>,
    /// Members of each class, stored at the class root, sorted by
    /// [`DefOrderKey`]. Empty at roots of *singleton* classes — the
    /// one-element list is read from `pool` instead, so construction
    /// performs no per-value heap allocation.
    members: SecondaryMap<Value, Vec<Value>>,
    /// Identity table `pool[i] == vᵢ`, the backing storage for the implicit
    /// singleton member lists.
    pool: Vec<Value>,
    /// Free member buffers by size class: `free[k]` holds empty buffers of
    /// capacity 2^k. Every merge retires up to two member lists and produces
    /// one, and a full list moves to a buffer of the next class. Buffers of
    /// one class are interchangeable, so the order in which merges hand
    /// them around cannot matter: once a stream's functions have all been
    /// seen, each class holds as many buffers as any of them uses at once,
    /// and merging allocates nothing. Buffers of mixed capacities in one
    /// list would reach different merges on every pass, and a stream of the
    /// same few large functions would keep growing them for dozens of
    /// passes.
    free: Vec<Vec<Vec<Value>>>,
    /// Scratch root list of [`CongruenceClasses::merge_group`].
    group_roots: Vec<Value>,
    /// Register label of each class root, if any member is pinned.
    labels: SecondaryMap<Value, Option<u32>>,
    /// Packed definition-order key of every value.
    keys: SecondaryMap<Value, DefKey>,
    /// For the value-based linear test: nearest dominating member of the
    /// same class with the same value that intersects the value.
    equal_anc_in: SecondaryMap<Value, Option<Value>>,
    /// Number of interference queries performed (statistics).
    queries: u64,
    /// The slots written since the last [`CongruenceClasses::reset_for`]
    /// (its universe): every union-find, member, label, key and chain write
    /// lands on a class member or affinity endpoint, all of which the
    /// universe covers. The next `reset_for` only has to scrub these slots.
    dirty: Vec<Value>,
}

impl CongruenceClasses {
    /// Creates singleton classes for every value of `func`, ordering members
    /// by definition point. Definition sites are read from the shared `info`
    /// index instead of being recomputed.
    pub fn new(func: &Function, domtree: &DominatorTree, info: &LiveRangeInfo) -> Self {
        let mut this = Self::default();
        let values: Vec<Value> = func.values().collect();
        this.reset_for(func, domtree, info, &values);
        this
    }

    /// Re-initializes the classes for `func` in place, reusing the dense
    /// maps, member lists and singleton pool of a previous function, and
    /// fills the definition keys and register labels only for the values of
    /// `universe` (the copy-related universe of the function). Valid because
    /// the decision phase reads keys and labels only for class members and
    /// affinity/sharing endpoints, all of which are copy-related (φ/copy
    /// operands) or pinned — and the universe contains every pinned value by
    /// construction. The remaining slots read as "no key / no label",
    /// exactly the default of a fresh map, so any stale entry from a previous
    /// function is unobservable, and every decision matches a fresh
    /// [`CongruenceClasses::new`]; only the heap traffic differs. This is
    /// what lets [`TranslateScratch`] carry the class storage across the
    /// functions of a corpus.
    ///
    /// The scrub is equally restricted: between two `reset_for` calls every
    /// write lands on a slot of the `dirty` list (the previous universe), so
    /// only those slots need to be returned to their default — the rest
    /// never left it.
    ///
    /// [`TranslateScratch`]: crate::coalesce::TranslateScratch
    pub fn reset_for(
        &mut self,
        func: &Function,
        domtree: &DominatorTree,
        info: &LiveRangeInfo,
        universe: &[Value],
    ) {
        self.reset_clear_dirty(func);
        for &value in universe {
            self.fill_value(value, func, domtree, info);
        }
        self.dirty.clear();
        self.dirty.extend_from_slice(universe);
    }

    #[inline]
    fn fill_value(
        &mut self,
        value: Value,
        func: &Function,
        domtree: &DominatorTree,
        info: &LiveRangeInfo,
    ) {
        self.keys[value] = DefKey::new(DefOrderKey::of(value, info, domtree));
        self.labels[value] = func.pinned_reg(value);
    }

    /// The scrub of [`CongruenceClasses::reset_for`]: returns the slots of
    /// the `dirty` list to their defaults (releasing their member buffers)
    /// while the maps still have their previous length (every dirty index
    /// was valid then), then truncates and resizes every map to the current
    /// function and tops up the identity pool.
    fn reset_clear_dirty(&mut self, func: &Function) {
        let num_values = func.num_values();
        for i in 0..self.dirty.len() {
            let value = self.dirty[i];
            let list = std::mem::take(&mut self.members[value]);
            self.release(list);
            self.parent[value].set(None);
            self.labels[value] = None;
            self.keys[value] = DefKey::default();
            self.equal_anc_in[value] = None;
        }
        self.queries = 0;

        self.parent.truncate(num_values);
        self.members.truncate(num_values);
        self.labels.truncate(num_values);
        self.keys.truncate(num_values);
        self.equal_anc_in.truncate(num_values);
        self.parent.resize(num_values);
        self.members.resize(num_values);
        self.labels.resize(num_values);
        self.keys.resize(num_values);
        self.equal_anc_in.resize(num_values);
        if self.pool.len() < num_values {
            self.pool.reserve_exact(num_values - self.pool.len());
            while self.pool.len() < num_values {
                self.pool.push(Value::from_index(self.pool.len()));
            }
        }
    }

    /// The union-find root of the class of `value`, compressing the walked
    /// path. The root names the class: it keys the member and label storage
    /// and is the value the rewrite renames every member to.
    pub fn find(&self, value: Value) -> Value {
        let mut root = value;
        while let Some(up) = self.parent.get(root).get() {
            root = up;
        }
        // Path compression: point every node on the walked path directly at
        // the root. Only non-root nodes are rewritten, and those were all
        // materialized by the merge that linked them, so the shared default
        // cell of the map is never written through.
        let mut cur = value;
        while cur != root {
            let up = self.parent.get(cur).replace(Some(root)).expect("non-root has a parent");
            cur = up;
        }
        root
    }

    /// The representative of the class of `value`: the value every member is
    /// renamed to by the rewrite. It is the class root,
    /// [`CongruenceClasses::find`].
    pub fn representative(&self, value: Value) -> Value {
        self.find(value)
    }

    /// Returns `true` if `a` and `b` are already coalesced.
    pub fn same_class(&self, a: Value, b: Value) -> bool {
        self.find(a) == self.find(b)
    }

    /// Members of the class of `value`, sorted by definition order.
    pub fn members(&self, value: Value) -> &[Value] {
        self.root_members(self.find(value))
    }

    /// Members of the class whose root is `root`, sorted by definition
    /// order.
    pub(crate) fn root_members(&self, root: Value) -> &[Value] {
        let list = self.members.get(root);
        if !list.is_empty() {
            return list;
        }
        // Singleton classes are implicit: no per-value list is allocated,
        // the one-element slice comes from the identity pool.
        match self.pool.get(root.index()) {
            Some(slot) => std::slice::from_ref(slot),
            None => &[],
        }
    }

    /// The register label of the class of `value`, if any.
    pub fn label(&self, value: Value) -> Option<u32> {
        *self.labels.get(self.find(value))
    }

    /// The packed definition-order key of `value`.
    pub fn key(&self, value: Value) -> DefKey {
        self.keys[value]
    }

    /// Number of variable-to-variable interference queries performed so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Returns `true` if the labels of the classes rooted at `ra` and `rb`
    /// conflict (both are pinned, to different registers).
    pub fn labels_conflict(&self, ra: Value, rb: Value) -> bool {
        debug_assert!(self.is_root(ra) && self.is_root(rb), "labels are stored at class roots");
        match (self.labels[ra], self.labels[rb]) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }

    fn is_root(&self, value: Value) -> bool {
        self.parent.get(value).get().is_none()
    }

    /// Merges the classes of `a` and `b` without checking interference.
    /// The member lists are merged in definition order and the
    /// equal-intersecting-ancestor chains are combined as in the paper.
    /// `b`'s root is linked under `a`'s, which stays the name of the
    /// combined class.
    pub fn merge(&mut self, a: Value, b: Value, equal_anc_out: &EqualAncOut) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.merge_roots(ra, rb, equal_anc_out);
        }
    }

    /// [`CongruenceClasses::merge`] of the distinct classes rooted at `ra`
    /// and `rb`, for a caller that has found the roots already.
    pub(crate) fn merge_roots(&mut self, ra: Value, rb: Value, equal_anc_out: &EqualAncOut) {
        debug_assert!(ra != rb && self.is_root(ra) && self.is_root(rb));
        // Label propagation: as in the seed, a label on `b`'s class wins
        // over one on `a`'s (differently labeled classes always interfere,
        // so conditional merges never see two distinct labels).
        let label = self.labels[rb].or(self.labels[ra]);
        // A root with no materialized member list names a singleton class
        // (its only member is the root itself). Absorbing a singleton into a
        // materialized list is the common shape of the decide loop, and a
        // binary-search insert into the surviving buffer produces exactly the
        // list `merge_sorted_into` would (ties between `None`-keyed values
        // resolve to the left operand there, hence the `<=`/`<` asymmetry)
        // without copying the whole class through a pooled buffer. When the
        // linear test of this pair took its singleton fast path, it found
        // the insertion point already: the keys of defined values are
        // unique, so its `<` search lands where either search here would.
        let a_single = self.members[ra].is_empty();
        let b_single = self.members[rb].is_empty();
        let found = |single: Value| match equal_anc_out.insert_at {
            Some((value, pos)) if value == single => Some(pos),
            _ => None,
        };
        let merged = if !a_single && b_single {
            let mut list = std::mem::take(&mut self.members[ra]);
            let kv = self.keys[rb];
            let search = || list.partition_point(|&x| self.keys[x] <= kv);
            let pos = found(rb).unwrap_or_else(search);
            debug_assert_eq!(pos, search());
            self.insert_member(&mut list, pos, rb);
            list
        } else if a_single && !b_single {
            let mut list = std::mem::take(&mut self.members[rb]);
            let kv = self.keys[ra];
            let search = || list.partition_point(|&x| self.keys[x] < kv);
            let pos = found(ra).unwrap_or_else(search);
            debug_assert_eq!(pos, search());
            self.insert_member(&mut list, pos, ra);
            list
        } else {
            let list_a = std::mem::take(&mut self.members[ra]);
            let list_b = std::mem::take(&mut self.members[rb]);
            let mut merged = self.acquire(list_a.len().max(1) + list_b.len().max(1));
            {
                let slice_a: &[Value] = if list_a.is_empty() {
                    std::slice::from_ref(&self.pool[ra.index()])
                } else {
                    &list_a
                };
                let slice_b: &[Value] = if list_b.is_empty() {
                    std::slice::from_ref(&self.pool[rb.index()])
                } else {
                    &list_b
                };
                self.merge_sorted_into(slice_a, slice_b, &mut merged);
            }
            self.release(list_a);
            self.release(list_b);
            merged
        };

        // equal_anc_in for the combined class: the later (in ≺ order) of the
        // in-class and out-of-class equal intersecting ancestors. Only the
        // scratch's touched values can change a chain (an untouched member
        // has `equal_anc_out = None`, and `max(x, None) = x`), so the
        // combine walks the touched list — typically a handful of same-value
        // records — instead of every member of the merged class. The scratch
        // must be the one filled by the interference test of this very pair;
        // unconditional merges pass an empty scratch and skip the loop.
        if !equal_anc_out.is_empty() {
            for &member in &equal_anc_out.touched {
                let current = self.equal_anc_in[member];
                let out = equal_anc_out.get(member);
                self.equal_anc_in[member] = self.max_by_key(current, out);
            }
        }

        self.parent[rb] = Cell::new(Some(ra));
        self.labels[ra] = label;
        self.members[ra] = merged;
    }

    /// Merges every value of `group` into one class without interference
    /// checks — the unconditional pre-coalescing of φ-webs (Lemma 1) and
    /// same-register pinned values. One sort instead of `k` incremental
    /// sorted-list merges. Every other root is linked under the root of
    /// `group[0]`, which names the combined class.
    pub fn merge_group(&mut self, group: &[Value]) {
        let Some((&first, rest)) = group.split_first() else { return };
        let ra = self.find(first);
        let mut roots = std::mem::take(&mut self.group_roots);
        roots.clear();
        roots.push(ra);
        for &value in rest {
            let r = self.find(value);
            if !roots.contains(&r) {
                roots.push(r);
            }
        }
        if roots.len() == 1 {
            self.group_roots = roots;
            return;
        }
        let len = roots.iter().map(|&root| self.members[root].len().max(1)).sum();
        let mut merged = self.acquire(len);
        for &root in &roots {
            if self.members[root].is_empty() {
                merged.push(root);
            } else {
                merged.append(&mut self.members[root]);
                // `append` drained the list but kept its buffer; release it.
                let retired = std::mem::take(&mut self.members[root]);
                self.release(retired);
            }
        }
        // The keys are total (every defined value carries a unique
        // `value_index` tie-breaker), so the unstable sort is deterministic
        // and orders exactly like the seed's stable sort; undefined values
        // (no key) fall back to the value index explicitly.
        merged.sort_unstable_by_key(|&v| (self.keys[v], v.index()));
        let mut label = self.labels[ra];
        for &other in &roots[1..] {
            self.parent[other] = Cell::new(Some(ra));
            if let Some(reg) = self.labels[other] {
                debug_assert!(
                    label.is_none_or(|r| r == reg),
                    "merge_group called on values pinned to different registers"
                );
                label = Some(reg);
            }
        }
        self.labels[ra] = label;
        // The loop above took every root's list, `ra`'s included.
        self.members[ra] = merged;
        self.group_roots = roots;
    }

    /// An empty member buffer with room for `len` values, from the free list
    /// of its size class.
    fn acquire(&mut self, len: usize) -> Vec<Value> {
        let class = len.max(4).next_power_of_two().trailing_zeros() as usize;
        self.free
            .get_mut(class)
            .and_then(Vec::pop)
            .unwrap_or_else(|| Vec::with_capacity(1 << class))
    }

    /// Empties `list` and returns its buffer to the free list of its size
    /// class.
    fn release(&mut self, mut list: Vec<Value>) {
        if list.capacity() == 0 {
            return;
        }
        list.clear();
        let class = list.capacity().ilog2() as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(list);
    }

    /// Inserts `value` at `pos` of `list`, moving a full list to a buffer of
    /// the next size class first.
    fn insert_member(&mut self, list: &mut Vec<Value>, pos: usize, value: Value) {
        if list.len() == list.capacity() {
            let mut bigger = self.acquire(list.len() + 1);
            bigger.extend_from_slice(list);
            let full = std::mem::replace(list, bigger);
            self.release(full);
        }
        list.insert(pos, value);
    }

    fn max_by_key(&self, a: Option<Value>, b: Option<Value>) -> Option<Value> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(x), Some(y)) => {
                if self.keys[x] >= self.keys[y] {
                    Some(x)
                } else {
                    Some(y)
                }
            }
        }
    }

    /// Merges two definition-ordered member lists into `out` (a recycled
    /// buffer from the free lists; cleared here, filled sorted).
    fn merge_sorted_into(&self, a: &[Value], b: &[Value], out: &mut Vec<Value>) {
        out.clear();
        // `merged` reports no size hint, so reserve up front: a warm merge
        // must not grow the buffer.
        out.reserve(a.len() + b.len());
        out.extend(merged(a, b, &self.keys).map(|(value, _)| value));
    }

    /// Reference quadratic interference test between the classes of `a` and
    /// `b`: every cross pair is queried. `use_values` selects value-based
    /// interference (intersection + different value) versus plain
    /// intersection.
    pub fn interfere_quadratic<L: BlockLiveness>(
        &mut self,
        a: Value,
        b: Value,
        intersect: &IntersectionTest<'_, L>,
        values: Option<&ValueTable>,
    ) -> bool {
        if self.labels_conflict(self.find(a), self.find(b)) {
            return true;
        }
        let mut queries = 0u64;
        let mut result = false;
        {
            let xs = self.members(a);
            let ys = self.members(b);
            'outer: for &x in xs {
                for &y in ys {
                    queries += 1;
                    if intersect.intersect(x, y) {
                        match values {
                            Some(table) if table.same_value(x, y) => continue,
                            _ => {
                                result = true;
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        self.queries += queries;
        result
    }

    /// The paper's linear interference test between the classes rooted at
    /// `ra` and `rb` (Algorithm 2 with the value extension). Returns `true`
    /// if the two classes interfere. When they do not and the caller
    /// decides to merge them, the scratch `equal_anc_out` (cleared and
    /// filled by this call) must be passed to [`CongruenceClasses::merge`].
    /// Definition-point dominance is read from the cached definition keys
    /// ([`DefKey::dominates`]). Label conflicts are the caller's concern,
    /// as with [`CongruenceClasses::interfere_sweep`].
    pub fn interfere_linear<L: BlockLiveness>(
        &mut self,
        ra: Value,
        rb: Value,
        intersect: &IntersectionTest<'_, L>,
        values: Option<&ValueTable>,
        equal_anc_out: &mut EqualAncOut,
    ) -> bool {
        debug_assert!(self.is_root(ra) && self.is_root(rb), "the linear test takes class roots");
        equal_anc_out.clear();
        // The member lists are borrowed, not cloned: the whole walk is
        // read-only on `self` (the query counter is folded in at the end),
        // and the dominance stack comes from the reusable scratch.
        let mut queries = 0u64;
        let mut dom = std::mem::take(&mut equal_anc_out.dom);
        dom.clear();
        let (interference_found, insert_at) = {
            let red = self.root_members(ra);
            let blue = self.root_members(rb);
            let keys = &self.keys;
            let equal_anc_in = &self.equal_anc_in;
            let dominates = |x: Value, y: Value| keys[x].dominates(keys[y]);

            // One step of Algorithm 2: test `current` against its nearest
            // dominating stack ancestor `parent`, walking the equal-ancestor
            // chains. Returns `true` on interference; otherwise records
            // `current`'s nearest intersecting equal ancestor in the scratch.
            // Shared by the full merged walk and the singleton fast path, so
            // the two are the same computation by construction.
            let mut step = |current: Value, in_red: bool, parent: Option<&(Value, bool)>| {
                equal_anc_out.set(current, None);
                let Some(&(parent, parent_in_red)) = parent else {
                    return false;
                };
                // interference(current, parent)
                let same_set = in_red == parent_in_red;
                let mut b_chain: Option<Value> = Some(parent);
                if same_set {
                    b_chain = equal_anc_out.get(parent);
                }
                let same_value = match (values, b_chain) {
                    (Some(table), Some(bc)) => table.same_value(current, bc),
                    (None, _) => false,
                    (_, None) => false,
                };
                // Every chain element dominates `current`: the chain starts
                // at the stack parent (a dominating ancestor of `current` by
                // the stack invariant) or at its recorded equal intersecting
                // ancestor (a dominance ancestor of the parent), and each
                // `equal_anc_in` link climbs further towards the root of the
                // class's dominance forest — so the cheaper directional
                // intersection entry applies throughout.
                if values.is_none() || !same_value {
                    // chain_intersect: does current intersect b_chain or one
                    // of its equal intersecting ancestors? The innermost
                    // loop of the default engine's class-interference check.
                    let mut y_opt = b_chain;
                    while let Some(y) = y_opt {
                        queries += 1;
                        if intersect.intersect_dominating(y, current) {
                            return true;
                        }
                        y_opt = equal_anc_in[y];
                    }
                    false
                } else {
                    // Same value: no interference, but record the nearest
                    // intersecting equal ancestor in the other chain.
                    let mut tmp = b_chain;
                    while let Some(t) = tmp {
                        queries += 1;
                        if intersect.intersect_dominating(t, current) {
                            break;
                        }
                        tmp = equal_anc_in[t];
                    }
                    equal_anc_out.set(current, tmp);
                    false
                }
            };

            // Most queries (three quarters on the bench corpus) have a
            // singleton on one side. The merged walk then degenerates:
            // every step before the singleton `v` only maintains the stack
            // (parents from the same set carry `None` records, so no query
            // is issued), and every step after leaving `v`'s dominated
            // subtree likewise (by the pre-order interval property of
            // dominance, nothing inside the subtree dominates anything after
            // it). The fast path reproduces the walk exactly — including
            // the query count — while touching only `v`'s insertion
            // neighbourhood: a backward scan for `v`'s nearest dominating
            // ancestor (the stack top the full walk would see: the latest
            // dominating predecessor is never popped before `v`, again by
            // the interval property), then the contiguous run of list
            // entries dominated by `v`. Values without a definition key
            // sort first, dominate nothing and issue no queries, so the
            // fast path requires `v` to carry a key and the big side is
            // taken as-is. The singleton's place in the big list is where
            // a merge of the pair inserts it, so it is handed on.
            let singleton = if red.len() == 1 && keys[red[0]].is_some() {
                Some((red[0], true, blue, false))
            } else if blue.len() == 1 && keys[blue[0]].is_some() {
                Some((blue[0], false, red, true))
            } else {
                None
            };
            if let Some((v, v_in_red, big, big_in_red)) = singleton {
                let kv = keys[v];
                let idx = big.partition_point(|&x| keys[x] < kv);
                let parent =
                    big[..idx].iter().rev().find(|&&x| dominates(x, v)).map(|&x| (x, big_in_red));
                let found = step(v, v_in_red, parent.as_ref()) || {
                    dom.push((v, v_in_red));
                    let run = big[idx..].iter().take_while(|&&x| dominates(v, x));
                    dominance_walk(&mut dom, run.map(|&x| (x, big_in_red)), dominates, |x, r, s| {
                        step(x, r, s.last())
                    })
                };
                (found, Some((v, idx)))
            } else {
                // The walk knows which list every value came from, so list
                // membership rides along on the stack instead of being
                // re-derived by a member-list scan per step (which was
                // quadratic in class size).
                let found =
                    dominance_walk(&mut dom, merged(red, blue, keys), dominates, |x, r, s| {
                        step(x, r, s.last())
                    });
                (found, None)
            }
        };
        equal_anc_out.dom = dom;
        equal_anc_out.insert_at = insert_at;
        self.queries += queries;
        interference_found
    }

    /// Batched interference test between the classes of `a` and `b` for the
    /// pairwise strategies: one dominance-stack walk over the two merged
    /// definition-ordered member lists, testing each value against the
    /// *opposite-class* stack entries — its dominating ancestors — instead
    /// of issuing all `|X| × |Y|` pair queries.
    ///
    /// Verdict-identical to [`CongruenceClasses::interfere_quadratic`] with
    /// the same pair predicate: under every supported strategy two values
    /// can only interfere when one definition dominates the other (the
    /// intersection test returns `false` without dominance; value-based
    /// interference requires an intersection; Chaitin-style interference
    /// requires one value live at the other's definition, which in strict
    /// SSA implies its definition dominates that point; interference-graph
    /// edges are built from intersections). So every potentially
    /// interfering pair is tested exactly once, and pairs with no dominance
    /// relation are skipped *unqueried*. That skip is where the query
    /// reduction comes from. Values without a definition sort first,
    /// dominate nothing and are dominated by nothing, so they never pair
    /// up; they cannot interfere under any strategy.
    ///
    /// `pair_interferes` is always called as `(member of a's class, member
    /// of b's class)`, preserving the quadratic loop's orientation, and
    /// every call counts as one query. `skip_pair` (Sreedhar I's exemption
    /// of the candidate copy operands) is honoured without counting,
    /// exactly like the quadratic loop. Label conflicts are the caller's
    /// concern (as with the quadratic test the caller checks them first).
    /// The dominance stack is borrowed from `stack` — the same scratch the
    /// linear test uses — so repeated sweeps do not allocate. Dominance
    /// between walked values is decided from the cached definition keys
    /// ([`DefKey::dominates`]), not by consulting the dominator tree per
    /// step. `ra` and `rb` are the class roots.
    pub fn interfere_sweep(
        &mut self,
        ra: Value,
        rb: Value,
        skip_pair: Option<(Value, Value)>,
        pair_interferes: &mut dyn FnMut(Value, Value) -> bool,
        stack: &mut EqualAncOut,
    ) -> bool {
        debug_assert!(self.is_root(ra) && self.is_root(rb), "the sweep takes class roots");
        let mut queries = 0u64;
        let mut dom = std::mem::take(&mut stack.dom);
        dom.clear();
        let keys = &self.keys;
        let found = dominance_walk(
            &mut dom,
            merged(self.root_members(ra), self.root_members(rb), keys),
            |x, y| keys[x].dominates(keys[y]),
            |current, current_in_red, ancestors| {
                // Nearest ancestor first: an interference, if any, is most
                // likely with the closest dominator still live across
                // `current`, so testing top-down reaches the early exit with
                // fewer queries. The verdict is existential — the test order
                // cannot change it, only the count.
                for &(anc, anc_in_red) in ancestors.iter().rev() {
                    if anc_in_red == current_in_red {
                        continue;
                    }
                    let (x, y) = if current_in_red { (current, anc) } else { (anc, current) };
                    if let Some((p, q)) = skip_pair {
                        if (x == p && y == q) || (x == q && y == p) {
                            continue;
                        }
                    }
                    queries += 1;
                    if pair_interferes(x, y) {
                        return true;
                    }
                }
                false
            },
        );
        stack.dom = dom;
        self.queries += queries;
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, ControlFlowGraph, InstData};
    use ossa_liveness::LivenessSets;

    struct Fixture {
        func: Function,
        domtree: DominatorTree,
        liveness: LivenessSets,
        info: LiveRangeInfo,
    }

    impl Fixture {
        fn new(func: Function) -> Self {
            let cfg = ControlFlowGraph::compute(&func);
            let domtree = DominatorTree::compute(&func, &cfg);
            let liveness = LivenessSets::compute(&func, &cfg);
            let info = LiveRangeInfo::compute(&func);
            Self { func, domtree, liveness, info }
        }

        fn intersect(&self) -> IntersectionTest<'_, LivenessSets> {
            IntersectionTest::new(&self.func, &self.domtree, &self.liveness, &self.info)
        }

        fn classes(&self) -> CongruenceClasses {
            CongruenceClasses::new(&self.func, &self.domtree, &self.info)
        }
    }

    fn copies_function() -> (Function, Vec<Value>) {
        let mut b = FunctionBuilder::new("copies", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let a = b.iconst(1);
        let b1 = b.copy(a);
        let c1 = b.copy(a);
        let other = b.iconst(5);
        let s = b.binary(BinaryOp::Add, a, b1);
        let t = b.binary(BinaryOp::Add, s, c1);
        let u = b.binary(BinaryOp::Add, t, other);
        b.ret(Some(u));
        (b.finish(), vec![a, b1, c1, other, s, t, u])
    }

    #[test]
    fn singleton_classes_and_merge() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let mut classes = fx.classes();
        let none = EqualAncOut::new();
        let [a, b1, c1, ..] = vals[..] else { panic!() };
        assert!(!classes.same_class(a, b1));
        assert_eq!(classes.members(a), &[a]);
        classes.merge(a, b1, &none);
        assert!(classes.same_class(a, b1));
        assert_eq!(classes.members(b1).len(), 2);
        // Member list stays sorted by definition order.
        assert_eq!(classes.members(a), &[a, b1]);
        classes.merge(c1, a, &none);
        assert_eq!(classes.members(a), &[a, b1, c1]);
    }

    #[test]
    fn quadratic_interference_with_and_without_values() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let values = ValueTable::of(&fx.func);
        let intersect = fx.intersect();
        let mut classes = fx.classes();
        let [a, b1, c1, ..] = vals[..] else { panic!() };
        // a and b1 intersect (a used later), so they interfere without
        // values, but have the same value, so they do not interfere with the
        // value-based definition.
        assert!(classes.interfere_quadratic(a, b1, &intersect, None));
        assert!(!classes.interfere_quadratic(a, b1, &intersect, Some(&values)));
        assert!(!classes.interfere_quadratic(a, c1, &intersect, Some(&values)));
        assert!(classes.queries() > 0);
    }

    #[test]
    fn linear_matches_quadratic_on_copy_webs() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let values = ValueTable::of(&fx.func);
        let intersect = fx.intersect();
        let [a, b1, c1, other, s, t, u] = vals[..] else { panic!() };
        let pairs = [(a, b1), (a, c1), (b1, c1), (a, other), (s, t), (t, u), (b1, other), (c1, s)];
        let mut scratch = EqualAncOut::new();
        for use_values in [false, true] {
            let table = use_values.then_some(&values);
            for &(x, y) in &pairs {
                let mut classes_q = fx.classes();
                let mut classes_l = fx.classes();
                let quad = classes_q.interfere_quadratic(x, y, &intersect, table);
                let lin = classes_l.interfere_linear(x, y, &intersect, table, &mut scratch);
                assert_eq!(quad, lin, "mismatch for ({x}, {y}) use_values={use_values}");
            }
        }
    }

    #[test]
    fn linear_matches_quadratic_after_merging_classes() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let values = ValueTable::of(&fx.func);
        let intersect = fx.intersect();
        let [a, b1, c1, other, s, ..] = vals[..] else { panic!() };
        // Merge {a, b1} and separately {c1, other}; then compare class tests.
        let mut classes_q = fx.classes();
        let mut classes_l = fx.classes();
        let none = EqualAncOut::new();
        for classes in [&mut classes_q, &mut classes_l] {
            classes.merge(a, b1, &none);
            classes.merge(c1, other, &none);
        }
        let mut scratch = EqualAncOut::new();
        let quad = classes_q.interfere_quadratic(a, c1, &intersect, Some(&values));
        let lin = classes_l.interfere_linear(a, c1, &intersect, Some(&values), &mut scratch);
        assert_eq!(quad, lin);
        // And for a pair that must interfere: s vs the {a,b1} class — s has a
        // different value and is live with a.
        let quad = classes_q.interfere_quadratic(s, a, &intersect, Some(&values));
        let lin = classes_l.interfere_linear(s, a, &intersect, Some(&values), &mut scratch);
        assert_eq!(quad, lin);
    }

    #[test]
    fn label_conflicts_force_interference() {
        let (mut f, vals) = copies_function();
        let [a, b1, ..] = vals[..] else { panic!() };
        f.pin_value(a, 0);
        f.pin_value(b1, 1);
        let fx = Fixture::new(f);
        let intersect = fx.intersect();
        let mut classes = fx.classes();
        assert!(classes.labels_conflict(a, b1));
        assert!(classes.interfere_quadratic(a, b1, &intersect, None));
        // The linear test leaves labels to its caller; these two also
        // intersect.
        let mut scratch = EqualAncOut::new();
        assert!(classes.interfere_linear(a, b1, &intersect, None, &mut scratch));
        // Same register: no conflict from labels alone.
        assert!(!classes.labels_conflict(a, a));
    }

    #[test]
    fn merge_keeps_labels() {
        let (mut f, vals) = copies_function();
        let [a, b1, c1, ..] = vals[..] else { panic!() };
        f.pin_value(b1, 3);
        f.pin_value(c1, 4);
        let fx = Fixture::new(f);
        let mut classes = fx.classes();
        assert_eq!(classes.label(a), None);
        classes.merge(a, b1, &EqualAncOut::new());
        assert_eq!(classes.label(a), Some(3));
        // After the merge the {a, b1} class (label 3) conflicts with c1
        // (label 4).
        assert!(classes.labels_conflict(a, c1));
    }

    #[test]
    fn union_find_find_is_idempotent_and_compresses_paths() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let mut classes = fx.classes();
        let none = EqualAncOut::new();
        let [a, b1, c1, other, s, t, u] = vals[..] else { panic!() };
        // Build a chain of merges so non-trivial parent paths exist.
        classes.merge(a, b1, &none);
        classes.merge(c1, other, &none);
        classes.merge(a, c1, &none);
        classes.merge(s, t, &none);
        for &v in &[a, b1, c1, other, s, t, u] {
            let root = classes.find(v);
            // Idempotence: the root of a root is itself.
            assert_eq!(classes.find(root), root, "find not idempotent for {v}");
            assert_eq!(classes.find(v), root, "find not stable for {v}");
            // Path compression: after a find, the parent link (if any)
            // points directly at the root.
            if v != root {
                assert_eq!(
                    classes.parent.get(v).get(),
                    Some(root),
                    "path of {v} not compressed to its root {root}"
                );
            }
            // The canonical representative is a member of the class.
            assert!(classes.members(v).contains(&classes.representative(v)));
        }
        // The canonical representative is preserved across rank decisions:
        // `a`'s side named every merge above, so it stays the name.
        assert_eq!(classes.representative(other), a);
        assert_eq!(classes.representative(b1), a);
    }

    /// The rank-free union-find against a partition oracle: seeded random
    /// sequences of `merge` and `merge_group` over the copy-related universe
    /// of generated functions. The oracle names a combined class after its
    /// first operand's class, which is the name the rewrite renames to, so
    /// after every operation `representative` must return the oracle's name,
    /// `same_class` must agree with it and `members` must list the oracle's
    /// class in definition order. One instance is recycled across all
    /// functions through `reset_for`.
    #[test]
    fn union_find_matches_a_partition_oracle_on_generated_functions() {
        use ossa_cfggen::rng::SmallRng;
        use ossa_cfggen::{generate_ssa_function, GenConfig};
        use std::collections::HashMap;

        let none = EqualAncOut::new();
        let mut classes = CongruenceClasses::default();
        let mut checked_ops = 0usize;
        for (prefix, config, seeds) in
            [("uf", GenConfig::small(), 60), ("UF", GenConfig::default(), 20)]
        {
            for seed in 0..seeds {
                let (func, _) = generate_ssa_function(format!("{prefix}{seed}"), &config, seed);
                let universe = crate::interference::copy_related_universe(&func);
                if universe.len() < 2 {
                    continue;
                }
                let cfg = ControlFlowGraph::compute(&func);
                let domtree = DominatorTree::compute(&func, &cfg);
                let info = LiveRangeInfo::compute(&func);
                classes.reset_for(&func, &domtree, &info, &universe);
                let mut name: HashMap<Value, Value> = universe.iter().map(|&v| (v, v)).collect();
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
                let pick = |rng: &mut SmallRng| universe[rng.below(universe.len())];
                for op in 0..3 * universe.len() {
                    if rng.below(4) == 0 {
                        let len = rng.range_inclusive(1, 5);
                        let group: Vec<Value> = (0..len).map(|_| pick(&mut rng)).collect();
                        let target = name[&group[0]];
                        let absorbed: Vec<Value> = group.iter().map(|v| name[v]).collect();
                        for class in name.values_mut() {
                            if absorbed.contains(class) {
                                *class = target;
                            }
                        }
                        classes.merge_group(&group);
                    } else {
                        let (a, b) = (pick(&mut rng), pick(&mut rng));
                        let (na, nb) = (name[&a], name[&b]);
                        for class in name.values_mut() {
                            if *class == nb {
                                *class = na;
                            }
                        }
                        classes.merge(a, b, &none);
                    }
                    checked_ops += 1;

                    let mut oracle: HashMap<Value, Vec<Value>> = HashMap::new();
                    for &v in &universe {
                        oracle.entry(name[&v]).or_default().push(v);
                    }
                    for list in oracle.values_mut() {
                        list.sort_by_key(|&v| (classes.key(v), v.index()));
                    }
                    for &v in &universe {
                        let w = pick(&mut rng);
                        let ctx = format!("{prefix}{seed} op {op}: {v}");
                        assert_eq!(classes.representative(v), name[&v], "{ctx}: class name");
                        assert_eq!(classes.same_class(v, w), name[&v] == name[&w], "{ctx} ~ {w}");
                        assert_eq!(classes.members(v), &oracle[&name[&v]][..], "{ctx}: members");
                    }
                }
            }
        }
        assert!(checked_ops >= 2_000, "only {checked_ops} union-find operations were checked");
    }

    #[test]
    fn reset_classes_behave_like_freshly_constructed_ones() {
        // Recycle one CongruenceClasses across two rounds with merges in
        // between: after reset, every observable (roots, members, labels,
        // keys, interference answers) matches a fresh construction.
        let (mut f, vals) = copies_function();
        let [a, b1, c1, other, s, ..] = vals[..] else { panic!() };
        f.pin_value(c1, 2);
        let fx = Fixture::new(f);
        let intersect = fx.intersect();
        let values = ValueTable::of(&fx.func);
        let none = EqualAncOut::new();

        let mut recycled = fx.classes();
        // Dirty the state thoroughly.
        recycled.merge(a, b1, &none);
        recycled.merge(s, other, &none);
        recycled.merge_group(&vals);
        let _ = recycled.interfere_quadratic(a, s, &intersect, Some(&values));

        recycled.reset_for(&fx.func, &fx.domtree, &fx.info, &vals);
        let mut fresh = fx.classes();
        let mut scratch_a = EqualAncOut::new();
        let mut scratch_b = EqualAncOut::new();
        for &v in &vals {
            assert_eq!(recycled.find(v), fresh.find(v));
            assert_eq!(recycled.representative(v), fresh.representative(v));
            assert_eq!(recycled.members(v), fresh.members(v));
            assert_eq!(recycled.label(v), fresh.label(v));
            assert_eq!(recycled.key(v), fresh.key(v));
        }
        assert_eq!(recycled.queries(), 0);
        // Decisions after reset track a fresh instance exactly.
        for &(x, y) in &[(a, b1), (b1, c1), (a, s), (c1, other)] {
            let (rx, ry) = (recycled.find(x), recycled.find(y));
            assert_eq!((rx, ry), (fresh.find(x), fresh.find(y)));
            assert_eq!(
                recycled.interfere_linear(rx, ry, &intersect, Some(&values), &mut scratch_a),
                fresh.interfere_linear(rx, ry, &intersect, Some(&values), &mut scratch_b),
                "linear mismatch for ({x}, {y})"
            );
            recycled.merge(x, y, &scratch_a);
            fresh.merge(x, y, &scratch_b);
            assert_eq!(recycled.members(x), fresh.members(x));
        }
    }

    #[test]
    fn pooled_merges_keep_member_lists_sorted_and_representatives_stable() {
        // The congruence-pool invariant: with member buffers cycling through
        // the free lists (merges retire two lists and recycle one, resets
        // release everything), every observable stays exactly as a fresh
        // instance computes it — member lists sorted by definition order
        // with no duplicates, `representative()` a stable member of the
        // class — across several rounds of interleaved merge/merge_group
        // calls on one recycled instance.
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let none = EqualAncOut::new();
        let mut recycled = fx.classes();
        let [a, b1, c1, other, s, t, u] = vals[..] else { panic!() };
        let rounds: [&[(Value, Value)]; 3] = [
            &[(a, b1), (c1, other), (a, c1), (s, t)],
            &[(u, t), (b1, other), (s, a)],
            &[(t, c1), (a, u)],
        ];
        for (round, merges) in rounds.iter().enumerate() {
            recycled.reset_for(&fx.func, &fx.domtree, &fx.info, &vals);
            let mut fresh = fx.classes();
            // Interleave a group merge so the pool sees both retirement
            // paths (pairwise merge and k-way group merge).
            recycled.merge_group(&[s, u]);
            fresh.merge_group(&[s, u]);
            for &(x, y) in merges.iter() {
                recycled.merge(x, y, &none);
                fresh.merge(x, y, &none);
                for &v in &vals {
                    let members = recycled.members(v);
                    assert_eq!(
                        members,
                        fresh.members(v),
                        "round {round}: pooled members of {v} diverged from fresh"
                    );
                    // Sorted by definition order, strictly (no duplicates):
                    // the keys embed the value index, so strict inequality
                    // is both orderedness and dedup.
                    for w in members.windows(2) {
                        assert!(
                            recycled.key(w[0]) < recycled.key(w[1]),
                            "round {round}: members of {v} not strictly def-ordered: {members:?}"
                        );
                    }
                    let rep = recycled.representative(v);
                    assert_eq!(rep, fresh.representative(v), "round {round}: representative");
                    assert!(members.contains(&rep), "round {round}: rep {rep} not a member");
                }
            }
        }
    }

    /// Builds a diamond CFG with copies on one arm, so classes mix values
    /// with and without dominance relations across blocks.
    fn diamond_function() -> (Function, Vec<Value>) {
        let mut b = FunctionBuilder::new("diamond", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let right = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let x0 = b.iconst(7);
        b.branch(p, left, right);
        b.switch_to_block(left);
        let l1 = b.copy(x0);
        let l2 = b.binary(BinaryOp::Add, l1, x0);
        b.jump(join);
        b.switch_to_block(right);
        let r1 = b.iconst(9);
        let r2 = b.binary(BinaryOp::Add, r1, r1);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(left, l2), (right, r2)]);
        let u = b.binary(BinaryOp::Add, m, x0);
        b.ret(Some(u));
        (b.finish(), vec![p, x0, l1, l2, r1, r2, m, u])
    }

    /// The merge-sweep walk is verdict-identical to both the quadratic
    /// member loop and a brute-force all-pairs oracle, over many random
    /// two-class partitions of a multi-block function — including with the
    /// Sreedhar-I `skip_pair` exemption. Only the query count may differ
    /// (the sweep skips dominance-unrelated pairs unqueried).
    #[test]
    fn sweep_matches_quadratic_and_brute_force_on_random_partitions() {
        for fixture in [diamond_function(), copies_function()] {
            let (f, vals) = fixture;
            let fx = Fixture::new(f);
            let intersect = fx.intersect();
            let values = ValueTable::of(&fx.func);
            let mut state = 0x9e3779b97f4a7c15u64;
            let mut next = || {
                // xorshift64*: deterministic, no external PRNG dependency.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545f4914f6cdd1d)
            };
            for round in 0..64 {
                let (mut group_a, mut group_b) = (Vec::new(), Vec::new());
                for &v in &vals {
                    match next() % 3 {
                        0 => group_a.push(v),
                        1 => group_b.push(v),
                        _ => {}
                    }
                }
                if group_a.is_empty() || group_b.is_empty() {
                    continue;
                }
                let mut classes = fx.classes();
                classes.merge_group(&group_a);
                classes.merge_group(&group_b);
                let (ra, rb) = (classes.find(group_a[0]), classes.find(group_b[0]));
                if ra == rb {
                    continue; // overlapping partition collapsed into one class
                }
                let skip = if next() % 2 == 0 {
                    Some((
                        group_a[next() as usize % group_a.len()],
                        group_b[next() as usize % group_b.len()],
                    ))
                } else {
                    None
                };
                let brute = classes.members(ra).iter().any(|&x| {
                    classes.members(rb).iter().any(|&y| {
                        if let Some((p, q)) = skip {
                            if (x == p && y == q) || (x == q && y == p) {
                                return false;
                            }
                        }
                        intersect.intersect(x, y) && !values.same_value(x, y)
                    })
                });
                let mut stack = EqualAncOut::new();
                let sweep = classes.interfere_sweep(
                    ra,
                    rb,
                    skip,
                    &mut |x, y| intersect.intersect(x, y) && !values.same_value(x, y),
                    &mut stack,
                );
                assert_eq!(
                    sweep, brute,
                    "round {round}: sweep diverged from brute force \
                     (A={group_a:?}, B={group_b:?}, skip={skip:?})"
                );
                if skip.is_none() {
                    let quadratic = classes.interfere_quadratic(ra, rb, &intersect, Some(&values));
                    assert_eq!(sweep, quadratic, "round {round}: sweep vs quadratic");
                }
            }
        }
    }

    /// The packed keys order values as `DefOrderKey`'s derived order does
    /// and decide dominance as `key_def_dominates` does, for every pair of
    /// universe values of generated functions of three shapes. Each function
    /// also gets a value with no definition and an unreachable block that
    /// defines two values: the corner cases of the dominance test.
    #[test]
    fn packed_keys_match_def_order_keys_on_generated_functions() {
        use ossa_cfggen::{generate_ssa_function, GenConfig};

        let deep = GenConfig { num_stmts: 200, num_vars: 16, max_depth: 5, ..GenConfig::default() };
        let shapes = [
            ("small", GenConfig::small(), 24),
            ("default", GenConfig::default(), 12),
            ("deep", deep, 4),
        ];
        let (mut pairs, mut dominating) = (0usize, 0usize);
        let mut classes = CongruenceClasses::default();
        for (prefix, config, seeds) in shapes {
            for seed in 0..seeds {
                let (mut func, _) = generate_ssa_function(format!("{prefix}{seed}"), &config, seed);
                let universe = crate::interference::copy_related_universe(&func);
                let unreachable = func.add_block();
                let extra = [func.new_value(), func.new_value(), func.new_value()];
                for (imm, &dst) in extra[..2].iter().enumerate() {
                    func.append_inst(unreachable, InstData::Const { dst, imm: imm as i64 });
                }
                func.append_inst(unreachable, InstData::Return { value: None });
                let cfg = ControlFlowGraph::compute(&func);
                let domtree = DominatorTree::compute(&func, &cfg);
                let info = LiveRangeInfo::compute(&func);
                classes.reset_for(&func, &domtree, &info, &universe);
                let keyed: Vec<(Option<DefOrderKey>, DefKey)> = universe
                    .iter()
                    .chain(&extra)
                    .map(|&v| {
                        let key = DefOrderKey::of(v, &info, &domtree);
                        (key, DefKey::new(key))
                    })
                    .collect();
                for (&v, &(_, packed)) in universe.iter().zip(&keyed) {
                    assert_eq!(classes.key(v), packed, "{prefix}{seed}: stored key of {v}");
                }
                let [dead_a, dead_b, undefined] = [0, 1, 2].map(|i| keyed[universe.len() + i].0);
                assert!(dead_a.zip(dead_b).is_some_and(|(a, b)| a.block_preorder == u32::MAX
                    && b.block_preorder == u32::MAX
                    && a.pos < b.pos));
                assert_eq!(undefined, None);
                for &(a, packed_a) in &keyed {
                    for &(b, packed_b) in &keyed {
                        let ctx = format!("{prefix}{seed}: {a:?} vs {b:?}");
                        assert_eq!(packed_a.cmp(&packed_b), a.cmp(&b), "{ctx}: order");
                        let dominates = key_def_dominates(a, b);
                        assert_eq!(packed_a.dominates(packed_b), dominates, "{ctx}: dominance");
                        pairs += 1;
                        dominating += dominates as usize;
                    }
                }
            }
        }
        assert!(dominating * 10 > pairs, "{dominating} of {pairs} pairs dominate");
    }

    #[test]
    fn equal_anc_out_scratch_resets_between_queries() {
        let mut scratch = EqualAncOut::new();
        let v = Value::from_index(3);
        scratch.set(v, Some(Value::from_index(1)));
        assert_eq!(scratch.get(v), Some(Value::from_index(1)));
        scratch.clear();
        assert_eq!(scratch.get(v), None);
    }
}
