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
//! stay `&self`) and union by rank; because rank-based linking makes the
//! *tree root* an implementation detail, the externally meaningful class
//! identity — the value every member is renamed to — is tracked separately
//! as the class's *canonical representative*
//! ([`CongruenceClasses::representative`]), which is always the root the
//! seed's rank-free linking would have chosen, keeping the translated output
//! bit-identical.

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

/// Definition-point dominance decided from two cached keys — exactly
/// [`IntersectionTest::def_dominates`]: values without a key (no definition)
/// or defined in unreachable blocks (pre-order `u32::MAX`) dominate nothing,
/// same-block points compare by position, and distinct blocks use the DFS
/// interval of the dominator tree.
#[inline]
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
    /// Reusable dominance stack for the linear walk (`(value, came from the
    /// red list)`), so repeated queries neither allocate nor re-derive list
    /// membership by scanning.
    dom: Vec<(Value, bool)>,
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
    /// Union-by-rank upper bound on the tree height, stored at roots.
    rank: SecondaryMap<Value, u32>,
    /// Canonical representative of a class, stored at the tree root when it
    /// differs from the root itself (`None` = the root is canonical). This
    /// is the value the rewrite renames every member to.
    canon: SecondaryMap<Value, Option<Value>>,
    /// Members of each class, stored at the class root, sorted by
    /// [`DefOrderKey`]. Empty at roots of *singleton* classes — the
    /// one-element list is read from `pool` instead, so construction
    /// performs no per-value heap allocation.
    members: SecondaryMap<Value, Vec<Value>>,
    /// Identity table `pool[i] == vᵢ`, the backing storage for the implicit
    /// singleton member lists.
    pool: Vec<Value>,
    /// Free list of member buffers: every merge retires up to two member
    /// lists and produces one, so recycling them through this pool makes the
    /// merge path allocation-free once the buffers have grown to the sizes a
    /// corpus needs. Buffers are pushed back empty, capacity intact.
    free: Vec<Vec<Value>>,
    /// Scratch root list of [`CongruenceClasses::merge_group`].
    group_roots: Vec<Value>,
    /// Register label of each class root, if any member is pinned.
    labels: SecondaryMap<Value, Option<u32>>,
    /// Definition-order key of every value.
    keys: SecondaryMap<Value, Option<DefOrderKey>>,
    /// For the value-based linear test: nearest dominating member of the
    /// same class with the same value that intersects the value.
    equal_anc_in: SecondaryMap<Value, Option<Value>>,
    /// Merge version of each class, stored at roots: bumped every time the
    /// class gains members. `(root, version)` names an immutable snapshot of
    /// a class — the key the coalescer's verdict cache is invalidated by
    /// (see [`CongruenceClasses::class_version`]).
    version: SecondaryMap<Value, u32>,
    /// Number of interference queries performed (statistics).
    queries: u64,
    /// The slots written since the last [`CongruenceClasses::reset_for`]
    /// (its universe plus [`CongruenceClasses::add_value`] registrations):
    /// every union-find, member, label, key, chain and version write lands on
    /// a class member or affinity endpoint, all of which the universe covers.
    /// The next `reset_for` only has to scrub these slots.
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
    /// write lands on a slot of the `dirty` list (the previous universe plus
    /// `add_value` registrations), so only those slots need to be returned
    /// to their default — the rest never left it.
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
        if let Some(site) = info.def(value) {
            self.keys[value] = Some(DefOrderKey {
                block_preorder: domtree.preorder_number(site.block),
                pos: site.pos as u32,
                value_index: value.index() as u32,
                block_postorder: domtree.postorder_number(site.block),
            });
        }
        self.labels[value] = func.pinned_reg(value);
    }

    /// The scrub of [`CongruenceClasses::reset_for`]: returns the slots of
    /// the `dirty` list to their defaults (reclaiming their member buffers)
    /// while the maps still have their previous length (every dirty index
    /// was valid then), then truncates and resizes every map to the current
    /// function and tops up the identity pool.
    fn reset_clear_dirty(&mut self, func: &Function) {
        let num_values = func.num_values();
        for i in 0..self.dirty.len() {
            let value = self.dirty[i];
            let slot = &mut self.members[value];
            if slot.capacity() > 0 {
                slot.clear();
                self.free.push(std::mem::take(slot));
            }
            self.parent[value].set(None);
            self.rank[value] = 0;
            self.canon[value] = None;
            self.labels[value] = None;
            self.keys[value] = None;
            self.equal_anc_in[value] = None;
            self.version[value] = 0;
        }
        self.queries = 0;

        self.parent.truncate(num_values);
        self.rank.truncate(num_values);
        self.canon.truncate(num_values);
        self.members.truncate(num_values);
        self.labels.truncate(num_values);
        self.keys.truncate(num_values);
        self.equal_anc_in.truncate(num_values);
        self.version.truncate(num_values);
        self.parent.resize(num_values);
        self.rank.resize(num_values);
        self.canon.resize(num_values);
        self.members.resize(num_values);
        self.labels.resize(num_values);
        self.keys.resize(num_values);
        self.equal_anc_in.resize(num_values);
        self.version.resize(num_values);
        if self.pool.len() < num_values {
            self.pool.reserve_exact(num_values - self.pool.len());
            while self.pool.len() < num_values {
                self.pool.push(Value::from_index(self.pool.len()));
            }
        }
    }

    /// Registers a value created after construction (e.g. a materialized
    /// copy), giving it a singleton class.
    pub fn add_value(&mut self, value: Value, key: DefOrderKey, label: Option<u32>) {
        self.dirty.push(value);
        self.keys[value] = Some(key);
        self.parent[value] = Cell::new(None);
        self.rank[value] = 0;
        self.canon[value] = None;
        self.equal_anc_in[value] = None;
        self.version[value] = 0;
        self.members[value].clear();
        self.labels[value] = label;
        while self.pool.len() <= value.index() {
            self.pool.push(Value::from_index(self.pool.len()));
        }
    }

    /// The union-find root of the class of `value`, compressing the walked
    /// path. The root is an internal identity (stable key for the member,
    /// label and canon storage); the externally meaningful class name is
    /// [`CongruenceClasses::representative`].
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

    /// The canonical representative of the class of `value`: the value every
    /// member is renamed to by the rewrite. Identical to the tree root the
    /// seed's rank-free linking produced, independent of rank decisions.
    pub fn representative(&self, value: Value) -> Value {
        let root = self.find(value);
        self.canon.get(root).unwrap_or(root)
    }

    /// Returns `true` if `a` and `b` are already coalesced.
    pub fn same_class(&self, a: Value, b: Value) -> bool {
        self.find(a) == self.find(b)
    }

    /// Members of the class of `value`, sorted by definition order.
    pub fn members(&self, value: Value) -> &[Value] {
        let root = self.find(value);
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

    /// The definition-order key of `value`.
    pub fn key(&self, value: Value) -> Option<DefOrderKey> {
        self.keys[value]
    }

    /// Number of variable-to-variable interference queries performed so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// The merge version of the class whose *root* is `root` (callers pass a
    /// [`CongruenceClasses::find`] result). The version is bumped exactly
    /// when the class gains members, and a class's interference-relevant
    /// state — member list, label, members' `equal_anc_in` chains — changes
    /// only then, so `(root, version)` pins an immutable snapshot: equal
    /// pairs on both sides guarantee a cached verdict is still exact.
    pub fn class_version(&self, root: Value) -> u32 {
        *self.version.get(root)
    }

    /// Adds externally performed pair queries to the statistics counter.
    pub fn add_queries(&mut self, count: u64) {
        self.queries += count;
    }

    /// The nearest same-class, same-value, intersecting dominating ancestor
    /// recorded for `value`.
    pub fn equal_anc_in(&self, value: Value) -> Option<Value> {
        self.equal_anc_in[value]
    }

    /// Returns `true` if the labels of the two classes conflict (both are
    /// pinned, to different registers).
    pub fn labels_conflict(&self, a: Value, b: Value) -> bool {
        match (self.label(a), self.label(b)) {
            (Some(ra), Some(rb)) => ra != rb,
            _ => false,
        }
    }

    /// Merges the classes of `a` and `b` without checking interference.
    /// The member lists are merged in definition order and the
    /// equal-intersecting-ancestor chains are combined as in the paper.
    /// The canonical representative of the combined class is the one of
    /// `a`'s class; the tree root is chosen by rank.
    pub fn merge(&mut self, a: Value, b: Value, equal_anc_out: &EqualAncOut) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let canonical = self.canon.get(ra).unwrap_or(ra);
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
        // without copying the whole class through a pooled buffer.
        let a_single = self.members[ra].is_empty();
        let b_single = self.members[rb].is_empty();
        let merged = if !a_single && b_single {
            let mut list = std::mem::take(&mut self.members[ra]);
            let kv = self.keys[rb];
            let pos = list.partition_point(|&x| self.keys[x] <= kv);
            list.insert(pos, rb);
            list
        } else if a_single && !b_single {
            let mut list = std::mem::take(&mut self.members[rb]);
            let kv = self.keys[ra];
            let pos = list.partition_point(|&x| self.keys[x] < kv);
            list.insert(pos, ra);
            list
        } else {
            let list_a = std::mem::take(&mut self.members[ra]);
            let list_b = std::mem::take(&mut self.members[rb]);
            let mut merged = self.free.pop().unwrap_or_default();
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
            // The retired member lists go back to the pool for the next merge.
            if list_a.capacity() > 0 {
                self.free.push(list_a);
            }
            if list_b.capacity() > 0 {
                self.free.push(list_b);
            }
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

        // Union by rank; the canonical representative rides along with the
        // winning root so the class keeps its external identity.
        let (root, child) = if self.rank[ra] >= self.rank[rb] { (ra, rb) } else { (rb, ra) };
        if self.rank[ra] == self.rank[rb] {
            self.rank[root] += 1;
        }
        self.parent[child] = Cell::new(Some(root));
        self.labels[root] = label;
        self.canon[root] = (canonical != root).then_some(canonical);
        self.members[root] = merged;
        // The surviving root now names a different class: advance its
        // version so cached verdicts keyed on the old snapshot miss. The
        // losing root can never be a root again, so its slot needs no bump.
        self.version[root] = self.version[root].wrapping_add(1);
    }

    /// Merges every value of `group` into one class without interference
    /// checks — the unconditional pre-coalescing of φ-webs (Lemma 1) and
    /// same-register pinned values. One sort instead of `k` incremental
    /// sorted-list merges.
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
        let canonical = self.canon.get(ra).unwrap_or(ra);
        // Buffers in the free list keep their stale contents (only their
        // capacity matters); every consumer clears before filling.
        let mut merged = self.free.pop().unwrap_or_default();
        merged.clear();
        for &root in &roots {
            if self.members[root].is_empty() {
                merged.push(root);
            } else {
                merged.append(&mut self.members[root]);
                // `append` drained the list but kept its buffer; reclaim it.
                let retired = std::mem::take(&mut self.members[root]);
                if retired.capacity() > 0 {
                    self.free.push(retired);
                }
            }
        }
        // The keys are total (every defined value carries a unique
        // `value_index` tie-breaker), so the unstable sort is deterministic
        // and orders exactly like the seed's stable sort; undefined values
        // (no key) fall back to the value index explicitly.
        merged.sort_unstable_by_key(|&v| (self.keys[v], v.index()));
        // Link everything under the highest-rank root (ties resolved to the
        // first, keeping the choice deterministic).
        let mut root = roots[0];
        for &r in &roots[1..] {
            if self.rank[r] > self.rank[root] {
                root = r;
            }
        }
        let top_rank = self.rank[root];
        let mut label = self.labels[root];
        let mut bump = false;
        for &other in &roots {
            if other == root {
                continue;
            }
            bump |= self.rank[other] == top_rank;
            self.parent[other] = Cell::new(Some(root));
            if let Some(reg) = self.labels[other] {
                debug_assert!(
                    label.is_none_or(|r| r == reg),
                    "merge_group called on values pinned to different registers"
                );
                label = Some(reg);
            }
        }
        if bump {
            self.rank[root] = top_rank + 1;
        }
        self.labels[root] = label;
        self.canon[root] = (canonical != root).then_some(canonical);
        let displaced = std::mem::replace(&mut self.members[root], merged);
        if displaced.capacity() > 0 {
            self.free.push(displaced);
        }
        self.version[root] = self.version[root].wrapping_add(1);
        self.group_roots = roots;
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
    /// buffer from the free list; cleared here, filled sorted).
    fn merge_sorted_into(&self, a: &[Value], b: &[Value], out: &mut Vec<Value>) {
        out.clear();
        out.reserve(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if self.keys[a[i]] <= self.keys[b[j]] {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
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
        if self.labels_conflict(a, b) {
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

    /// The paper's linear interference test between the classes of `a` and
    /// `b` (Algorithm 2 with the value extension). Returns `true` if the two
    /// classes interfere. When they do not and the caller decides to merge
    /// them, the scratch `equal_anc_out` (cleared and filled by this call)
    /// must be passed to [`CongruenceClasses::merge`]. Definition-point
    /// dominance is read from the oracle's own dominator tree
    /// ([`IntersectionTest::def_dominates`]).
    pub fn interfere_linear<L: BlockLiveness>(
        &mut self,
        a: Value,
        b: Value,
        intersect: &IntersectionTest<'_, L>,
        values: Option<&ValueTable>,
        equal_anc_out: &mut EqualAncOut,
    ) -> bool {
        equal_anc_out.clear();
        if self.labels_conflict(a, b) {
            return true;
        }
        // The member lists are borrowed, not cloned: the whole walk is
        // read-only on `self` (the query counter is folded in at the end),
        // and the dominance stack comes from the reusable scratch.
        let queries = std::cell::Cell::new(0u64);
        let mut dom: Vec<(Value, bool)> = std::mem::take(&mut equal_anc_out.dom);
        dom.clear();
        let interference_found = {
            let red = self.members(a);
            let blue = self.members(b);
            let keys = &self.keys;
            let equal_anc_in = &self.equal_anc_in;

            // One step of Algorithm 2: test `current` against its nearest
            // dominating stack ancestor `parent`, walking the equal-ancestor
            // chains. Returns `true` on interference; otherwise records
            // `current`'s nearest intersecting equal ancestor in the scratch.
            // Shared by the full merged walk and the singleton fast path, so
            // the two are the same computation by construction.
            let step = |current: Value,
                        current_in_red: bool,
                        parent: Option<(Value, bool)>,
                        equal_anc_out: &mut EqualAncOut|
             -> bool {
                let Some((parent, parent_in_red)) = parent else {
                    equal_anc_out.set(current, None);
                    return false;
                };
                // interference(current, parent)
                equal_anc_out.set(current, None);
                let same_set = current_in_red == parent_in_red;
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
                        queries.set(queries.get() + 1);
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
                        queries.set(queries.get() + 1);
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
            // taken as-is.
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
                let parent = big[..idx]
                    .iter()
                    .rev()
                    .copied()
                    .find(|&x| key_def_dominates(keys[x], kv))
                    .map(|x| (x, big_in_red));
                let mut found = step(v, v_in_red, parent, equal_anc_out);
                if !found {
                    dom.push((v, v_in_red));
                    for &x in &big[idx..] {
                        let kx = keys[x];
                        if !key_def_dominates(kv, kx) {
                            break;
                        }
                        while let Some(&(top, _)) = dom.last() {
                            if key_def_dominates(keys[top], kx) {
                                break;
                            }
                            dom.pop();
                        }
                        let parent = dom.last().copied();
                        if step(x, big_in_red, parent, equal_anc_out) {
                            found = true;
                            break;
                        }
                        dom.push((x, big_in_red));
                    }
                }
                found
            } else {
                // Merged walk in ≺ order with a dominance stack. The walk
                // knows which list every value was popped from, so list
                // membership rides along on the stack instead of being
                // re-derived by a member-list scan per step (which was
                // quadratic in class size).
                let (mut ir, mut ib) = (0usize, 0usize);
                let mut interference_found = false;
                'walk: while ir < red.len() || ib < blue.len() {
                    let (current, current_in_red) = if ir == red.len() {
                        let v = blue[ib];
                        ib += 1;
                        (v, false)
                    } else if ib == blue.len() {
                        let v = red[ir];
                        ir += 1;
                        (v, true)
                    } else if keys[blue[ib]] < keys[red[ir]] {
                        let v = blue[ib];
                        ib += 1;
                        (v, false)
                    } else {
                        let v = red[ir];
                        ir += 1;
                        (v, true)
                    };

                    // Pop the stack until the top dominates `current`.
                    let kc = keys[current];
                    while let Some(&(top, _)) = dom.last() {
                        if key_def_dominates(keys[top], kc) {
                            break;
                        }
                        dom.pop();
                    }
                    let parent = dom.last().copied();
                    if step(current, current_in_red, parent, equal_anc_out) {
                        interference_found = true;
                        break 'walk;
                    }
                    dom.push((current, current_in_red));
                }
                interference_found
            }
        };
        equal_anc_out.dom = dom;
        self.queries += queries.get();
        interference_found
    }

    /// Batched interference test between the classes of `a` and `b` for the
    /// pairwise strategies: one merged walk of the two definition-ordered
    /// member lists with a dominance stack, testing each value against the
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
    /// edges are built from intersections). With the lists sorted by
    /// definition order, a value's dominating ancestors are exactly the
    /// stack contents when it is reached — a dominator is never popped
    /// before its dominated successors, by the pre-order interval property
    /// of the dominator tree — so every potentially interfering pair is
    /// tested exactly once, and pairs with no dominance relation are
    /// skipped *unqueried*. That skip is where the query reduction comes
    /// from. Values without a definition sort first, dominate nothing and
    /// are dominated by nothing, so they never pair up; they cannot
    /// interfere under any strategy.
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
    /// ([`key_def_dominates`]), not by consulting the dominator tree per
    /// step.
    pub fn interfere_sweep(
        &mut self,
        a: Value,
        b: Value,
        skip_pair: Option<(Value, Value)>,
        pair_interferes: &mut dyn FnMut(Value, Value) -> bool,
        stack: &mut EqualAncOut,
    ) -> bool {
        let mut queries = 0u64;
        let mut dom: Vec<(Value, bool)> = std::mem::take(&mut stack.dom);
        dom.clear();
        let found = {
            let red = self.members(a);
            let blue = self.members(b);
            let keys = &self.keys;
            let (mut ir, mut ib) = (0usize, 0usize);
            let mut found = false;
            'walk: while ir < red.len() || ib < blue.len() {
                let (current, current_in_red) = if ir == red.len() {
                    let v = blue[ib];
                    ib += 1;
                    (v, false)
                } else if ib == blue.len() {
                    let v = red[ir];
                    ir += 1;
                    (v, true)
                } else if keys[blue[ib]] < keys[red[ir]] {
                    let v = blue[ib];
                    ib += 1;
                    (v, false)
                } else {
                    let v = red[ir];
                    ir += 1;
                    (v, true)
                };

                let kc = keys[current];
                while let Some(&(top, _)) = dom.last() {
                    if key_def_dominates(keys[top], kc) {
                        break;
                    }
                    dom.pop();
                }
                // Nearest ancestor first: an interference, if any, is most
                // likely with the closest dominator still live across
                // `current`, so testing top-down reaches the early exit with
                // fewer queries. The verdict is existential — the test order
                // cannot change it, only the count.
                for &(anc, anc_in_red) in dom.iter().rev() {
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
                        found = true;
                        break 'walk;
                    }
                }
                dom.push((current, current_in_red));
            }
            found
        };
        stack.dom = dom;
        self.queries += queries;
        found
    }

    /// Number of distinct classes among the values of `universe`.
    pub fn num_classes(&self, universe: impl IntoIterator<Item = Value>) -> usize {
        let mut roots: Vec<Value> = universe.into_iter().map(|v| self.find(v)).collect();
        roots.sort();
        roots.dedup();
        roots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, ControlFlowGraph};
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
        assert_eq!(classes.num_classes(vals.iter().copied()), vals.len() - 2);
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
    fn add_value_registers_new_singletons() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let mut f2 = fx.func.clone();
        let mut classes = fx.classes();
        let fresh = f2.new_value();
        classes.add_value(
            fresh,
            DefOrderKey {
                block_preorder: 0,
                pos: 99,
                value_index: fresh.index() as u32,
                block_postorder: 0,
            },
            Some(7),
        );
        assert_eq!(classes.members(fresh), &[fresh]);
        assert_eq!(classes.label(fresh), Some(7));
        assert!(!classes.same_class(fresh, vals[0]));
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

    #[test]
    fn union_find_ranks_grow_monotonically_and_bound_children() {
        let (f, vals) = copies_function();
        let fx = Fixture::new(f);
        let mut classes = fx.classes();
        let none = EqualAncOut::new();
        let mut last_root_rank = 0u32;
        for window in vals.windows(2) {
            let [x, y] = window[..] else { panic!() };
            classes.merge(x, y, &none);
            let root = classes.find(x);
            let rank = classes.rank[root];
            // Root rank never decreases as the class grows.
            assert!(rank >= last_root_rank, "rank decreased: {rank} < {last_root_rank}");
            last_root_rank = rank;
        }
        // Every non-root has a strictly smaller rank than its parent (the
        // union-by-rank invariant).
        let root = classes.find(vals[0]);
        for &v in &vals {
            if v != root {
                let parent = classes.parent.get(v).get().expect("linked");
                assert!(
                    classes.rank[v] < classes.rank[parent],
                    "rank[{v}] = {} not below rank of parent {parent} = {}",
                    classes.rank[v],
                    classes.rank[parent],
                );
            }
        }
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
            assert_eq!(
                recycled.interfere_linear(x, y, &intersect, Some(&values), &mut scratch_a),
                fresh.interfere_linear(x, y, &intersect, Some(&values), &mut scratch_b),
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
        // the free list (merges retire two lists and recycle one, resets
        // reclaim everything), every observable stays exactly as a fresh
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
