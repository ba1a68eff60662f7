//! Dense entity references and entity-keyed maps.
//!
//! The IR uses small integer newtypes ([`Value`], [`Block`], [`Inst`]) to
//! reference program entities, in the style of Cranelift's `entity` crate.
//! Entities are allocated by a [`PrimaryMap`] and auxiliary data is attached
//! with [`SecondaryMap`] (dense, default-filled) or [`EntitySet`] (bit set).

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// A type that can be used as a dense entity reference.
///
/// Implementors are thin wrappers around a `u32` index.
pub trait EntityRef: Copy + Eq + Hash {
    /// Creates an entity reference from an index.
    fn new(index: usize) -> Self;
    /// Returns the index of this entity reference.
    fn index(self) -> usize;
}

/// Declares a new entity reference newtype.
#[macro_export]
macro_rules! entity_ref {
    ($(#[$attr:meta])* $vis:vis struct $name:ident, $display:expr) => {
        $(#[$attr])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis struct $name(u32);

        impl $crate::entity::EntityRef for $name {
            #[inline]
            fn new(index: usize) -> Self {
                debug_assert!(index < u32::MAX as usize);
                $name(index as u32)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $name {
            /// Creates a reference from a raw index.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                <$name as $crate::entity::EntityRef>::new(index)
            }
            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($display, "{}"), self.0)
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($display, "{}"), self.0)
            }
        }
    };
}

entity_ref! {
    /// An SSA value (or, before SSA construction, a virtual variable).
    pub struct Value, "v"
}

entity_ref! {
    /// A basic block.
    pub struct Block, "bb"
}

entity_ref! {
    /// An instruction.
    pub struct Inst, "inst"
}

/// A map that allocates entity references densely and owns the primary
/// definition of each entity.
#[derive(PartialEq, Eq)]
pub struct PrimaryMap<K: EntityRef, V> {
    elems: Vec<V>,
    _marker: PhantomData<K>,
}

impl<K: EntityRef, V: Clone> Clone for PrimaryMap<K, V> {
    fn clone(&self) -> Self {
        Self { elems: self.elems.clone(), _marker: PhantomData }
    }

    /// Capacity-reusing clone: delegates to `Vec::clone_from`, so repeatedly
    /// snapshotting into the same map allocates nothing once the backing
    /// storage (and each element's own heap storage, element-wise) suffices.
    fn clone_from(&mut self, source: &Self) {
        self.elems.clone_from(&source.elems);
    }
}

impl<K: EntityRef, V> PrimaryMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self { elems: Vec::new(), _marker: PhantomData }
    }

    /// Creates an empty map with capacity for `cap` entities.
    pub fn with_capacity(cap: usize) -> Self {
        Self { elems: Vec::with_capacity(cap), _marker: PhantomData }
    }

    /// Allocates a new entity holding `value` and returns its reference.
    pub fn push(&mut self, value: V) -> K {
        let key = K::new(self.elems.len());
        self.elems.push(value);
        key
    }

    /// Removes and returns the most recently allocated entity's data.
    pub fn pop(&mut self) -> Option<V> {
        self.elems.pop()
    }

    /// Number of entities allocated so far.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Returns `true` if no entity has been allocated.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Returns `true` if `key` refers to an allocated entity.
    pub fn contains(&self, key: K) -> bool {
        key.index() < self.elems.len()
    }

    /// Returns the entity data if `key` is valid.
    pub fn get(&self, key: K) -> Option<&V> {
        self.elems.get(key.index())
    }

    /// Returns a mutable reference to the entity data if `key` is valid.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.elems.get_mut(key.index())
    }

    /// Iterates over `(key, &value)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.elems.iter().enumerate().map(|(i, v)| (K::new(i), v))
    }

    /// Iterates over the keys in allocation order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        (0..self.elems.len()).map(K::new)
    }

    /// Iterates over the values in allocation order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.elems.iter()
    }

    /// The key that the next call to [`PrimaryMap::push`] will return.
    pub fn next_key(&self) -> K {
        K::new(self.elems.len())
    }

    /// Iterates mutably over the values in allocation order (the reset walk
    /// of the recycling paths).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.elems.iter_mut()
    }

    /// Drops every entity while keeping the backing capacity — the
    /// per-function reset of the `truncate` discipline.
    pub fn clear(&mut self) {
        self.elems.clear();
    }

    /// Reserves capacity for at least `additional` more entities.
    ///
    /// Used by the translation's up-front reservation pre-pass: growing the
    /// map once from a size estimate replaces the amortized doubling that
    /// would otherwise happen mid-translation.
    pub fn reserve(&mut self, additional: usize) {
        self.elems.reserve(additional);
    }
}

impl<K: EntityRef, V> Default for PrimaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityRef, V> Index<K> for PrimaryMap<K, V> {
    type Output = V;
    fn index(&self, key: K) -> &V {
        &self.elems[key.index()]
    }
}

impl<K: EntityRef, V> IndexMut<K> for PrimaryMap<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        &mut self.elems[key.index()]
    }
}

impl<K: EntityRef, V: fmt::Debug> fmt::Debug for PrimaryMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.elems.iter().enumerate()).finish()
    }
}

/// A dense, default-filled auxiliary map keyed by an entity reference.
#[derive(PartialEq, Eq)]
pub struct SecondaryMap<K: EntityRef, V: Clone> {
    elems: Vec<V>,
    default: V,
    _marker: PhantomData<K>,
}

impl<K: EntityRef, V: Clone> Clone for SecondaryMap<K, V> {
    fn clone(&self) -> Self {
        Self { elems: self.elems.clone(), default: self.default.clone(), _marker: PhantomData }
    }

    /// Capacity-reusing clone (see [`PrimaryMap::clone_from`]).
    fn clone_from(&mut self, source: &Self) {
        self.elems.clone_from(&source.elems);
        self.default.clone_from(&source.default);
    }
}

impl<K: EntityRef, V: Clone + Default> SecondaryMap<K, V> {
    /// Creates an empty map whose missing entries read as `V::default()`.
    pub fn new() -> Self {
        Self::with_default(V::default())
    }

    /// Creates a map sized for `len` entities.
    pub fn with_capacity(len: usize) -> Self {
        let mut map = Self::new();
        map.resize(len);
        map
    }
}

impl<K: EntityRef, V: Clone + Default> Default for SecondaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityRef, V: Clone> SecondaryMap<K, V> {
    /// Creates an empty map whose missing entries read as `default`.
    pub fn with_default(default: V) -> Self {
        Self { elems: Vec::new(), default, _marker: PhantomData }
    }

    /// Ensures the map covers at least `len` entities.
    pub fn resize(&mut self, len: usize) {
        if self.elems.len() < len {
            self.elems.resize(len, self.default.clone());
        }
    }

    /// Number of slots currently materialized.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Returns `true` if no slot is materialized.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Returns the value for `key`, or the default if it was never written.
    #[inline]
    pub fn get(&self, key: K) -> &V {
        self.elems.get(key.index()).unwrap_or(&self.default)
    }

    /// Iterates over materialized `(key, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.elems.iter().enumerate().map(|(i, v)| (K::new(i), v))
    }

    /// Iterates mutably over every materialized slot — the reset walk of the
    /// analysis-recycling paths, which must restore default-equivalent state
    /// without dropping the per-slot heap allocations (e.g. clearing a
    /// `Vec` slot instead of replacing it).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.elems.iter_mut()
    }

    /// Drops every materialized slot past `len`, keeping the backing
    /// capacity. Combined with a reset walk over the surviving slots this
    /// bounds the per-function cost of the recycling resets by the *current*
    /// function, not the largest one the map ever covered; callers whose
    /// slots own heap allocations should reclaim those slots (e.g. into a
    /// pool) before truncating.
    pub fn truncate(&mut self, len: usize) {
        self.elems.truncate(len);
    }
}

impl<K: EntityRef, V: Clone> Index<K> for SecondaryMap<K, V> {
    type Output = V;
    #[inline]
    fn index(&self, key: K) -> &V {
        self.get(key)
    }
}

impl<K: EntityRef, V: Clone> IndexMut<K> for SecondaryMap<K, V> {
    #[inline]
    fn index_mut(&mut self, key: K) -> &mut V {
        if key.index() >= self.elems.len() {
            self.elems.resize(key.index() + 1, self.default.clone());
        }
        &mut self.elems[key.index()]
    }
}

impl<K: EntityRef, V: Clone + fmt::Debug> fmt::Debug for SecondaryMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.elems.iter().enumerate()).finish()
    }
}

/// Groups `pairs` by entity into compressed sparse rows, keeping each
/// entity's items in the order `pairs` lists them (a stable counting sort):
/// afterwards `items[offsets[k] as usize..offsets[k + 1] as usize]` are the
/// items of the entity with index `k`, for every `k < num_keys`. Both
/// outputs are refilled in place, keeping their capacity.
pub fn group_by_entity<K: EntityRef, T: Copy>(
    pairs: &[(K, T)],
    num_keys: usize,
    offsets: &mut Vec<u32>,
    items: &mut Vec<T>,
) {
    offsets.clear();
    offsets.resize(num_keys + 1, 0);
    for &(key, _) in pairs {
        offsets[key.index() + 1] += 1;
    }
    for i in 0..num_keys {
        offsets[i + 1] += offsets[i];
    }
    // `offsets[k]`, the start of k's range, doubles as the write cursor and
    // ends at k's end; one shift turns the ends back into starts.
    items.clear();
    items.extend(pairs.iter().map(|&(_, item)| item));
    for &(key, item) in pairs {
        let cursor = &mut offsets[key.index()];
        items[*cursor as usize] = item;
        *cursor += 1;
    }
    offsets.copy_within(0..num_keys, 1);
    offsets[0] = 0;
}

/// A set of entities backed by a bit vector.
#[derive(PartialEq, Eq)]
pub struct EntitySet<K: EntityRef> {
    words: Vec<u64>,
    len: usize,
    _marker: PhantomData<K>,
}

impl<K: EntityRef> Clone for EntitySet<K> {
    fn clone(&self) -> Self {
        Self { words: self.words.clone(), len: self.len, _marker: PhantomData }
    }

    /// Capacity-reusing clone; equivalent to [`EntitySet::clone_from_set`].
    fn clone_from(&mut self, source: &Self) {
        self.clone_from_set(source);
    }
}

impl<K: EntityRef> Default for EntitySet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityRef> EntitySet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self { words: Vec::new(), len: 0, _marker: PhantomData }
    }

    /// Creates an empty set able to hold entities with index `< capacity`
    /// without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { words: vec![0; capacity.div_ceil(64)], len: 0, _marker: PhantomData }
    }

    /// Number of entities in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&mut self, key: K) -> bool {
        let (word, bit) = (key.index() / 64, key.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.words[word] & mask == 0 {
            self.words[word] |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: K) -> bool {
        let (word, bit) = (key.index() / 64, key.index() % 64);
        if word >= self.words.len() {
            return false;
        }
        let mask = 1u64 << bit;
        if self.words[word] & mask != 0 {
            self.words[word] &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Returns `true` if `key` is in the set.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        let (word, bit) = (key.index() / 64, key.index() % 64);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Removes all entities.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Removes all entities *and* forgets the word-vector length while
    /// keeping its capacity. A subsequent repopulation grows the vector
    /// exactly as a freshly constructed set would, so recycled and fresh
    /// sets end up with identical [`EntitySet::footprint_bytes`] — the
    /// invariant the analysis-recycling paths need to stay bit-identical
    /// in their memory statistics.
    pub fn reset(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Iterates over the entities in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(K::new(wi * 64 + bit))
                }
            })
        })
    }

    /// Makes `self` an exact copy of `other`, reusing `self`'s existing
    /// word storage (no allocation when capacity suffices).
    pub fn clone_from_set(&mut self, other: &Self) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Adds every entity of `other & !minus` to `self` in one word-level
    /// pass: the data-flow transfer `live_in ∪= live_out \ kill` without
    /// per-bit iteration. Returns `true` if `self` grew.
    pub fn union_with_andnot(&mut self, other: &Self, minus: &Self) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        let mut len = 0usize;
        for (i, word) in self.words.iter_mut().enumerate() {
            let incoming = other.words.get(i).copied().unwrap_or(0)
                & !minus.words.get(i).copied().unwrap_or(0);
            let merged = *word | incoming;
            if merged != *word {
                changed = true;
                *word = merged;
            }
            len += merged.count_ones() as usize;
        }
        self.len = len;
        changed
    }

    /// Keeps only the entities also in `other` (set intersection); returns
    /// `true` if `self` shrank. The word-level pass of the must-define
    /// data-flow transfer `in[b] = ∩ preds out[p]`.
    pub fn intersect_with(&mut self, other: &Self) -> bool {
        let mut len = 0usize;
        for (i, word) in self.words.iter_mut().enumerate() {
            *word &= other.words.get(i).copied().unwrap_or(0);
            len += word.count_ones() as usize;
        }
        let changed = len != self.len;
        self.len = len;
        changed
    }

    /// Adds every entity of `other` to `self`; returns `true` if `self` grew.
    pub fn union_with(&mut self, other: &Self) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        let mut len = 0usize;
        for (i, word) in self.words.iter_mut().enumerate() {
            let merged = *word | other.words.get(i).copied().unwrap_or(0);
            if merged != *word {
                changed = true;
                *word = merged;
            }
            len += word.count_ones() as usize;
        }
        self.len = len;
        changed
    }

    /// Heap footprint in bytes of the stored words (used by the memory
    /// experiments). Based on the stored length, not the capacity, so the
    /// reported footprint is a function of the analyzed CFG alone — storage
    /// recycled from a larger function reports the same bytes as a fresh
    /// computation.
    pub fn footprint_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

impl<K: EntityRef + fmt::Debug> fmt::Debug for EntitySet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K: EntityRef> FromIterator<K> for EntitySet<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        let mut set = Self::new();
        for key in iter {
            set.insert(key);
        }
        set
    }
}

impl<K: EntityRef> Extend<K> for EntitySet<K> {
    fn extend<T: IntoIterator<Item = K>>(&mut self, iter: T) {
        for key in iter {
            self.insert(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_by_entity_keeps_each_entitys_items_in_order() {
        let v = Value::new;
        let pairs = [(v(2), 'a'), (v(0), 'b'), (v(2), 'c'), (v(3), 'd'), (v(2), 'e')];
        // Recycled outputs from a larger grouping are refilled in place.
        let (mut offsets, mut items) = (vec![9; 8], vec!['x'; 8]);
        group_by_entity(&pairs, 5, &mut offsets, &mut items);
        assert_eq!(offsets, [0, 1, 1, 4, 5, 5]);
        assert_eq!(items, ['b', 'a', 'c', 'e', 'd']);
    }

    #[test]
    fn primary_map_push_and_index() {
        let mut map: PrimaryMap<Value, &str> = PrimaryMap::new();
        let a = map.push("a");
        let b = map.push("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(map[a], "a");
        assert_eq!(map[b], "b");
        assert_eq!(map.len(), 2);
        assert!(map.contains(a));
        assert!(!map.contains(Value::from_index(7)));
    }

    #[test]
    fn primary_map_iteration_order() {
        let mut map: PrimaryMap<Block, u32> = PrimaryMap::new();
        for i in 0..5 {
            map.push(i * 10);
        }
        let collected: Vec<_> = map.iter().map(|(k, &v)| (k.index(), v)).collect();
        assert_eq!(collected, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn secondary_map_defaults_and_writes() {
        let mut map: SecondaryMap<Value, u32> = SecondaryMap::new();
        let v9 = Value::from_index(9);
        assert_eq!(map[v9], 0);
        map[v9] = 42;
        assert_eq!(map[v9], 42);
        assert_eq!(map[Value::from_index(3)], 0);
        assert!(map.len() >= 10);
    }

    #[test]
    fn secondary_map_custom_default() {
        let mut map: SecondaryMap<Value, i64> = SecondaryMap::with_default(-1);
        assert_eq!(map[Value::from_index(100)], -1);
        map[Value::from_index(2)] = 7;
        assert_eq!(map[Value::from_index(2)], 7);
    }

    #[test]
    fn secondary_map_truncate_drops_slots_and_reads_defaults() {
        let mut map: SecondaryMap<Value, u32> = SecondaryMap::new();
        map[Value::from_index(9)] = 42;
        map[Value::from_index(3)] = 7;
        map.truncate(4);
        assert_eq!(map.len(), 4);
        // Truncated slots read as the default again; survivors keep values.
        assert_eq!(map[Value::from_index(9)], 0);
        assert_eq!(map[Value::from_index(3)], 7);
        // Growing the map back materializes defaults, not stale values.
        map.resize(12);
        assert_eq!(map[Value::from_index(9)], 0);
        // Truncating beyond the materialized length is a no-op.
        map.truncate(100);
        assert_eq!(map.len(), 12);
    }

    #[test]
    fn entity_set_insert_remove_contains() {
        let mut set: EntitySet<Value> = EntitySet::new();
        let v1 = Value::from_index(1);
        let v70 = Value::from_index(70);
        assert!(set.insert(v1));
        assert!(!set.insert(v1));
        assert!(set.insert(v70));
        assert!(set.contains(v1));
        assert!(set.contains(v70));
        assert!(!set.contains(Value::from_index(2)));
        assert_eq!(set.len(), 2);
        assert!(set.remove(v1));
        assert!(!set.remove(v1));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn entity_set_iter_sorted() {
        let mut set: EntitySet<Value> = EntitySet::new();
        for i in [5usize, 1, 200, 63, 64] {
            set.insert(Value::from_index(i));
        }
        let indices: Vec<_> = set.iter().map(|v| v.index()).collect();
        assert_eq!(indices, vec![1, 5, 63, 64, 200]);
    }

    #[test]
    fn entity_set_union() {
        let mut a: EntitySet<Value> =
            [0usize, 1, 2].iter().map(|&i| Value::from_index(i)).collect();
        let b: EntitySet<Value> = [2usize, 100].iter().map(|&i| Value::from_index(i)).collect();
        assert!(a.union_with(&b));
        assert_eq!(a.len(), 4);
        assert!(!a.union_with(&b));
    }

    #[test]
    fn entity_set_intersect_with_matches_per_bit() {
        let mut a: EntitySet<Value> =
            [0usize, 1, 63, 64, 200].iter().map(|&i| Value::from_index(i)).collect();
        let b: EntitySet<Value> = [1usize, 64, 300].iter().map(|&i| Value::from_index(i)).collect();
        assert!(a.intersect_with(&b));
        let indices: Vec<_> = a.iter().map(|v| v.index()).collect();
        assert_eq!(indices, vec![1, 64]);
        assert_eq!(a.len(), 2);
        // Intersecting again changes nothing.
        assert!(!a.intersect_with(&b));
        // A wider `other` never resurrects bits beyond `self`'s words.
        let wide: EntitySet<Value> = [1usize, 500].iter().map(|&i| Value::from_index(i)).collect();
        assert!(a.intersect_with(&wide));
        assert_eq!(a.iter().map(|v| v.index()).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn entity_set_clone_from_set_reuses_storage() {
        let mut a: EntitySet<Value> =
            [0usize, 1, 200].iter().map(|&i| Value::from_index(i)).collect();
        let b: EntitySet<Value> = [5usize, 64].iter().map(|&i| Value::from_index(i)).collect();
        a.clone_from_set(&b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        let indices: Vec<_> = a.iter().map(|v| v.index()).collect();
        assert_eq!(indices, vec![5, 64]);
    }

    #[test]
    fn entity_set_union_with_andnot_matches_per_bit() {
        let other: EntitySet<Value> =
            [1usize, 2, 3, 70, 128].iter().map(|&i| Value::from_index(i)).collect();
        let minus: EntitySet<Value> = [2usize, 128].iter().map(|&i| Value::from_index(i)).collect();
        let mut fast: EntitySet<Value> =
            [0usize, 3].iter().map(|&i| Value::from_index(i)).collect();
        let mut slow = fast.clone();
        assert!(fast.union_with_andnot(&other, &minus));
        for v in other.iter() {
            if !minus.contains(v) {
                slow.insert(v);
            }
        }
        // Compare contents (word-vector lengths may differ by trailing zeros).
        assert_eq!(fast.len(), slow.len());
        assert_eq!(fast.iter().collect::<Vec<_>>(), slow.iter().collect::<Vec<_>>());
        // Second application is a fixpoint.
        assert!(!fast.union_with_andnot(&other, &minus));
    }

    #[test]
    fn entity_display() {
        assert_eq!(Value::from_index(3).to_string(), "v3");
        assert_eq!(Block::from_index(0).to_string(), "bb0");
        assert_eq!(Inst::from_index(12).to_string(), "inst12");
    }
}
