//! Direct-mapped and set-associative lookup tables.
//!
//! These model the SRAM arrays of a predictor: a fixed geometry (sets ×
//! ways) with tag match and a victim-selection policy. [`SetAssoc`] keeps
//! per-way LRU ranks and supports custom victim selection for policies like
//! LLBP's confidence-based Context Directory replacement.

/// A direct-mapped table of `V` indexed by a masked index.
///
/// # Example
///
/// ```
/// use bputil::table::DirectMapped;
///
/// let mut t: DirectMapped<u32> = DirectMapped::new(4); // 16 entries
/// *t.entry_mut(0x33) = 7; // index masked to 0x3
/// assert_eq!(*t.entry(0x3), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectMapped<V> {
    entries: Vec<V>,
    index_bits: u32,
}

impl<V: Default + Clone> DirectMapped<V> {
    /// Creates a table with `2^index_bits` default-initialised entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` exceeds 28 (guard against absurd allocations).
    #[must_use]
    pub fn new(index_bits: u32) -> Self {
        assert!(index_bits <= 28, "table too large: 2^{index_bits} entries");
        Self { entries: vec![V::default(); 1usize << index_bits], index_bits }
    }
}

impl<V> DirectMapped<V> {
    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table has no entries (never the case after `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index width in bits.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    fn mask(&self, index: u64) -> usize {
        (index as usize) & (self.entries.len() - 1)
    }

    /// Shared access to the entry for `index` (masked to the table size).
    #[must_use]
    pub fn entry(&self, index: u64) -> &V {
        &self.entries[self.mask(index)]
    }

    /// Exclusive access to the entry for `index` (masked to the table size).
    pub fn entry_mut(&mut self, index: u64) -> &mut V {
        let i = self.mask(index);
        &mut self.entries[i]
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.entries.iter()
    }

    /// Iterates mutably over all entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut()
    }
}

/// One way of a set-associative table.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Way<V> {
    tag: u64,
    /// Monotonic timestamp of last touch; larger = more recent.
    lru: u64,
    value: V,
}

/// A set-associative table with per-set LRU and custom victim selection.
///
/// Keys are split by the caller into a set `index` and a `tag`; the table
/// masks the index to its set count and matches tags within the set.
///
/// All ways live in one flat, set-major array, so construction is a
/// single allocation and no operation allocates afterwards. Each way has
/// a stable *slot* number (`set × ways + way`) that callers may use to
/// index side arrays of their own — LLBP keeps its pattern sets in such
/// an arena, indexed by the context directory's slot. The valid ways of a
/// set are always a prefix of it, filled in insertion order.
///
/// # Example
///
/// ```
/// use bputil::table::SetAssoc;
///
/// let mut t: SetAssoc<&'static str> = SetAssoc::new(2, 2); // 4 sets, 2 ways
/// t.insert_lru(1, 0xAA, "a");
/// t.insert_lru(1, 0xBB, "b");
/// assert_eq!(t.get(1, 0xAA), Some(&"a"));
/// t.insert_lru(1, 0xCC, "c"); // evicts LRU ("a" was touched by get? yes)
/// assert!(t.get(1, 0xBB).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<V> {
    /// `num_sets × ways` ways, set-major.
    slots: Vec<Way<V>>,
    /// Valid ways per set (a prefix of the set's ways).
    filled: Vec<u32>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Default> SetAssoc<V> {
    /// Creates a table with `2^index_bits` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or `index_bits` exceeds 24.
    #[must_use]
    pub fn new(index_bits: u32, ways: usize) -> Self {
        assert!(ways > 0, "need at least one way");
        assert!(index_bits <= 24, "table too large: 2^{index_bits} sets");
        let sets = 1usize << index_bits;
        let mut slots = Vec::with_capacity(sets * ways);
        slots.resize_with(sets * ways, || Way { tag: 0, lru: 0, value: V::default() });
        Self { slots, filled: vec![0; sets], ways, tick: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Removes `(index, tag)`, returning its value if present. The set's
    /// last valid way moves into the freed position.
    pub fn remove(&mut self, index: u64, tag: u64) -> Option<V> {
        let slot = self.peek_slot(index, tag)?;
        let s = self.set_of(index);
        self.filled[s] -= 1;
        let last = s * self.ways + self.filled[s] as usize;
        self.slots.swap(slot, last);
        Some(std::mem::take(&mut self.slots[last].value))
    }
}

impl<V> SetAssoc<V> {
    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.filled.len()
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total lookup hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookup misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total evictions of valid entries so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn set_of(&self, index: u64) -> usize {
        (index as usize) & (self.filled.len() - 1)
    }

    /// Slot range of the valid ways of set `s`.
    fn valid(&self, s: usize) -> std::ops::Range<usize> {
        s * self.ways..s * self.ways + self.filled[s] as usize
    }

    /// The slot holding `(index, tag)`, without disturbing LRU or
    /// hit/miss statistics.
    #[inline]
    #[must_use]
    pub fn peek_slot(&self, index: u64, tag: u64) -> Option<usize> {
        let range = self.valid(self.set_of(index));
        let start = range.start;
        self.slots[range].iter().position(|w| w.tag == tag).map(|i| start + i)
    }

    /// The slot holding `(index, tag)`, with the side effects of
    /// [`SetAssoc::get`]: every call advances the LRU clock, a hit
    /// refreshes the way and counts a hit, a miss counts a miss.
    #[inline]
    pub fn get_slot(&mut self, index: u64, tag: u64) -> Option<usize> {
        self.tick += 1;
        let found = self.peek_slot(index, tag);
        match found {
            Some(slot) => {
                self.slots[slot].lru = self.tick;
                self.hits += 1;
            }
            None => self.misses += 1,
        }
        found
    }

    /// Exclusive access to the value in `slot` (valid or not).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below `num_sets × ways`.
    pub fn value_mut(&mut self, slot: usize) -> &mut V {
        &mut self.slots[slot].value
    }

    /// Looks up `(index, tag)`, refreshing LRU state on hit.
    pub fn get(&mut self, index: u64, tag: u64) -> Option<&V> {
        self.get_slot(index, tag).map(|slot| &self.slots[slot].value)
    }

    /// Like [`SetAssoc::get`] but returning a mutable reference.
    pub fn get_mut(&mut self, index: u64, tag: u64) -> Option<&mut V> {
        self.get_slot(index, tag).map(|slot| &mut self.slots[slot].value)
    }

    /// Checks presence without disturbing LRU or hit/miss statistics.
    #[must_use]
    pub fn peek(&self, index: u64, tag: u64) -> Option<&V> {
        self.peek_slot(index, tag).map(|slot| &self.slots[slot].value)
    }

    /// Inserts with LRU victim selection; see [`SetAssoc::insert_with`]
    /// for the return value.
    pub fn insert_lru(&mut self, index: u64, tag: u64, value: V) -> (usize, Option<(u64, V)>) {
        self.insert_with(index, tag, value, |_, lru, _| lru)
    }

    /// Inserts `(index, tag) → value`. If the tag is already present, its
    /// value is replaced and nothing is evicted; otherwise the set's next
    /// free way is filled; otherwise the valid way with the smallest
    /// `key(slot, lru_timestamp, &value)` is evicted (the first one on
    /// ties). `key` is consulted only when a set is full.
    ///
    /// Returns the slot now holding the entry, and the evicted
    /// `(tag, value)` when a valid entry was displaced.
    pub fn insert_with<K, F>(
        &mut self,
        index: u64,
        tag: u64,
        value: V,
        mut key: F,
    ) -> (usize, Option<(u64, V)>)
    where
        K: Ord,
        F: FnMut(usize, u64, &V) -> K,
    {
        let s = self.set_of(index);
        self.tick += 1;
        let tick = self.tick;

        // Same-tag replacement.
        if let Some(slot) = self.peek_slot(index, tag) {
            let way = &mut self.slots[slot];
            way.value = value;
            way.lru = tick;
            return (slot, None);
        }
        // Fill an empty way.
        let range = self.valid(s);
        if range.len() < self.ways {
            self.filled[s] += 1;
            self.slots[range.end] = Way { tag, lru: tick, value };
            return (range.end, None);
        }
        // Evict.
        let victim = range
            .min_by_key(|&slot| {
                let way = &self.slots[slot];
                key(slot, way.lru, &way.value)
            })
            .expect("a full set has at least one way");
        self.evictions += 1;
        let old = std::mem::replace(&mut self.slots[victim], Way { tag, lru: tick, value });
        (victim, Some((old.tag, old.value)))
    }

    /// Invalidates everything.
    pub fn clear(&mut self) {
        self.filled.fill(0);
    }

    /// Number of valid entries across all sets.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.filled.iter().map(|&n| n as usize).sum()
    }

    /// Iterates over `(set_index, tag, &value)` of all valid entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &V)> {
        self.slots
            .chunks(self.ways)
            .zip(&self.filled)
            .enumerate()
            .flat_map(|(i, (set, &n))| set[..n as usize].iter().map(move |w| (i, w.tag, &w.value)))
    }

    /// Iterates mutably over `(set_index, tag, &mut value)` of valid entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, u64, &mut V)> {
        self.slots.chunks_mut(self.ways).zip(&self.filled).enumerate().flat_map(|(i, (set, &n))| {
            set[..n as usize].iter_mut().map(move |w| (i, w.tag, &mut w.value))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_masks_index() {
        let mut t: DirectMapped<u8> = DirectMapped::new(3);
        *t.entry_mut(8) = 42; // masks to 0
        assert_eq!(*t.entry(0), 42);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn set_assoc_hit_and_miss_counting() {
        let mut t: SetAssoc<u32> = SetAssoc::new(1, 2);
        assert!(t.get(0, 1).is_none());
        t.insert_lru(0, 1, 10);
        assert_eq!(t.get(0, 1), Some(&10));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t: SetAssoc<&str> = SetAssoc::new(0, 2); // one set, 2 ways
        t.insert_lru(0, 1, "one");
        t.insert_lru(0, 2, "two");
        let _ = t.get(0, 1); // touch "one" -> "two" becomes LRU
        let (_, evicted) = t.insert_lru(0, 3, "three");
        assert_eq!(evicted, Some((2, "two")));
        assert!(t.peek(0, 1).is_some());
        assert!(t.peek(0, 3).is_some());
    }

    #[test]
    fn same_tag_insert_replaces_value() {
        let mut t: SetAssoc<u32> = SetAssoc::new(0, 2);
        t.insert_lru(0, 7, 1);
        let (slot, evicted) = t.insert_lru(0, 7, 2);
        assert!(evicted.is_none());
        assert_eq!(t.peek_slot(0, 7), Some(slot));
        assert_eq!(t.peek(0, 7), Some(&2));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn custom_victim_selection() {
        let mut t: SetAssoc<u32> = SetAssoc::new(0, 3);
        t.insert_lru(0, 1, 100);
        t.insert_lru(0, 2, 5);
        t.insert_lru(0, 3, 50);
        // Evict the way with the smallest value (confidence-style policy).
        let (slot, evicted) = t.insert_with(0, 4, 999, |_, _, v| *v);
        assert_eq!(evicted, Some((2, 5)));
        assert_eq!(slot, 1, "the victim's slot receives the new entry");
        assert_eq!(t.peek_slot(0, 4), Some(slot));
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut t: SetAssoc<&str> = SetAssoc::new(0, 2);
        t.insert_lru(0, 1, "one");
        t.insert_lru(0, 2, "two");
        let _ = t.peek(0, 1); // must NOT refresh
        let (_, evicted) = t.insert_lru(0, 3, "three");
        assert_eq!(evicted, Some((1, "one")));
    }

    #[test]
    fn slots_are_stable_and_set_major() {
        let mut t: SetAssoc<u32> = SetAssoc::new(2, 3);
        let (a, _) = t.insert_lru(1, 10, 1);
        let (b, _) = t.insert_lru(1, 11, 2);
        let (c, _) = t.insert_lru(3, 10, 3);
        assert_eq!((a, b, c), (3, 4, 9), "slot = set × ways + way, filled in order");
        assert_eq!(t.get_slot(1, 11), Some(b));
        assert_eq!(t.get_slot(2, 11), None);
        assert_eq!((t.hits(), t.misses()), (1, 1));
        *t.value_mut(a) = 7;
        assert_eq!(t.peek(1, 10), Some(&7));
    }

    #[test]
    fn remove_moves_the_last_way_into_the_hole() {
        let mut t: SetAssoc<u32> = SetAssoc::new(0, 3);
        t.insert_lru(0, 1, 1);
        t.insert_lru(0, 2, 2);
        t.insert_lru(0, 3, 3);
        assert_eq!(t.remove(0, 1), Some(1));
        assert_eq!(t.peek_slot(0, 3), Some(0));
        let (slot, _) = t.insert_lru(0, 4, 4);
        assert_eq!(slot, 2, "the freed way is refilled at the end of the prefix");
    }

    #[test]
    fn remove_and_clear() {
        let mut t: SetAssoc<u32> = SetAssoc::new(2, 2);
        t.insert_lru(0, 1, 1);
        t.insert_lru(1, 2, 2);
        assert_eq!(t.remove(0, 1), Some(1));
        assert_eq!(t.remove(0, 1), None);
        t.clear();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut t: SetAssoc<u32> = SetAssoc::new(2, 1);
        t.insert_lru(0, 9, 0);
        t.insert_lru(1, 9, 1);
        t.insert_lru(2, 9, 2);
        assert_eq!(t.peek(0, 9), Some(&0));
        assert_eq!(t.peek(1, 9), Some(&1));
        assert_eq!(t.peek(2, 9), Some(&2));
        assert_eq!(t.occupancy(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _: SetAssoc<u32> = SetAssoc::new(1, 0);
    }
}
