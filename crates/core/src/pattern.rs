//! Pattern sets: the unit of storage and transfer in LLBP.
//!
//! A pattern is `(tag, prediction counter, history length)`; a pattern set
//! is the full collection of patterns for one program context — 16
//! patterns grouped into 4 *buckets* of 4, each bucket restricted to a
//! contiguous range of history lengths (§V-D). Patterns are kept sorted by
//! history length within their bucket, and buckets cover ascending length
//! ranges, so "select the longest matching pattern" is a single
//! right-to-left scan, mirroring TAGE's multiplexer cascade.
//!
//! Sets live as fixed-stride rows of a [`PatternArena`], each pattern
//! packed into 8 bytes with all-zero meaning "empty slot". Moving a set
//! between LLBP storage and the pattern buffer is a row copy, and an
//! arena is a single zero-initialised allocation, so rows no context has
//! touched stay zero pages.

use crate::params::LlbpParams;

/// Most history lengths one LLBP can use: a prediction memoises its
/// per-length pattern tags under a `u64` mask.
pub const MAX_LENGTHS: usize = 64;

/// One LLBP pattern, packed into 8 bytes: the partial tag in bits 0–31,
/// the history-length index in bits 32–39, the signed prediction counter
/// in bits 40–55 and an occupied flag in bit 63. The all-zero word is the
/// empty slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pattern(u64);

impl Pattern {
    const OCCUPIED: u64 = 1 << 63;
    const CTR_SHIFT: u32 = 40;
    const CTR_MASK: u64 = 0xFFFF << Self::CTR_SHIFT;

    /// A pattern with partial tag `tag` (a hash of the PC and the folded
    /// history of this length), index `len_idx` into the global LLBP
    /// history-length list, and raw counter value `ctr` (sign = direction).
    #[must_use]
    pub fn new(tag: u32, len_idx: u8, ctr: i16) -> Self {
        Self(
            u64::from(tag)
                | u64::from(len_idx) << 32
                | u64::from(ctr as u16) << Self::CTR_SHIFT
                | Self::OCCUPIED,
        )
    }

    /// `true` for the empty slot.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The partial tag.
    #[must_use]
    pub fn tag(self) -> u32 {
        self.0 as u32
    }

    /// Index into the global LLBP history-length list.
    #[must_use]
    pub fn len_idx(self) -> u8 {
        (self.0 >> 32) as u8
    }

    /// The raw counter value.
    #[must_use]
    pub fn ctr(self) -> i16 {
        (self.0 >> Self::CTR_SHIFT) as u16 as i16
    }

    /// Predicted direction: taken when the counter is non-negative.
    #[must_use]
    pub fn taken(self) -> bool {
        self.ctr() >= 0
    }

    /// `true` when the counter sits in a weak state (`0` or `-1`).
    #[must_use]
    pub fn is_weak(self) -> bool {
        matches!(self.ctr(), 0 | -1)
    }

    /// Distance of the counter from the weak boundary.
    #[must_use]
    pub fn confidence(self) -> u32 {
        let v = i32::from(self.ctr());
        if v >= 0 {
            v as u32
        } else {
            (-v - 1) as u32
        }
    }

    fn with_ctr(self, ctr: i16) -> Self {
        Self(self.0 & !Self::CTR_MASK | u64::from(ctr as u16) << Self::CTR_SHIFT)
    }
}

/// The shape every pattern set of one predictor shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetGeometry {
    /// Patterns per set.
    pub patterns: usize,
    /// History-length buckets per set.
    pub buckets: usize,
    /// Entries of the global history-length list.
    pub lengths: usize,
    /// Prediction counter width in bits.
    pub counter_bits: u32,
}

impl SetGeometry {
    /// The geometry `params` configures.
    #[must_use]
    pub fn of(params: &LlbpParams) -> Self {
        Self {
            patterns: params.patterns_per_set,
            buckets: params.num_buckets,
            lengths: params.history_lengths.len(),
            counter_bits: params.counter_bits,
        }
    }
}

/// Pattern sets stored as fixed-stride rows of packed patterns.
///
/// Every operation names its row; a row is one context's set. All rows
/// start empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternArena {
    /// `rows × patterns` packed [`Pattern`] words, row-major.
    cells: Vec<u64>,
    patterns: usize,
    buckets: usize,
    /// History lengths per bucket (global length list size / buckets).
    lengths_per_bucket: usize,
    ctr_min: i16,
    ctr_max: i16,
}

impl PatternArena {
    /// An arena of `rows` empty sets shaped by `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern count or the length count is not a multiple
    /// of the bucket count, if any of them is zero, or if the counter
    /// width is not in `1..=15`.
    #[must_use]
    pub fn new(geometry: SetGeometry, rows: usize) -> Self {
        let SetGeometry { patterns, buckets, lengths, counter_bits } = geometry;
        assert!(patterns > 0 && buckets > 0 && lengths > 0);
        assert_eq!(patterns % buckets, 0, "slots must divide into buckets");
        assert_eq!(lengths % buckets, 0, "lengths must divide into buckets");
        assert!((1..=15).contains(&counter_bits), "counter width out of range: {counter_bits}");
        let ctr_max = (1i16 << (counter_bits - 1)) - 1;
        Self {
            // `vec![0; n]` is a zeroed allocation: untouched rows cost no
            // resident memory.
            cells: vec![0; rows * patterns],
            patterns,
            buckets,
            lengths_per_bucket: lengths / buckets,
            ctr_min: -ctr_max - 1,
            ctr_max,
        }
    }

    /// Pattern slots per set.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.patterns
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.cells[row * self.patterns..(row + 1) * self.patterns]
    }

    fn row_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.cells[row * self.patterns..(row + 1) * self.patterns]
    }

    /// The pattern in `slot` of `row`, if occupied.
    #[must_use]
    pub fn pattern(&self, row: usize, slot: usize) -> Option<Pattern> {
        let p = Pattern(*self.row(row).get(slot)?);
        (!p.is_empty()).then_some(p)
    }

    /// The occupied patterns of `row`, in slot order.
    pub fn patterns(&self, row: usize) -> impl Iterator<Item = Pattern> + '_ {
        self.row(row).iter().map(|&c| Pattern(c)).filter(|p| !p.is_empty())
    }

    /// Number of occupied slots in `row`.
    #[must_use]
    pub fn occupancy(&self, row: usize) -> usize {
        self.patterns(row).count()
    }

    /// The bucket that owns history-length index `len_idx`.
    #[must_use]
    pub fn bucket_of(&self, len_idx: u8) -> usize {
        (usize::from(len_idx) / self.lengths_per_bucket).min(self.buckets - 1)
    }

    /// Empties `row`.
    pub fn clear(&mut self, row: usize) {
        self.row_mut(row).fill(0);
    }

    /// Overwrites `row` with row `src_row` of `src` (a pattern-set
    /// transfer between storage and the pattern buffer).
    ///
    /// # Panics
    ///
    /// Panics if the two arenas have different set sizes.
    pub fn copy_from(&mut self, row: usize, src: &PatternArena, src_row: usize) {
        self.row_mut(row).copy_from_slice(src.row(src_row));
    }

    /// Finds the longest matching pattern of `row`, returning its slot.
    ///
    /// `tag_of(len_idx)` must return the tag hash for history length
    /// `len_idx` of the global list; it is called only for the lengths of
    /// occupied slots, longest first, until one matches.
    pub fn find_longest(&self, row: usize, mut tag_of: impl FnMut(u8) -> u32) -> Option<usize> {
        // Slots are sorted ascending by length (buckets ascending, sorted
        // within), so the right-most match has the longest history.
        self.row(row).iter().rposition(|&c| {
            let p = Pattern(c);
            !p.is_empty() && tag_of(p.len_idx()) == p.tag()
        })
    }

    /// Moves the counter of the pattern in `slot` of `row` one step
    /// towards `taken`, saturating. Returns `false` (and changes nothing)
    /// when the slot is empty.
    pub fn update(&mut self, row: usize, slot: usize, taken: bool) -> bool {
        let (min, max) = (self.ctr_min, self.ctr_max);
        let cell = &mut self.row_mut(row)[slot];
        let p = Pattern(*cell);
        if p.is_empty() {
            return false;
        }
        let step = i16::from(taken) * 2 - 1;
        *cell = p.with_ctr((p.ctr() + step).clamp(min, max)).0;
        true
    }

    /// Allocates a pattern for history-length index `len_idx` into `row`
    /// (§V-D steps 2–4): victimise the least-confident pattern in the
    /// owning bucket (empty slots first, ties to the lower-order slot),
    /// write the new pattern with a weak counter in the resolved
    /// direction, and restore the bucket's sorted-by-length order.
    pub fn allocate(&mut self, row: usize, len_idx: u8, tag: u32, taken: bool) {
        let per = self.patterns / self.buckets;
        let start = self.bucket_of(len_idx) * per;
        let bucket = &mut self.row_mut(row)[start..start + per];
        let fresh = Pattern::new(tag, len_idx, if taken { 0 } else { -1 }).0;

        // If the same (length, tag) already exists, just refresh it.
        if let Some(existing) = bucket.iter_mut().find(|c| {
            let p = Pattern(**c);
            !p.is_empty() && p.len_idx() == len_idx && p.tag() == tag
        }) {
            *existing = fresh;
            return;
        }

        let victim = bucket.iter().position(|&c| c == 0).unwrap_or_else(|| {
            // Least-confident pattern; ties resolve to the left-most
            // (lower-order) slot because `min_by_key` keeps the first.
            (0..per).min_by_key(|&i| Pattern(bucket[i]).confidence()).expect("bucket is non-empty")
        });
        bucket[victim] = fresh;

        // Step 4: restore sorted order within the bucket (empties first).
        // A stable insertion sort: the bucket is sorted but for one slot.
        let key = |c: u64| if c == 0 { -1 } else { i16::from(Pattern(c).len_idx()) };
        for i in 1..per {
            let mut j = i;
            while j > 0 && key(bucket[j - 1]) > key(bucket[j]) {
                bucket.swap(j - 1, j);
                j -= 1;
            }
        }
    }

    /// Number of high-confidence patterns in `row`, saturated at a 2-bit
    /// count — the CD replacement metadata (§V-D step 1).
    #[must_use]
    pub fn confident_count(&self, row: usize, threshold: u32) -> u16 {
        (self.patterns(row).filter(|p| p.confidence() >= threshold).count() as u16).min(3)
    }

    /// `true` when the sorted-by-length invariant holds in every bucket of
    /// `row`. Exposed for tests and debug assertions.
    #[must_use]
    pub fn is_sorted(&self, row: usize) -> bool {
        self.row(row).chunks(self.patterns / self.buckets).all(|bucket| {
            bucket.windows(2).all(|w| {
                let (a, b) = (Pattern(w[0]), Pattern(w[1]));
                match (a.is_empty(), b.is_empty()) {
                    (false, false) => a.len_idx() <= b.len_idx(),
                    (false, true) => false, // empties sort first
                    _ => true,
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(patterns: usize, buckets: usize) -> PatternArena {
        PatternArena::new(SetGeometry { patterns, buckets, lengths: 16, counter_bits: 3 }, 2)
    }

    fn tags_for(tags: &[u32]) -> impl FnMut(u8) -> u32 + '_ {
        |len| tags[usize::from(len)]
    }

    fn slot_of(a: &PatternArena, len: u8) -> usize {
        (0..a.capacity()).find(|&i| a.pattern(0, i).is_some_and(|p| p.len_idx() == len)).unwrap()
    }

    #[test]
    fn packed_fields_round_trip() {
        for ctr in [-4i16, -1, 0, 3] {
            let p = Pattern::new(0xFFFF_FFFF, 15, ctr);
            assert!(!p.is_empty());
            assert_eq!((p.tag(), p.len_idx(), p.ctr()), (0xFFFF_FFFF, 15, ctr));
        }
        let zero = Pattern::new(0, 0, 0);
        assert!(!zero.is_empty(), "a tag-0, length-0 weak pattern is still occupied");
        assert!(Pattern::default().is_empty());
        assert_eq!(Pattern::new(1, 0, -3).confidence(), 2);
        assert!(Pattern::new(1, 0, -1).is_weak() && !Pattern::new(1, 0, 1).is_weak());
    }

    #[test]
    fn bucket_assignment_matches_paper_layout() {
        let a = arena(16, 4);
        // Lengths 0..3 -> bucket 0, 4..7 -> bucket 1, etc.
        assert_eq!(a.bucket_of(0), 0);
        assert_eq!(a.bucket_of(3), 0);
        assert_eq!(a.bucket_of(4), 1);
        assert_eq!(a.bucket_of(15), 3);
    }

    #[test]
    fn allocate_and_find() {
        let mut a = arena(16, 4);
        a.allocate(0, 5, 0xABC, true);
        let mut tags = [0u32; 16];
        tags[5] = 0xABC;
        let slot = a.find_longest(0, tags_for(&tags)).expect("pattern must match");
        let p = a.pattern(0, slot).unwrap();
        assert_eq!(p.len_idx(), 5);
        assert!(p.taken());
        assert_eq!(a.find_longest(1, tags_for(&tags)), None, "rows are independent");
    }

    #[test]
    fn longest_match_wins_and_tags_are_hashed_lazily() {
        let mut a = arena(16, 4);
        a.allocate(0, 2, 0x111, true);
        a.allocate(0, 14, 0x222, false);
        let mut tags = [0u32; 16];
        tags[2] = 0x111;
        tags[14] = 0x222;
        let mut asked = Vec::new();
        let slot = a
            .find_longest(0, |len| {
                asked.push(len);
                tags[usize::from(len)]
            })
            .unwrap();
        assert_eq!(a.pattern(0, slot).unwrap().len_idx(), 14, "longer history takes precedence");
        assert_eq!(asked, vec![14], "only compared lengths are hashed");
    }

    #[test]
    fn sorted_invariant_held_under_random_allocations() {
        let mut a = arena(16, 4);
        let mut rng = bputil::rng::SplitMix64::new(1);
        for _ in 0..200 {
            let len_idx = rng.below(16) as u8;
            a.allocate(0, len_idx, rng.next_u64() as u32 & 0x1FFF, rng.chance(1, 2));
            assert!(a.is_sorted(0), "sorted invariant violated");
        }
        assert!(a.occupancy(0) <= 16);
        assert_eq!(a.occupancy(1), 0);
    }

    #[test]
    fn victim_is_least_confident_in_bucket() {
        let mut a = arena(16, 4);
        // Fill bucket 0 (lengths 0..3).
        for len in 0..4u8 {
            a.allocate(0, len, 0x100 + u32::from(len), true);
        }
        // Strengthen all but the length-2 pattern.
        for _ in 0..5 {
            for len in [0u8, 1, 3] {
                let slot = slot_of(&a, len);
                assert!(a.update(0, slot, true));
            }
        }
        // A new allocation in bucket 0 must evict the weak length-2 one.
        a.allocate(0, 1, 0x999, false);
        assert!(
            !a.patterns(0).any(|p| p.len_idx() == 2),
            "least-confident pattern should have been evicted"
        );
        assert!(a.patterns(0).any(|p| p.tag() == 0x999));
    }

    #[test]
    fn allocation_is_confined_to_its_bucket() {
        let mut a = arena(16, 4);
        // Fill bucket 3 with confident patterns.
        for len in 12..16u8 {
            a.allocate(0, len, u32::from(len), true);
        }
        for _ in 0..6 {
            for i in 0..16 {
                a.update(0, i, true);
            }
        }
        // Allocating a short-history pattern must not touch bucket 3.
        a.allocate(0, 0, 0x777, true);
        assert_eq!(a.patterns(0).filter(|p| p.len_idx() >= 12).count(), 4);
        assert!(a.patterns(0).any(|p| p.tag() == 0x777));
    }

    #[test]
    fn counters_saturate_and_empty_slots_ignore_updates() {
        let mut a = arena(16, 4);
        a.allocate(0, 0, 1, true);
        let slot = slot_of(&a, 0);
        for _ in 0..10 {
            a.update(0, slot, true);
        }
        assert_eq!(a.pattern(0, slot).unwrap().ctr(), 3, "3-bit counters stop at +3");
        for _ in 0..10 {
            a.update(0, slot, false);
        }
        assert_eq!(a.pattern(0, slot).unwrap().ctr(), -4, "and at -4");
        assert!(!a.update(0, 0, true), "slot 0 of bucket 0 is empty here");
        assert!(a.pattern(0, 0).is_none());
    }

    #[test]
    fn confident_count_saturates_at_three() {
        let mut a = arena(16, 4);
        for len in 0..8u8 {
            a.allocate(0, len, u32::from(len), true);
        }
        for _ in 0..6 {
            for i in 0..16 {
                a.update(0, i, true);
            }
        }
        assert_eq!(a.confident_count(0, 2), 3, "2-bit replacement metadata saturates");
    }

    #[test]
    fn same_length_and_tag_refreshes_instead_of_duplicating() {
        let mut a = arena(16, 4);
        a.allocate(0, 4, 0xAAA, true);
        a.allocate(0, 4, 0xAAA, false);
        assert_eq!(a.patterns(0).filter(|p| p.tag() == 0xAAA).count(), 1);
        assert!(!a.patterns(0).find(|p| p.tag() == 0xAAA).unwrap().taken());
    }

    #[test]
    fn unbucketed_mode_uses_whole_set() {
        let mut a = arena(8, 1);
        for len in [0u8, 15, 7, 3, 9, 12, 1, 14] {
            a.allocate(0, len, u32::from(len) + 1, true);
        }
        assert_eq!(a.occupancy(0), 8);
        assert!(a.is_sorted(0));
        // One more allocation evicts the (weak) left-most.
        a.allocate(0, 5, 0x5555, true);
        assert_eq!(a.occupancy(0), 8);
    }

    #[test]
    fn rows_copy_and_clear() {
        let mut storage = arena(16, 4);
        let mut pb = arena(16, 4);
        storage.allocate(1, 9, 0x42, false);
        pb.copy_from(0, &storage, 1);
        assert_eq!(pb.patterns(0).collect::<Vec<_>>(), storage.patterns(1).collect::<Vec<_>>());
        pb.update(0, slot_of(&pb, 9), false);
        assert_ne!(pb.pattern(0, slot_of(&pb, 9)), storage.pattern(1, slot_of(&pb, 9)));
        pb.clear(0);
        assert_eq!(pb.occupancy(0), 0);
        assert_eq!(storage.occupancy(1), 1, "a copy never aliases its source");
    }
}
