//! Global branch history and incrementally folded (compressed) histories.
//!
//! TAGE hashes up to thousands of global-history bits into each table's
//! index and tag. Recomputing such a hash from scratch on every branch would
//! be infeasible in hardware, so TAGE maintains *folded* histories: for each
//! (original length, compressed length) pair, a circular CRC-like register
//! that is updated in O(1) when a new outcome is shifted into the history
//! ([Michaud'05], [Seznec'16]). [`FoldedHistory`] reproduces that scheme and
//! is property-tested against folding the full history from scratch.

/// A long global-history shift register backed by a circular bit buffer.
///
/// Bit `0` is the most recent outcome. The buffer holds `capacity` bits;
/// pushing beyond capacity silently drops the oldest bit (which is fine as
/// long as `capacity` exceeds the longest history any consumer folds).
///
/// # Example
///
/// ```
/// use bputil::history::HistoryBuffer;
///
/// let mut h = HistoryBuffer::new(64);
/// h.push(true);
/// h.push(false);
/// assert!(!h.bit(0)); // newest
/// assert!(h.bit(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryBuffer {
    words: Vec<u64>,
    /// Index of the *next* position to write, in bits.
    head: usize,
    capacity: usize,
    len: usize,
}

impl HistoryBuffer {
    /// Creates an empty history able to remember `capacity` bits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be non-zero");
        let words = vec![0u64; capacity.div_ceil(64)];
        let capacity = words_capacity(&words);
        Self { words, head: 0, capacity, len: 0 }
    }

    /// Empties the history, as [`HistoryBuffer::new`] of its capacity
    /// leaves it. Allocates nothing.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.head = 0;
        self.len = 0;
    }

    /// Pushes a new outcome as the most recent bit.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        let w = self.head / 64;
        let b = self.head % 64;
        if taken {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
        // `head < capacity` always holds, so the wrap is a compare instead
        // of an integer division (capacity is not a power of two; this is
        // on the per-branch path via the folded-history updates).
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.len = (self.len + 1).min(self.capacity);
    }

    /// Returns the bit `age` positions back (`0` = most recent).
    ///
    /// Bits older than anything pushed read as `false`.
    #[inline]
    #[must_use]
    pub fn bit(&self, age: usize) -> bool {
        if age >= self.capacity {
            return false;
        }
        // `head < capacity` and `age < capacity`, so the sum is below
        // `2 * capacity` and the modulo reduces to one conditional
        // subtract — this runs ~3×tables times per simulated branch.
        let mut pos = self.head + self.capacity - 1 - age;
        if pos >= self.capacity {
            pos -= self.capacity;
        }
        (self.words[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// The 64 bits from age `age` down towards the newest: bit `k` of the
    /// result is [`HistoryBuffer::bit`]`(age - k)`, and 0 where `k > age`.
    /// One read of two adjacent words: the ring's capacity is a whole
    /// number of words, so the bits of falling age lie at rising
    /// positions, wrapping only at a word boundary.
    #[must_use]
    pub(crate) fn window(&self, age: usize) -> u64 {
        // Ages at or beyond the capacity read as zero: start the read at
        // the oldest age kept and shift those in as zeros.
        let skip = (age + 1).saturating_sub(self.capacity);
        if skip >= 64 {
            return 0;
        }
        let mut pos = self.head + self.capacity - 1 - (age - skip);
        if pos >= self.capacity {
            pos -= self.capacity;
        }
        let (word, shift) = (pos / 64, pos % 64);
        let next = self.words[if word + 1 == self.words.len() { 0 } else { word + 1 }];
        let bits = (self.words[word] >> shift) | next.checked_shl(64 - shift as u32).unwrap_or(0);
        // Positions past age 0 hold the oldest bits of the ring, not
        // history: mask them off.
        (bits << skip) & (u64::MAX >> 63usize.saturating_sub(age))
    }

    /// Number of bits pushed so far, capped at the capacity.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in bits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Captures the full register content for later rollback.
    #[must_use]
    pub fn checkpoint(&self) -> HistoryCheckpoint {
        HistoryCheckpoint { words: self.words.clone(), head: self.head, len: self.len }
    }

    /// Restores a previously captured checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a register of different
    /// capacity.
    pub fn restore(&mut self, checkpoint: &HistoryCheckpoint) {
        assert_eq!(checkpoint.words.len(), self.words.len(), "checkpoint size mismatch");
        self.words.copy_from_slice(&checkpoint.words);
        self.head = checkpoint.head;
        self.len = checkpoint.len;
    }

    /// Folds the most recent `olen` bits into a `clen`-bit value by XOR,
    /// computing from scratch. This is the *specification* that
    /// [`FoldedHistory`] implements incrementally; it is exposed for tests
    /// and for one-off hashes where speed does not matter.
    #[must_use]
    pub fn fold(&self, olen: usize, clen: u32) -> u32 {
        assert!(clen > 0 && clen <= 32);
        let mut acc: u32 = 0;
        // A bit enters the fold at position 0 and is rotated left once per
        // subsequent push, so the bit of age `i` sits at position `i % clen`.
        for i in 0..olen.min(self.len) {
            if self.bit(i) {
                acc ^= 1 << (i as u32 % clen);
            }
        }
        acc & mask(clen)
    }
}

/// A snapshot of a [`HistoryBuffer`], for misprediction rollback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryCheckpoint {
    words: Vec<u64>,
    head: usize,
    len: usize,
}

fn words_capacity(words: &[u64]) -> usize {
    words.len() * 64
}

fn mask(bits: u32) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// An incrementally maintained folded history, per Michaud's PPM / Seznec's
/// TAGE. Folds the most recent `original_len` history bits into
/// `compressed_len` bits, updated in O(1) per branch outcome.
///
/// The folding function: the bit of age `i` (0 = newest) contributes to fold
/// position `i mod compressed_len`. On `update` the register rotates left by
/// one, the new bit enters at position 0, and the bit falling out of the
/// history window (age `original_len - 1` before the push, rotated once by
/// this update) is cancelled at position `original_len mod compressed_len` —
/// the classic `outpoint` trick.
///
/// # Example
///
/// ```
/// use bputil::history::{FoldedHistory, HistoryBuffer};
///
/// let mut ghr = HistoryBuffer::new(256);
/// let mut fh = FoldedHistory::new(100, 11);
/// for i in 0..500 {
///     let t = i % 3 == 0;
///     fh.update_before_push(&ghr, t);
///     ghr.push(t);
/// }
/// assert_eq!(fh.value(), ghr.fold(100, 11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldedHistory {
    comp: u32,
    original_len: usize,
    compressed_len: u32,
    outpoint: u32,
    /// `compressed_len` low bits set.
    mask: u32,
}

impl FoldedHistory {
    /// Creates a folded history of `original_len` bits compressed into
    /// `compressed_len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `compressed_len` is zero or exceeds 32, or if
    /// `original_len` is zero.
    #[must_use]
    pub fn new(original_len: usize, compressed_len: u32) -> Self {
        assert!(original_len > 0, "folded history needs a non-zero length");
        assert!(
            (1..=32).contains(&compressed_len),
            "compressed length out of range: {compressed_len}"
        );
        Self {
            comp: 0,
            original_len,
            compressed_len,
            outpoint: (original_len as u32) % compressed_len,
            mask: mask(compressed_len),
        }
    }

    /// The current folded value.
    #[inline]
    #[must_use]
    pub fn value(&self) -> u32 {
        self.comp
    }

    /// The original (unfolded) history length in bits.
    #[must_use]
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// The compressed width in bits.
    #[must_use]
    pub fn compressed_len(&self) -> u32 {
        self.compressed_len
    }

    /// Updates the fold for a new outcome `taken`. Must be called **before**
    /// the outcome is pushed into `ghr` (it needs to observe the bit that
    /// falls out of the history window).
    #[inline]
    pub fn update_before_push(&mut self, ghr: &HistoryBuffer, taken: bool) {
        // The bit the shift moves out of the compressed register, read
        // before the shift: shifting the shifted value right by the width
        // instead would overflow at width 32.
        let wrap = (self.comp >> (self.compressed_len - 1)) & 1;
        // Shift in the new bit at position 0.
        self.comp = (self.comp << 1) | u32::from(taken);
        // Cancel the bit that leaves the window: before the push it has age
        // original_len - 1; after the shift its contribution sits at
        // `outpoint`.
        if ghr.bit(self.original_len - 1) {
            self.comp ^= 1 << self.outpoint;
        }
        // Wrap the bit shifted out of the compressed register back in.
        self.comp ^= wrap;
        self.comp &= self.mask;
    }

    /// Restores the fold from a checkpointed raw value (misprediction
    /// rollback).
    pub fn restore(&mut self, raw: u32) {
        self.comp = raw & self.mask;
    }

    /// [`FoldedHistory::update_before_push`] with the outgoing bit
    /// supplied by the caller — `out_bit` must equal
    /// `ghr.bit(original_len - 1)` taken before the push.
    ///
    /// Branch-free: the cancel XOR is computed from the bit instead of
    /// branched on. The outgoing history bit is essentially a coin flip on
    /// real traces, so the `if` in the reference variant mispredicts
    /// constantly — across the ~3×tables registers a TAGE updates per
    /// branch, those mispredicts dominate the history-advance cost.
    /// Callers that maintain several registers over the same window length
    /// (index + both tag folds of one TAGE table) also read the outgoing
    /// bit once instead of three times.
    #[inline]
    pub fn update_with_out_bit(&mut self, out_bit: bool, taken: bool) {
        let wrap = (self.comp >> (self.compressed_len - 1)) & 1;
        self.comp = (self.comp << 1) | u32::from(taken);
        self.comp ^= u32::from(out_bit) << self.outpoint;
        self.comp ^= wrap;
        self.comp &= self.mask;
    }
}

/// A fixed-width path history of low-order PC bits, as used by TAGE's index
/// hash (`phist` in Seznec's code).
///
/// # Example
///
/// ```
/// use bputil::history::PathHistory;
///
/// let mut p = PathHistory::new(27);
/// p.push(0x4000_1235); // low bit 1
/// p.push(0x4000_5678); // low bit 0
/// assert_eq!(p.value(), 0b10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathHistory {
    value: u64,
    bits: u32,
}

impl PathHistory {
    /// Creates an empty path history of `bits` width (`1..=63`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=63`.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=63).contains(&bits), "path history width out of range");
        Self { value: 0, bits }
    }

    /// Shifts in one bit of the branch address.
    pub fn push(&mut self, pc: u64) {
        self.value = ((self.value << 1) | (pc & 1)) & ((1u64 << self.bits) - 1);
    }

    /// The current packed path history.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Restores a checkpointed value (misprediction rollback).
    pub fn restore(&mut self, raw: u64) {
        self.value = raw & ((1u64 << self.bits) - 1);
    }

    /// Width in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_buffer_orders_bits_newest_first() {
        let mut h = HistoryBuffer::new(8);
        h.push(true);
        h.push(false);
        h.push(true);
        assert!(h.bit(0));
        assert!(!h.bit(1));
        assert!(h.bit(2));
        assert!(!h.bit(3)); // never pushed
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn history_buffer_wraps_capacity() {
        let mut h = HistoryBuffer::new(64);
        for i in 0..200 {
            h.push(i % 2 == 0);
        }
        assert_eq!(h.len(), h.capacity());
        // Last push was i=199 (odd -> false).
        assert!(!h.bit(0));
        assert!(h.bit(1));
    }

    #[test]
    fn window_reads_the_bits_from_an_age_down() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for capacity in [64, 128, 192] {
            let mut h = HistoryBuffer::new(capacity);
            for pushed in 0..3 * capacity + 5 {
                for age in (0..capacity + 70).step_by(7).chain([capacity - 1, capacity]) {
                    let window = h.window(age);
                    for k in 0..64 {
                        let want = k <= age && h.bit(age - k);
                        assert_eq!(window >> k & 1 == 1, want, "{capacity} {pushed} {age} {k}");
                    }
                }
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                h.push(rng & 1 == 1);
            }
        }
    }

    #[test]
    fn update_with_out_bit_matches_update_before_push() {
        // The branch-free variant must track the reference update exactly
        // for every (original_len, compressed_len) shape, over a bit
        // stream long enough to wrap every fold several times.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng & 1 == 1
        };
        for (original_len, compressed_len) in
            [(1, 1), (3, 4), (8, 8), (13, 7), (27, 11), (64, 12), (389, 13), (100, 31), (100, 32)]
        {
            let mut ghr = HistoryBuffer::new(original_len + 64);
            let mut slow = FoldedHistory::new(original_len, compressed_len);
            let mut fast = slow;
            for step in 0..3 * original_len + 100 {
                let taken = next();
                let out = ghr.bit(original_len - 1);
                slow.update_before_push(&ghr, taken);
                fast.update_with_out_bit(out, taken);
                ghr.push(taken);
                assert_eq!(
                    slow.value(),
                    fast.value(),
                    "divergence at step {step} for len {original_len}->{compressed_len}"
                );
            }
        }
    }

    #[test]
    fn fold_reference_small_case() {
        let mut h = HistoryBuffer::new(16);
        // Push bits so that history (newest first) = 1,0,1.
        h.push(true);
        h.push(false);
        h.push(true);
        // olen=3, clen=2: age0(1)->pos 0; age1(0)->pos 1; age2(1)->pos 0.
        // fold = (1<<0) ^ (1<<0) = 0.
        assert_eq!(h.fold(3, 2), 0);
    }

    #[test]
    fn folded_history_matches_reference_fold() {
        let mut ghr = HistoryBuffer::new(512);
        let cases =
            [(5usize, 3u32), (17, 8), (100, 11), (130, 12), (300, 13), (100, 31), (100, 32)];
        let mut folds: Vec<FoldedHistory> =
            cases.iter().map(|&(o, c)| FoldedHistory::new(o, c)).collect();
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for _ in 0..2000 {
            // xorshift for a deterministic pseudo-random outcome stream
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 1 == 1;
            for f in &mut folds {
                f.update_before_push(&ghr, taken);
            }
            ghr.push(taken);
        }
        for (f, &(o, c)) in folds.iter().zip(&cases) {
            assert_eq!(f.value(), ghr.fold(o, c), "mismatch for olen={o} clen={c}");
        }
    }

    #[test]
    fn folded_history_restore_roundtrip() {
        let mut ghr = HistoryBuffer::new(64);
        let mut f = FoldedHistory::new(20, 7);
        for i in 0..50 {
            f.update_before_push(&ghr, i % 3 == 0);
            ghr.push(i % 3 == 0);
        }
        let snapshot = f.value();
        f.update_before_push(&ghr, true);
        f.restore(snapshot);
        assert_eq!(f.value(), snapshot);
    }

    #[test]
    fn path_history_masks_width() {
        let mut p = PathHistory::new(4);
        for _ in 0..100 {
            p.push(1);
        }
        assert_eq!(p.value(), 0xF);
        p.restore(0xFFFF);
        assert_eq!(p.value(), 0xF);
    }

    #[test]
    #[should_panic(expected = "history capacity")]
    fn zero_capacity_panics() {
        let _ = HistoryBuffer::new(0);
    }
}
