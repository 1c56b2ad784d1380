//! Small integer mixing functions for table indices, tags and context IDs.
//!
//! Branch predictors hash program counters and histories into narrow table
//! indices. These helpers provide well-distributed, cheap, deterministic
//! mixes. None of them are cryptographic — they only need to decorrelate
//! nearby PCs.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, deterministic, non-cryptographic [`Hasher`] in the FxHash
/// family (rotate–xor–multiply per word).
///
/// The simulator's hot loop hits hash maps on every branch (TAGE's
/// infinite-storage tables, per-branch tracking), where std's SipHash —
/// designed to resist hash-flooding from untrusted input — costs more
/// than the table work it guards. All simulator keys are derived from
/// trusted trace data, so a two-instruction multiply mix is sufficient
/// and measurably faster. Determinism (no per-process random seed) also
/// keeps map iteration reproducible across runs, which SipHash's
/// `RandomState` does not.
///
/// # Example
///
/// ```
/// use bputil::hash::FastHashMap;
///
/// let mut m: FastHashMap<u64, u32> = FastHashMap::default();
/// m.insert(42, 1);
/// assert_eq!(m[&42], 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    hash: u64,
}

/// Knuth's 64-bit multiplicative-hash constant (2^64 / φ).
const FX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher64 {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // A final avalanche decorrelates the low bits hashbrown uses for
        // bucket selection from the multiply's weakly-mixed low bits.
        mix64(self.hash)
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher64`] (deterministic, zero state).
pub type FastBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` using the fast deterministic hasher — drop-in for hot-path
/// maps keyed by trusted simulator data.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` using the fast deterministic hasher.
pub type FastHashSet<T> = HashSet<T, FastBuildHasher>;

/// Finalization mix from SplitMix64 / MurmurHash3's 64-bit finalizer.
///
/// A strong full-avalanche mix: every input bit affects every output bit.
///
/// # Example
///
/// ```
/// use bputil::hash::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// ```
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Folds a 64-bit value down to `bits` by XOR-ing its `bits`-wide limbs.
///
/// Unlike simple truncation this preserves entropy from the high bits,
/// which matters when hashing shifted PCs (LLBP's context-ID hash).
///
/// The limbs are combined as an XOR tree rather than one limb per loop
/// trip: after `x ^= x >> s` for `s = bits·2^j`, the low `bits` bits hold
/// the XOR of `2^(j+1)` limbs, so shifts from the largest `s < 64` down to
/// `s = bits` cover all of them. The trip count depends on `bits` only,
/// never on the value, and every TAGE index and tag hash ends here.
///
/// # Panics
///
/// Panics if `bits` is zero or greater than 63.
#[inline]
#[must_use]
pub fn fold_to_bits(mut x: u64, bits: u32) -> u64 {
    assert!((1..=63).contains(&bits), "fold width out of range: {bits}");
    // `bits < 64` has `leading_zeros >= 26`; shifting left by the excess
    // gives the largest `bits·2^j` below 64.
    let mut s = bits << (bits.leading_zeros() - 26);
    while s >= bits {
        x ^= x >> s;
        s >>= 1;
    }
    x & ((1u64 << bits) - 1)
}

/// Combines a PC with folded index history and path history in the style of
/// TAGE's table-index hash (`gindex` in Seznec's CBP code).
#[must_use]
pub fn tage_index(pc: u64, folded_index: u32, path: u64, table: u32, index_bits: u32) -> u64 {
    IndexCtx::new(pc, path, index_bits).index(
        folded_index,
        table,
        IndexCtx::path_rotation(table, index_bits),
    )
}

/// The table-invariant parts of [`tage_index`], hoisted out of the
/// per-table loop.
///
/// A TAGE lookup computes one index per tagged table (up to ~20 for the
/// CBP-5 geometry) for the *same* `(pc, path)` pair; only the folded
/// history and the table number vary. The PC scramble and the path-history
/// masking are table-invariant, so computing them once per prediction and
/// reusing them across tables removes redundant work from the hottest loop
/// in the simulator. The per-table path rotation is a constant of the
/// geometry, so callers compute [`IndexCtx::path_rotation`] once per table
/// rather than once per lookup. [`IndexCtx::index`] is bit-identical to
/// [`tage_index`] by construction (and pinned by a test).
#[derive(Debug, Clone, Copy)]
pub struct IndexCtx {
    pc_part: u64,
    path_a1: u64,
    path_a2: u64,
    mask: u64,
    index_bits: u32,
}

impl IndexCtx {
    /// Precomputes the table-invariant mix parts for one prediction.
    #[inline]
    #[must_use]
    pub fn new(pc: u64, path: u64, index_bits: u32) -> Self {
        let pc_part = pc ^ (pc >> (index_bits as u64 + 1)) ^ (pc >> (2 * index_bits as u64 + 2));
        let m = (1u64 << index_bits) - 1;
        let size = u64::from(index_bits.min(16));
        let a = path & ((1u64 << size.min(32)) - 1).max(1);
        Self { pc_part, path_a1: a & m, path_a2: a >> index_bits, mask: m, index_bits }
    }

    /// The path-history rotation of `table` under `index_bits`-bit
    /// indices: the `path_rotation` argument of [`IndexCtx::index`].
    #[inline]
    #[must_use]
    pub fn path_rotation(table: u32, index_bits: u32) -> u32 {
        table % index_bits.max(1)
    }

    /// The index for `table` given its folded history value and its
    /// [`IndexCtx::path_rotation`].
    #[inline]
    #[must_use]
    pub fn index(&self, folded_index: u32, table: u32, path_rotation: u32) -> u64 {
        let path = (self.path_a1 ^ self.path_a2.rotate_left(path_rotation)) & self.mask;
        let mixed = self.pc_part ^ u64::from(folded_index) ^ path;
        fold_to_bits(mix64(mixed ^ u64::from(table) << 57), self.index_bits)
    }
}

/// Combines a PC with two folded tag histories in the style of TAGE's tag
/// hash (`gtag`).
#[inline]
#[must_use]
pub fn tage_tag(pc: u64, folded_tag0: u32, folded_tag1: u32, tag_bits: u32) -> u32 {
    let mixed = pc ^ u64::from(folded_tag0) ^ (u64::from(folded_tag1) << 1);
    (fold_to_bits(mix64(mixed), tag_bits)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_avalanches_nearby_inputs() {
        let h1 = mix64(0x4000_0000);
        let h2 = mix64(0x4000_0004);
        let differing = (h1 ^ h2).count_ones();
        assert!(differing > 16, "only {differing} bits differ");
    }

    #[test]
    fn fold_to_bits_stays_in_range() {
        for bits in 1..=20 {
            let v = fold_to_bits(u64::MAX, bits);
            assert!(v < (1 << bits));
        }
    }

    #[test]
    fn fold_to_bits_uses_high_bits() {
        // Two values differing only in the high bits must fold differently
        // (for this particular pair).
        assert_ne!(fold_to_bits(0x8000_0000_0000_0000, 10), fold_to_bits(0, 10));
    }

    #[test]
    fn tage_index_distributes_sequential_pcs() {
        let mut seen = HashSet::new();
        for pc in (0x1000u64..0x3000).step_by(4) {
            seen.insert(tage_index(pc, 0xabc, 0x55, 3, 10));
        }
        // 2048 PCs into 1024 slots: expect to hit most of the table.
        assert!(seen.len() > 600, "poor distribution: {} distinct", seen.len());
    }

    #[test]
    fn tage_tag_depends_on_history() {
        let t1 = tage_tag(0x1234, 0x0, 0x0, 12);
        let t2 = tage_tag(0x1234, 0x1, 0x0, 12);
        assert_ne!(t1, t2);
        assert!(t1 < (1 << 12) && t2 < (1 << 12));
    }

    #[test]
    #[should_panic(expected = "fold width")]
    fn fold_to_zero_bits_panics() {
        let _ = fold_to_bits(1, 0);
    }

    #[test]
    fn index_ctx_matches_scalar_tage_index() {
        // The hoisted per-lookup context must be bit-identical to the
        // straight-line hash for every (pc, path, table, bits) combination.
        let mut rng = crate::rng::SplitMix64::new(0x1DC);
        for _ in 0..2_000 {
            let pc = rng.next_u64();
            let path = rng.next_u64();
            let index_bits = 1 + rng.below(20) as u32;
            let folded = rng.next_u64() as u32;
            let table = rng.below(30) as u32;
            let ctx = IndexCtx::new(pc, path, index_bits);
            let rotation = IndexCtx::path_rotation(table, index_bits);
            assert_eq!(
                ctx.index(folded, table, rotation),
                tage_index(pc, folded, path, table, index_bits),
                "pc={pc:#x} path={path:#x} bits={index_bits} table={table}"
            );
        }
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        use std::hash::BuildHasher;
        let build = FastBuildHasher::default();
        let hash_one = |v: u64| build.hash_one(v);
        // Deterministic across calls (unlike RandomState).
        assert_eq!(hash_one(1234), hash_one(1234));
        // Sequential keys spread across the low bits used for buckets.
        let mut low = HashSet::new();
        for k in 0u64..4096 {
            low.insert(hash_one(k) & 0xFFF);
        }
        assert!(low.len() > 2500, "poor low-bit spread: {}", low.len());
    }

    #[test]
    fn fx_hasher_handles_byte_tails() {
        use std::hash::Hasher;
        let h = |bytes: &[u8]| {
            let mut h = FxHasher64::default();
            h.write(bytes);
            h.finish()
        };
        // Different lengths of the same prefix must differ.
        assert_ne!(h(b"abcdefg"), h(b"abcdefgh"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefghi"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
