//! The TAGE-SC-L front end as two data-parallel loops.
//!
//! Per record, a TAGE-SC-L advances every folded-history register, and per
//! conditional branch it hashes every tagged table's index and tag plus the
//! statistical corrector's component indices. Both are pure functions of the
//! trace, and both are the same few operations repeated over many registers
//! or tables. This module lays them out for that:
//!
//! * [`FoldBank`] holds every folded register of one predictor as a
//!   structure of arrays. Each distinct `(length, width)` pair is registered
//!   once, so TAGE's twin tables, an SC fold that equals a TAGE index fold
//!   and LLBP's pattern-tag folds share storage. Per distinct length it
//!   keeps a window of the outgoing history bits of the next 64 advances,
//!   refilled from the history with one two-word read per length, so
//!   [`FoldBank::advance`] takes each outgoing bit from a register instead
//!   of the history buffer and updates all registers in one branch-free
//!   loop.
//! * [`HashLanes`] holds per-lane constants for the index/tag hashes. One
//!   loop computes every lane: `fold_to_bits(mix64(x), width)` with `x` built
//!   from the PC, a salt and up to two folded registers, and writes it into
//!   the caller's [`LaneHashes`].
//!
//! Each loop body is written once and compiled twice: for the baseline
//! target, and with AVX-512 enabled. [`Kernel`] picks the build. It can only
//! be made by [`Kernel::detect`], which checks the CPU, or as
//! [`Kernel::baseline`], so safe code cannot run the AVX-512 build on a CPU
//! that lacks it.
//!
//! [`FoldedHistory`] stays the scalar specification of one register and
//! [`crate::hash::tage_index`] / [`crate::hash::tage_tag`] the scalar
//! specification of the hashes; the tests pin both loops, in both builds,
//! against them.

use crate::hash::mix64;
use crate::history::{FoldedHistory, HistoryBuffer};

/// Which build of the loops runs.
///
/// # Example
///
/// ```
/// use bputil::kernel::Kernel;
///
/// let kernel = Kernel::detect();
/// assert!(["avx512", "baseline"].contains(&kernel.name()));
/// assert_eq!(Kernel::baseline().name(), "baseline");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel {
    isa: Isa,
}

/// The instruction set a [`Kernel`] runs. Private, so that `Avx512` only
/// exists where [`Kernel::detect`] saw the CPU support it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The fastest build this CPU runs: AVX-512 (F, DQ and VL) when
    /// present, the baseline build otherwise.
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return Self { isa: Isa::Avx512 };
        }
        Self::baseline()
    }

    /// The build for the compilation target's baseline instruction set,
    /// which runs on every CPU of the target.
    #[must_use]
    pub const fn baseline() -> Self {
        Self { isa: Isa::Baseline }
    }

    /// `"avx512"` or `"baseline"`: the name reports use for this build.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self.isa {
            Isa::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }
}

/// Registers per chunk of the bank: one 512-bit vector of `u32`.
const REG_LANES: usize = 16;
/// Registers a bank holds, the constant-zero register included.
pub const MAX_REGISTERS: usize = 256;
/// Distinct history lengths a bank holds: the bits of the outgoing-bit
/// mask.
pub const MAX_LENGTHS: usize = 64;
/// Advances one refill of the windows serves: the bits of a window.
const WINDOW_BITS: u32 = u64::BITS;

const _: () = assert!(MAX_REGISTERS.is_power_of_two() && MAX_REGISTERS.is_multiple_of(REG_LANES));

/// A register of a [`FoldBank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldId(u16);

impl FoldId {
    /// The constant-zero register every bank starts with.
    pub const ZERO: Self = Self(0);
}

/// The per-register constants of one chunk of [`REG_LANES`] registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    /// Bit `width - 1`: the bit that wraps around to bit 0.
    top: [u32; REG_LANES],
    /// The low `width` bits.
    mask: [u32; REG_LANES],
    /// Bit `length mod width`: where the outgoing history bit cancels.
    cancel: [u32; REG_LANES],
    /// Index of the register's length in [`Registers::ages`], i.e. its bit
    /// in the outgoing-bit mask.
    source: [u32; REG_LANES],
}

/// Register 0 has mask 0, so it reads 0 forever: lanes without a fold read it.
const EMPTY_SHAPE: Shape = Shape {
    top: [0; REG_LANES],
    mask: [0; REG_LANES],
    cancel: [0; REG_LANES],
    source: [0; REG_LANES],
};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Registers {
    values: [u32; MAX_REGISTERS],
    shapes: [Shape; MAX_REGISTERS / REG_LANES],
    /// Register `i`'s [`FoldedHistory`] rule, for the reference advance and
    /// for deduplication. Entry 0 (the zero register) is unused.
    rules: [FoldedHistory; MAX_REGISTERS],
    /// `length - 1` of each distinct length, in registration order.
    ages: [usize; MAX_LENGTHS],
    /// Per distinct length, the outgoing bits of the coming advances: bit
    /// `k` is the bit that leaves the length's window `k` advances from
    /// now. Valid while [`FoldBank::fresh`] is non-zero.
    windows: [u64; MAX_LENGTHS],
    /// Per distinct length, where an advance's pushed bit enters its
    /// window: bit `length - 1` for lengths up to 64, which a bit pushed
    /// now leaves within the window's span; 0 for longer ones.
    entries: [u64; MAX_LENGTHS],
}

/// Every folded-history register of one predictor, as a structure of
/// arrays.
///
/// [`FoldBank::register`] returns the existing register when the same
/// `(length, width)` pair was registered before, so each pair is stored
/// and advanced once. All storage is allocated by [`FoldBank::new`].
///
/// The bank reads the history it advances with only when it refills its
/// outgoing-bit windows: at the first advance, every 64 advances after
/// that, and at the first advance after [`FoldBank::restore`],
/// [`FoldBank::clear`], [`FoldBank::register`] or
/// [`FoldBank::advance_reference`]. In between, each
/// [`FoldBank::advance`] must be followed by pushing the same outcome
/// into the same history, as a predictor's history update does.
///
/// # Example
///
/// ```
/// use bputil::history::{FoldedHistory, HistoryBuffer};
/// use bputil::kernel::{FoldBank, Kernel};
///
/// let mut bank = FoldBank::new();
/// let a = bank.register(54, 10);
/// assert_eq!(bank.register(54, 10), a); // a twin table's fold is shared
/// let mut ghr = HistoryBuffer::new(128);
/// let mut spec = FoldedHistory::new(54, 10);
/// for i in 0..300 {
///     let taken = i % 7 < 3;
///     spec.update_before_push(&ghr, taken);
///     bank.advance(Kernel::detect(), &ghr, taken);
///     ghr.push(taken);
/// }
/// assert_eq!(bank.value(a), spec.value());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldBank {
    regs: Box<Registers>,
    /// Registers in use, the zero register included.
    len: usize,
    /// Distinct lengths in use.
    lengths: usize,
    /// Advances the windows still hold bits for; 0 makes the next
    /// [`FoldBank::advance`] refill them from the history.
    fresh: u32,
}

impl Default for FoldBank {
    fn default() -> Self {
        Self::new()
    }
}

impl FoldBank {
    /// An empty bank: only the constant-zero register.
    #[must_use]
    pub fn new() -> Self {
        let placeholder = FoldedHistory::new(1, 1);
        Self {
            regs: Box::new(Registers {
                values: [0; MAX_REGISTERS],
                shapes: [EMPTY_SHAPE; MAX_REGISTERS / REG_LANES],
                rules: [placeholder; MAX_REGISTERS],
                ages: [0; MAX_LENGTHS],
                windows: [0; MAX_LENGTHS],
                entries: [0; MAX_LENGTHS],
            }),
            len: 1,
            lengths: 0,
            fresh: 0,
        }
    }

    /// Returns the bank to the state [`FoldBank::new`] leaves, keeping its
    /// storage: only the constant-zero register.
    pub fn clear(&mut self) {
        let regs = &mut *self.regs;
        regs.values.fill(0);
        regs.shapes.fill(EMPTY_SHAPE);
        regs.rules.fill(FoldedHistory::new(1, 1));
        regs.ages.fill(0);
        regs.windows.fill(0);
        regs.entries.fill(0);
        self.len = 1;
        self.lengths = 0;
        self.fresh = 0;
    }

    /// The register folding the most recent `length` history bits into
    /// `width` bits, added unless one with the same pair exists. A new
    /// register starts at zero, like a fresh [`FoldedHistory`].
    ///
    /// # Panics
    ///
    /// Panics if [`FoldedHistory::new`] rejects the pair, or when the bank
    /// already holds [`MAX_REGISTERS`] registers or [`MAX_LENGTHS`]
    /// distinct lengths.
    pub fn register(&mut self, length: usize, width: u32) -> FoldId {
        let rule = FoldedHistory::new(length, width);
        let regs = &mut *self.regs;
        if let Some(i) = (1..self.len).find(|&i| {
            regs.rules[i].original_len() == length && regs.rules[i].compressed_len() == width
        }) {
            return FoldId(i as u16);
        }
        assert!(self.len < MAX_REGISTERS, "fold bank holds at most {MAX_REGISTERS} registers");
        let source = match regs.ages[..self.lengths].iter().position(|&a| a == length - 1) {
            Some(d) => d,
            None => {
                assert!(
                    self.lengths < MAX_LENGTHS,
                    "fold bank holds at most {MAX_LENGTHS} lengths"
                );
                regs.ages[self.lengths] = length - 1;
                regs.entries[self.lengths] = if length <= 64 { 1 << (length - 1) } else { 0 };
                self.lengths += 1;
                // The new length has no window yet.
                self.fresh = 0;
                self.lengths - 1
            }
        };
        let i = self.len;
        self.len += 1;
        let (shape, lane) = (&mut regs.shapes[i / REG_LANES], i % REG_LANES);
        shape.top[lane] = 1 << (width - 1);
        shape.mask[lane] = u32::MAX >> (32 - width);
        shape.cancel[lane] = 1 << (length as u64 % u64::from(width));
        shape.source[lane] = source as u32;
        regs.rules[i] = rule;
        regs.values[i] = 0;
        FoldId(i as u16)
    }

    /// The current value of register `id`.
    #[inline]
    #[must_use]
    pub fn value(&self, id: FoldId) -> u32 {
        self.regs.values[usize::from(id.0)]
    }

    /// Registers in use, the constant-zero register included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `false`: the constant-zero register is always present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Distinct history lengths: outgoing-bit reads per advance.
    #[must_use]
    pub fn distinct_lengths(&self) -> usize {
        self.lengths
    }

    /// Every register but the zero one, as `(id, length, width)`.
    pub fn registers(&self) -> impl Iterator<Item = (FoldId, usize, u32)> + '_ {
        self.regs.rules[1..self.len]
            .iter()
            .enumerate()
            .map(|(i, f)| (FoldId(i as u16 + 1), f.original_len(), f.compressed_len()))
    }

    /// Every register's value, in register order (for checkpoints).
    #[must_use]
    pub fn values(&self) -> &[u32] {
        &self.regs.values[..self.len]
    }

    /// Restores values captured by [`FoldBank::values`].
    ///
    /// # Panics
    ///
    /// Panics ("config mismatch") if `values` came from a bank with a
    /// different number of registers.
    pub fn restore(&mut self, values: &[u32]) {
        assert_eq!(values.len(), self.len, "config mismatch");
        let regs = &mut *self.regs;
        for ((v, &raw), rule) in regs.values.iter_mut().zip(values).zip(&regs.rules).skip(1) {
            let mut f = *rule;
            f.restore(raw);
            *v = f.value();
        }
        // The history is restored too, to another point: the windows no
        // longer hold its coming outgoing bits.
        self.fresh = 0;
    }

    /// Advances every register for the outcome `taken`. Must be called
    /// **before** `taken` is pushed into `ghr`, as
    /// [`FoldedHistory::update_before_push`]; bit-identical to it. Reads
    /// `ghr` only to refill the windows (see [`FoldBank`]).
    #[inline]
    pub fn advance(&mut self, kernel: Kernel, ghr: &HistoryBuffer, taken: bool) {
        if self.fresh == 0 {
            self.refill(ghr);
        }
        self.fresh -= 1;
        let chunks = self.len.div_ceil(REG_LANES);
        let regs = &mut *self.regs;
        let windows = (&mut regs.windows, &regs.entries, self.lengths);
        let (values, _) = regs.values.as_chunks_mut::<REG_LANES>();
        let (values, shapes) = (&mut values[..chunks], &regs.shapes[..chunks]);
        match kernel.isa {
            Isa::Baseline => advance_body(values, shapes, windows, taken),
            // SAFETY: a `Kernel` holds `Isa::Avx512` only when
            // `Kernel::detect` found AVX-512 F, DQ and VL on this CPU.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { advance_avx512(values, shapes, windows, taken) },
        }
    }

    /// Reads the outgoing bits of the next [`WINDOW_BITS`] advances from
    /// `ghr`, one two-word read per distinct length: the bits from age
    /// `length - 1` down. A length up to 64 also leaves bits pushed after
    /// this read within that span; those enter its window as they are
    /// pushed.
    #[cold]
    fn refill(&mut self, ghr: &HistoryBuffer) {
        let regs = &mut *self.regs;
        for (window, &age) in regs.windows.iter_mut().zip(&regs.ages[..self.lengths]) {
            *window = ghr.window(age);
        }
        self.fresh = WINDOW_BITS;
    }

    /// [`FoldBank::advance`] through each register's own
    /// [`FoldedHistory::update_before_push`]: the reference rule the fast
    /// loop is checked against. It reads the outgoing bits from `ghr` and
    /// leaves the windows behind, so the next [`FoldBank::advance`]
    /// refills them.
    pub fn advance_reference(&mut self, ghr: &HistoryBuffer, taken: bool) {
        let regs = &mut *self.regs;
        for (v, rule) in regs.values[1..self.len].iter_mut().zip(&regs.rules[1..]) {
            let mut f = *rule;
            f.restore(*v);
            f.update_before_push(ghr, taken);
            *v = f.value();
        }
        self.fresh = 0;
    }
}

/// One register update per lane, on the constants of [`FoldBank::register`]:
/// shift left, insert `taken`, wrap bit `width - 1` into bit 0 and cancel
/// the outgoing bit, all without a branch or a shift by the width (which
/// would overflow at width 32). The outgoing bit of each distinct length
/// is bit 0 of its window; the windows then shift down by one, and the
/// lengths up to 64 take `taken` in at bit `length - 1`.
#[inline(always)]
fn advance_body(
    values: &mut [[u32; REG_LANES]],
    shapes: &[Shape],
    (windows, entries, lengths): (&mut [u64; MAX_LENGTHS], &[u64; MAX_LENGTHS], usize),
    taken: bool,
) {
    let pushed = u64::from(taken).wrapping_neg();
    // Bit `d` of `outgoing` for distinct length `d`. A bank of at most 32
    // lengths (every predictor's) steps half the windows.
    let outgoing = match (windows.first_chunk_mut::<32>(), entries.first_chunk::<32>()) {
        (Some(windows), Some(entries)) if lengths <= 32 => step_windows(windows, entries, pushed),
        _ => step_windows(windows, entries, pushed),
    };
    let t = u32::from(taken);
    let (low, high) = (outgoing as u32, (outgoing >> 32) as u32);
    for (v, s) in values.iter_mut().zip(shapes) {
        for (j, value) in v.iter_mut().enumerate() {
            let old = *value;
            let wrap = u32::from(old & s.top[j] != 0);
            let src = s.source[j];
            let word = if src < 32 { low } else { high };
            let out = (word >> (src & 31)) & 1;
            let cancel = 0u32.wrapping_sub(out) & s.cancel[j];
            *value = (((old << 1) | (t ^ wrap)) ^ cancel) & s.mask[j];
        }
    }
}

/// Takes bit 0 of each of the `N` windows, as bit `d` of the result for
/// window `d`, and shifts the windows, ORing in `entries & pushed`. `N` is
/// a constant, so the compiler steps the windows as whole vectors; the
/// unused ones are zero and stay zero.
#[inline(always)]
fn step_windows<const N: usize>(windows: &mut [u64; N], entries: &[u64; N], pushed: u64) -> u64 {
    let mut outgoing = 0;
    for (d, (w, &e)) in windows.iter_mut().zip(entries).enumerate() {
        outgoing |= (*w & 1) << d;
        *w = (*w >> 1) | (e & pushed);
    }
    outgoing
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn advance_avx512(
    values: &mut [[u32; REG_LANES]],
    shapes: &[Shape],
    windows: (&mut [u64; MAX_LENGTHS], &[u64; MAX_LENGTHS], usize),
    taken: bool,
) {
    advance_body(values, shapes, windows, taken);
}

/// Lanes per chunk of [`HashLanes`]: one 512-bit vector of `u64`.
pub const HASH_LANES: usize = 8;
/// Lanes a [`HashLanes`] holds: an index and a tag lane for each of 32
/// TAGE tables plus 17 statistical-corrector lanes, with room for 15 more
/// (an LLBP's pattern tags, next to a TAGE of fewer tables).
pub const MAX_LANES: usize = 96;
/// XOR-tree steps of the narrowest width: 1, 2, 4, 8, 16 and 32.
const MAX_FOLD_STEPS: usize = 6;

const _: () = assert!(MAX_LANES.is_multiple_of(HASH_LANES));

/// One hash of the per-lookup loop:
/// `fold_to_bits(mix64(input.rotate_left(rotate) ^ salt ^ f0 ^ (f1 << 1)), width)`,
/// where `input` is the PC or the TAGE index base
/// ([`crate::hash::tage_index_base`]) and `f0` and `f1` are the current
/// values of the lane's folds (0 for none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// Whether `input` is the index base rather than the PC.
    index_base: bool,
    rotate: u32,
    salt: u64,
    fold0: Option<FoldId>,
    fold1: Option<FoldId>,
    width: u32,
}

impl Lane {
    /// The lane computing [`crate::hash::tage_index`] of `table` for the
    /// index fold `fold` at `index_bits`.
    #[must_use]
    pub fn tage_index(table: u32, fold: FoldId, index_bits: u32) -> Self {
        Self {
            index_base: true,
            rotate: 0,
            salt: u64::from(table) << 57,
            fold0: Some(fold),
            fold1: None,
            width: index_bits,
        }
    }

    /// The lane computing [`crate::hash::tage_tag`] of `table` (PC salted
    /// by `table.rotate_left(11)`) for its two tag folds.
    #[must_use]
    pub fn tage_tag(table: u32, tag0: FoldId, tag1: FoldId, tag_bits: u32) -> Self {
        Self {
            index_base: false,
            rotate: 0,
            salt: u64::from(table).rotate_left(11),
            fold0: Some(tag0),
            fold1: Some(tag1),
            width: tag_bits,
        }
    }

    /// The lane computing an LLBP pattern tag of history-length index
    /// `len_idx` for its two tag folds: [`crate::hash::tage_tag`] of the
    /// PC salted by `len_idx.rotate_left(7)`.
    #[must_use]
    pub fn pattern_tag(len_idx: u32, tag0: FoldId, tag1: FoldId, tag_bits: u32) -> Self {
        Self { salt: u64::from(len_idx).rotate_left(7), ..Self::tage_tag(0, tag0, tag1, tag_bits) }
    }

    /// The lane computing [`crate::hash::gehl_index`] of `component` for
    /// the fold `fold` (none for a PC-only component) at `bits`. The bias
    /// component (0) takes the TAGE direction as its fold, so it needs two
    /// lanes: `salt` 0 for not taken and 2 for taken.
    #[must_use]
    pub fn gehl(component: u32, fold: Option<FoldId>, salt: u64, bits: u32) -> Self {
        Self {
            index_base: false,
            rotate: component * 7,
            salt,
            fold0: fold,
            fold1: None,
            width: bits,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneChunk {
    /// Register ids of the two folds (0, the zero register, for none).
    fold0: [u32; HASH_LANES],
    fold1: [u32; HASH_LANES],
    /// All ones where the lane hashes the index base instead of the PC.
    index_base: [u64; HASH_LANES],
    rotate: [u32; HASH_LANES],
    salt: [u64; HASH_LANES],
    /// The lane's XOR-tree shifts `width·2^k` below 64; 64 (a shift to
    /// zero) pads the lanes that need fewer steps than the widest.
    shift: [[u32; HASH_LANES]; MAX_FOLD_STEPS],
    /// The low `width` bits.
    mask: [u64; HASH_LANES],
}

const EMPTY_LANES: LaneChunk = LaneChunk {
    fold0: [0; HASH_LANES],
    fold1: [0; HASH_LANES],
    index_base: [0; HASH_LANES],
    rotate: [0; HASH_LANES],
    salt: [0; HASH_LANES],
    shift: [[64; HASH_LANES]; MAX_FOLD_STEPS],
    mask: [0; HASH_LANES],
};

/// The hashes of one lookup, in lane order. Lanes are at most 32 bits
/// wide, so each hash is a `u32`.
pub type LaneHashes = [u32; MAX_LANES];

/// The per-lane constants of every index/tag hash one lookup computes.
///
/// # Example
///
/// ```
/// use bputil::hash::{tage_index, tage_index_base, tage_tag};
/// use bputil::kernel::{FoldBank, HashLanes, Kernel, Lane};
///
/// let mut bank = FoldBank::new();
/// let (index, tag0, tag1) = (bank.register(36, 10), bank.register(36, 9), bank.register(36, 8));
/// let mut lanes = HashLanes::new();
/// lanes.push(Lane::tage_index(4, index, 10));
/// lanes.push(Lane::tage_tag(4, tag0, tag1, 9));
/// let (pc, path) = (0x4010_2c, 0x5a5);
/// let mut out = [0; bputil::kernel::MAX_LANES];
/// lanes.hash(Kernel::detect(), &bank, pc, tage_index_base(pc, path, 10), &mut out);
/// assert_eq!(u64::from(out[0]), tage_index(pc, 0, path, 4, 10));
/// assert_eq!(out[1], tage_tag(pc ^ 4u64.rotate_left(11), 0, 0, 9));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashLanes {
    chunks: Box<[LaneChunk; MAX_LANES / HASH_LANES]>,
    len: usize,
    /// XOR-tree steps of the narrowest lane.
    steps: usize,
}

impl Default for HashLanes {
    fn default() -> Self {
        Self::new()
    }
}

impl HashLanes {
    /// No lanes yet.
    #[must_use]
    pub fn new() -> Self {
        Self { chunks: Box::new([EMPTY_LANES; MAX_LANES / HASH_LANES]), len: 0, steps: 0 }
    }

    /// Removes every lane, keeping the storage: the state
    /// [`HashLanes::new`] leaves.
    pub fn clear(&mut self) {
        self.chunks.fill(EMPTY_LANES);
        self.len = 0;
        self.steps = 0;
    }

    /// Appends `lane`, returning its position in the hash output.
    ///
    /// # Panics
    ///
    /// Panics if the lane's width is outside `1..=32` or the plan already holds
    /// [`MAX_LANES`] lanes.
    pub fn push(&mut self, lane: Lane) -> usize {
        assert!((1..=32).contains(&lane.width), "hash width out of range: {}", lane.width);
        assert!(self.len < MAX_LANES, "at most {MAX_LANES} hash lanes");
        let i = self.len;
        self.len += 1;
        let (c, j) = (&mut self.chunks[i / HASH_LANES], i % HASH_LANES);
        c.fold0[j] = lane.fold0.map_or(0, |f| u32::from(f.0));
        c.fold1[j] = lane.fold1.map_or(0, |f| u32::from(f.0));
        c.index_base[j] = if lane.index_base { u64::MAX } else { 0 };
        c.rotate[j] = lane.rotate % 64;
        c.salt[j] = lane.salt;
        let mut shift = lane.width;
        let mut steps = 0;
        while shift < 64 {
            c.shift[steps][j] = shift;
            steps += 1;
            shift *= 2;
        }
        self.steps = self.steps.max(steps);
        c.mask[j] = (1u64 << lane.width) - 1;
        i
    }

    /// Lanes pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` before the first [`HashLanes::push`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hashes [`HashLanes::hash`] writes: the lanes rounded up to
    /// whole chunks of [`HASH_LANES`].
    #[must_use]
    pub fn stride(&self) -> usize {
        self.len.next_multiple_of(HASH_LANES)
    }

    /// Computes every lane for `pc` into `out[..self.len()]`, reading the
    /// folds from `bank` (the bank the lanes' [`FoldId`]s came from) and
    /// using `index_base` for the TAGE index lanes. Entries from there to
    /// [`HashLanes::stride`] are unspecified, and `out` must hold that
    /// many. `out` is usually a field of the caller's lookup, which then
    /// reads the hashes where the loop wrote them, or one row of a block
    /// of lookups.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than [`HashLanes::stride`] hashes.
    #[inline]
    pub fn hash(&self, kernel: Kernel, bank: &FoldBank, pc: u64, index_base: u64, out: &mut [u32]) {
        let chunks = &self.chunks[..self.len.div_ceil(HASH_LANES)];
        assert!(out.len() >= chunks.len() * HASH_LANES, "a hash row of {} lanes", out.len());
        let folds = &bank.regs.values;
        let (out, _) = out.as_chunks_mut::<HASH_LANES>();
        let steps = self.steps;
        match kernel.isa {
            Isa::Baseline => hash_body(chunks, steps, folds, pc, index_base, out),
            // SAFETY: a `Kernel` holds `Isa::Avx512` only when
            // `Kernel::detect` found AVX-512 F, DQ and VL on this CPU.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { hash_avx512(chunks, steps, folds, pc, index_base, out) },
        }
    }
}

/// One chunk of lanes at a time: build each lane's input, mix it, then run
/// the XOR tree with per-lane shifts (shifts of 64 contribute nothing).
#[inline(always)]
fn hash_body(
    chunks: &[LaneChunk],
    steps: usize,
    folds: &[u32; MAX_REGISTERS],
    pc: u64,
    index_base: u64,
    out: &mut [[u32; HASH_LANES]],
) {
    let swap = pc ^ index_base;
    for (c, o) in chunks.iter().zip(out) {
        let mut x = [0u64; HASH_LANES];
        for j in 0..HASH_LANES {
            let f0 = u64::from(folds[c.fold0[j] as usize % MAX_REGISTERS]);
            let f1 = u64::from(folds[c.fold1[j] as usize % MAX_REGISTERS]);
            let input = pc ^ (swap & c.index_base[j]);
            x[j] = mix64(input.rotate_left(c.rotate[j]) ^ c.salt[j] ^ f0 ^ (f1 << 1));
        }
        for shift in &c.shift[..steps] {
            for j in 0..HASH_LANES {
                x[j] ^= x[j].checked_shr(shift[j]).unwrap_or(0);
            }
        }
        for j in 0..HASH_LANES {
            // The mask keeps at most 32 bits: the truncation drops zeros.
            o[j] = (x[j] & c.mask[j]) as u32;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn hash_avx512(
    chunks: &[LaneChunk],
    steps: usize,
    folds: &[u32; MAX_REGISTERS],
    pc: u64,
    index_base: u64,
    out: &mut [[u32; HASH_LANES]],
) {
    hash_body(chunks, steps, folds, pc, index_base, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{gehl_index, tage_index, tage_index_base, tage_tag};
    use crate::rng::SplitMix64;

    /// Both builds where the CPU runs both; the baseline alone elsewhere.
    fn kernels() -> Vec<Kernel> {
        let detected = Kernel::detect();
        if detected == Kernel::baseline() {
            eprintln!("no AVX-512 on this CPU: only the baseline build is checked");
            vec![Kernel::baseline()]
        } else {
            vec![Kernel::baseline(), detected]
        }
    }

    #[test]
    fn builds_are_named() {
        assert_eq!(Kernel::baseline().name(), "baseline");
        let detected = Kernel::detect().name();
        assert!(detected == "baseline" || detected == "avx512", "{detected}");
    }

    /// Checks every register of `bank` against its own [`FoldedHistory`]
    /// after every one of `steps` random outcomes, under every build and
    /// the reference advance, and against folding the full history at the
    /// end. In the builds, each step may first, at random and so at no
    /// fixed offset within the windows' 64 advances, save a snapshot of
    /// the registers and the history, restore the last one, or clear the
    /// bank and register its pairs again; and each advance may be a
    /// reference one. Each of these must leave the windows refilled
    /// before the next advance reads them.
    fn check_bank(bank: &FoldBank, steps: usize, seed: u64) {
        let max_len = bank.registers().map(|(_, l, _)| l).max().unwrap_or(1);
        let pairs: Vec<(usize, u32)> = bank.registers().map(|(_, l, w)| (l, w)).collect();
        let fresh_specs = |bank: &FoldBank| -> Vec<(FoldId, FoldedHistory)> {
            bank.registers().map(|(id, l, w)| (id, FoldedHistory::new(l, w))).collect()
        };
        for kernel in kernels().into_iter().map(Some).chain([None]) {
            let mut bank = bank.clone();
            let mut specs = fresh_specs(&bank);
            let mut ghr = HistoryBuffer::new(max_len + 64);
            let mut rng = SplitMix64::new(seed);
            let mut snapshot = None;
            // A cleared bank's registers restart from zero mid-history, so
            // they no longer equal a fold of the whole history.
            let mut cleared = false;
            let mut events = [0usize; 4];
            for step in 0..steps {
                if kernel.is_some() {
                    match rng.below(64) {
                        0 => {
                            snapshot =
                                Some((bank.values().to_vec(), ghr.checkpoint(), specs.clone()));
                            events[0] += 1;
                        }
                        1 => {
                            if let Some((values, history, saved)) = &snapshot {
                                bank.restore(values);
                                ghr.restore(history);
                                specs.clone_from(saved);
                                events[1] += 1;
                            }
                        }
                        2 => {
                            bank.clear();
                            for &(l, w) in &pairs {
                                bank.register(l, w);
                            }
                            specs = fresh_specs(&bank);
                            cleared = true;
                            events[2] += 1;
                        }
                        _ => {}
                    }
                }
                let taken = rng.chance(1, 2);
                for (_, f) in &mut specs {
                    f.update_before_push(&ghr, taken);
                }
                match kernel {
                    Some(_) if rng.chance(1, 16) => {
                        bank.advance_reference(&ghr, taken);
                        events[3] += 1;
                    }
                    Some(k) => bank.advance(k, &ghr, taken),
                    None => bank.advance_reference(&ghr, taken),
                }
                ghr.push(taken);
                for (id, f) in &specs {
                    assert_eq!(bank.value(*id), f.value(), "{kernel:?} step {step} {f:?}");
                }
            }
            if kernel.is_some() {
                assert!(events.iter().all(|&n| n > 0), "every interleaving ran: {events:?}");
            }
            if !cleared {
                for (id, f) in &specs {
                    let fold = ghr.fold(f.original_len(), f.compressed_len());
                    assert_eq!(bank.value(*id), fold, "{kernel:?} {f:?}");
                }
            }
            assert_eq!(bank.value(FoldId(0)), 0, "the zero register stays zero");
        }
    }

    #[test]
    fn bank_matches_folded_history_at_every_width() {
        let mut bank = FoldBank::new();
        let mut rng = SplitMix64::new(0xF01D);
        let lengths: Vec<usize> = (0..40).map(|_| 1 + rng.below(400) as usize).collect();
        for width in 1..=32 {
            for _ in 0..3 {
                bank.register(lengths[rng.below(40) as usize], width);
            }
        }
        bank.register(100, 32);
        bank.register(1, 1);
        check_bank(&bank, 1_500, 1);
    }

    #[test]
    fn windows_follow_the_history_at_every_length() {
        // Lengths on both sides of the window's 64 bits and of the word
        // boundaries a window's two-word read straddles.
        for lengths in [&[1usize, 2, 63, 64, 65][..], &[127, 128, 129, 191, 192], &[200, 260, 300]]
        {
            let mut bank = FoldBank::new();
            for &l in lengths {
                bank.register(l, 7);
                bank.register(l, 1);
            }
            check_bank(&bank, 3_000, lengths[0] as u64);
        }
    }

    #[test]
    fn bank_stores_each_pair_once() {
        let mut bank = FoldBank::new();
        let a = bank.register(54, 10);
        let b = bank.register(54, 9);
        let c = bank.register(78, 10);
        assert_eq!(bank.register(54, 10), a);
        assert_eq!(bank.register(54, 9), b);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(bank.len(), 4, "three registers plus the zero register");
        assert_eq!(bank.distinct_lengths(), 2, "54 and 78");
    }

    #[test]
    fn clear_restores_a_fresh_bank_and_plan() {
        let mut bank = FoldBank::new();
        let mut lanes = HashLanes::new();
        let (fold, tag) = (bank.register(300, 11), bank.register(300, 9));
        lanes.push(Lane::tage_index(3, fold, 11));
        lanes.push(Lane::gehl(2, Some(tag), 0, 10));
        let mut ghr = HistoryBuffer::new(512);
        for i in 0..400 {
            bank.advance(Kernel::detect(), &ghr, i % 3 == 0);
            ghr.push(i % 3 == 0);
        }
        bank.clear();
        lanes.clear();
        assert_eq!(bank, FoldBank::new());
        assert_eq!(lanes, HashLanes::new());
    }

    #[test]
    fn restore_round_trips_and_checks_the_shape() {
        let mut bank = FoldBank::new();
        bank.register(20, 7);
        bank.register(33, 11);
        let mut ghr = HistoryBuffer::new(64);
        for i in 0..50 {
            bank.advance(Kernel::detect(), &ghr, i % 3 == 0);
            ghr.push(i % 3 == 0);
        }
        let snapshot = bank.values().to_vec();
        bank.advance(Kernel::detect(), &ghr, true);
        bank.restore(&snapshot);
        assert_eq!(bank.values(), snapshot);
        let result = std::panic::catch_unwind(move || bank.restore(&snapshot[1..]));
        assert!(result.is_err(), "a checkpoint of another shape must be rejected");
    }

    #[test]
    fn hash_lanes_match_the_scalar_hashes() {
        let mut rng = SplitMix64::new(0x1A5E);
        for round in 0..300 {
            let mut bank = FoldBank::new();
            let mut lanes = HashLanes::new();
            let index_bits = 1 + round % 30;
            let gehl_bits = 1 + rng.below(30) as u32;
            // (table, index fold, tag folds, tag width) for a random geometry.
            let tables: Vec<_> = (0..1 + rng.below(32) as u32)
                .map(|t| {
                    let length = 1 + rng.below(3000) as usize;
                    let tag_bits = 4 + rng.below(13) as u32;
                    let index = bank.register(length, index_bits);
                    let tag0 = bank.register(length, tag_bits);
                    let tag1 = bank.register(length, tag_bits - 1);
                    (t, index, tag0, tag1, tag_bits)
                })
                .collect();
            let components: Vec<_> = (1..1 + rng.below(16) as u32)
                .map(|c| {
                    (
                        c,
                        rng.chance(3, 4)
                            .then(|| bank.register(1 + rng.below(64) as usize, gehl_bits)),
                    )
                })
                .collect();
            for &(t, index, ..) in &tables {
                lanes.push(Lane::tage_index(t, index, index_bits));
            }
            for &(t, _, tag0, tag1, tag_bits) in &tables {
                lanes.push(Lane::tage_tag(t, tag0, tag1, tag_bits));
            }
            let patterns: Vec<_> = tables
                .iter()
                .map(|&(t, _, tag0, tag1, tag_bits)| (t, tag0, tag1, tag_bits))
                .take(rng.below(4) as usize)
                .collect();
            let bias = lanes.push(Lane::gehl(0, None, 0, gehl_bits));
            lanes.push(Lane::gehl(0, None, 2, gehl_bits));
            for &(c, fold) in &components {
                lanes.push(Lane::gehl(c, fold, 0, gehl_bits));
            }
            let first_pattern = lanes.len();
            for &(len_idx, tag0, tag1, tag_bits) in &patterns {
                lanes.push(Lane::pattern_tag(len_idx, tag0, tag1, tag_bits));
            }
            assert_eq!(lanes.stride() % HASH_LANES, 0);
            assert!(lanes.stride() >= lanes.len());
            let values: Vec<u32> = (0..bank.len()).map(|_| rng.next_u64() as u32).collect();
            bank.restore(&values);
            let (pc, path) = (rng.next_u64(), rng.next_u64());
            let base = tage_index_base(pc, path, index_bits);
            let n = tables.len();
            for kernel in kernels() {
                let mut out = [0; MAX_LANES];
                lanes.hash(kernel, &bank, pc, base, &mut out);
                for &(t, index, tag0, tag1, tag_bits) in &tables {
                    let t_ = t as usize;
                    let want = tage_index(pc, bank.value(index), path, t, index_bits);
                    assert_eq!(u64::from(out[t_]), want, "{kernel:?} index of table {t}");
                    let (f0, f1) = (bank.value(tag0), bank.value(tag1));
                    let want = tage_tag(pc ^ u64::from(t).rotate_left(11), f0, f1, tag_bits);
                    assert_eq!(out[n + t_], want, "{kernel:?} tag of table {t}");
                }
                for taken in [0, 1] {
                    let want = gehl_index(pc, taken << 1, 0, gehl_bits);
                    assert_eq!(out[bias + taken as usize], want, "{kernel:?} bias");
                }
                for (k, &(c, fold)) in components.iter().enumerate() {
                    let want = gehl_index(pc, fold.map_or(0, |f| bank.value(f)), c, gehl_bits);
                    assert_eq!(out[bias + 2 + k], want, "{kernel:?} component {c}");
                }
                for (k, &(len_idx, tag0, tag1, tag_bits)) in patterns.iter().enumerate() {
                    let salted = pc ^ u64::from(len_idx).rotate_left(7);
                    let want = tage_tag(salted, bank.value(tag0), bank.value(tag1), tag_bits);
                    assert_eq!(out[first_pattern + k], want, "{kernel:?} pattern {len_idx}");
                }
            }
        }
    }
}
