//! Branch trace records.
//!
//! A trace is a sequence of *retired branch instructions* in program order,
//! each annotated with the number of non-branch instructions preceding it
//! (so simulators can reconstruct instruction counts and fetch traffic
//! without storing every instruction, the same trick ChampSim traces use).

/// The control-flow class of a branch instruction.
///
/// LLBP builds its context IDs from *unconditional* branches (direct and
/// indirect jumps, calls, and returns), and the Fig. 13 sensitivity study
/// compares against call/return-only and all-branch histories, so the trace
/// must distinguish these classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchKind {
    /// A conditional direct branch — the only kind the direction predictors
    /// under study predict.
    Conditional,
    /// An unconditional direct jump.
    DirectJump,
    /// An unconditional indirect jump (target from a register).
    IndirectJump,
    /// A direct call.
    DirectCall,
    /// An indirect call (e.g. virtual dispatch) — PHPWiki's pipeline-reset
    /// pathology in §VII-A comes from mispredicted indirect calls.
    IndirectCall,
    /// A function return.
    Return,
}

impl BranchKind {
    /// `true` for every kind except [`BranchKind::Conditional`].
    #[must_use]
    pub fn is_unconditional(self) -> bool {
        !matches!(self, BranchKind::Conditional)
    }

    /// `true` for calls and returns (the Fig. 13 `Call/Ret` history type).
    #[must_use]
    pub fn is_call_or_return(self) -> bool {
        matches!(self, BranchKind::DirectCall | BranchKind::IndirectCall | BranchKind::Return)
    }

    /// Compact numeric encoding used by the binary trace format.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            BranchKind::Conditional => 0,
            BranchKind::DirectJump => 1,
            BranchKind::IndirectJump => 2,
            BranchKind::DirectCall => 3,
            BranchKind::IndirectCall => 4,
            BranchKind::Return => 5,
        }
    }

    /// Decodes the binary encoding; `None` for out-of-range values.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => BranchKind::Conditional,
            1 => BranchKind::DirectJump,
            2 => BranchKind::IndirectJump,
            3 => BranchKind::DirectCall,
            4 => BranchKind::IndirectCall,
            5 => BranchKind::Return,
            _ => return None,
        })
    }

    /// All kinds, in encoding order.
    pub const ALL: [BranchKind; 6] = [
        BranchKind::Conditional,
        BranchKind::DirectJump,
        BranchKind::IndirectJump,
        BranchKind::DirectCall,
        BranchKind::IndirectCall,
        BranchKind::Return,
    ];
}

impl std::fmt::Display for BranchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BranchKind::Conditional => "cond",
            BranchKind::DirectJump => "jump",
            BranchKind::IndirectJump => "ijump",
            BranchKind::DirectCall => "call",
            BranchKind::IndirectCall => "icall",
            BranchKind::Return => "ret",
        };
        f.write_str(s)
    }
}

/// One retired branch, packed into a compact 20-byte layout.
///
/// Simulation sweeps hold millions of records per workload and stream
/// them once per (predictor × workload) grid cell, so record size directly
/// bounds trace-cache footprint and memory bandwidth. Splitting the two
/// addresses into `u32` halves drops the struct's alignment to 4, which
/// removes the 4 bytes of padding the naive `{u64, u64, u8, bool, u32}`
/// layout pays (24 → 20 bytes, −17% per trace).
///
/// Fields are accessed through methods ([`BranchRecord::pc`],
/// [`BranchRecord::taken`], …); construction goes through
/// [`BranchRecord::new`], [`BranchRecord::conditional`] or
/// [`BranchRecord::unconditional`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct BranchRecord {
    pc_lo: u32,
    pc_hi: u32,
    target_lo: u32,
    target_hi: u32,
    /// Bits 0..3: [`BranchKind`] encoding; bit 3: taken; bits 4..32:
    /// non-branch instruction count.
    meta: u32,
}

impl BranchRecord {
    /// Largest representable non-branch-instruction gap (28 bits). The
    /// synthetic generators emit single-digit means, and even ChampSim
    /// traces stay orders of magnitude below this.
    pub const MAX_NON_BRANCH_INSTS: u32 = (1 << 28) - 1;

    /// Creates a record from its logical fields.
    ///
    /// # Panics
    ///
    /// Panics if `non_branch_insts` exceeds
    /// [`BranchRecord::MAX_NON_BRANCH_INSTS`].
    #[must_use]
    pub fn new(pc: u64, target: u64, kind: BranchKind, taken: bool, non_branch_insts: u32) -> Self {
        assert!(
            non_branch_insts <= Self::MAX_NON_BRANCH_INSTS,
            "non_branch_insts {non_branch_insts} exceeds the 28-bit record field"
        );
        let meta = u32::from(kind.as_u8()) | (u32::from(taken) << 3) | (non_branch_insts << 4);
        Self::from_packed(pc, target, meta)
    }

    /// Rebuilds a record from its stored words: `pc`, `target` and the
    /// [`BranchRecord::packed_meta`] word. The caller must have checked
    /// that the kind bits encode a [`BranchKind`] (at most 5), since
    /// [`BranchRecord::kind`] relies on it; the packing itself bounds the
    /// instruction count to 28 bits.
    #[inline]
    pub(crate) fn from_packed(pc: u64, target: u64, meta: u32) -> Self {
        debug_assert!(meta & 0x7 <= 5, "kind bits {} are not a branch kind", meta & 0x7);
        Self {
            pc_lo: pc as u32,
            pc_hi: (pc >> 32) as u32,
            target_lo: target as u32,
            target_hi: (target >> 32) as u32,
            meta,
        }
    }

    /// Convenience constructor for a conditional branch.
    #[must_use]
    pub fn conditional(pc: u64, target: u64, taken: bool, non_branch_insts: u32) -> Self {
        Self::new(pc, target, BranchKind::Conditional, taken, non_branch_insts)
    }

    /// Convenience constructor for an unconditional branch of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`BranchKind::Conditional`].
    #[must_use]
    pub fn unconditional(pc: u64, target: u64, kind: BranchKind, non_branch_insts: u32) -> Self {
        assert!(kind.is_unconditional(), "use `conditional` for conditional branches");
        Self::new(pc, target, kind, true, non_branch_insts)
    }

    /// Address of the branch instruction.
    #[inline]
    #[must_use]
    pub fn pc(&self) -> u64 {
        u64::from(self.pc_lo) | (u64::from(self.pc_hi) << 32)
    }

    /// Address control transfers to when taken.
    #[inline]
    #[must_use]
    pub fn target(&self) -> u64 {
        u64::from(self.target_lo) | (u64::from(self.target_hi) << 32)
    }

    /// Control-flow class.
    #[inline]
    #[must_use]
    pub fn kind(&self) -> BranchKind {
        BranchKind::from_u8((self.meta & 0x7) as u8).expect("constructors validate the kind bits")
    }

    /// Resolved direction. Always `true` for unconditional kinds.
    #[inline]
    #[must_use]
    pub fn taken(&self) -> bool {
        self.meta & 0x8 != 0
    }

    /// Number of non-branch instructions retired since the previous branch
    /// (used for MPKI and fetch-bandwidth accounting).
    #[inline]
    #[must_use]
    pub fn non_branch_insts(&self) -> u32 {
        self.meta >> 4
    }

    /// Instructions this record accounts for (the branch itself plus the
    /// preceding non-branch instructions).
    #[inline]
    #[must_use]
    pub fn instructions(&self) -> u64 {
        u64::from(self.non_branch_insts()) + 1
    }

    /// The packed metadata word: bits 0..3 hold the [`BranchKind`]
    /// encoding, bit 3 the direction, bits 4..32 the non-branch
    /// instruction count. This is the word [`TraceSoa`] stores per record,
    /// so batch simulation loops can decode kind/direction/instructions
    /// from one dense `u32` stream.
    #[inline]
    #[must_use]
    pub fn packed_meta(&self) -> u32 {
        self.meta
    }
}

/// A structure-of-arrays view of a trace: parallel `pc` / `meta` columns.
///
/// The batch simulation backend streams every record once per grid cell,
/// touching only the branch address and the packed metadata word in its
/// hot decode (the `target` halves matter only for the unconditional
/// subset that reaches `update_history`). Splitting those two columns out
/// of the 20-byte array-of-structs layout means the decode loop reads 12
/// dense bytes per record instead of striding through 20, and the meta
/// column on its own (instruction accounting, kind tests) vectorizes.
///
/// Built once per trace on first use and cached inside [`Trace`] (see
/// [`Trace::soa`]), so a sweep that runs many predictors over one shared
/// trace pays the build cost once.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSoa {
    pcs: Vec<u64>,
    metas: Vec<u32>,
}

impl TraceSoa {
    /// Builds the column view from record storage.
    #[must_use]
    pub fn from_records(records: &[BranchRecord]) -> Self {
        Self {
            pcs: records.iter().map(BranchRecord::pc).collect(),
            metas: records.iter().map(BranchRecord::packed_meta).collect(),
        }
    }

    /// Number of records in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// `true` when the view holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The branch-address column, parallel to [`TraceSoa::metas`].
    #[must_use]
    pub fn pcs(&self) -> &[u64] {
        &self.pcs
    }

    /// The packed-metadata column ([`BranchRecord::packed_meta`] per
    /// record), parallel to [`TraceSoa::pcs`].
    #[must_use]
    pub fn metas(&self) -> &[u32] {
        &self.metas
    }

    /// Heap bytes held by the two columns.
    #[must_use]
    pub fn memory_footprint(&self) -> usize {
        self.pcs.capacity() * std::mem::size_of::<u64>()
            + self.metas.capacity() * std::mem::size_of::<u32>()
    }
}

impl std::fmt::Debug for BranchRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchRecord")
            .field("pc", &format_args!("{:#x}", self.pc()))
            .field("target", &format_args!("{:#x}", self.target()))
            .field("kind", &self.kind())
            .field("taken", &self.taken())
            .field("non_branch_insts", &self.non_branch_insts())
            .finish()
    }
}

/// An in-memory branch trace.
///
/// # Example
///
/// ```
/// use llbp_trace::record::{BranchKind, BranchRecord, Trace};
///
/// let mut t = Trace::new("demo");
/// t.push(BranchRecord::conditional(0x1000, 0x1040, true, 3));
/// t.push(BranchRecord::unconditional(0x1044, 0x2000, BranchKind::DirectCall, 2));
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.instructions(), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    name: String,
    records: Vec<BranchRecord>,
    instructions: u64,
    /// Lazily built column view, shared by reference so every simulation
    /// of this trace reuses one build (see [`Trace::soa`]). Not part of
    /// the trace's identity: equality and serialization ignore it.
    soa: std::sync::OnceLock<std::sync::Arc<TraceSoa>>,
}

/// Equality is over the logical trace (name + records); the lazily built
/// SoA cache is derived data and excluded.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.instructions == other.instructions
            && self.records == other.records
    }
}

impl Eq for Trace {}

impl Trace {
    /// Creates an empty trace with a human-readable name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            records: Vec::new(),
            instructions: 0,
            soa: std::sync::OnceLock::new(),
        }
    }

    /// Creates a trace from pre-built records.
    #[must_use]
    pub fn from_records(name: impl Into<String>, records: Vec<BranchRecord>) -> Self {
        let instructions = records.iter().map(BranchRecord::instructions).sum();
        Self { name: name.into(), records, instructions, soa: std::sync::OnceLock::new() }
    }

    /// The trace name (workload identifier).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one record, invalidating any cached column view.
    pub fn push(&mut self, record: BranchRecord) {
        self.instructions += record.instructions();
        self.records.push(record);
        self.soa.take();
    }

    /// Number of branch records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total retired instructions represented (branches + non-branches).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The records in program order.
    #[must_use]
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// The record storage, for a decode to reuse
    /// ([`crate::io::read_trace_into`]). The name and any column view are
    /// dropped.
    #[must_use]
    pub fn into_records(self) -> Vec<BranchRecord> {
        self.records
    }

    /// Iterates over the records in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchRecord> {
        self.records.iter()
    }

    /// Computes summary statistics (kind mix, static working set, …).
    #[must_use]
    pub fn stats(&self) -> crate::stats::TraceStats {
        crate::stats::TraceStats::from_trace(self)
    }

    /// The structure-of-arrays view of this trace, built on first use and
    /// cached so that every grid cell simulating this trace shares one
    /// build. Mutating the trace ([`Trace::push`]) invalidates the cache.
    #[must_use]
    pub fn soa(&self) -> std::sync::Arc<TraceSoa> {
        std::sync::Arc::clone(
            self.soa.get_or_init(|| std::sync::Arc::new(TraceSoa::from_records(&self.records))),
        )
    }

    /// Heap bytes held by this trace (record storage, the name buffer,
    /// and the SoA column cache when it has been built).
    ///
    /// The sweep engine's trace cache uses this to report how much memory
    /// sharing a trace across grid cells saves versus regenerating it.
    #[must_use]
    pub fn memory_footprint(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<BranchRecord>()
            + self.name.capacity()
            + self.soa.get().map_or(0, |soa| soa.memory_footprint())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = std::slice::Iter<'a, BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl Extend<BranchRecord> for Trace {
    fn extend<T: IntoIterator<Item = BranchRecord>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_u8() {
        for kind in BranchKind::ALL {
            assert_eq!(BranchKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(BranchKind::from_u8(99), None);
    }

    #[test]
    fn kind_classification() {
        assert!(!BranchKind::Conditional.is_unconditional());
        assert!(BranchKind::Return.is_unconditional());
        assert!(BranchKind::Return.is_call_or_return());
        assert!(!BranchKind::DirectJump.is_call_or_return());
        assert!(BranchKind::IndirectCall.is_call_or_return());
    }

    #[test]
    fn trace_counts_instructions() {
        let mut t = Trace::new("t");
        t.push(BranchRecord::conditional(0, 4, false, 9));
        t.push(BranchRecord::conditional(8, 12, true, 0));
        assert_eq!(t.instructions(), 11);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn from_records_matches_push() {
        let records = vec![
            BranchRecord::conditional(0, 4, false, 2),
            BranchRecord::unconditional(8, 100, BranchKind::Return, 1),
        ];
        let a = Trace::from_records("a", records.clone());
        let mut b = Trace::new("b");
        b.extend(records);
        assert_eq!(a.instructions(), b.instructions());
        assert_eq!(a.records(), b.records());
    }

    #[test]
    #[should_panic(expected = "use `conditional`")]
    fn unconditional_ctor_rejects_conditional() {
        let _ = BranchRecord::unconditional(0, 4, BranchKind::Conditional, 0);
    }

    #[test]
    fn record_layout_is_compact() {
        // The packed layout is load-bearing for trace-cache footprint:
        // 5 × u32, alignment 4, no padding. A regression to the naive
        // layout (24 bytes) should fail loudly here.
        assert_eq!(std::mem::size_of::<BranchRecord>(), 20);
        assert_eq!(std::mem::align_of::<BranchRecord>(), 4);
    }

    #[test]
    fn record_fields_roundtrip() {
        let r = BranchRecord::new(
            0xdead_beef_1234_5678,
            0xcafe_f00d_8765_4321,
            BranchKind::IndirectCall,
            true,
            BranchRecord::MAX_NON_BRANCH_INSTS,
        );
        assert_eq!(r.pc(), 0xdead_beef_1234_5678);
        assert_eq!(r.target(), 0xcafe_f00d_8765_4321);
        assert_eq!(r.kind(), BranchKind::IndirectCall);
        assert!(r.taken());
        assert_eq!(r.non_branch_insts(), BranchRecord::MAX_NON_BRANCH_INSTS);
    }

    #[test]
    #[should_panic(expected = "28-bit record field")]
    fn oversized_gap_rejected() {
        let _ = BranchRecord::conditional(0, 4, true, BranchRecord::MAX_NON_BRANCH_INSTS + 1);
    }

    #[test]
    fn soa_columns_mirror_records() {
        let mut t = Trace::new("soa");
        t.push(BranchRecord::conditional(0x1000, 0x1040, true, 3));
        t.push(BranchRecord::unconditional(0x2000, 0x3000, BranchKind::Return, 7));
        let soa = t.soa();
        assert_eq!(soa.len(), t.len());
        for (i, r) in t.iter().enumerate() {
            assert_eq!(soa.pcs()[i], r.pc());
            assert_eq!(soa.metas()[i], r.packed_meta());
            // The packed word decodes to the same logical fields.
            let meta = soa.metas()[i];
            assert_eq!(BranchKind::from_u8((meta & 0x7) as u8), Some(r.kind()));
            assert_eq!(meta & 0x8 != 0, r.taken());
            assert_eq!(u64::from(meta >> 4) + 1, r.instructions());
        }
    }

    #[test]
    fn soa_cache_is_shared_and_invalidated_by_push() {
        let mut t = Trace::new("cache");
        t.push(BranchRecord::conditional(0, 4, true, 1));
        let a = t.soa();
        let b = t.soa();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "repeated soa() calls must share one build");
        t.push(BranchRecord::conditional(8, 12, false, 1));
        let c = t.soa();
        assert_eq!(c.len(), 2, "push must invalidate the cached view");
        // Equality ignores the cache: a clone without a built view
        // compares equal to the original with one.
        let fresh = Trace::from_records(
            "cache",
            vec![
                BranchRecord::conditional(0, 4, true, 1),
                BranchRecord::conditional(8, 12, false, 1),
            ],
        );
        assert_eq!(t, fresh);
    }

    #[test]
    fn memory_footprint_tracks_capacity() {
        let mut t = Trace::new("footprint");
        let before = t.memory_footprint();
        for i in 0..1000 {
            t.push(BranchRecord::conditional(i * 4, i * 4 + 8, true, 1));
        }
        let after = t.memory_footprint();
        assert!(after >= before + 1000 * std::mem::size_of::<BranchRecord>());
    }
}
