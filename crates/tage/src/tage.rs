//! The core TAGE predictor: a bimodal base plus tagged tables indexed by
//! geometrically increasing folded global history.
//!
//! The implementation follows the CBP-5 TAGE-SC-L structure ([Seznec'16]):
//! partial-tag matching with provider/alternate selection, weak-entry
//! `use_alt_on_na` arbitration, usefulness-guided allocation with a global
//! tick-based reset, and folded histories maintained incrementally.
//!
//! Two storage backings are supported (§VI of the paper): realistic finite
//! direct-mapped tables, and the *infinite* study variant where entries
//! carry the full branch PC and associativity is unbounded while hash
//! functions stay identical.

use crate::config::{StorageKind, TageConfig};
use crate::useful::UsefulPatternTracker;
use bputil::counter::{SatCounter, UnsignedCounter};
use bputil::hash::{tage_tag, FastHashMap, IndexCtx};
use bputil::history::{FoldedHistory, HistoryBuffer, PathHistory};
use bputil::rng::SplitMix64;
use llbp_trace::{BranchKind, BranchRecord};

/// Upper bound on tagged tables, sized generously above CBP-5's 30.
pub const MAX_TABLES: usize = 32;

/// One tagged-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    tag: u32,
    ctr: SatCounter,
    useful: UnsignedCounter,
    valid: bool,
}

impl Entry {
    fn empty(counter_bits: u32, useful_bits: u32) -> Self {
        Self {
            tag: 0,
            ctr: SatCounter::new_signed(counter_bits),
            useful: UnsignedCounter::new(useful_bits),
            valid: false,
        }
    }
}

/// One infinite-storage pattern: the owning table and the exact
/// `(index, tag)` pair it was allocated under. The full-PC key (the map
/// key) removes aliasing while the index/tag hashes stay unchanged.
/// Slots for one PC form a singly-linked chain through the arena
/// (`next`, [`NO_SLOT`]-terminated).
#[derive(Debug, Clone)]
struct InfSlot {
    table: u8,
    tag: u32,
    next: u32,
    index: u64,
    entry: Entry,
}

/// Chain terminator for [`InfSlot::next`].
const NO_SLOT: u32 = u32::MAX;

impl InfSlot {
    #[inline]
    fn matches(&self, table: usize, index: u64, tag: u32) -> bool {
        self.table as usize == table && self.index == index && self.tag == tag
    }
}

/// Everything computed during a TAGE lookup, consumed again at update.
///
/// LLBP reads `provider_hist_len` to arbitrate by history length (§V-B).
#[derive(Debug, Clone, Copy)]
pub struct TageLookup {
    /// The PC this lookup was made for.
    pub pc: u64,
    /// Per-table indices (only the first `num_tables` are meaningful).
    pub indices: [u64; MAX_TABLES],
    /// Per-table partial tags.
    pub tags: [u32; MAX_TABLES],
    /// Longest-history matching table, if any.
    pub provider: Option<usize>,
    /// Direction predicted by the provider entry.
    pub provider_pred: bool,
    /// `true` when the provider entry's counter is in a weak state.
    pub provider_weak: bool,
    /// Next-longest matching table (alternate provider).
    pub alt_table: Option<usize>,
    /// Alternate prediction (table or bimodal fallback).
    pub alt_pred: bool,
    /// Bimodal direction for this PC.
    pub bim_pred: bool,
    /// Final TAGE direction after `use_alt_on_na` arbitration.
    pub pred: bool,
    /// Whether the alternate prediction was chosen over a weak provider.
    pub used_alt: bool,
    /// History length of the providing table (0 when bimodal provides or
    /// the alternate was used with no alternate table).
    pub provider_hist_len: usize,
}

/// How a resolved branch should update TAGE state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Normal training.
    Full,
    /// LLBP overrode the prediction: TAGE cancels its update (§V-D).
    Cancelled,
}

/// The core TAGE predictor.
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    // --- histories ---
    ghr: HistoryBuffer,
    path: PathHistory,
    folded_index: Vec<FoldedHistory>,
    folded_tag0: Vec<FoldedHistory>,
    folded_tag1: Vec<FoldedHistory>,
    /// Per-table [`IndexCtx::path_rotation`], fixed by the geometry.
    path_rotation: Vec<u32>,
    // --- storage ---
    bim_dir: Vec<bool>,
    bim_hyst: Vec<bool>,
    tables: Vec<Vec<Entry>>,
    /// Infinite-storage backing, grouped by branch PC: `infinite_head`
    /// maps a PC to the head of its slot chain inside `infinite_arena`.
    /// A prediction costs one hash probe plus a chain walk instead of one
    /// scattered map probe per table — with a flat `(table, index, tag,
    /// pc)`-keyed map the ~`num_tables` random probes per branch dominate
    /// the infinite-variant runs. A single growing arena (rather than a
    /// `Vec` per PC) keeps the allocator out of the hot path and makes
    /// teardown two frees instead of thousands.
    infinite_head: FastHashMap<u64, u32>,
    infinite_arena: Vec<InfSlot>,
    // --- policy state ---
    rng: SplitMix64,
    use_alt_on_na: SatCounter,
    /// Allocation-pressure tick: grows on failed allocations; clearing all
    /// useful bits when saturated (CBP-5's aging).
    tick: u32,
    // --- probes ---
    tracker: Option<UsefulPatternTracker>,
    allocations: u64,
    alloc_failures: u64,
}

impl Tage {
    /// Creates a TAGE predictor from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TageConfig::validate`].
    #[must_use]
    pub fn new(cfg: TageConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid TAGE config: {e}"));
        assert!(cfg.num_tables() <= MAX_TABLES, "too many tables");
        let ghr = HistoryBuffer::new(cfg.max_history() + 64);
        let path = PathHistory::new(cfg.path_bits);
        let folded_index =
            cfg.history_lengths.iter().map(|&l| FoldedHistory::new(l, cfg.index_bits)).collect();
        let folded_tag0 = cfg
            .history_lengths
            .iter()
            .zip(&cfg.tag_bits)
            .map(|(&l, &t)| FoldedHistory::new(l, t))
            .collect();
        let folded_tag1 = cfg
            .history_lengths
            .iter()
            .zip(&cfg.tag_bits)
            .map(|(&l, &t)| FoldedHistory::new(l, (t - 1).max(1)))
            .collect();
        let path_rotation = (0..cfg.num_tables() as u32)
            .map(|t| IndexCtx::path_rotation(t, cfg.index_bits))
            .collect();
        let tables = match cfg.storage {
            StorageKind::Finite => cfg
                .history_lengths
                .iter()
                .map(|_| vec![Entry::empty(cfg.counter_bits, cfg.useful_bits); 1 << cfg.index_bits])
                .collect(),
            StorageKind::Infinite => Vec::new(),
        };
        let tracker = cfg.track_useful.then(UsefulPatternTracker::new);
        let mut use_alt_on_na = SatCounter::new_signed(4);
        use_alt_on_na.set(0);
        Self {
            rng: SplitMix64::new(cfg.seed),
            ghr,
            path,
            folded_index,
            folded_tag0,
            folded_tag1,
            path_rotation,
            bim_dir: vec![false; 1 << cfg.bimodal_bits],
            bim_hyst: vec![true; 1 << (cfg.bimodal_bits - 2)],
            tables,
            infinite_head: FastHashMap::default(),
            infinite_arena: Vec::new(),
            use_alt_on_na,
            tick: 0,
            tracker,
            allocations: 0,
            alloc_failures: 0,
            cfg,
        }
    }

    /// The configuration this instance was built from.
    #[must_use]
    pub fn config(&self) -> &TageConfig {
        &self.cfg
    }

    /// Read-only access to the useful-pattern tracker, when enabled.
    #[must_use]
    pub fn useful_tracker(&self) -> Option<&UsefulPatternTracker> {
        self.tracker.as_ref()
    }

    /// Successful allocations so far.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Failed allocation attempts (no free entry found) so far.
    #[must_use]
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }

    /// Number of live entries in infinite storage (0 for finite storage).
    #[must_use]
    pub fn infinite_entries(&self) -> usize {
        self.infinite_arena.len()
    }

    fn bim_index(&self, pc: u64) -> usize {
        // Hash rather than truncate: plain low bits systematically alias
        // for the strided PC layouts compilers (and our synthetic
        // workloads) produce.
        (bputil::hash::mix64(pc >> 2) as usize) & (self.bim_dir.len() - 1)
    }

    /// Walks `pc`'s slot chain for the slot matching `(table, index, tag)`,
    /// returning its arena position.
    fn find_slot(&self, table: usize, index: u64, tag: u32, pc: u64) -> Option<u32> {
        let mut cur = self.infinite_head.get(&pc).copied().unwrap_or(NO_SLOT);
        while cur != NO_SLOT {
            let s = &self.infinite_arena[cur as usize];
            if s.matches(table, index, tag) {
                return Some(cur);
            }
            cur = s.next;
        }
        None
    }

    fn entry(&self, table: usize, index: u64, tag: u32, pc: u64) -> Option<&Entry> {
        match self.cfg.storage {
            StorageKind::Finite => {
                let e = &self.tables[table][index as usize];
                (e.valid && e.tag == tag).then_some(e)
            }
            StorageKind::Infinite => self
                .find_slot(table, index, tag, pc)
                .map(|i| &self.infinite_arena[i as usize].entry),
        }
    }

    fn entry_mut(&mut self, table: usize, index: u64, tag: u32, pc: u64) -> Option<&mut Entry> {
        match self.cfg.storage {
            StorageKind::Finite => {
                let e = &mut self.tables[table][index as usize];
                (e.valid && e.tag == tag).then_some(e)
            }
            StorageKind::Infinite => self
                .find_slot(table, index, tag, pc)
                .map(|i| &mut self.infinite_arena[i as usize].entry),
        }
    }

    /// Performs a full lookup for the conditional branch at `pc`.
    #[must_use]
    pub fn lookup(&self, pc: u64) -> TageLookup {
        let n = self.cfg.num_tables();
        let mut indices = [0u64; MAX_TABLES];
        let mut tags = [0u32; MAX_TABLES];
        // The PC scramble and path masking are identical for every table;
        // hoist them so the per-table loop only mixes the folded history.
        let idx_ctx = IndexCtx::new(pc, self.path.value(), self.cfg.index_bits);
        for t in 0..n {
            indices[t] =
                idx_ctx.index(self.folded_index[t].value(), t as u32, self.path_rotation[t]);
            tags[t] = tage_tag(
                pc ^ (t as u64).rotate_left(11),
                self.folded_tag0[t].value(),
                self.folded_tag1[t].value(),
                self.cfg.tag_bits[t],
            );
        }

        let bim_pred = self.bim_dir[self.bim_index(pc)];

        // One storage probe per table: the provider's and alternate's
        // counter state is captured during the scan instead of re-probing
        // the winning entries afterwards.
        let mut provider = None;
        let mut provider_state = None;
        let mut alt_table = None;
        let mut alt_state = None;
        match self.cfg.storage {
            StorageKind::Finite => {
                for t in (0..n).rev() {
                    if let Some(e) = self.entry(t, indices[t], tags[t], pc) {
                        if provider.is_none() {
                            provider = Some(t);
                            provider_state = Some((e.ctr.taken(), e.ctr.is_weak()));
                        } else {
                            alt_table = Some(t);
                            alt_state = Some(e.ctr.taken());
                            break;
                        }
                    }
                }
            }
            StorageKind::Infinite => {
                // Infinite storage chains all of this PC's patterns
                // together: a single hash probe plus one chain walk finds
                // the two longest-history matches, instead of one
                // scattered probe per table. At most one slot per table can
                // match the current (index, tag), so tracking the top two
                // table numbers reproduces the reverse scan exactly.
                let mut cur = self.infinite_head.get(&pc).copied().unwrap_or(NO_SLOT);
                while cur != NO_SLOT {
                    let s = &self.infinite_arena[cur as usize];
                    let t = s.table as usize;
                    if t < n && s.matches(t, indices[t], tags[t]) {
                        match provider {
                            None => {
                                provider = Some(t);
                                provider_state = Some((s.entry.ctr.taken(), s.entry.ctr.is_weak()));
                            }
                            Some(p) if t > p => {
                                alt_table = provider;
                                alt_state = provider_state.map(|(taken, _)| taken);
                                provider = Some(t);
                                provider_state = Some((s.entry.ctr.taken(), s.entry.ctr.is_weak()));
                            }
                            Some(_) => {
                                if alt_table.is_none_or(|a| t > a) {
                                    alt_table = Some(t);
                                    alt_state = Some(s.entry.ctr.taken());
                                }
                            }
                        }
                    }
                    cur = s.next;
                }
            }
        }

        let (provider_pred, provider_weak) = provider_state.unwrap_or((bim_pred, false));
        let alt_pred = alt_state.unwrap_or(bim_pred);

        // Newly allocated (weak) providers are statistically unreliable;
        // a global counter learns whether the alternate does better.
        let used_alt = provider.is_some() && provider_weak && self.use_alt_on_na.taken();
        let pred = if provider.is_none() {
            bim_pred
        } else if used_alt {
            alt_pred
        } else {
            provider_pred
        };

        let provider_hist_len = match (used_alt, provider, alt_table) {
            (false, Some(p), _) => self.cfg.history_lengths[p],
            (true, _, Some(a)) => self.cfg.history_lengths[a],
            _ => 0,
        };

        TageLookup {
            pc,
            indices,
            tags,
            provider,
            provider_pred,
            provider_weak,
            alt_table,
            alt_pred,
            bim_pred,
            pred,
            used_alt,
            provider_hist_len,
        }
    }

    /// Trains the predictor with the resolved direction.
    ///
    /// `lookup` must be the value returned by [`Tage::lookup`] for this
    /// same dynamic branch, *before* any intervening history update.
    pub fn commit(&mut self, lookup: &TageLookup, taken: bool, mode: UpdateMode) {
        if mode == UpdateMode::Cancelled {
            return;
        }
        let pc = lookup.pc;

        // 1. Usefulness bookkeeping and the provider counter update share
        //    a single storage probe (a hash-map lookup in infinite mode).
        if let Some(p) = lookup.provider {
            let provider_correct = lookup.provider_pred == taken;
            let alt_differs = lookup.alt_pred != lookup.provider_pred;
            if let Some(e) = self.entry_mut(p, lookup.indices[p], lookup.tags[p], pc) {
                if alt_differs {
                    if provider_correct {
                        e.useful.increment();
                    } else {
                        e.useful.decrement();
                    }
                }
                e.ctr.update(taken);
            }
            if alt_differs {
                if lookup.provider_weak {
                    // Learn whether weak providers should defer to alt.
                    self.use_alt_on_na.update(lookup.alt_pred == taken);
                }
                if provider_correct {
                    if let Some(tr) = &mut self.tracker {
                        tr.record(pc, p as u8, lookup.indices[p], lookup.tags[p]);
                    }
                }
            }

            // 2. The chosen alternate trains too.
            if lookup.used_alt {
                if let Some(a) = lookup.alt_table {
                    if let Some(e) = self.entry_mut(a, lookup.indices[a], lookup.tags[a], pc) {
                        e.ctr.update(taken);
                    }
                } else {
                    self.update_bimodal(pc, taken);
                }
            }
        } else {
            self.update_bimodal(pc, taken);
        }

        // 3. Allocation on a wrong final TAGE prediction.
        if lookup.pred != taken {
            let start = lookup.provider.map_or(0, |p| p + 1);
            if start < self.cfg.num_tables() {
                self.allocate(lookup, taken, start);
            }
        }
    }

    fn update_bimodal(&mut self, pc: u64, taken: bool) {
        let i = self.bim_index(pc);
        let h = i >> 2; // hysteresis shared across 4 direction entries
        if self.bim_dir[i] == taken {
            self.bim_hyst[h] = true;
        } else if self.bim_hyst[h] {
            self.bim_hyst[h] = false;
        } else {
            self.bim_dir[i] = taken;
        }
    }

    fn allocate(&mut self, lookup: &TageLookup, taken: bool, start: usize) {
        let n = self.cfg.num_tables();
        // CBP-style randomised start: skip forward geometrically so twin
        // tables share allocation pressure.
        let mut first = start;
        for _ in 0..2 {
            if first + 1 < n && self.rng.chance(1, 2) {
                first += 1;
            }
        }

        match self.cfg.storage {
            StorageKind::Infinite => {
                // Unbounded storage: always allocate in the first candidate.
                let t = first.min(n - 1);
                let (index, tag) = (lookup.indices[t], lookup.tags[t]);
                let slot = match self.find_slot(t, index, tag, lookup.pc) {
                    Some(i) => i,
                    None => {
                        // Prepend a fresh arena slot to the PC's chain.
                        let i = u32::try_from(self.infinite_arena.len())
                            .expect("infinite arena exceeds u32 indexing");
                        let head = self.infinite_head.entry(lookup.pc).or_insert(NO_SLOT);
                        self.infinite_arena.push(InfSlot {
                            table: t as u8,
                            tag,
                            next: *head,
                            index,
                            entry: Entry::empty(self.cfg.counter_bits, self.cfg.useful_bits),
                        });
                        *head = i;
                        i
                    }
                };
                let e = &mut self.infinite_arena[slot as usize].entry;
                e.valid = true;
                e.tag = tag;
                e.ctr = SatCounter::weak(self.cfg.counter_bits, taken);
                self.allocations += 1;
            }
            StorageKind::Finite => {
                let mut done = false;
                let last = (first + self.cfg.alloc_tries).min(n);
                for t in first..last {
                    let slot = &mut self.tables[t][lookup.indices[t] as usize];
                    if !slot.valid || slot.useful.is_zero() {
                        *slot = Entry {
                            tag: lookup.tags[t],
                            ctr: SatCounter::weak(self.cfg.counter_bits, taken),
                            useful: UnsignedCounter::new(self.cfg.useful_bits),
                            valid: true,
                        };
                        self.allocations += 1;
                        done = true;
                        break;
                    }
                }
                if done {
                    self.tick = self.tick.saturating_sub(1);
                } else {
                    // All candidates useful: age them and bump the global
                    // pressure tick.
                    self.alloc_failures += 1;
                    for t in first..(first + self.cfg.alloc_tries).min(n) {
                        self.tables[t][lookup.indices[t] as usize].useful.decrement();
                    }
                    self.tick += 1;
                    if self.tick >= 1024 {
                        self.reset_useful();
                        self.tick = 0;
                    }
                }
            }
        }
    }

    fn reset_useful(&mut self) {
        for table in &mut self.tables {
            for e in table.iter_mut() {
                e.useful.halve();
            }
        }
    }

    /// The bit a retired branch inserts into global history: conditionals
    /// insert their outcome; unconditional branches insert a
    /// PC/target-derived path bit, which lets long histories encode
    /// calling context.
    fn history_bit(record: &BranchRecord) -> bool {
        if record.kind() == BranchKind::Conditional {
            record.taken()
        } else {
            ((record.pc() >> 2) ^ (record.target() >> 3)) & 1 == 1
        }
    }

    /// Advances global, folded and path histories for a retired branch of
    /// any kind.
    pub fn update_history(&mut self, record: &BranchRecord) {
        let bit = Self::history_bit(record);
        for f in self
            .folded_index
            .iter_mut()
            .chain(self.folded_tag0.iter_mut())
            .chain(self.folded_tag1.iter_mut())
        {
            f.update_before_push(&self.ghr, bit);
        }
        self.ghr.push(bit);
        self.path.push(record.pc() >> 2);
    }

    /// [`Tage::update_history`] restructured for throughput: the index and
    /// both tag folds of table `i` share one window length
    /// (`history_lengths[i]`), so the outgoing GHR bit is read once per
    /// table and applied branch-free via
    /// [`FoldedHistory::update_with_out_bit`]. Bit-identical to the
    /// reference path (pinned by a test below).
    pub fn update_history_fast(&mut self, record: &BranchRecord) {
        let bit = Self::history_bit(record);
        for i in 0..self.folded_index.len() {
            let out = self.ghr.bit(self.folded_index[i].original_len() - 1);
            self.folded_index[i].update_with_out_bit(out, bit);
            self.folded_tag0[i].update_with_out_bit(out, bit);
            self.folded_tag1[i].update_with_out_bit(out, bit);
        }
        self.ghr.push(bit);
        self.path.push(record.pc() >> 2);
    }

    /// The folded tag histories `(tag0, tag1)` of `table`: its history
    /// length folded to `tag_bits[table]` and `tag_bits[table] - 1` bits.
    /// A composed predictor hashing the same length at the same width can
    /// read these instead of advancing a copy of its own.
    #[inline]
    #[must_use]
    pub fn tag_folds(&self, table: usize) -> (u32, u32) {
        (self.folded_tag0[table].value(), self.folded_tag1[table].value())
    }

    /// The global history buffer (exposed for composition and tests).
    #[must_use]
    pub fn ghr(&self) -> &HistoryBuffer {
        &self.ghr
    }

    /// Captures all speculative history state (§V-E2): the GHR, the path
    /// history and every folded register. Table contents are *not*
    /// checkpointed — they are trained at commit, so wrong-path execution
    /// never touches them in this model.
    #[must_use]
    pub fn checkpoint(&self) -> TageCheckpoint {
        TageCheckpoint {
            ghr: self.ghr.checkpoint(),
            path: self.path.value(),
            folded_index: self.folded_index.iter().map(FoldedHistory::value).collect(),
            folded_tag0: self.folded_tag0.iter().map(FoldedHistory::value).collect(),
            folded_tag1: self.folded_tag1.iter().map(FoldedHistory::value).collect(),
        }
    }

    /// Restores a checkpoint taken by [`Tage::checkpoint`], rolling back
    /// all speculative history updates made since.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a differently-configured
    /// predictor.
    pub fn restore(&mut self, checkpoint: &TageCheckpoint) {
        assert_eq!(checkpoint.folded_index.len(), self.folded_index.len(), "config mismatch");
        self.ghr.restore(&checkpoint.ghr);
        self.path.restore(checkpoint.path);
        for (f, &v) in self.folded_index.iter_mut().zip(&checkpoint.folded_index) {
            f.restore(v);
        }
        for (f, &v) in self.folded_tag0.iter_mut().zip(&checkpoint.folded_tag0) {
            f.restore(v);
        }
        for (f, &v) in self.folded_tag1.iter_mut().zip(&checkpoint.folded_tag1) {
            f.restore(v);
        }
    }
}

/// A snapshot of TAGE's speculative history state (§V-E2 rollback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageCheckpoint {
    ghr: bputil::history::HistoryCheckpoint,
    path: u64,
    folded_index: Vec<u32>,
    folded_tag0: Vec<u32>,
    folded_tag1: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TageConfig;

    fn small_cfg() -> TageConfig {
        TageConfig {
            history_lengths: vec![4, 8, 16, 32],
            tag_bits: vec![9, 9, 11, 11],
            index_bits: 7,
            bimodal_bits: 8,
            ..TageConfig::cbp64k()
        }
    }

    fn drive(tage: &mut Tage, pc: u64, taken: bool) -> bool {
        let l = tage.lookup(pc);
        tage.commit(&l, taken, UpdateMode::Full);
        tage.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 0));
        l.pred
    }

    #[test]
    fn learns_a_constant_branch() {
        let mut t = Tage::new(small_cfg());
        let mut wrong = 0;
        for _ in 0..200 {
            if !drive(&mut t, 0x1000, true) {
                wrong += 1;
            }
        }
        assert!(wrong < 10, "{wrong} mispredicts on an always-taken branch");
    }

    #[test]
    fn learns_a_short_pattern() {
        let mut t = Tage::new(small_cfg());
        let pattern = [true, true, false];
        let mut wrong_late = 0;
        for i in 0..3000 {
            let taken = pattern[i % 3];
            let pred = drive(&mut t, 0x2000, taken);
            if i > 2000 && pred != taken {
                wrong_late += 1;
            }
        }
        assert!(wrong_late < 50, "{wrong_late} late mispredicts on a period-3 pattern");
    }

    #[test]
    fn learns_history_correlation() {
        // Branch B's outcome equals branch A's previous outcome: pure
        // global-history correlation the bimodal cannot capture.
        let mut t = Tage::new(small_cfg());
        let mut rng = SplitMix64::new(5);
        let mut last_a = false;
        let mut wrong_late = 0;
        for i in 0..4000 {
            let a_taken = rng.chance(1, 2);
            drive(&mut t, 0xA000, a_taken);
            let b_taken = last_a;
            let pred = drive(&mut t, 0xB000, b_taken);
            if i > 3000 && pred != b_taken {
                wrong_late += 1;
            }
            last_a = a_taken;
        }
        assert!(wrong_late < 100, "{wrong_late} late mispredicts on correlated branch");
    }

    #[test]
    fn cancelled_update_freezes_state() {
        let mut t = Tage::new(small_cfg());
        for _ in 0..100 {
            drive(&mut t, 0x3000, true);
        }
        let before = t.allocations();
        // A mispredicted branch with a cancelled update must not allocate.
        let l = t.lookup(0x3000);
        t.commit(&l, !l.pred, UpdateMode::Cancelled);
        assert_eq!(t.allocations(), before);
    }

    #[test]
    fn infinite_storage_grows_without_eviction() {
        let mut cfg = small_cfg();
        cfg.storage = StorageKind::Infinite;
        let mut t = Tage::new(cfg);
        let mut rng = SplitMix64::new(9);
        for i in 0..3000 {
            let pc = 0x1000 + (i % 64) * 16;
            drive(&mut t, pc, rng.chance(1, 2));
        }
        assert!(t.infinite_entries() > 100);
        assert_eq!(t.alloc_failures(), 0, "infinite storage never fails to allocate");
    }

    #[test]
    fn infinite_beats_finite_on_capacity_stress() {
        // Many branches each needing its own pattern: a tiny finite TAGE
        // thrashes; infinite does not.
        let run = |storage: StorageKind| -> u64 {
            let mut cfg = small_cfg();
            cfg.index_bits = 4; // deliberately tiny
            cfg.storage = storage;
            let mut t = Tage::new(cfg);
            let mut rng = SplitMix64::new(7);
            let mut mispredicts = 0;
            // Each branch alternates with its own period in 2..6.
            let mut phase = vec![0usize; 48];
            for i in 0..30_000 {
                let b = (rng.next_u64() % 48) as usize;
                let pc = 0x4000 + (b as u64) * 64;
                let period = 2 + b % 5;
                let taken = phase[b].is_multiple_of(period);
                phase[b] += 1;
                let l = t.lookup(pc);
                if i > 10_000 && l.pred != taken {
                    mispredicts += 1;
                }
                t.commit(&l, taken, UpdateMode::Full);
                t.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 0));
            }
            mispredicts
        };
        let finite = run(StorageKind::Finite);
        let infinite = run(StorageKind::Infinite);
        assert!(
            infinite < finite,
            "infinite ({infinite}) should beat finite ({finite}) under capacity stress"
        );
    }

    #[test]
    fn useful_tracking_records_patterns() {
        let mut cfg = small_cfg();
        cfg.track_useful = true;
        let mut t = Tage::new(cfg);
        let mut rng = SplitMix64::new(11);
        let mut last = false;
        for _ in 0..4000 {
            let a = rng.chance(1, 2);
            drive(&mut t, 0xA00, a);
            drive(&mut t, 0xB00, last);
            last = a;
        }
        let tracker = t.useful_tracker().expect("tracking enabled");
        assert!(tracker.total_patterns() > 0, "some patterns must be useful");
    }

    #[test]
    fn lookup_is_pure() {
        let t = Tage::new(small_cfg());
        let a = t.lookup(0x1234);
        let b = t.lookup(0x1234);
        assert_eq!(a.pred, b.pred);
        assert_eq!(a.indices[..4], b.indices[..4]);
    }
}
