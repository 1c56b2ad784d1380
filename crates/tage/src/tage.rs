//! The core TAGE predictor: a bimodal base plus tagged tables indexed by
//! geometrically increasing folded global history.
//!
//! The implementation follows the CBP-5 TAGE-SC-L structure ([Seznec'16]):
//! partial-tag matching with provider/alternate selection, weak-entry
//! `use_alt_on_na` arbitration, usefulness-guided allocation with a global
//! tick-based reset, and folded histories maintained incrementally.
//!
//! The histories, folded ones included, and the per-table index and tag
//! hashes live in a [`TageHistory`]: its fold bank and hash lanes
//! (`bputil::kernel`) are each one loop over all registers or tables, run
//! as AVX-512 where the CPU has it. A statistical corrector built on this
//! TAGE registers its folds and hashes in the same bank and loop, and a
//! composed predictor its folds and pattern tags.
//!
//! Two storage backings are supported (§VI of the paper): realistic finite
//! direct-mapped tables, and the *infinite* study variant where entries
//! carry the full branch PC and associativity is unbounded while hash
//! functions stay identical.

use crate::config::{StorageKind, TageConfig};
use crate::history::TageHistory;
use crate::pool::TablePool;
use crate::useful::UsefulPatternTracker;
use bputil::counter::{CounterWidth, SatCounter};
use bputil::hash::FastHashMap;
use bputil::history::HistoryBuffer;
use bputil::kernel::{FoldBank, HashLanes, LaneHashes, HASH_LANES, MAX_LANES};
use bputil::rng::SplitMix64;
use llbp_trace::BranchRecord;

/// Upper bound on tagged tables, sized generously above CBP-5's 30.
pub const MAX_TABLES: usize = 32;

/// Hash lanes beyond TAGE's own index and tag lanes that the statistical
/// corrector may use: its bias (twice, one per TAGE direction) and up to
/// 15 component lanes. Composed predictors add theirs after these, up to
/// [`MAX_LANES`] in all.
pub(crate) const MAX_SIDE_LANES: usize = 17;

const _: () = assert!(2 * MAX_TABLES + MAX_SIDE_LANES <= MAX_LANES);

/// One tagged-table entry: bare counter values whose widths
/// (`TageConfig::counter_bits`, `useful_bits`) live once on [`Tage`].
/// [`TageConfig::validate`] keeps every width within these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    tag: u16,
    /// Signed prediction counter, [`Tage::ctr_width`] wide.
    ctr: i8,
    /// Unsigned usefulness counter in `0..=Tage::useful_max`.
    useful: u8,
    valid: bool,
}

impl Entry {
    /// An invalid entry; its zeroed counters are the fresh states of
    /// `SatCounter::new_signed` and `UnsignedCounter::new`.
    pub(crate) const EMPTY: Self = Self { tag: 0, ctr: 0, useful: 0, valid: false };

    /// A freshly allocated entry for `tag`, weak towards `taken`.
    fn allocated(tag: u32, taken: bool) -> Self {
        let tag = u16::try_from(tag).expect("tag widths are validated to at most 16 bits");
        Self { tag, ctr: CounterWidth::weak(taken), useful: 0, valid: true }
    }
}

/// One infinite-storage pattern: the owning table and the exact
/// `(index, tag)` pair it was allocated under (the tag is the entry's).
/// The full-PC key (the run map's key) removes aliasing while the
/// index/tag hashes stay unchanged. A PC's slots sit side by side in the
/// arena, in the [`Run`] the map holds for it.
#[derive(Debug, Clone)]
pub(crate) struct InfSlot {
    /// Table index; [`TageConfig::validate`] caps `index_bits` at 30.
    index: u32,
    table: u8,
    entry: Entry,
}

// The layouts the storage sizes in DESIGN.md §15 rely on.
const _: () = assert!(std::mem::size_of::<Entry>() <= 8);
const _: () = assert!(std::mem::size_of::<InfSlot>() <= 12);

impl InfSlot {
    /// Fills the room a run has not used yet; no lookup reads it.
    const UNUSED: Self = Self { index: 0, table: u8::MAX, entry: Entry::EMPTY };

    #[inline]
    fn matches(&self, table: usize, index: u64, tag: u32) -> bool {
        usize::from(self.table) == table
            && u64::from(self.index) == index
            && u32::from(self.entry.tag) == tag
    }
}

/// Where one PC's slots live in the arena: `len` slots from `start`, with
/// room for `cap` before the next run begins.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

impl Run {
    /// The arena positions of the run's slots.
    #[inline]
    fn slots(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The room a PC's first slot gets; a full run moves with twice its room.
/// Of 1, 2 and 4, a first room of 2 leaves the arena shortest over the
/// quick traces (DESIGN.md §15).
const FIRST_RUN_ROOM: u32 = 2;

/// Everything computed during a TAGE lookup, consumed again at update.
///
/// LLBP reads `provider_hist_len` to arbitrate by history length (§V-B).
/// The hash loop writes every lane straight into the lookup
/// ([`Tage::hash_into`]); [`TageLookup::index`] and [`TageLookup::tag`]
/// read a table's hashes where the loop left them.
#[derive(Debug, Clone, Copy)]
pub struct TageLookup {
    /// The PC this lookup was made for.
    pub pc: u64,
    /// Every lane's hash in lane order: the tables' indices, their tags,
    /// then the side lanes ([`TageHistory::push_side_lane`]: the
    /// statistical corrector's component indices, a composed predictor's
    /// pattern tags), in push order.
    hashes: LaneHashes,
    /// The tagged tables: where the tag lanes start in `hashes`.
    tables: usize,
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
    /// Infinite storage: the positions of the provider and alternate
    /// entries within the PC's run, so `commit` updates them without
    /// scanning the run again. A run that moves keeps its order, so an
    /// offset stays valid.
    provider_slot: u32,
    alt_slot: u32,
    /// Infinite storage: where the PC's run started at the lookup.
    run_start: u32,
    /// Infinite storage: the live slot count this lookup saw. While it is
    /// unchanged no slot was allocated since, so no run has moved and
    /// `allocate` needs no search for an existing slot.
    live_slots: u32,
}

impl TageLookup {
    /// A lookup of nothing, for a caller to look up into.
    pub(crate) const EMPTY: Self = Self {
        pc: 0,
        hashes: [0; MAX_LANES],
        tables: 0,
        provider: None,
        provider_pred: false,
        provider_weak: false,
        alt_table: None,
        alt_pred: false,
        bim_pred: false,
        pred: false,
        used_alt: false,
        provider_hist_len: 0,
        provider_slot: 0,
        alt_slot: 0,
        run_start: 0,
        live_slots: 0,
    };

    /// The index of tagged table `table`.
    #[inline]
    #[must_use]
    pub fn index(&self, table: usize) -> u64 {
        debug_assert!(table < self.tables, "table {table} of {}", self.tables);
        u64::from(self.hashes[table])
    }

    /// The partial tag of tagged table `table`.
    #[inline]
    #[must_use]
    pub fn tag(&self, table: usize) -> u32 {
        debug_assert!(table < self.tables, "table {table} of {}", self.tables);
        self.hashes[self.tables + table]
    }

    /// The hashes of the side lanes ([`TageHistory::push_side_lane`]), in
    /// push order (entries past them are unspecified).
    #[inline]
    #[must_use]
    pub fn side(&self) -> &[u32] {
        &self.hashes[2 * self.tables..]
    }
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
    // --- the configuration lookups and updates read ---
    num_tables: usize,
    /// History length of each table; the first `num_tables` are used.
    history_lengths: [usize; MAX_TABLES],
    /// log2 entries per tagged table.
    index_bits: u32,
    storage: StorageKind,
    /// Tables tried per allocation.
    alloc_tries: usize,
    // --- histories and the hash lanes over them ---
    history: TageHistory,
    // --- storage ---
    bim_dir: Vec<bool>,
    bim_hyst: Vec<bool>,
    /// Every finite tagged table in one block: entry `i` of table `t` at
    /// [`Tage::slot`]`(t, i)`, `(t << index_bits) + i`. Empty for
    /// infinite storage.
    tables: Vec<Entry>,
    /// Width of every entry's prediction counter.
    ctr_width: CounterWidth,
    /// Saturation value of every entry's usefulness counter.
    useful_max: u8,
    /// Infinite-storage backing, grouped by branch PC: `infinite_runs`
    /// maps a PC to the [`Run`] of its slots inside `infinite_arena`. A
    /// prediction costs one hash probe plus a scan of contiguous slots,
    /// instead of one scattered map probe per table (with a flat `(table,
    /// index, tag, pc)`-keyed map the ~`num_tables` random probes per
    /// branch dominate the infinite-variant runs) or a walk of dependent
    /// loads (a linked chain per PC). A full run moves to the arena's end
    /// with twice the room and leaves its old room unused. A single
    /// growing arena (rather than a `Vec` per PC) keeps the allocator out
    /// of the hot path and makes teardown two frees instead of thousands.
    /// Both come from a [`TablePool`] and go back to it
    /// ([`Tage::into_pool`]).
    infinite_runs: FastHashMap<u64, Run>,
    infinite_arena: Vec<InfSlot>,
    /// Slots allocated in all runs: the arena also holds runs' unused room.
    infinite_live: u32,
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
        Self::with_pool(&cfg, &mut TablePool::new())
    }

    /// [`Tage::new`] on `pool`'s tables: the finite table block, the
    /// bimodal tables, the history buffer, the fold bank and the hash
    /// lanes, reset, and for infinite storage the arena and run map
    /// (cleared, capacity kept). Keeps only the scalars and table lengths
    /// of `cfg` it reads.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TageConfig::validate`].
    #[must_use]
    pub(crate) fn with_pool(cfg: &TageConfig, pool: &mut TablePool) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid TAGE config: {e}"));
        let num_tables = cfg.num_tables();
        assert!(num_tables <= MAX_TABLES, "too many tables");
        let mut history_lengths = [0; MAX_TABLES];
        history_lengths[..num_tables].copy_from_slice(&cfg.history_lengths);
        let history = TageHistory::with_pool(cfg, pool);
        let (tables, (infinite_runs, infinite_arena)) = match cfg.storage {
            StorageKind::Finite => {
                (pool.tage_table(num_tables << cfg.index_bits), Default::default())
            }
            StorageKind::Infinite => (Vec::new(), pool.take_infinite()),
        };
        let tracker = cfg.track_useful.then(UsefulPatternTracker::new);
        let mut use_alt_on_na = SatCounter::new_signed(4);
        use_alt_on_na.set(0);
        Self {
            rng: SplitMix64::new(cfg.seed),
            history,
            bim_dir: pool.bimodal_table(1 << cfg.bimodal_bits, false),
            bim_hyst: pool.bimodal_table(1 << (cfg.bimodal_bits - 2), true),
            tables,
            ctr_width: CounterWidth::signed(cfg.counter_bits),
            useful_max: u8::MAX >> (u8::BITS - cfg.useful_bits),
            infinite_runs,
            infinite_arena,
            infinite_live: 0,
            use_alt_on_na,
            tick: 0,
            tracker,
            allocations: 0,
            alloc_failures: 0,
            num_tables,
            history_lengths,
            index_bits: cfg.index_bits,
            storage: cfg.storage,
            alloc_tries: cfg.alloc_tries,
        }
    }

    /// Hands the tables [`Tage::with_pool`] takes to `pool`, for the next
    /// predictor built on it.
    pub(crate) fn into_pool(self, pool: &mut TablePool) {
        if self.storage == StorageKind::Infinite {
            pool.put_infinite(self.infinite_runs, self.infinite_arena);
        }
        pool.put_tage(self.tables, [self.bim_dir, self.bim_hyst]);
        self.history.into_pool(pool);
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

    /// The registers of every folded history this TAGE advances.
    #[must_use]
    pub fn fold_bank(&self) -> &FoldBank {
        self.history.bank()
    }

    /// The per-lookup hash lanes: the index lanes of tables `0..n`, their
    /// tag lanes, then the side lanes.
    #[must_use]
    pub fn hash_lanes(&self) -> &HashLanes {
        self.history.lanes()
    }

    /// The histories and hash lanes this TAGE reads.
    #[must_use]
    pub fn history(&self) -> &TageHistory {
        &self.history
    }

    /// The histories and hash lanes, for a composed predictor that
    /// registers folds and side lanes of its own.
    pub fn history_mut(&mut self) -> &mut TageHistory {
        &mut self.history
    }

    /// Number of live entries in infinite storage (0 for finite storage).
    #[must_use]
    pub fn infinite_entries(&self) -> usize {
        self.infinite_live as usize
    }

    fn bim_index(&self, pc: u64) -> usize {
        // Hash rather than truncate: plain low bits systematically alias
        // for the strided PC layouts compilers (and our synthetic
        // workloads) produce.
        (bputil::hash::mix64(pc >> 2) as usize) & (self.bim_dir.len() - 1)
    }

    /// Scans `pc`'s run for the slot matching `(table, index, tag)`,
    /// returning its arena position.
    fn find_slot(&self, table: usize, index: u64, tag: u32, pc: u64) -> Option<usize> {
        let run = self.infinite_runs.get(&pc)?;
        let slots = run.slots();
        let found =
            self.infinite_arena[slots.clone()].iter().position(|s| s.matches(table, index, tag));
        found.map(|at| slots.start + at)
    }

    /// Where `lookup`'s PC run starts now: the start the lookup saw, unless
    /// a slot was allocated since, which may have moved the run.
    fn run_start(&self, lookup: &TageLookup) -> u32 {
        if self.infinite_live == lookup.live_slots {
            lookup.run_start
        } else {
            self.infinite_runs[&lookup.pc].start
        }
    }

    /// Appends `slot` to `pc`'s run. A full run (a new PC's has no room)
    /// first moves to the arena's end with twice its room; the room it
    /// moves out of stays unused.
    fn push_slot(&mut self, pc: u64, slot: InfSlot) {
        let arena = &mut self.infinite_arena;
        let run = self.infinite_runs.entry(pc).or_insert(Run { start: 0, len: 0, cap: 0 });
        if run.len == run.cap {
            const TOO_LONG: &str = "infinite arena exceeds u32 indexing";
            let start = u32::try_from(arena.len()).expect(TOO_LONG);
            let cap = run.cap.checked_mul(2).expect(TOO_LONG).max(FIRST_RUN_ROOM);
            let end = start.checked_add(cap).expect(TOO_LONG);
            arena.extend_from_within(run.slots());
            arena.resize(end as usize, InfSlot::UNUSED);
            (run.start, run.cap) = (start, cap);
        }
        arena[(run.start + run.len) as usize] = slot;
        run.len += 1;
        self.infinite_live += 1;
    }

    /// The position of entry `index` of finite table `table` in the
    /// block of all tables.
    #[inline]
    fn slot(&self, table: usize, index: u64) -> usize {
        (table << self.index_bits) + index as usize
    }

    /// The finite-table entry at `(table, index)` when it holds `tag`.
    fn finite_entry(&self, table: usize, index: u64, tag: u32) -> Option<&Entry> {
        let e = &self.tables[self.slot(table, index)];
        (e.valid && u32::from(e.tag) == tag).then_some(e)
    }

    /// The entry `lookup` found in `table`, at position `slot` of the PC's
    /// run in infinite storage. A finite entry is re-checked, since a
    /// commit since the lookup may have replaced it. Slots are never
    /// removed or re-keyed, and a moved run keeps its order, so an infinite
    /// one still holds the entry found.
    fn found_entry_mut(
        &mut self,
        lookup: &TageLookup,
        table: usize,
        slot: u32,
    ) -> Option<&mut Entry> {
        match self.storage {
            StorageKind::Finite => {
                let at = self.slot(table, lookup.index(table));
                let e = &mut self.tables[at];
                (e.valid && u32::from(e.tag) == lookup.tag(table)).then_some(e)
            }
            StorageKind::Infinite => {
                let at = self.run_start(lookup) + slot;
                Some(&mut self.infinite_arena[at as usize].entry)
            }
        }
    }

    /// Performs a full lookup for the conditional branch at `pc`: the
    /// by-value form of [`Tage::hash_into`] then [`Tage::probe`].
    #[must_use]
    pub fn lookup(&self, pc: u64) -> TageLookup {
        let mut lookup = TageLookup::EMPTY;
        self.hash_into(pc, &mut lookup);
        self.probe(&mut lookup);
        lookup
    }

    /// The first stage of a lookup, in place: every lane's hash for `pc`
    /// (the tables' indices and tags and the side lanes), written by the
    /// hash loop straight into `lookup`. What the previous lookup found
    /// stays until [`Tage::probe`] overwrites it.
    #[inline]
    pub(crate) fn hash_into(&self, pc: u64, lookup: &mut TageLookup) {
        self.history.hash(pc, &mut lookup.hashes);
        self.begin_lookup(pc, lookup);
    }

    /// [`Tage::hash_into`] from hashes a shared [`TageHistory`] of this
    /// TAGE's geometry computed for `pc`: `hashes` holds at least this
    /// TAGE's own lanes, in its lane order, and the lookup copies them.
    #[inline]
    pub(crate) fn take_hashes(&self, pc: u64, hashes: &[u32], lookup: &mut TageLookup) {
        let chunks = self.history.lanes().len().div_ceil(HASH_LANES);
        let (from, _) = hashes.as_chunks::<HASH_LANES>();
        let (to, _) = lookup.hashes.as_chunks_mut::<HASH_LANES>();
        for (to, from) in to.iter_mut().zip(&from[..chunks]) {
            *to = *from;
        }
        self.begin_lookup(pc, lookup);
    }

    /// The fields of a lookup its hashes do not fill.
    #[inline]
    fn begin_lookup(&self, pc: u64, lookup: &mut TageLookup) {
        lookup.pc = pc;
        lookup.tables = self.num_tables;
        lookup.live_slots = self.infinite_live;
    }

    /// The second stage of a lookup, in place: probes the bimodal table
    /// and the tagged storage under the hashes of [`Tage::hash_into`] and
    /// arbitrates the direction, overwriting every result field.
    #[inline]
    pub(crate) fn probe(&self, lookup: &mut TageLookup) {
        let n = self.num_tables;
        let pc = lookup.pc;
        let bim_pred = self.bim_dir[self.bim_index(pc)];

        // One storage probe per table: the provider's and alternate's
        // counter state is captured during the scan instead of re-probing
        // the winning entries afterwards.
        let mut provider = None;
        let mut provider_state = None;
        let mut alt_table = None;
        let mut alt_state = None;
        let mut provider_slot = 0;
        let mut alt_slot = 0;
        let mut run_start = 0;
        match self.storage {
            StorageKind::Finite => {
                for t in (0..n).rev() {
                    if let Some(e) = self.finite_entry(t, lookup.index(t), lookup.tag(t)) {
                        if provider.is_none() {
                            provider = Some(t);
                            provider_state =
                                Some((CounterWidth::taken(e.ctr), CounterWidth::is_weak(e.ctr)));
                        } else {
                            alt_table = Some(t);
                            alt_state = Some(CounterWidth::taken(e.ctr));
                            break;
                        }
                    }
                }
            }
            StorageKind::Infinite => {
                // Infinite storage keeps all of this PC's patterns in one
                // run: a single hash probe plus one scan of contiguous
                // slots finds the two longest-history matches, instead of
                // one scattered probe per table. At most one slot per table
                // can match the current (index, tag), so tracking the top
                // two table numbers reproduces the reverse scan exactly.
                if let Some(&run) = self.infinite_runs.get(&pc) {
                    run_start = run.start;
                    for (at, s) in (0..).zip(&self.infinite_arena[run.slots()]) {
                        let t = usize::from(s.table);
                        if t < n && s.matches(t, lookup.index(t), lookup.tag(t)) {
                            let ctr = s.entry.ctr;
                            let state = (CounterWidth::taken(ctr), CounterWidth::is_weak(ctr));
                            match provider {
                                None => {
                                    provider = Some(t);
                                    provider_state = Some(state);
                                    provider_slot = at;
                                }
                                Some(p) if t > p => {
                                    alt_table = provider;
                                    alt_state = provider_state.map(|(taken, _)| taken);
                                    alt_slot = provider_slot;
                                    provider = Some(t);
                                    provider_state = Some(state);
                                    provider_slot = at;
                                }
                                Some(_) => {
                                    if alt_table.is_none_or(|a| t > a) {
                                        alt_table = Some(t);
                                        alt_state = Some(state.0);
                                        alt_slot = at;
                                    }
                                }
                            }
                        }
                    }
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
            (false, Some(p), _) => self.history_lengths[p],
            (true, _, Some(a)) => self.history_lengths[a],
            _ => 0,
        };

        lookup.provider = provider;
        lookup.provider_pred = provider_pred;
        lookup.provider_weak = provider_weak;
        lookup.alt_table = alt_table;
        lookup.alt_pred = alt_pred;
        lookup.bim_pred = bim_pred;
        lookup.pred = pred;
        lookup.used_alt = used_alt;
        lookup.provider_hist_len = provider_hist_len;
        lookup.provider_slot = provider_slot;
        lookup.alt_slot = alt_slot;
        lookup.run_start = run_start;
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
        //    a single storage access (the lookup's slot in infinite mode).
        if let Some(p) = lookup.provider {
            let provider_correct = lookup.provider_pred == taken;
            let alt_differs = lookup.alt_pred != lookup.provider_pred;
            let (ctr_width, useful_max) = (self.ctr_width, self.useful_max);
            if let Some(e) = self.found_entry_mut(lookup, p, lookup.provider_slot) {
                if alt_differs {
                    e.useful = if provider_correct {
                        e.useful.saturating_add(1).min(useful_max)
                    } else {
                        e.useful.saturating_sub(1)
                    };
                }
                ctr_width.update(&mut e.ctr, taken);
            }
            if alt_differs {
                if lookup.provider_weak {
                    // Learn whether weak providers should defer to alt.
                    self.use_alt_on_na.update(lookup.alt_pred == taken);
                }
                if provider_correct {
                    if let Some(tr) = &mut self.tracker {
                        tr.record(pc, p as u8, lookup.index(p), lookup.tag(p));
                    }
                }
            }

            // 2. The chosen alternate trains too.
            if lookup.used_alt {
                if let Some(a) = lookup.alt_table {
                    if let Some(e) = self.found_entry_mut(lookup, a, lookup.alt_slot) {
                        ctr_width.update(&mut e.ctr, taken);
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
            if start < self.num_tables {
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
        let n = self.num_tables;
        // CBP-style randomised start: skip forward geometrically so twin
        // tables share allocation pressure.
        let mut first = start;
        for _ in 0..2 {
            if first + 1 < n && self.rng.chance(1, 2) {
                first += 1;
            }
        }

        match self.storage {
            StorageKind::Infinite => {
                // Unbounded storage: always allocate in the first candidate.
                let t = first.min(n - 1);
                let (index, tag) = (lookup.index(t), lookup.tag(t));
                // `t` lies above the provider, so a slot matching
                // `(t, index, tag)` when the lookup scanned the run would
                // have been the provider: there was none. Only a slot
                // pushed since then (by a commit of another lookup of this
                // PC, taken before this one committed) can match.
                let existing = if self.infinite_live == lookup.live_slots {
                    None
                } else {
                    self.find_slot(t, index, tag, lookup.pc)
                };
                match existing {
                    Some(at) => {
                        let e = &mut self.infinite_arena[at].entry;
                        e.valid = true;
                        e.ctr = CounterWidth::weak(taken);
                    }
                    None => self.push_slot(
                        lookup.pc,
                        InfSlot {
                            index: u32::try_from(index)
                                .expect("index widths are validated to at most 30 bits"),
                            table: u8::try_from(t).expect("table numbers fit a u8"),
                            entry: Entry::allocated(tag, taken),
                        },
                    ),
                }
                self.allocations += 1;
            }
            StorageKind::Finite => {
                let mut done = false;
                let last = (first + self.alloc_tries).min(n);
                for t in first..last {
                    let at = self.slot(t, lookup.index(t));
                    let slot = &mut self.tables[at];
                    if !slot.valid || slot.useful == 0 {
                        *slot = Entry::allocated(lookup.tag(t), taken);
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
                    for t in first..(first + self.alloc_tries).min(n) {
                        let at = self.slot(t, lookup.index(t));
                        let useful = &mut self.tables[at].useful;
                        *useful = useful.saturating_sub(1);
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
        for e in &mut self.tables {
            e.useful >>= 1;
        }
    }

    /// Advances global, folded and path histories for a retired branch of
    /// any kind. Every register of the bank, the registered ones included,
    /// advances by its own `FoldedHistory::update_before_push`: the
    /// reference rule.
    pub fn update_history(&mut self, record: &BranchRecord) {
        self.history.advance_reference(record);
    }

    /// [`Tage::update_history`] through the bank's branch-free loop
    /// ([`FoldBank::advance`]): one outgoing-bit read per distinct length.
    /// Bit-identical to the reference path.
    pub fn update_history_fast(&mut self, record: &BranchRecord) {
        self.history.advance(record);
    }

    /// The global history buffer (exposed for composition and tests).
    #[must_use]
    pub fn ghr(&self) -> &HistoryBuffer {
        self.history.ghr()
    }

    /// Captures all speculative history state (§V-E2): the GHR, the path
    /// history and every folded register. Table contents are *not*
    /// checkpointed — they are trained at commit, so wrong-path execution
    /// never touches them in this model.
    #[must_use]
    pub fn checkpoint(&self) -> TageCheckpoint {
        self.history.checkpoint()
    }

    /// Restores a checkpoint taken by [`Tage::checkpoint`], rolling back
    /// all speculative history updates made since.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a differently-configured
    /// predictor.
    pub fn restore(&mut self, checkpoint: &TageCheckpoint) {
        self.history.restore(checkpoint);
    }
}

/// A snapshot of TAGE's speculative history state (§V-E2 rollback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageCheckpoint {
    pub(crate) ghr: bputil::history::HistoryCheckpoint,
    pub(crate) path: u64,
    /// Every register of the bank, in register order.
    pub(crate) folds: Vec<u32>,
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
    fn stale_infinite_lookups_never_duplicate_a_slot() {
        // Lookup A, lookup B of the same branch, commit A, commit B: when
        // both mispredict, commit A may push the very slot commit B then
        // allocates. B's lookup predates that push, so `allocate` has to
        // search the run instead of trusting the lookup.
        let mut cfg = small_cfg();
        cfg.storage = StorageKind::Infinite;
        let mut t = Tage::new(cfg);
        let mut rng = SplitMix64::new(13);
        for _ in 0..4000 {
            let pc = 0x1000 + rng.below(16) * 16;
            let taken = rng.chance(1, 2);
            let a = t.lookup(pc);
            let b = t.lookup(pc);
            t.commit(&a, taken, UpdateMode::Full);
            t.commit(&b, taken, UpdateMode::Full);
            t.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 0));
        }
        let mut keys = std::collections::HashSet::new();
        let mut rooms = Vec::new();
        for (&pc, &run) in &t.infinite_runs {
            let end = run.start as usize + run.cap as usize;
            assert!(run.len <= run.cap && end <= t.infinite_arena.len(), "{run:?} lies outside");
            rooms.push(run.start as usize..end);
            for s in &t.infinite_arena[run.slots()] {
                let key = (pc, s.table, s.index, s.entry.tag);
                assert!(keys.insert(key), "slot {key:?} appears twice in the arena");
            }
        }
        rooms.sort_unstable_by_key(|room| room.start);
        for pair in rooms.windows(2) {
            assert!(pair[0].end <= pair[1].start, "runs {pair:?} overlap");
        }
        let live: usize = t.infinite_runs.values().map(|run| run.len as usize).sum();
        assert_eq!(t.infinite_entries(), live, "infinite_entries() counts every run's slots");
        assert_eq!(keys.len(), live);
        assert!(t.infinite_entries() > 100);
        assert_eq!(t.alloc_failures(), 0);
    }

    #[test]
    fn a_commit_trains_the_slot_of_a_run_that_moved_since_its_lookup() {
        // Lookups A and B of one branch whose run is full and which has a
        // provider below the last table. B's commit mispredicts and pushes
        // a slot into the run, which moves it to the arena's end; A's
        // commit must then train A's provider at its new position.
        let mut cfg = small_cfg();
        cfg.storage = StorageKind::Infinite;
        let n = cfg.num_tables();
        let mut t = Tage::new(cfg);
        let mut rng = SplitMix64::new(17);
        for _ in 0..20_000 {
            let pc = 0x1000 + rng.below(4) * 16;
            let a = t.lookup(pc);
            let full = t.infinite_runs.get(&pc).is_some_and(|run| run.len == run.cap);
            let allocates_above = a.provider.is_some_and(|p| p + 1 < n);
            if !(full && allocates_above) {
                let taken = rng.chance(1, 2);
                t.commit(&a, taken, UpdateMode::Full);
                t.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 0));
                continue;
            }
            let b = t.lookup(pc);
            t.commit(&b, !b.pred, UpdateMode::Full);
            let moved = t.infinite_runs[&pc].start;
            assert_ne!(moved, a.run_start, "B's allocation moves the full run");
            let at = (moved + a.provider_slot) as usize;
            let before = t.infinite_arena[at].entry.ctr;
            // Train against the counter's direction, which always moves it.
            t.commit(&a, !CounterWidth::taken(before), UpdateMode::Full);
            assert_ne!(t.infinite_arena[at].entry.ctr, before, "A trained the moved slot");
            return;
        }
        panic!("no full run with a provider below the last table came up");
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
    fn a_saturated_tick_halves_every_tables_useful_counters() {
        let mut t = Tage::new(TageConfig { useful_bits: 2, ..small_cfg() });
        let (n, size) = (t.num_tables, 1usize << t.index_bits);
        assert_eq!(t.tables.len(), n * size, "one block holds every table");
        let full = t.useful_max;
        assert!(full >= 2, "the test needs counters that halve to a non-zero value");
        // Every entry valid and fully useful, under a tag no lookup of the
        // PC below produces: allocation finds no victim and fails.
        for e in &mut t.tables {
            *e = Entry { tag: 0, ctr: 0, useful: full, valid: true };
        }
        let pc = 0x4000;
        let l = t.lookup(pc);
        assert!((0..n).all(|t| l.tag(t) != 0), "pick a PC whose tags are non-zero");
        assert_eq!(l.provider, None);
        t.tick = 1023;
        t.commit(&l, !l.pred, UpdateMode::Full);
        assert_eq!(t.alloc_failures(), 1);
        assert_eq!(t.tick, 0, "the 1024th failure saturates the tick and resets it");
        // Each table's aged candidate lost one before the halving.
        let (halved, aged) = (full >> 1, (full - 1) >> 1);
        for table in [0, n - 1] {
            for index in 0..size {
                let useful = t.tables[t.slot(table, index as u64)].useful;
                let candidate = index as u64 == l.index(table);
                assert!(
                    useful == halved || (candidate && useful == aged),
                    "table {table} entry {index}: useful {useful}, want {halved}"
                );
            }
        }
    }

    #[test]
    fn lookup_is_pure() {
        let t = Tage::new(small_cfg());
        let a = t.lookup(0x1234);
        let b = t.lookup(0x1234);
        assert_eq!(a.pred, b.pred);
        for t in 0..4 {
            assert_eq!((a.index(t), a.tag(t)), (b.index(t), b.tag(t)));
        }
    }
}
