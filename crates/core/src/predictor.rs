//! The composed LLBP + TAGE-SC-L predictor (§V).
//!
//! Data flow per predicted branch:
//!
//! 1. The backing TAGE-SC-L performs its normal lookup.
//! 2. In parallel, the pattern buffer (PB) is probed with the current
//!    context ID; a resident pattern set is matched against the 16
//!    per-length tag hashes and the longest match wins.
//! 3. A 6-bit length comparison arbitrates: LLBP overrides the baseline
//!    when its matching history is at least as long as TAGE's provider.
//! 4. At resolution, only the providing side trains (TAGE cancels its
//!    update when LLBP provided); a misprediction by the provider
//!    allocates a longer-history pattern into the context's set.
//!
//! Prefetching: every observed context branch advances the RCR, looks the
//! *upcoming* context up in the context directory, and — on a hit — pulls
//! its pattern set into the PB with the configured delay. Pipeline resets
//! (own mispredictions and indirect-branch target changes) squash
//! in-flight prefetches.
//!
//! The pattern tags are lanes of the baseline's per-lookup hash loop
//! ([`register_pattern_lanes`]), and the front end and the RCR read only
//! the trace. A lone predictor advances all of these itself. A member of
//! a unit of predictors that share one history geometry
//! ([`LlbpPredictor::unit_member`]) owns only the tables it trains: it
//! predicts from the hashes a shared stage computed
//! ([`LlbpPredictor::predict_train_staged`]) and retires each record with
//! the pipeline reset and the context IDs that stage derived
//! ([`LlbpPredictor::retire_staged`]).

use crate::params::{CancelPolicy, CdReplacement, ContextHistoryKind, LlbpParams};
use crate::pattern::{PatternArena, SetGeometry, MAX_LENGTHS};
use crate::prefetch::PrefetchQueue;
use crate::rcr::{ContextIds, RollingContextRegister};
use crate::stats::{LlbpStats, OverrideKind};
use bputil::kernel::Lane;
use bputil::table::SetAssoc;
use llbp_tage::tage::UpdateMode;
use llbp_tage::{
    FrontEnd, PredictionInfo, Predictor, ProviderKind, TablePool, TageHistory, TageScl,
};
use llbp_trace::BranchRecord;

/// LLBP's own view of one prediction, carried from `predict` to `train`.
/// The baseline's lookup stays in flight in the backing [`TageScl`]
/// ([`TageScl::in_flight`]), which its commit stage then trains.
#[derive(Debug, Clone, Copy)]
struct Pending {
    pc: u64,
    /// Slot + length + direction of the longest LLBP match, if any.
    llbp: Option<LlbpMatch>,
    /// Final direction returned to the front-end.
    final_pred: bool,
    /// Whether LLBP overrode the baseline.
    overrode: bool,
    /// Current context ID at prediction time.
    cid: u64,
    /// `(length index, tag)` of the pattern a provider misprediction
    /// allocates: the first LLBP length longer than the provider's, hashed
    /// under the history this prediction saw. `None` when the provider
    /// already used the longest length.
    alloc: Option<(u8, u32)>,
}

#[derive(Debug, Clone, Copy)]
struct LlbpMatch {
    slot: usize,
    pred: bool,
    weak: bool,
    hist_len: usize,
}

/// A snapshot of the composed predictor's speculative history state
/// (§V-E2 rollback support).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlbpCheckpoint {
    tsl: llbp_tage::TslCheckpoint,
    rcr: crate::rcr::RcrCheckpoint,
}

/// The parts of [`LlbpParams`] a prediction reads, copied at
/// construction: a predictor keeps no configuration vector.
#[derive(Debug, Clone, Copy)]
struct Config {
    /// The pattern history lengths; the first `num_lengths` are used.
    history_lengths: [usize; MAX_LENGTHS],
    num_lengths: usize,
    cd_index_bits: u32,
    pb_index_bits: u32,
    prefetch_delay: u64,
    fetch_width: u64,
    confidence_threshold: u32,
    cd_replacement: CdReplacement,
    cancel_policy: CancelPolicy,
    weak_override_gate: bool,
    history_kind: ContextHistoryKind,
}

impl Config {
    /// The scalars of `params`, whose lengths [`LlbpParams::validate`]
    /// has bounded by [`MAX_LENGTHS`].
    fn of(params: &LlbpParams) -> Self {
        let num_lengths = params.history_lengths.len();
        let mut history_lengths = [0; MAX_LENGTHS];
        history_lengths[..num_lengths].copy_from_slice(&params.history_lengths);
        Self {
            history_lengths,
            num_lengths,
            cd_index_bits: params.cd_index_bits,
            pb_index_bits: params.pb_index_bits,
            prefetch_delay: params.prefetch_delay,
            fetch_width: params.fetch_width,
            confidence_threshold: params.confidence_threshold,
            cd_replacement: params.cd_replacement,
            cancel_policy: params.cancel_policy,
            weak_override_gate: params.weak_override_gate,
            history_kind: params.history_kind,
        }
    }

    /// The pattern history lengths, ascending.
    fn lengths(&self) -> &[usize] {
        &self.history_lengths[..self.num_lengths]
    }
}

/// LLBP's own tables, kept in a [`TablePool`] between cells
/// ([`TablePool::put_state`]). A build reuses each part of its own shape,
/// reset to a fresh build's state, and allocates the others anew.
#[derive(Debug)]
struct LlbpTables {
    storage: SetAssoc<()>,
    storage_sets: PatternArena,
    pb: SetAssoc<bool>,
    pb_sets: PatternArena,
    prefetches: PrefetchQueue,
}

impl LlbpTables {
    /// The tables `params` configures, in `spare`'s storage where a part
    /// has the same shape.
    fn recycle(spare: Option<Self>, params: &LlbpParams) -> Self {
        let (storage, storage_sets, pb, pb_sets, prefetches) = match spare {
            Some(t) => (
                Some(t.storage),
                Some(t.storage_sets),
                Some(t.pb),
                Some(t.pb_sets),
                Some(t.prefetches),
            ),
            None => Default::default(),
        };
        let geometry = SetGeometry::of(params);
        let storage = SetAssoc::recycle(storage, params.cd_index_bits, params.cd_ways);
        let rows = storage.num_sets() * storage.ways();
        let storage_sets = PatternArena::recycle(storage_sets, geometry, rows);
        let pb = SetAssoc::recycle(pb, params.pb_index_bits, params.pb_ways);
        let pb_sets = PatternArena::recycle(pb_sets, geometry, pb.num_sets() * pb.ways());
        let prefetches = prefetches.map_or_else(PrefetchQueue::new, |mut queue| {
            queue.reset();
            queue
        });
        Self { storage, storage_sets, pb, pb_sets, prefetches }
    }
}

/// What LLBP derives from the trace alone: the front end, whose late
/// redirects are the non-direction pipeline resets, and the RCR. A lone
/// predictor owns one; the members of a unit read what their stage's
/// tracked ([`LlbpPredictor::retire_staged`]).
#[derive(Debug)]
struct Tracker {
    frontend: FrontEnd,
    rcr: RollingContextRegister,
}

impl Tracker {
    /// The tracker `params` configures, on a front end and an RCR from
    /// `pool` (each reset to a fresh build's state).
    fn with_pool(params: &LlbpParams, pool: &mut TablePool) -> Self {
        Self { frontend: frontend_with_pool(pool), rcr: rcr_with_pool(params, pool) }
    }

    /// Observes one retired record: whether the front end resets the
    /// pipeline on it, and the context IDs after the RCR's push when the
    /// RCR observes it.
    #[inline]
    fn observe(&mut self, record: &BranchRecord) -> (bool, Option<ContextIds>) {
        let reset = self.frontend.observe(record).is_some();
        let pushed = self.rcr.observes(record).then(|| {
            self.rcr.push(record.pc());
            self.rcr.cids()
        });
        (reset, pushed)
    }
}

/// A front end in the state [`FrontEnd::new`] leaves, on one from `pool`
/// when it holds one ([`TablePool::put_state`]).
#[must_use]
pub fn frontend_with_pool(pool: &mut TablePool) -> FrontEnd {
    pool.take_state::<FrontEnd>().map_or_else(FrontEnd::new, |mut frontend| {
        frontend.reset();
        frontend
    })
}

/// The RCR `params` configures, in the storage of one from `pool` when it
/// holds one ([`RollingContextRegister::recycle`]).
#[must_use]
pub fn rcr_with_pool(params: &LlbpParams, pool: &mut TablePool) -> RollingContextRegister {
    RollingContextRegister::recycle(
        pool.take_state(),
        params.window,
        params.prefetch_distance,
        params.cid_bits,
        params.history_kind,
    )
}

/// Registers LLBP's pattern tags with `history`, the history of its
/// baseline or a stage shared by predictors of the baseline's geometry:
/// per history-length index, its folded tag pair (the length at
/// `tag_bits` and `tag_bits - 1`; a pair a TAGE table already folds is
/// that table's register) and a hash lane computing the tag
/// ([`Lane::pattern_tag`]). Returns the position of the first pattern lane
/// among the side lanes; length index `i` is `i` lanes after it. LLBPs
/// with equal pattern lengths and tag widths register equal lanes.
///
/// # Panics
///
/// Panics when the lanes do not fit the hash loop, which
/// [`LlbpParams::validate`] rules out.
pub fn register_pattern_lanes(params: &LlbpParams, history: &mut TageHistory) -> usize {
    let tag1_bits = (params.tag_bits - 1).max(1);
    let lanes = params.history_lengths.iter().zip(0..).map(|(&l, len_idx)| {
        let (tag0, tag1) =
            (history.register_fold(l, params.tag_bits), history.register_fold(l, tag1_bits));
        history.push_side_lane(Lane::pattern_tag(len_idx, tag0, tag1, params.tag_bits))
    });
    lanes.min().expect("validated: at least one length")
}

/// The Last-Level Branch Predictor backing a TAGE-SC-L baseline.
///
/// Pattern sets live in two [`PatternArena`]s: LLBP storage, one row per
/// context-directory way, and the pattern buffer, one row per PB way. The
/// [`SetAssoc`] tables hold only tags, replacement state and the PB's
/// dirty bits; their way slots index the arenas. A PB fill and a dirty
/// write-back are row copies, so the two copies of a set evolve
/// independently, as the paper's separate arrays do.
#[derive(Debug)]
pub struct LlbpPredictor {
    cfg: Config,
    /// The report label and [`Predictor::storage_bits`].
    label: String,
    storage_bits: u64,
    tsl: TageScl,
    /// The front end and the RCR: `None` for a member of a unit, whose
    /// stage tracks them.
    tracker: Option<Tracker>,
    /// The context IDs in effect: the RCR's after its last push.
    cids: ContextIds,
    /// Where the pattern tags start among the baseline lookup's side
    /// lanes ([`register_pattern_lanes`]).
    pattern_lane: usize,
    /// The context directory; its way slots index `storage_sets`.
    storage: SetAssoc<()>,
    /// Bulk pattern-set storage, one row per context-directory way.
    storage_sets: PatternArena,
    /// The in-core pattern buffer: tags and dirty bits; its way slots
    /// index `pb_sets`.
    pb: SetAssoc<bool>,
    /// The pattern buffer's sets, one row per PB way.
    pb_sets: PatternArena,
    prefetches: PrefetchQueue,
    /// Also the clock: `stats.instructions` and `stats.cycles` advance
    /// once per record, and every cycle read in between uses the latter.
    stats: LlbpStats,
    pending: Option<Pending>,
    /// Runtime power gate (§V): `false` turns the LLBP side off.
    llbp_enabled: bool,
}

impl LlbpPredictor {
    /// Builds the composed predictor from validated parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`LlbpParams::validate`].
    #[must_use]
    pub fn new(params: LlbpParams) -> Self {
        Self::with_pool(&params, &mut TablePool::new())
    }

    /// [`LlbpPredictor::new`] on `pool`'s tables: the baseline TAGE-SC-L's
    /// ([`TageScl::with_pool`]) and LLBP's own, which are the pattern
    /// arenas, the context directory, the pattern buffer, the RCR, the
    /// prefetch queue and the front end (BTB, RAS, ITTAGE). Each is reused
    /// only for the same shape and reset to a fresh build's state; a part
    /// of another shape is freed and allocated anew, so a pool serving one
    /// cell at a time holds one LLBP's tables at most. Reads `params`
    /// without keeping it: the predictor copies its label and the scalars
    /// it reads. Hand the tables back with [`LlbpPredictor::into_pool`].
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`LlbpParams::validate`].
    #[must_use]
    pub fn with_pool(params: &LlbpParams, pool: &mut TablePool) -> Self {
        let tracker = Tracker::with_pool(params, pool);
        Self::build(params, pool, Some(tracker))
    }

    /// A member of a unit of predictors that share one history geometry:
    /// [`LlbpPredictor::with_pool`] without a front end or an RCR. It runs
    /// only through [`LlbpPredictor::predict_train_staged`] and
    /// [`LlbpPredictor::retire_staged`], from the values a shared stage
    /// computed; its front-end statistics are the stage's.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`LlbpParams::validate`].
    #[must_use]
    pub fn unit_member(params: &LlbpParams, pool: &mut TablePool) -> Self {
        Self::build(params, pool, None)
    }

    fn build(params: &LlbpParams, pool: &mut TablePool, tracker: Option<Tracker>) -> Self {
        params.validate().unwrap_or_else(|e| panic!("invalid LLBP params: {e}"));
        let mut tsl = TageScl::with_pool(&params.tsl, pool);
        let pattern_lane = register_pattern_lanes(params, tsl.history_mut());
        let LlbpTables { storage, storage_sets, pb, pb_sets, prefetches } =
            LlbpTables::recycle(pool.take_state(), params);
        let cids = tracker.as_ref().map(|t| t.rcr.cids()).unwrap_or_default();
        Self {
            cfg: Config::of(params),
            label: params.label.clone(),
            storage_bits: params.storage_bits()
                + params.cd_bits()
                + params.pb_bits()
                + params.tsl.storage_bits(),
            tsl,
            tracker,
            cids,
            pattern_lane,
            storage,
            storage_sets,
            pb,
            pb_sets,
            prefetches,
            stats: LlbpStats::default(),
            pending: None,
            llbp_enabled: true,
        }
    }

    /// Hands the tables [`LlbpPredictor::with_pool`] or
    /// [`LlbpPredictor::unit_member`] takes to `pool`, for the next
    /// predictor built on it.
    pub fn into_pool(self, pool: &mut TablePool) {
        let Self { tsl, tracker, storage, storage_sets, pb, pb_sets, prefetches, .. } = self;
        tsl.into_pool(pool);
        pool.put_state(LlbpTables { storage, storage_sets, pb, pb_sets, prefetches });
        if let Some(Tracker { frontend, rcr }) = tracker {
            pool.put_state(frontend);
            pool.put_state(rcr);
        }
    }

    /// The own front end and RCR of a lone predictor.
    fn tracker(&self) -> &Tracker {
        self.tracker.as_ref().expect("a unit member's front end and RCR are its stage's")
    }

    /// The backing TAGE-SC-L (for probes).
    #[must_use]
    pub fn baseline(&self) -> &TageScl {
        &self.tsl
    }

    /// Aggregated LLBP statistics.
    #[must_use]
    pub fn stats(&self) -> &LlbpStats {
        &self.stats
    }

    /// The front-end target predictors (for probes).
    ///
    /// # Panics
    ///
    /// Panics for a [`LlbpPredictor::unit_member`], whose front end is its
    /// stage's.
    #[must_use]
    pub fn frontend(&self) -> &FrontEnd {
        &self.tracker().frontend
    }

    /// Enables or disables the LLBP side at runtime (§V: "when the
    /// accuracy of TAGE is sufficiently high, LLBP can be disabled to
    /// save power"). While disabled, predictions come solely from the
    /// baseline, and no prefetches, CD lookups or pattern transfers
    /// occur; histories keep advancing so re-enabling is seamless.
    pub fn set_llbp_enabled(&mut self, enabled: bool) {
        self.llbp_enabled = enabled;
        if !enabled {
            self.prefetches.squash();
        }
    }

    /// Whether the LLBP side is currently active.
    #[must_use]
    pub fn llbp_enabled(&self) -> bool {
        self.llbp_enabled
    }

    /// Captures all speculative history state: the baseline's checkpoint,
    /// whose bank holds LLBP's folded pattern histories, plus the RCR
    /// (§V-E2: "Rolling back the RCR can be done in the same way as for
    /// the folded history registers in TAGE").
    ///
    /// # Panics
    ///
    /// Panics for a [`LlbpPredictor::unit_member`], whose histories are its
    /// stage's.
    #[must_use]
    pub fn checkpoint(&self) -> LlbpCheckpoint {
        LlbpCheckpoint { tsl: self.tsl.checkpoint(), rcr: self.tracker().rcr.checkpoint() }
    }

    /// Restores a checkpoint taken by [`LlbpPredictor::checkpoint`],
    /// rolling back every speculative history update made since (pattern
    /// sets train at commit and are unaffected). In-flight prefetches are
    /// squashed, as the hardware does on the triggering misprediction.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a different configuration, or
    /// for a [`LlbpPredictor::unit_member`].
    pub fn restore(&mut self, checkpoint: &LlbpCheckpoint) {
        self.tsl.restore(&checkpoint.tsl);
        let tracker = self.tracker.as_mut().expect("a unit member's RCR is its stage's");
        tracker.rcr.restore(&checkpoint.rcr);
        self.cids = tracker.rcr.cids();
        self.prefetches.squash();
    }

    /// Current cycle under the fetch-width clock model.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.stats.cycles
    }

    fn storage_key(&self, cid: u64) -> (u64, u64) {
        (cid & ((1 << self.cfg.cd_index_bits) - 1), cid >> self.cfg.cd_index_bits)
    }

    fn pb_key(&self, cid: u64) -> (u64, u64) {
        (cid & ((1u64 << self.cfg.pb_index_bits) - 1), cid >> self.cfg.pb_index_bits)
    }

    /// Moves completed prefetches from storage into the PB.
    fn process_arrivals(&mut self) {
        let now = self.cycle();
        while let Some(p) = self.prefetches.pop_ready(now) {
            self.fill_pb_from_storage(p.cid);
        }
    }

    /// Copies the pattern set for `cid` from storage into the PB (a
    /// 288-bit read), if present and not already resident. Returns the
    /// PB slot holding the set, or `None` when storage has no set for
    /// `cid`.
    fn fill_pb_from_storage(&mut self, cid: u64) -> Option<usize> {
        let (pi, pt) = self.pb_key(cid);
        if let Some(slot) = self.pb.peek_slot(pi, pt) {
            return Some(slot);
        }
        let (si, st) = self.storage_key(cid);
        let row = self.storage.peek_slot(si, st)?;
        self.stats.storage_reads += 1;
        Some(self.insert_pb(cid, Some(row), false))
    }

    /// Inserts `cid` into the PB, writing back any dirty victim, and fills
    /// its row with storage row `from` (or an empty set). Returns the PB
    /// slot.
    fn insert_pb(&mut self, cid: u64, from: Option<usize>, dirty: bool) -> usize {
        let (pi, pt) = self.pb_key(cid);
        let (slot, victim) = self.pb.insert_lru(pi, pt, dirty);
        // The victim's patterns are still in the row until it is refilled.
        if let Some((victim_tag, true)) = victim {
            let victim_cid = (victim_tag << self.cfg.pb_index_bits) | pi;
            self.write_back(victim_cid, slot);
        }
        match from {
            Some(row) => self.pb_sets.copy_from(slot, &self.storage_sets, row),
            None => self.pb_sets.clear(slot),
        }
        slot
    }

    /// Writes the dirty pattern set in PB slot `pb_slot` back to `cid`'s
    /// storage row (a 288-bit write). If the context directory entry was
    /// replaced in the meantime, the set is dropped — that context has
    /// been evicted from LLBP.
    fn write_back(&mut self, cid: u64, pb_slot: usize) {
        let (si, st) = self.storage_key(cid);
        if let Some(row) = self.storage.get_slot(si, st) {
            self.storage_sets.copy_from(row, &self.pb_sets, pb_slot);
            self.stats.storage_writes += 1;
        }
    }

    /// §V-D step 1: ensure the current context has a pattern set resident
    /// in the PB, creating CD + storage entries if the context is new.
    /// (The hardware keeps providing sets pinned in the PB; our in-order
    /// model fetches on demand and charges the read.)
    fn ensure_context_in_pb(&mut self, cid: u64) {
        let (pi, pt) = self.pb_key(cid);
        if self.pb.peek_slot(pi, pt).is_some() || self.fill_pb_from_storage(cid).is_some() {
            return;
        }
        // New context: create the CD/storage entry (confidence-based
        // replacement by default, §V-D, judged on the storage copies) and
        // an empty set in the PB.
        self.stats.contexts_created += 1;
        let (si, st) = self.storage_key(cid);
        let (row, _) = match self.cfg.cd_replacement {
            CdReplacement::Confidence => {
                let (sets, threshold) = (&self.storage_sets, self.cfg.confidence_threshold);
                self.storage
                    .insert_with(si, st, (), |row, _, ()| sets.confident_count(row, threshold))
            }
            CdReplacement::Lru => self.storage.insert_lru(si, st, ()),
        };
        self.storage_sets.clear(row);
        self.insert_pb(cid, None, true);
    }

    /// Allocates pattern `(len_idx, tag)` into `cid`'s set (§V-D steps
    /// 2–4).
    fn allocate_pattern(&mut self, cid: u64, len_idx: u8, tag: u32, taken: bool) {
        self.ensure_context_in_pb(cid);
        let (pi, pt) = self.pb_key(cid);
        if let Some(slot) = self.pb.get_slot(pi, pt) {
            self.pb_sets.allocate(slot, len_idx, tag, taken);
            *self.pb.value_mut(slot) = true;
            self.stats.pattern_allocs += 1;
        }
    }

    /// Requests `cid`'s pattern set, held in storage row `row`, to arrive
    /// in the PB after the prefetch delay. The row's cache lines are asked
    /// for now, so its copy into the PB at arrival finds them cached.
    fn issue_prefetch(&mut self, cid: u64, row: usize) {
        let now = self.cycle();
        self.prefetches.issue(cid, now, self.cfg.prefetch_delay);
        self.storage_sets.prefetch_row(row);
    }

    /// A pipeline reset: squash in-flight prefetches, then restart
    /// prefetching from the recovered front-end state — the current and
    /// upcoming contexts are re-requested immediately (§VI: "all in-flight
    /// prefetches get squashed before LLBP restarts prefetching").
    fn pipeline_reset(&mut self) {
        self.stats.pipeline_resets += 1;
        self.prefetches.squash();
        for cid in [self.cids.current, self.cids.prefetch] {
            let (pi, pt) = self.pb_key(cid);
            if self.pb.peek_slot(pi, pt).is_some() {
                continue;
            }
            let (si, st) = self.storage_key(cid);
            if let Some(row) = self.storage.peek_slot(si, st) {
                self.issue_prefetch(cid, row);
            }
        }
    }

    /// The prediction half of [`Predictor::predict`]: everything up to the
    /// final direction, with the baseline's hashes computed from its own
    /// history or copied from the `staged` hashes of a shared one. The
    /// baseline's lookup stays in flight in `tsl`; LLBP's own part is
    /// returned.
    #[inline]
    fn lookup(&mut self, pc: u64, staged: Option<&[u32]>) -> Pending {
        self.process_arrivals();
        let tage = match staged {
            None => self.tsl.lookup_tage_in_flight(pc),
            Some(hashes) => self.tsl.lookup_tage_staged(pc, hashes),
        };
        let (tage_hit, tage_hist_len) = (tage.provider.is_some(), tage.provider_hist_len);
        let cid = self.cids.current;
        self.stats.predictions += 1;

        let (pi, pt) = self.pb_key(cid);
        let mut resident = if self.llbp_enabled { self.pb.get_slot(pi, pt) } else { None };
        if resident.is_some() {
            self.stats.pb_hits += 1;
        }
        if resident.is_none() && self.llbp_enabled {
            // The set may exist in LLBP storage but not have arrived yet.
            let (si, st) = self.storage_key(cid);
            if let Some(row) = self.storage.peek_slot(si, st) {
                if self.cfg.prefetch_delay == 0 {
                    // LLBP-0Lat: storage is reachable within the cycle.
                    resident = self.fill_pb_from_storage(cid);
                } else {
                    self.stats.late_prefetches += 1;
                    // Demand-request the set for later predictions in this
                    // context.
                    self.issue_prefetch(cid, row);
                }
            }
        }

        // The pattern tags are lanes of the hash loop, in the lookup in
        // flight.
        let llbp = resident.and_then(|row| {
            let tags = &self.tsl.in_flight().tage.side()[self.pattern_lane..];
            let slot = self.pb_sets.find_longest(row, |len| tags[usize::from(len)])?;
            let p = self.pb_sets.pattern(row, slot).expect("slot was a match");
            Some(LlbpMatch {
                slot,
                pred: p.taken(),
                weak: p.is_weak(),
                hist_len: self.cfg.history_lengths[usize::from(p.len_idx())],
            })
        });

        // Length arbitration (§V-B): LLBP wins ties and longer histories,
        // replacing TAGE's direction *before* the statistical corrector
        // and loop predictor apply (footnote 2) — so the correctors also
        // catch LLBP's statistical noise. With the (ablation)
        // weak-override gate, a just-allocated pattern defers to a
        // baseline backed by a tagged TAGE match.
        let weak_blocked = |m: &LlbpMatch| self.cfg.weak_override_gate && m.weak && tage_hit;
        let inject = match &llbp {
            Some(m) if m.hist_len >= tage_hist_len && !weak_blocked(m) => Some(m.pred),
            _ => None,
        };
        let overrode = inject.is_some();
        let final_pred = self.tsl.finish_in_flight(inject).pred;

        // The pattern a provider misprediction would allocate: the next
        // length beyond the provider's.
        let base_len = match &llbp {
            Some(m) if overrode => m.hist_len,
            _ => tage_hist_len,
        };
        let alloc = self
            .cfg
            .lengths()
            .iter()
            .position(|&l| l > base_len)
            .map(|i| (i as u8, self.tsl.in_flight().tage.side()[self.pattern_lane + i]));

        Pending { pc, llbp, final_pred, overrode, cid, alloc }
    }

    /// The training half of [`Predictor::train`] for a prediction made by
    /// [`LlbpPredictor::lookup`], whose baseline lookup is still in flight.
    fn commit(&mut self, pending: &Pending, taken: bool) {
        let tsl = self.tsl.in_flight();
        let (baseline, tage_pred, tsl_pred) = (tsl.baseline_pred, tsl.tage.pred, tsl.pred);
        // Fig. 15 classification: compare the produced direction against
        // what the baseline (no LLBP injection) would have predicted.
        if pending.llbp.is_some() {
            let final_pred = pending.final_pred;
            let kind = if !pending.overrode {
                OverrideKind::NoOverride
            } else if final_pred == baseline {
                if final_pred == taken {
                    OverrideKind::BothCorrect
                } else {
                    OverrideKind::BothWrong
                }
            } else if final_pred == taken {
                OverrideKind::GoodOverride
            } else {
                OverrideKind::BadOverride
            };
            self.stats.record_override(kind);
        }

        // Train the providing side (§V-D). The baseline's update is
        // cancelled only when LLBP actually *changed* the direction: on
        // redundant overrides (both agree — the majority, Fig. 15) the
        // baseline saw the same outcome it predicted and keeps training,
        // which prevents its state from decaying under LLBP's shadow.
        if pending.overrode {
            let m = pending.llbp.as_ref().expect("override implies a match");
            let (pi, pt) = self.pb_key(pending.cid);
            if let Some(row) = self.pb.get_slot(pi, pt) {
                if self.pb_sets.update(row, m.slot, taken) {
                    *self.pb.value_mut(row) = true;
                }
            }
            let mode = match self.cfg.cancel_policy {
                CancelPolicy::Always => UpdateMode::Cancelled,
                CancelPolicy::OnDisagree if m.pred != tage_pred => UpdateMode::Cancelled,
                _ => UpdateMode::Full,
            };
            self.tsl.commit_in_flight(taken, mode);
        } else {
            self.tsl.commit_in_flight(taken, UpdateMode::Full);
        }

        // Allocation on a provider misprediction: a new pattern with the
        // next-longer history, in this context's set.
        let provider_pred = match &pending.llbp {
            Some(m) if pending.overrode => m.pred,
            _ => tsl_pred,
        };
        if provider_pred != taken && self.llbp_enabled {
            if let Some((len_idx, tag)) = pending.alloc {
                self.allocate_pattern(pending.cid, len_idx, tag, taken);
            }
        }

        // A wrong final prediction resets the pipeline.
        if pending.final_pred != taken {
            self.pipeline_reset();
        }
    }

    /// The provenance record of `pending`, whose baseline lookup is in
    /// flight.
    fn prediction_info(&self, pending: &Pending) -> PredictionInfo {
        let mut info = self.tsl.in_flight().prediction_info();
        if let Some(m) = &pending.llbp {
            info.llbp_hit = true;
            info.llbp_pred = m.pred;
            info.llbp_weak = m.weak;
            info.llbp_hist_len = m.hist_len.min(u16::MAX as usize) as u16;
        }
        info.llbp_override = pending.overrode;
        info
    }
}

impl Predictor for LlbpPredictor {
    fn predict(&mut self, pc: u64) -> bool {
        let pending = self.lookup(pc, None);
        self.pending = Some(pending);
        pending.final_pred
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let pending = self.pending.take().expect("train() without a matching predict()");
        debug_assert_eq!(pending.pc, pc, "train() PC does not match predict()");
        self.commit(&pending, taken);
    }

    fn predict_train(&mut self, pc: u64, taken: bool) -> (bool, ProviderKind) {
        self.predict_train_from(pc, taken, None)
    }

    fn predict_train_info(&mut self, pc: u64, taken: bool) -> (bool, PredictionInfo) {
        self.predict_train_info_from(pc, taken, None)
    }

    fn update_history(&mut self, record: &BranchRecord) {
        self.advance_history(record, false);
    }

    fn update_history_fast(&mut self, record: &BranchRecord) {
        self.advance_history(record, true);
    }

    fn last_provider(&self) -> ProviderKind {
        // The finishing stage already attributes injected predictions to
        // LLBP (or to the SC/loop predictor when they corrected it).
        self.pending.map_or(ProviderKind::Bimodal, |_| self.tsl.in_flight().provider)
    }

    fn last_prediction_info(&self, pred: bool) -> PredictionInfo {
        self.pending.as_ref().map_or_else(
            || PredictionInfo::from_provider(pred, ProviderKind::Bimodal),
            |pending| self.prediction_info(pending),
        )
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn storage_bits(&self) -> u64 {
        self.storage_bits
    }
}

impl LlbpPredictor {
    /// The fused lookup and commit of [`Predictor::predict_train`], from
    /// `staged` hashes when given. The baseline's lookup stays in flight in
    /// `tsl` and LLBP's scalars on this frame; `pending` ends `None`, as
    /// after a split `train()`.
    #[inline]
    fn predict_train_from(
        &mut self,
        pc: u64,
        taken: bool,
        staged: Option<&[u32]>,
    ) -> (bool, ProviderKind) {
        let pending = self.lookup(pc, staged);
        self.pending = None;
        let out = (pending.final_pred, self.tsl.in_flight().provider);
        self.commit(&pending, taken);
        out
    }

    /// [`LlbpPredictor::predict_train_from`] returning the provenance
    /// record.
    #[inline]
    fn predict_train_info_from(
        &mut self,
        pc: u64,
        taken: bool,
        staged: Option<&[u32]>,
    ) -> (bool, PredictionInfo) {
        let pending = self.lookup(pc, staged);
        self.pending = None;
        let out = (pending.final_pred, self.prediction_info(&pending));
        self.commit(&pending, taken);
        out
    }

    /// [`Predictor::predict_train`] from `hashes`, every lane's hash for
    /// `pc` as a shared history of this predictor's geometry computed them
    /// ([`TageHistory::hash`], with the pattern lanes of
    /// [`register_pattern_lanes`]). The baseline's history does not
    /// advance: the stage that owns the shared one does.
    pub fn predict_train_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, ProviderKind) {
        self.predict_train_from(pc, taken, Some(hashes))
    }

    /// [`Predictor::predict_train_info`] from staged hashes, as
    /// [`LlbpPredictor::predict_train_staged`].
    pub fn predict_train_info_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, PredictionInfo) {
        self.predict_train_info_from(pc, taken, Some(hashes))
    }

    /// Whether this predictor's RCR observes `record`: whether
    /// [`LlbpPredictor::retire_staged`] takes context IDs for it.
    #[inline]
    #[must_use]
    pub fn observes(&self, record: &BranchRecord) -> bool {
        self.cfg.history_kind.observes(record)
    }

    /// [`Predictor::update_history_fast`] for a unit member, from what its
    /// stage derived from `record`: whether the front end `reset` the
    /// pipeline on it, and, when the member's RCR observes it, the context
    /// IDs after the RCR's push. The baseline's history does not advance.
    #[inline]
    pub fn retire_staged(
        &mut self,
        record: &BranchRecord,
        reset: bool,
        pushed: Option<ContextIds>,
    ) {
        self.retire(record, reset, pushed);
    }

    /// The shared body of [`Predictor::update_history`] /
    /// [`Predictor::update_history_fast`]: identical except that the fast
    /// variant advances the backing TAGE-SC-L's bank, LLBP's folds
    /// included, through its branch-free loop.
    fn advance_history(&mut self, record: &BranchRecord, fast: bool) {
        let tracker = self.tracker.as_mut().expect("a unit member retires through its stage");
        let (reset, pushed) = tracker.observe(record);
        // LLBP's folded pattern histories are registers of the backing
        // TAGE's bank and advance with it.
        if fast {
            self.tsl.update_history_fast(record);
        } else {
            self.tsl.update_history(record);
        }
        self.retire(record, reset, pushed);
    }

    /// Everything a retired record does to LLBP beyond its histories: the
    /// clock, prefetch arrivals, the front end's pipeline `reset`, and the
    /// context IDs `pushed` when the RCR observed the record.
    #[inline]
    fn retire(&mut self, record: &BranchRecord, reset: bool, pushed: Option<ContextIds>) {
        self.stats.instructions += record.instructions();
        self.stats.cycles = self.stats.instructions / self.cfg.fetch_width.max(1);
        self.process_arrivals();

        // Late front-end redirects (BTB misses on taken branches, RAS
        // mismatches, indirect-target mispredictions) flush the front-end
        // and squash LLBP's prefetches (§VI; the PHPWiki pathology,
        // §VII-A, is indirect-target driven). The reset reads the context
        // IDs from before this record's push.
        if reset {
            self.pipeline_reset();
        }

        // Context tracking + prefetch issue. The RCR always advances (so
        // re-enabling a power-gated LLBP is seamless); directory lookups
        // and prefetches only happen while enabled.
        if let Some(cids) = pushed {
            self.cids = cids;
            if !self.llbp_enabled {
                return;
            }
            let upcoming = cids.prefetch;
            self.stats.cd_lookups += 1;
            let (si, st) = self.storage_key(upcoming);
            if let Some(row) = self.storage.peek_slot(si, st) {
                self.stats.cd_hits += 1;
                let (pi, pt) = self.pb_key(upcoming);
                if self.pb.peek_slot(pi, pt).is_none() {
                    self.issue_prefetch(upcoming, row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::{BranchKind, Trace, Workload, WorkloadSpec};

    fn run(p: &mut dyn Predictor, trace: &Trace, skip: usize) -> (u64, u64) {
        let mut mispredicts = 0u64;
        let mut conds = 0u64;
        for (i, r) in trace.iter().enumerate() {
            if r.kind() == BranchKind::Conditional {
                let pred = p.predict(r.pc());
                p.train(r.pc(), r.taken());
                if i >= skip {
                    conds += 1;
                    mispredicts += u64::from(pred != r.taken());
                }
            }
            p.update_history(r);
        }
        (mispredicts, conds)
    }

    #[test]
    fn llbp_beats_baseline_on_context_heavy_workload() {
        let trace = WorkloadSpec::named(Workload::NodeApp).with_branches(300_000).generate();
        let skip = trace.len() / 3;
        let mut base = TageScl::new(llbp_tage::TslConfig::cbp64k());
        let (base_mis, _) = run(&mut base, &trace, skip);
        let mut llbp = LlbpPredictor::new(LlbpParams::default());
        let (llbp_mis, _) = run(&mut llbp, &trace, skip);
        assert!(
            llbp_mis < base_mis,
            "LLBP ({llbp_mis}) should beat 64K TSL ({base_mis}) on NodeApp"
        );
    }

    #[test]
    fn zero_latency_is_at_least_as_good() {
        let trace = WorkloadSpec::named(Workload::Merced).with_branches(200_000).generate();
        let skip = trace.len() / 3;
        let mut real = LlbpPredictor::new(LlbpParams::default());
        let (real_mis, _) = run(&mut real, &trace, skip);
        let mut ideal = LlbpPredictor::new(LlbpParams::zero_latency());
        let (ideal_mis, _) = run(&mut ideal, &trace, skip);
        // Allow a small tolerance: different prefetch timing perturbs
        // replacement decisions.
        assert!(
            (ideal_mis as f64) <= (real_mis as f64) * 1.05,
            "0Lat ({ideal_mis}) should not lose to real LLBP ({real_mis})"
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let trace = WorkloadSpec::named(Workload::Tpcc).with_branches(100_000).generate();
        let mut p = LlbpPredictor::new(LlbpParams::default());
        let _ = run(&mut p, &trace, 0);
        let s = p.stats();
        assert!(s.breakdown_is_consistent());
        assert!(s.predictions > 0);
        assert!(s.llbp_matches <= s.predictions);
        assert!(s.cd_hits <= s.cd_lookups);
        assert!(s.storage_reads > 0, "pattern sets must move");
        assert!(s.contexts_created > 0);
    }

    #[test]
    fn llbp_provides_for_a_minority_of_predictions() {
        // §VII-G: LLBP provides for ~15% of dynamic conditional branches.
        let trace = WorkloadSpec::named(Workload::Tomcat).with_branches(150_000).generate();
        let mut p = LlbpPredictor::new(LlbpParams::default());
        let _ = run(&mut p, &trace, 0);
        let rate = p.stats().match_rate();
        assert!(rate < 0.7, "match rate {rate:.2} implausibly high");
        assert!(rate > 0.005, "match rate {rate:.3} implausibly low");
    }

    #[test]
    fn train_without_predict_panics() {
        let mut p = LlbpPredictor::new(LlbpParams::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.train(0x100, true);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn indirect_target_changes_reset_the_pipeline() {
        let mut p = LlbpPredictor::new(LlbpParams::default());
        let r1 = BranchRecord::unconditional(0x100, 0x2000, BranchKind::IndirectCall, 3);
        let r2 = BranchRecord::unconditional(0x100, 0x3000, BranchKind::IndirectCall, 3);
        // A cold indirect site mispredicts (reset #1); once trained, the
        // stable target stops resetting; a target change resets again.
        p.update_history(&r1);
        assert_eq!(p.stats().pipeline_resets, 1);
        p.update_history(&r1);
        p.update_history(&r1);
        let stable = p.stats().pipeline_resets;
        p.update_history(&r1);
        assert_eq!(p.stats().pipeline_resets, stable, "stable target must not reset");
        p.update_history(&r2);
        assert!(p.stats().pipeline_resets > stable, "target change must reset");
    }

    #[test]
    fn power_gated_llbp_behaves_like_the_baseline() {
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(60_000).generate();
        let mut gated = LlbpPredictor::new(LlbpParams::default());
        gated.set_llbp_enabled(false);
        let (gated_mis, _) = run(&mut gated, &trace, 0);
        let mut base = TageScl::new(llbp_tage::TslConfig::cbp64k());
        let (base_mis, _) = run(&mut base, &trace, 0);
        assert_eq!(gated_mis, base_mis, "disabled LLBP must match the bare baseline");
        assert_eq!(gated.stats().llbp_matches, 0);
        assert_eq!(gated.stats().storage_reads, 0);
        assert_eq!(gated.stats().cd_lookups, 0);
    }

    #[test]
    fn reenabling_llbp_resumes_operation() {
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(40_000).generate();
        let mut p = LlbpPredictor::new(LlbpParams::default());
        p.set_llbp_enabled(false);
        let half = trace.len() / 2;
        for (i, r) in trace.iter().enumerate() {
            if i == half {
                p.set_llbp_enabled(true);
            }
            if r.kind() == BranchKind::Conditional {
                let _ = p.predict(r.pc());
                p.train(r.pc(), r.taken());
            }
            p.update_history(r);
        }
        assert!(p.llbp_enabled());
        assert!(p.stats().cd_lookups > 0, "LLBP must resume after re-enable");
        assert!(p.stats().contexts_created > 0);
    }

    #[test]
    fn entry_paths_agree_record_by_record() {
        // Three identical builds of the default LLBP over one trace: the
        // split `predict`/`train` with the reference `update_history`, the
        // fused `predict_train` with `update_history_fast`, and the
        // recording `predict_train_info`. The baseline's lookup stays in
        // flight between the stages, so every prediction, provider and
        // provenance record, and the whole speculative history after
        // every record, must agree.
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(20_000).generate();
        let mut slow = LlbpPredictor::new(LlbpParams::default());
        let mut fast = LlbpPredictor::new(LlbpParams::default());
        let mut prov = LlbpPredictor::new(LlbpParams::default());
        let mut overrides = 0;
        for (i, r) in trace.iter().enumerate() {
            if r.kind() == BranchKind::Conditional {
                let pred = slow.predict(r.pc());
                let provider = slow.last_provider();
                let info = slow.last_prediction_info(pred);
                slow.train(r.pc(), r.taken());
                let after_train = slow.last_provider();
                let (fast_pred, fast_provider) = fast.predict_train(r.pc(), r.taken());
                assert_eq!((pred, provider), (fast_pred, fast_provider), "record {i}");
                assert_eq!(fast.last_provider(), after_train, "record {i}: nothing stays pending");
                let (prov_pred, prov_info) = prov.predict_train_info(r.pc(), r.taken());
                assert_eq!(pred, prov_pred, "info-path prediction diverged at record {i}");
                assert_eq!(info, prov_info, "provenance record diverged at record {i}");
                assert_eq!((info.pred, info.provider), (pred, provider), "record {i}");
                overrides += u64::from(info.llbp_override);
            }
            slow.update_history(r);
            fast.update_history_fast(r);
            prov.update_history_fast(r);
            assert_eq!(slow.checkpoint(), fast.checkpoint(), "history diverged at record {i}");
            assert_eq!(slow.checkpoint(), prov.checkpoint(), "info-path history diverged at {i}");
        }
        assert!(overrides > 0, "LLBP overrode some predictions");
        assert_eq!(slow.stats(), fast.stats());
        assert_eq!(slow.stats(), prov.stats());
    }

    #[test]
    fn a_pool_cycled_through_llbp_designs_predicts_as_fresh_builds() {
        let trace = WorkloadSpec::named(Workload::NodeApp).with_branches(4_000).generate();
        let mut pool = TablePool::new();
        let designs = [
            LlbpParams::default(),
            LlbpParams::zero_latency(),
            LlbpParams::default().with_pb_entries(256),
            LlbpParams::study_full_assoc(1024, 8),
            LlbpParams::default(),
        ];
        for params in designs {
            let label = params.label.clone();
            let mut fresh = LlbpPredictor::new(params.clone());
            let mut pooled = LlbpPredictor::with_pool(&params, &mut pool);
            // A pooled table starts exactly as a fresh one: contents,
            // LRU clocks and counts.
            assert!(pooled.storage == fresh.storage, "{label}: context directory");
            assert!(pooled.storage_sets == fresh.storage_sets, "{label}: LLBP storage");
            assert!(pooled.pb == fresh.pb, "{label}: pattern buffer");
            assert!(pooled.pb_sets == fresh.pb_sets, "{label}: pattern buffer sets");
            assert!(pooled.tracker().rcr == fresh.tracker().rcr, "{label}: RCR");
            assert!(pooled.prefetches == fresh.prefetches, "{label}: prefetch queue");
            assert!(pooled.tracker().frontend == fresh.tracker().frontend, "{label}: front end");
            for (i, r) in trace.iter().enumerate() {
                if r.kind() == BranchKind::Conditional {
                    let want = fresh.predict_train(r.pc(), r.taken());
                    let got = pooled.predict_train(r.pc(), r.taken());
                    assert_eq!(got, want, "{label} diverged at record {i}");
                }
                fresh.update_history_fast(r);
                pooled.update_history_fast(r);
            }
            assert_eq!(pooled.stats(), fresh.stats(), "{label}");
            assert_eq!(pooled.frontend().stats(), fresh.frontend().stats(), "{label}");
            pooled.into_pool(&mut pool);
        }
    }

    #[test]
    fn storage_accounting_is_about_half_a_mebibyte() {
        let p = LlbpPredictor::new(LlbpParams::default());
        let kib = (p.storage_bits() - LlbpParams::default().tsl.storage_bits()) as f64 / 8192.0;
        assert!((500.0..530.0).contains(&kib), "LLBP-side storage is {kib:.1} KiB");
    }
}
