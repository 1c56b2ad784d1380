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

use crate::params::{CancelPolicy, CdReplacement, LlbpParams};
use crate::pattern::{PatternArena, SetGeometry, MAX_LENGTHS};
use crate::prefetch::PrefetchQueue;
use crate::rcr::RollingContextRegister;
use crate::stats::{LlbpStats, OverrideKind};
use bputil::history::FoldedHistory;
use bputil::table::SetAssoc;
use llbp_tage::tage::UpdateMode;
use llbp_tage::{FrontEnd, PredictionInfo, Predictor, ProviderKind, TageScl, TslLookup};
use llbp_trace::{BranchKind, BranchRecord};

/// LLBP's view of one prediction, carried from `predict` to `train`.
#[derive(Debug, Clone)]
struct Pending {
    pc: u64,
    tsl: TslLookup,
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

impl Pending {
    fn prediction_info(&self) -> PredictionInfo {
        let mut info = self.tsl.prediction_info();
        if let Some(m) = &self.llbp {
            info.llbp_hit = true;
            info.llbp_pred = m.pred;
            info.llbp_weak = m.weak;
            info.llbp_hist_len = m.hist_len.min(u16::MAX as usize) as u16;
        }
        info.llbp_override = self.overrode;
        info
    }
}

#[derive(Debug, Clone, Copy)]
struct LlbpMatch {
    slot: usize,
    pred: bool,
    weak: bool,
    hist_len: usize,
}

/// Where the folded tag histories of one LLBP history length live.
#[derive(Debug, Clone, Copy)]
enum FoldSource {
    /// LLBP's own pair `folded_tag0[k]`, `folded_tag1[k]`.
    Own(usize),
    /// Tagged table `t` of the backing TAGE, which folds the same length
    /// to the same tag widths.
    Tage(usize),
}

/// The pattern tags of one prediction, hashed on first use.
struct TagMemo {
    tags: [u32; MAX_LENGTHS],
    known: u64,
}

impl TagMemo {
    fn new() -> Self {
        Self { tags: [0; MAX_LENGTHS], known: 0 }
    }

    fn get(&mut self, len_idx: usize, hash: impl FnOnce() -> u32) -> u32 {
        if self.known >> len_idx & 1 == 0 {
            self.tags[len_idx] = hash();
            self.known |= 1 << len_idx;
        }
        self.tags[len_idx]
    }
}

/// A snapshot of the composed predictor's speculative history state
/// (§V-E2 rollback support).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlbpCheckpoint {
    tsl: llbp_tage::TslCheckpoint,
    rcr: crate::rcr::RcrCheckpoint,
    folded_tag0: Vec<u32>,
    folded_tag1: Vec<u32>,
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
    params: LlbpParams,
    tsl: TageScl,
    rcr: RollingContextRegister,
    /// Per history-length index: where its folded tag pair lives.
    fold_source: Vec<FoldSource>,
    /// LLBP's own folded tag pairs, one per distinct length that no TAGE
    /// table folds at LLBP's tag width.
    folded_tag0: Vec<FoldedHistory>,
    folded_tag1: Vec<FoldedHistory>,
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
    /// Front-end target predictors (BTB/RAS/ITTAGE): their late redirects
    /// are the non-direction pipeline resets that squash prefetches.
    frontend: FrontEnd,
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
        params.validate().unwrap_or_else(|e| panic!("invalid LLBP params: {e}"));
        let tsl = TageScl::new(params.tsl.clone());
        let rcr = RollingContextRegister::new(
            params.window,
            params.prefetch_distance,
            params.cid_bits,
            params.history_kind,
        );
        // One folded pair per distinct length; a TAGE table with the same
        // length and tag width already folds exactly these values.
        let tage = &params.tsl.tage;
        let mut own_lengths: Vec<usize> = Vec::new();
        let fold_source = params
            .history_lengths
            .iter()
            .map(|&l| {
                let shared = (0..tage.num_tables())
                    .find(|&t| tage.history_lengths[t] == l && tage.tag_bits[t] == params.tag_bits);
                match shared {
                    Some(t) => FoldSource::Tage(t),
                    None => FoldSource::Own(
                        own_lengths.iter().position(|&o| o == l).unwrap_or_else(|| {
                            own_lengths.push(l);
                            own_lengths.len() - 1
                        }),
                    ),
                }
            })
            .collect();
        let folded_tag0 =
            own_lengths.iter().map(|&l| FoldedHistory::new(l, params.tag_bits)).collect();
        let folded_tag1 = own_lengths
            .iter()
            .map(|&l| FoldedHistory::new(l, (params.tag_bits - 1).max(1)))
            .collect();
        let storage = SetAssoc::new(params.cd_index_bits, params.cd_ways);
        let pb = SetAssoc::new(params.pb_index_bits, params.pb_ways);
        let geometry = SetGeometry::of(&params);
        let storage_sets = PatternArena::new(geometry, storage.num_sets() * storage.ways());
        let pb_sets = PatternArena::new(geometry, pb.num_sets() * pb.ways());
        Self {
            tsl,
            rcr,
            fold_source,
            folded_tag0,
            folded_tag1,
            storage,
            storage_sets,
            pb,
            pb_sets,
            prefetches: PrefetchQueue::new(),
            frontend: FrontEnd::new(),
            stats: LlbpStats::default(),
            pending: None,
            llbp_enabled: true,
            params,
        }
    }

    /// The parameters this instance was built from.
    #[must_use]
    pub fn params(&self) -> &LlbpParams {
        &self.params
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
    #[must_use]
    pub fn frontend(&self) -> &FrontEnd {
        &self.frontend
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

    /// Captures all speculative history state: the baseline's checkpoint
    /// plus the RCR and LLBP's folded pattern histories (§V-E2: "Rolling
    /// back the RCR can be done in the same way as for the folded
    /// history registers in TAGE").
    #[must_use]
    pub fn checkpoint(&self) -> LlbpCheckpoint {
        LlbpCheckpoint {
            tsl: self.tsl.checkpoint(),
            rcr: self.rcr.checkpoint(),
            folded_tag0: self.folded_tag0.iter().map(FoldedHistory::value).collect(),
            folded_tag1: self.folded_tag1.iter().map(FoldedHistory::value).collect(),
        }
    }

    /// Restores a checkpoint taken by [`LlbpPredictor::checkpoint`],
    /// rolling back every speculative history update made since (pattern
    /// sets train at commit and are unaffected). In-flight prefetches are
    /// squashed, as the hardware does on the triggering misprediction.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a different configuration.
    pub fn restore(&mut self, checkpoint: &LlbpCheckpoint) {
        assert_eq!(checkpoint.folded_tag0.len(), self.folded_tag0.len(), "config mismatch");
        self.tsl.restore(&checkpoint.tsl);
        self.rcr.restore(&checkpoint.rcr);
        for (f, &v) in self.folded_tag0.iter_mut().zip(&checkpoint.folded_tag0) {
            f.restore(v);
        }
        for (f, &v) in self.folded_tag1.iter_mut().zip(&checkpoint.folded_tag1) {
            f.restore(v);
        }
        self.prefetches.squash();
    }

    /// Current cycle under the fetch-width clock model.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.stats.cycles
    }

    fn storage_key(&self, cid: u64) -> (u64, u64) {
        (cid & ((1 << self.params.cd_index_bits) - 1), cid >> self.params.cd_index_bits)
    }

    fn pb_key(&self, cid: u64) -> (u64, u64) {
        (cid & ((1u64 << self.params.pb_index_bits) - 1), cid >> self.params.pb_index_bits)
    }

    /// The pattern tag of history-length index `len_idx` for `pc` under
    /// the current history.
    fn pattern_tag(&self, pc: u64, len_idx: usize) -> u32 {
        let (fold0, fold1) = match self.fold_source[len_idx] {
            FoldSource::Own(k) => (self.folded_tag0[k].value(), self.folded_tag1[k].value()),
            FoldSource::Tage(t) => self.tsl.tage().tag_folds(t),
        };
        bputil::hash::tage_tag(
            pc ^ (len_idx as u64).rotate_left(7),
            fold0,
            fold1,
            self.params.tag_bits,
        )
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
            let victim_cid = (victim_tag << self.params.pb_index_bits) | pi;
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
        let (row, _) = match self.params.cd_replacement {
            CdReplacement::Confidence => {
                let (sets, threshold) = (&self.storage_sets, self.params.confidence_threshold);
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

    /// A pipeline reset: squash in-flight prefetches, then restart
    /// prefetching from the recovered front-end state — the current and
    /// upcoming contexts are re-requested immediately (§VI: "all in-flight
    /// prefetches get squashed before LLBP restarts prefetching").
    fn pipeline_reset(&mut self) {
        self.stats.pipeline_resets += 1;
        self.prefetches.squash();
        let now = self.cycle();
        for cid in [self.rcr.current_cid(), self.rcr.prefetch_cid()] {
            let (pi, pt) = self.pb_key(cid);
            if self.pb.peek_slot(pi, pt).is_some() {
                continue;
            }
            let (si, st) = self.storage_key(cid);
            if self.storage.peek_slot(si, st).is_some() {
                self.prefetches.issue(cid, now, self.params.prefetch_delay);
            }
        }
    }

    /// The prediction half of [`Predictor::predict`]: everything up to the
    /// final direction, returned instead of stashed.
    fn lookup(&mut self, pc: u64) -> Pending {
        self.process_arrivals();
        let tage = self.tsl.lookup_tage(pc);
        let cid = self.rcr.current_cid();
        self.stats.predictions += 1;

        let (pi, pt) = self.pb_key(cid);
        let mut resident = if self.llbp_enabled { self.pb.get_slot(pi, pt) } else { None };
        if resident.is_some() {
            self.stats.pb_hits += 1;
        }
        if resident.is_none() && self.llbp_enabled {
            // The set may exist in LLBP storage but not have arrived yet.
            let (si, st) = self.storage_key(cid);
            if self.storage.peek_slot(si, st).is_some() {
                if self.params.prefetch_delay == 0 {
                    // LLBP-0Lat: storage is reachable within the cycle.
                    resident = self.fill_pb_from_storage(cid);
                } else {
                    self.stats.late_prefetches += 1;
                    // Demand-request the set for later predictions in this
                    // context.
                    let now = self.cycle();
                    self.prefetches.issue(cid, now, self.params.prefetch_delay);
                }
            }
        }

        // Only the lengths of occupied patterns are hashed, each once.
        let mut tags = TagMemo::new();
        let llbp = resident.and_then(|row| {
            let slot = self.pb_sets.find_longest(row, |len| {
                tags.get(usize::from(len), || self.pattern_tag(pc, usize::from(len)))
            })?;
            let p = self.pb_sets.pattern(row, slot).expect("slot was a match");
            Some(LlbpMatch {
                slot,
                pred: p.taken(),
                weak: p.is_weak(),
                hist_len: self.params.history_lengths[usize::from(p.len_idx())],
            })
        });

        // Length arbitration (§V-B): LLBP wins ties and longer histories,
        // replacing TAGE's direction *before* the statistical corrector
        // and loop predictor apply (footnote 2) — so the correctors also
        // catch LLBP's statistical noise. With the (ablation)
        // weak-override gate, a just-allocated pattern defers to a
        // baseline backed by a tagged TAGE match.
        let weak_blocked =
            |m: &LlbpMatch| self.params.weak_override_gate && m.weak && tage.provider.is_some();
        let inject = match &llbp {
            Some(m) if m.hist_len >= tage.provider_hist_len && !weak_blocked(m) => Some(m.pred),
            _ => None,
        };
        let overrode = inject.is_some();
        let tsl = self.tsl.finish_lookup(pc, tage, inject);

        // The pattern a provider misprediction would allocate: the next
        // length beyond the provider's.
        let base_len = match &llbp {
            Some(m) if overrode => m.hist_len,
            _ => tsl.tage.provider_hist_len,
        };
        let alloc = self
            .params
            .history_lengths
            .iter()
            .position(|&l| l > base_len)
            .map(|i| (i as u8, tags.get(i, || self.pattern_tag(pc, i))));

        Pending { pc, tsl, llbp, final_pred: tsl.pred, overrode, cid, alloc }
    }

    /// The training half of [`Predictor::train`] for a prediction made by
    /// [`LlbpPredictor::lookup`].
    fn commit(&mut self, pending: &Pending, taken: bool) {
        // Fig. 15 classification: compare the produced direction against
        // what the baseline (no LLBP injection) would have predicted.
        if pending.llbp.is_some() {
            let final_pred = pending.final_pred;
            let baseline = pending.tsl.baseline_pred;
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
            let mode = match self.params.cancel_policy {
                CancelPolicy::Always => UpdateMode::Cancelled,
                CancelPolicy::OnDisagree if m.pred != pending.tsl.tage.pred => {
                    UpdateMode::Cancelled
                }
                _ => UpdateMode::Full,
            };
            self.tsl.commit(&pending.tsl, taken, mode);
        } else {
            self.tsl.commit(&pending.tsl, taken, UpdateMode::Full);
        }

        // Allocation on a provider misprediction: a new pattern with the
        // next-longer history, in this context's set.
        let provider_pred = match &pending.llbp {
            Some(m) if pending.overrode => m.pred,
            _ => pending.tsl.pred,
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
}

impl Predictor for LlbpPredictor {
    fn predict(&mut self, pc: u64) -> bool {
        let pending = self.lookup(pc);
        let pred = pending.final_pred;
        self.pending = Some(pending);
        pred
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let pending = self.pending.take().expect("train() without a matching predict()");
        debug_assert_eq!(pending.pc, pc, "train() PC does not match predict()");
        self.commit(&pending, taken);
    }

    fn predict_train(&mut self, pc: u64, taken: bool) -> (bool, ProviderKind) {
        // Fused lookup+commit, as in `TageScl`: the ~0.5 KiB `TslLookup`
        // stays on this stack frame instead of round-tripping through
        // `self.pending`, which stays `None` as after a split `train()`.
        let pending = self.lookup(pc);
        let out = (pending.final_pred, pending.tsl.provider);
        self.commit(&pending, taken);
        out
    }

    fn predict_train_info(&mut self, pc: u64, taken: bool) -> (bool, PredictionInfo) {
        let pending = self.lookup(pc);
        let out = (pending.final_pred, pending.prediction_info());
        self.commit(&pending, taken);
        out
    }

    fn update_history(&mut self, record: &BranchRecord) {
        self.advance_history(record, false);
    }

    fn update_history_fast(&mut self, record: &BranchRecord) {
        self.advance_history(record, true);
    }

    fn last_provider(&self) -> ProviderKind {
        // `finish_lookup` already attributes injected predictions to LLBP
        // (or to the SC/loop predictor when they corrected it).
        self.pending.as_ref().map_or(ProviderKind::Bimodal, |p| p.tsl.provider)
    }

    fn last_prediction_info(&self, pred: bool) -> PredictionInfo {
        self.pending.as_ref().map_or_else(
            || PredictionInfo::from_provider(pred, ProviderKind::Bimodal),
            Pending::prediction_info,
        )
    }

    fn label(&self) -> &str {
        &self.params.label
    }

    fn storage_bits(&self) -> u64 {
        self.params.storage_bits()
            + self.params.cd_bits()
            + self.params.pb_bits()
            + self.params.tsl.storage_bits()
    }
}

impl LlbpPredictor {
    /// The shared body of [`Predictor::update_history`] /
    /// [`Predictor::update_history_fast`]: identical except that the fast
    /// variant advances every folded register branch-free
    /// ([`FoldedHistory::update_with_out_bit`], one outgoing-bit read per
    /// history length) and delegates to the backing TAGE-SC-L's fast path.
    fn advance_history(&mut self, record: &BranchRecord, fast: bool) {
        self.stats.instructions += record.instructions();
        self.stats.cycles = self.stats.instructions / self.params.fetch_width.max(1);
        self.process_arrivals();

        // Late front-end redirects (BTB misses on taken branches, RAS
        // mismatches, indirect-target mispredictions) flush the front-end
        // and squash LLBP's prefetches (§VI; the PHPWiki pathology,
        // §VII-A, is indirect-target driven).
        if self.frontend.observe(record).is_some() {
            self.pipeline_reset();
        }

        // LLBP's own folded pattern histories advance with the same bit
        // the backing TAGE pushes, and must fold *before* the GHR push.
        // (The pairs shared with TAGE tables advance inside the TAGE.)
        let bit = if record.kind() == BranchKind::Conditional {
            record.taken()
        } else {
            ((record.pc() >> 2) ^ (record.target() >> 3)) & 1 == 1
        };
        if fast {
            // `folded_tag0[k]` and `folded_tag1[k]` fold the same window —
            // one outgoing bit serves both.
            let ghr = self.tsl.ghr();
            for (f0, f1) in self.folded_tag0.iter_mut().zip(&mut self.folded_tag1) {
                let out = ghr.bit(f0.original_len() - 1);
                f0.update_with_out_bit(out, bit);
                f1.update_with_out_bit(out, bit);
            }
            self.tsl.update_history_fast(record);
        } else {
            for f in self.folded_tag0.iter_mut().chain(self.folded_tag1.iter_mut()) {
                f.update_before_push(self.tsl.ghr(), bit);
            }
            self.tsl.update_history(record);
        }

        // Context tracking + prefetch issue. The RCR always advances (so
        // re-enabling a power-gated LLBP is seamless); directory lookups
        // and prefetches only happen while enabled.
        if self.rcr.observes(record) {
            self.rcr.push(record.pc());
            if !self.llbp_enabled {
                return;
            }
            let upcoming = self.rcr.prefetch_cid();
            self.stats.cd_lookups += 1;
            let (si, st) = self.storage_key(upcoming);
            if self.storage.peek_slot(si, st).is_some() {
                self.stats.cd_hits += 1;
                let (pi, pt) = self.pb_key(upcoming);
                if self.pb.peek_slot(pi, pt).is_none() {
                    let now = self.cycle();
                    self.prefetches.issue(upcoming, now, self.params.prefetch_delay);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::{Trace, Workload, WorkloadSpec};

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
    fn storage_accounting_is_about_half_a_mebibyte() {
        let p = LlbpPredictor::new(LlbpParams::default());
        let kib = (p.storage_bits() - p.params().tsl.storage_bits()) as f64 / 8192.0;
        assert!((500.0..530.0).contains(&kib), "LLBP-side storage is {kib:.1} KiB");
    }
}
