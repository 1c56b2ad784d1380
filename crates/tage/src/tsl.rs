//! The TAGE-SC-L composition: core TAGE, statistical corrector and loop
//! predictor, arbitrated as in CBP-5.

use crate::config::TslConfig;
use crate::history::TageHistory;
use crate::loop_pred::{LoopLookup, LoopPredictor};
use crate::pool::TablePool;
use crate::predictor::{PredictionInfo, Predictor, ProviderKind};
use crate::sc::{ScLookup, StatisticalCorrector};
use crate::tage::{Tage, TageLookup, UpdateMode};
use bputil::history::HistoryBuffer;
use llbp_trace::BranchRecord;

/// Everything computed during a TAGE-SC-L lookup.
///
/// A [`TageScl`] keeps the lookup of the branch in flight as a field and
/// runs its stages on it in place ([`TageScl::lookup_tage_in_flight`],
/// [`TageScl::finish_in_flight`], [`TageScl::commit_in_flight`]); the
/// by-value [`TageScl::lookup`], [`TageScl::lookup_tage`],
/// [`TageScl::finish_lookup`] and [`TageScl::commit`] run the same stage
/// bodies on a lookup of their own.
///
/// The hashes of a lookup's first stage are a pure function of the trace
/// and the history geometry. Predictors of one geometry can therefore run
/// from hashes a shared [`TageHistory`] computed
/// ([`TageScl::lookup_tage_staged`], [`TageScl::predict_train_staged`]):
/// they then advance no history of their own.
#[derive(Debug, Clone, Copy)]
pub struct TslLookup {
    /// The core TAGE lookup (LLBP arbitrates against its history length).
    pub tage: TageLookup,
    /// The statistical corrector's view of the *used* datapath, when SC
    /// is enabled.
    pub sc: Option<ScLookup>,
    /// The loop predictor's view, when enabled.
    pub loop_lookup: Option<LoopLookup>,
    /// Final direction of the composition.
    pub pred: bool,
    /// What the composition would have predicted *without* an injected
    /// TAGE replacement (equals `pred` when nothing was injected). Used
    /// to attribute good/bad overrides (Fig. 15).
    pub baseline_pred: bool,
    /// Which component provided the final direction.
    pub provider: ProviderKind,
}

impl TslLookup {
    /// A lookup of nothing, for a caller to look up into.
    const EMPTY: Self = Self {
        tage: TageLookup::EMPTY,
        sc: None,
        loop_lookup: None,
        pred: false,
        baseline_pred: false,
        provider: ProviderKind::Bimodal,
    };

    /// Provenance record of this lookup. The LLBP fields stay at their
    /// defaults; the composite predictor in `crates/core` fills them in
    /// when it wraps this lookup.
    #[must_use]
    pub fn prediction_info(&self) -> PredictionInfo {
        PredictionInfo {
            pred: self.pred,
            baseline_pred: self.baseline_pred,
            provider: self.provider,
            tage_hit: self.tage.provider.is_some(),
            provider_pred: self.tage.provider_pred,
            provider_weak: self.tage.provider_weak,
            alt_pred: self.tage.alt_pred,
            used_alt: self.tage.used_alt,
            provider_hist_len: self.tage.provider_hist_len.min(u16::MAX as usize) as u16,
            ..PredictionInfo::default()
        }
    }
}

/// The full TAGE-SC-L predictor (the paper's `64K TSL` baseline and its
/// scaled/infinite variants, depending on [`TslConfig`]).
#[derive(Debug, Clone)]
pub struct TageScl {
    tage: Tage,
    sc: Option<StatisticalCorrector>,
    loop_pred: Option<LoopPredictor>,
    /// The configuration's label and [`TslConfig::storage_bits`]: all of
    /// it this predictor reads after construction.
    label: String,
    storage_bits: u64,
    /// The lookup of the branch in flight, written and read in place by
    /// the lookup stages and the commit.
    flight: TslLookup,
    /// Whether `flight` holds a [`Predictor::predict`] that
    /// [`Predictor::train`] has yet to commit.
    pending: bool,
    predictions: u64,
}

impl TageScl {
    /// Builds the composition from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TslConfig::validate`].
    #[must_use]
    pub fn new(cfg: TslConfig) -> Self {
        Self::with_pool(&cfg, &mut TablePool::new())
    }

    /// [`TageScl::new`] on `pool`'s tables: TAGE's table block, bimodal
    /// tables, history buffer, fold bank and hash lanes, the loop
    /// predictor, the statistical corrector's component tables and, for
    /// infinite TAGE storage, its arena and run map. Predicts exactly as a
    /// fresh build does. Reads `cfg` without keeping it: the predictor
    /// copies its label and the scalars it reads. Hand the tables back
    /// with [`TageScl::into_pool`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TslConfig::validate`].
    #[must_use]
    pub fn with_pool(cfg: &TslConfig, pool: &mut TablePool) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid TSL config: {e}"));
        let mut tage = Tage::with_pool(&cfg.tage, pool);
        let sc = cfg.sc_enabled.then(|| {
            StatisticalCorrector::with_pool(
                cfg.sc_index_bits,
                &cfg.sc_history_lengths,
                &mut tage,
                pool,
            )
        });
        let loop_pred = cfg.loop_enabled.then(|| pool.loop_predictor(cfg.loop_index_bits));
        Self {
            tage,
            sc,
            loop_pred,
            label: cfg.label.clone(),
            storage_bits: cfg.storage_bits(),
            flight: TslLookup::EMPTY,
            pending: false,
            predictions: 0,
        }
    }

    /// Hands the tables [`TageScl::with_pool`] takes to `pool`, for the
    /// next predictor built on it.
    pub fn into_pool(self, pool: &mut TablePool) {
        if let Some(sc) = self.sc {
            sc.into_pool(pool);
        }
        if let Some(lp) = self.loop_pred {
            pool.put_loop_predictor(lp);
        }
        self.tage.into_pool(pool);
    }

    /// Access to the core TAGE (for probes and LLBP composition).
    #[must_use]
    pub fn tage(&self) -> &Tage {
        &self.tage
    }

    /// The shared global history buffer.
    #[must_use]
    pub fn ghr(&self) -> &HistoryBuffer {
        self.tage.ghr()
    }

    /// The histories and hash lanes, for a composed predictor that
    /// registers folds and side lanes of its own ([`Tage::history_mut`]).
    pub fn history_mut(&mut self) -> &mut TageHistory {
        self.tage.history_mut()
    }

    /// Performs a full lookup without committing any state (except loop
    /// predictor engagement statistics): [`TageScl::lookup_tage`], then
    /// [`TageScl::finish_lookup`].
    pub fn lookup(&mut self, pc: u64) -> TslLookup {
        let tage = self.lookup_tage(pc);
        self.finish_lookup(pc, tage, None)
    }

    /// Completes a lookup from a pre-computed TAGE stage, optionally
    /// *replacing* TAGE's direction with `inject` before the statistical
    /// corrector and loop predictor apply — the composition point LLBP
    /// uses (§V-B, footnote 2: LLBP overrides TAGE, and the auxiliary
    /// correctors then operate on the combined prediction). The by-value
    /// form of [`TageScl::finish_in_flight`].
    pub fn finish_lookup(&mut self, pc: u64, tage: TageLookup, inject: Option<bool>) -> TslLookup {
        let mut lookup = TslLookup { tage, ..TslLookup::EMPTY };
        finish_stage(self.sc.as_mut(), self.loop_pred.as_mut(), pc, inject, &mut lookup);
        lookup
    }

    /// The core TAGE stage only (pure); combine with
    /// [`TageScl::finish_lookup`]. The by-value form of
    /// [`TageScl::lookup_tage_in_flight`].
    #[must_use]
    pub fn lookup_tage(&self, pc: u64) -> TageLookup {
        let mut tage = TageLookup::EMPTY;
        tage_stage(&self.tage, self.sc.as_ref(), pc, None, &mut tage);
        tage
    }

    /// Trains all components with the resolved direction of `lookup`, a
    /// lookup of this predictor. The by-value form of
    /// [`TageScl::commit_in_flight`].
    ///
    /// With [`UpdateMode::Cancelled`] (LLBP overrode the baseline), the
    /// core TAGE cancels its update per §V-D; the SC and loop predictor
    /// still observe the outcome — they are outcome-trained side tables
    /// whose state LLBP does not replicate.
    pub fn commit(&mut self, lookup: &TslLookup, taken: bool, mode: UpdateMode) {
        commit_stage(
            &mut self.tage,
            self.sc.as_mut(),
            self.loop_pred.as_mut(),
            lookup,
            taken,
            mode,
        );
    }

    /// The first stage of the lookup in flight: the TAGE stage for the
    /// conditional branch at `pc`, in place. Between TAGE's hash loop,
    /// which writes every hash into the lookup, and its table probes, it
    /// prefetches every statistical-corrector row the finishing stage may
    /// read, so those loads overlap the probes. Returns the TAGE part;
    /// [`TageScl::finish_in_flight`] completes the lookup.
    pub fn lookup_tage_in_flight(&mut self, pc: u64) -> &TageLookup {
        tage_stage(&self.tage, self.sc.as_ref(), pc, None, &mut self.flight.tage);
        &self.flight.tage
    }

    /// [`TageScl::lookup_tage_in_flight`] from `hashes`, every lane's hash
    /// for `pc` as a [`TageHistory`] of this predictor's geometry computed
    /// them ([`TageHistory::hash`]) in place of this predictor's own
    /// history. The lookup copies this predictor's lanes from `hashes`;
    /// lanes past them are ignored.
    pub fn lookup_tage_staged(&mut self, pc: u64, hashes: &[u32]) -> &TageLookup {
        tage_stage(&self.tage, self.sc.as_ref(), pc, Some(hashes), &mut self.flight.tage);
        &self.flight.tage
    }

    /// The second stage of the lookup in flight: the statistical corrector
    /// and the loop predictor, with TAGE's direction replaced by `inject`
    /// when given (the composition point of [`TageScl::finish_lookup`]).
    pub fn finish_in_flight(&mut self, inject: Option<bool>) -> &TslLookup {
        let pc = self.flight.tage.pc;
        finish_stage(self.sc.as_mut(), self.loop_pred.as_mut(), pc, inject, &mut self.flight);
        &self.flight
    }

    /// The last stage: trains every component with the resolved direction
    /// of the lookup in flight, as [`TageScl::commit`] does.
    pub fn commit_in_flight(&mut self, taken: bool, mode: UpdateMode) {
        let (sc, lp) = (self.sc.as_mut(), self.loop_pred.as_mut());
        commit_stage(&mut self.tage, sc, lp, &self.flight, taken, mode);
    }

    /// The lookup in flight: what the last lookup stages computed.
    #[must_use]
    pub fn in_flight(&self) -> &TslLookup {
        &self.flight
    }

    /// Both lookup stages in flight for `pc`, the first from `staged`
    /// hashes when given, then the prediction count.
    #[inline]
    fn predict_in_flight(&mut self, pc: u64, staged: Option<&[u32]>) {
        tage_stage(&self.tage, self.sc.as_ref(), pc, staged, &mut self.flight.tage);
        self.finish_in_flight(None);
        self.predictions += 1;
    }

    /// [`Predictor::predict_train`] from the hashes a shared
    /// [`TageHistory`] of this predictor's geometry computed for `pc`
    /// ([`TageScl::lookup_tage_staged`]). The predictor's own history does
    /// not advance: its owner advances the shared one.
    pub fn predict_train_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, ProviderKind) {
        self.predict_in_flight(pc, Some(hashes));
        self.pending = false;
        let out = (self.flight.pred, self.flight.provider);
        self.commit_in_flight(taken, UpdateMode::Full);
        out
    }

    /// [`Predictor::predict_train_info`] from staged hashes, as
    /// [`TageScl::predict_train_staged`].
    pub fn predict_train_info_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, PredictionInfo) {
        self.predict_in_flight(pc, Some(hashes));
        self.pending = false;
        let out = (self.flight.pred, self.flight.prediction_info());
        self.commit_in_flight(taken, UpdateMode::Full);
        out
    }

    /// Advances histories for a retired branch of any kind: the TAGE's
    /// bank holds the SC's folds (and any registered ones) too.
    pub fn update_history(&mut self, record: &BranchRecord) {
        self.tage.update_history(record);
    }

    /// [`TageScl::update_history`] through the bank's branch-free loop
    /// ([`Tage::update_history_fast`]). Bit-identical.
    pub fn update_history_fast(&mut self, record: &BranchRecord) {
        self.tage.update_history_fast(record);
    }

    /// Conditional branch predictions made so far.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Captures all speculative history state (§V-E2): the TAGE's, whose
    /// bank holds the SC's folds. Prediction tables train at commit and
    /// are not included.
    #[must_use]
    pub fn checkpoint(&self) -> TslCheckpoint {
        TslCheckpoint { tage: self.tage.checkpoint() }
    }

    /// Restores a checkpoint taken by [`TageScl::checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a different configuration.
    pub fn restore(&mut self, checkpoint: &TslCheckpoint) {
        self.tage.restore(&checkpoint.tage);
    }
}

/// A snapshot of TAGE-SC-L's speculative history state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TslCheckpoint {
    tage: crate::tage::TageCheckpoint,
}

/// The TAGE stage of a lookup into `out`: TAGE's hash loop (or a copy of
/// the `staged` hashes a shared history computed), the corrector's
/// prefetch, then TAGE's probes.
#[inline]
fn tage_stage(
    tage: &Tage,
    sc: Option<&StatisticalCorrector>,
    pc: u64,
    staged: Option<&[u32]>,
    out: &mut TageLookup,
) {
    match staged {
        None => tage.hash_into(pc, out),
        Some(hashes) => tage.take_hashes(pc, hashes, out),
    }
    if let Some(sc) = sc {
        sc.prefetch(out);
    }
    tage.probe(out);
}

/// The finishing stage of `lookup`, whose TAGE stage is done: the
/// statistical corrector and the loop predictor correct the direction
/// (TAGE's, or `inject` in its place) and the provider is attributed.
#[inline]
fn finish_stage(
    sc: Option<&mut StatisticalCorrector>,
    loop_pred: Option<&mut LoopPredictor>,
    pc: u64,
    inject: Option<bool>,
    lookup: &mut TslLookup,
) {
    let tage = &lookup.tage;
    let mut pred = inject.unwrap_or(tage.pred);
    let mut baseline = tage.pred;
    let mut provider = if inject.is_some() {
        ProviderKind::Llbp
    } else {
        match tage.provider {
            Some(t) if !tage.used_alt => ProviderKind::Tage { table: t },
            Some(_) => {
                tage.alt_table.map_or(ProviderKind::Bimodal, |t| ProviderKind::Tage { table: t })
            }
            None => ProviderKind::Bimodal,
        }
    };

    lookup.sc = sc.map(|s| {
        // The real datapath corrects the (possibly injected) direction;
        // the baseline path is recomputed for attribution only.
        let l = s.lookup(tage, pred);
        let corrected = s.arbitrate(&l, pred);
        if corrected != pred {
            provider = ProviderKind::StatisticalCorrector;
            pred = corrected;
        }
        if inject.is_some() {
            let lb = s.lookup(tage, baseline);
            if lb.confident && lb.pred != baseline {
                baseline = lb.pred;
            }
        } else {
            baseline = pred;
        }
        l
    });

    lookup.loop_lookup = loop_pred.map(|lp| {
        let l = lp.lookup(pc);
        if let Some(p) = l.pred {
            if p != pred {
                provider = ProviderKind::Loop;
            }
            pred = p;
            baseline = p;
        }
        l
    });

    lookup.pred = pred;
    lookup.baseline_pred = baseline;
    lookup.provider = provider;
}

/// Trains the components of a TAGE-SC-L with the resolved direction of
/// `lookup`.
#[inline]
fn commit_stage(
    tage: &mut Tage,
    sc: Option<&mut StatisticalCorrector>,
    loop_pred: Option<&mut LoopPredictor>,
    lookup: &TslLookup,
    taken: bool,
    mode: UpdateMode,
) {
    if let (Some(lp), Some(ll)) = (loop_pred, &lookup.loop_lookup) {
        lp.train(ll, taken, lookup.tage.pred, lookup.tage.pred != taken);
    }
    if let (Some(sc), Some(sl)) = (sc, &lookup.sc) {
        sc.train(sl, taken);
    }
    tage.commit(&lookup.tage, taken, mode);
}

impl Predictor for TageScl {
    fn predict(&mut self, pc: u64) -> bool {
        self.predict_in_flight(pc, None);
        self.pending = true;
        self.flight.pred
    }

    fn train(&mut self, pc: u64, taken: bool) {
        assert!(std::mem::take(&mut self.pending), "train() without a matching predict()");
        debug_assert_eq!(self.flight.tage.pc, pc, "train() PC does not match predict()");
        self.commit_in_flight(taken, UpdateMode::Full);
    }

    fn predict_train(&mut self, pc: u64, taken: bool) -> (bool, ProviderKind) {
        // Fused lookup+commit on the lookup in flight. `pending` ends
        // `false`, as after the split path's `train()`.
        self.predict_in_flight(pc, None);
        self.pending = false;
        let out = (self.flight.pred, self.flight.provider);
        self.commit_in_flight(taken, UpdateMode::Full);
        out
    }

    fn predict_train_info(&mut self, pc: u64, taken: bool) -> (bool, PredictionInfo) {
        // Same fusion as `predict_train`: the provenance record is filled
        // straight from the lookup in flight, so the recording path adds a
        // few stores, not a second lookup.
        self.predict_in_flight(pc, None);
        self.pending = false;
        let out = (self.flight.pred, self.flight.prediction_info());
        self.commit_in_flight(taken, UpdateMode::Full);
        out
    }

    fn update_history(&mut self, record: &BranchRecord) {
        TageScl::update_history(self, record);
    }

    fn update_history_fast(&mut self, record: &BranchRecord) {
        TageScl::update_history_fast(self, record);
    }

    fn last_provider(&self) -> ProviderKind {
        if self.pending {
            self.flight.provider
        } else {
            ProviderKind::Bimodal
        }
    }

    fn last_prediction_info(&self, pred: bool) -> PredictionInfo {
        if self.pending {
            self.flight.prediction_info()
        } else {
            PredictionInfo::from_provider(pred, ProviderKind::Bimodal)
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn storage_bits(&self) -> u64 {
        self.storage_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TslConfig;
    use llbp_trace::{BranchKind, Workload, WorkloadSpec};

    /// Runs a workload through a predictor and returns MPKI.
    fn mpki(cfg: TslConfig, workload: Workload, branches: usize) -> f64 {
        let trace = WorkloadSpec::named(workload).with_branches(branches).generate();
        let mut p = TageScl::new(cfg);
        let mut mispredicts = 0u64;
        for r in &trace {
            if r.kind() == BranchKind::Conditional {
                let l = p.lookup(r.pc());
                if l.pred != r.taken() {
                    mispredicts += 1;
                }
                p.commit(&l, r.taken(), UpdateMode::Full);
            }
            TageScl::update_history(&mut p, r);
        }
        mispredicts as f64 * 1000.0 / trace.instructions() as f64
    }

    #[test]
    fn baseline_predicts_far_better_than_chance() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(50_000).generate();
        let mut p = TageScl::new(TslConfig::cbp64k());
        let mut mispredicts = 0u64;
        let mut conds = 0u64;
        for r in &trace {
            if r.kind() == BranchKind::Conditional {
                conds += 1;
                if p.predict(r.pc()) != r.taken() {
                    mispredicts += 1;
                }
                p.train(r.pc(), r.taken());
            }
            Predictor::update_history(&mut p, r);
        }
        // Even warming up on a short trace the predictor must beat a
        // static guess by a wide margin (the workload's taken rate is
        // ≈0.5, so chance is ≈0.5).
        let rate = mispredicts as f64 / conds as f64;
        assert!(rate < 0.25, "misprediction rate {rate:.3} too high");
    }

    #[test]
    fn fast_paths_are_bit_identical_to_reference_paths() {
        // Drive two clones of the full TAGE-SC-L over the same trace: one
        // through the split reference sequence, one through the fused
        // `predict_train` + branch-free `update_history_fast`. Every
        // prediction, every provider, and the complete speculative history
        // state must agree at every step — this is the contract that lets
        // the non-reference simulation backends use the fast paths.
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(20_000).generate();
        let mut slow = TageScl::new(TslConfig::cbp64k());
        let mut fast = slow.clone();
        let mut prov = slow.clone();
        for (i, r) in trace.iter().enumerate() {
            if r.kind() == BranchKind::Conditional {
                let pred = slow.predict(r.pc());
                let provider = Predictor::last_provider(&slow);
                let info = Predictor::last_prediction_info(&slow, pred);
                slow.train(r.pc(), r.taken());
                let (fast_pred, fast_provider) = fast.predict_train(r.pc(), r.taken());
                assert_eq!(pred, fast_pred, "prediction diverged at record {i}");
                assert_eq!(provider, fast_provider, "provider diverged at record {i}");
                let (prov_pred, prov_info) = prov.predict_train_info(r.pc(), r.taken());
                assert_eq!(pred, prov_pred, "info-path prediction diverged at record {i}");
                assert_eq!(info, prov_info, "provenance record diverged at record {i}");
                assert_eq!(info.pred, pred);
                assert_eq!(info.provider, provider);
            }
            Predictor::update_history(&mut slow, r);
            Predictor::update_history_fast(&mut fast, r);
            Predictor::update_history_fast(&mut prov, r);
            assert_eq!(slow.checkpoint(), fast.checkpoint(), "history diverged at record {i}");
            assert_eq!(slow.checkpoint(), prov.checkpoint(), "info-path history diverged at {i}");
        }
        assert_eq!(slow.predictions(), fast.predictions());
        assert_eq!(slow.predictions(), prov.predictions());
    }

    #[test]
    fn staged_hashes_predict_as_the_predictors_own_history() {
        // Two TSLs of one geometry (64K TSL and Inf TAGE) run from one
        // shared history beside lone builds of both: every prediction,
        // provider and provenance record agrees.
        let trace = WorkloadSpec::named(Workload::Tomcat).with_branches(20_000).generate();
        let mut pool = crate::TablePool::new();
        let cfgs = [TslConfig::cbp64k(), TslConfig::infinite_tage()];
        let mut shared = TageHistory::for_tsl(&cfgs[0], &mut pool);
        let mut lone: Vec<TageScl> = cfgs.iter().map(|c| TageScl::new(c.clone())).collect();
        let mut staged: Vec<TageScl> = cfgs.iter().map(|c| TageScl::new(c.clone())).collect();
        let mut hashes = vec![0; shared.lanes().stride()];
        for (i, r) in trace.iter().enumerate() {
            if r.kind() == BranchKind::Conditional {
                shared.hash(r.pc(), &mut hashes);
                for (k, (lone, staged)) in lone.iter_mut().zip(&mut staged).enumerate() {
                    let want = lone.predict_train_info(r.pc(), r.taken());
                    if k == 0 {
                        let got = staged.predict_train_info_staged(r.pc(), r.taken(), &hashes);
                        assert_eq!(got, want, "{} diverged at record {i}", lone.label());
                    } else {
                        let got = staged.predict_train_staged(r.pc(), r.taken(), &hashes);
                        assert_eq!(
                            got,
                            (want.0, want.1.provider),
                            "{} at record {i}",
                            lone.label()
                        );
                    }
                }
            }
            shared.advance(r);
            for p in &mut lone {
                p.update_history_fast(r);
            }
        }
        assert_eq!(lone[1].tage().infinite_entries(), staged[1].tage().infinite_entries());
    }

    #[test]
    fn infinite_beats_baseline() {
        let base = mpki(TslConfig::cbp64k(), Workload::NodeApp, 120_000);
        let inf = mpki(TslConfig::infinite_tage(), Workload::NodeApp, 120_000);
        assert!(inf < base, "Inf TAGE ({inf:.3} MPKI) should beat 64K TSL ({base:.3} MPKI)");
    }

    #[test]
    fn scaled_beats_baseline() {
        let base = mpki(TslConfig::cbp64k(), Workload::Tpcc, 120_000);
        let big = mpki(TslConfig::scaled(8), Workload::Tpcc, 120_000);
        assert!(big < base, "512K TSL ({big:.3} MPKI) should beat 64K TSL ({base:.3} MPKI)");
    }

    #[test]
    #[should_panic(expected = "train() without a matching predict()")]
    fn train_requires_predict() {
        let mut p = TageScl::new(TslConfig::cbp64k());
        p.train(0x1000, true);
    }

    #[test]
    fn provider_is_reported() {
        let mut p = TageScl::new(TslConfig::cbp64k());
        let _ = p.predict(0x1000);
        // Fresh predictor: bimodal provides.
        assert_eq!(p.last_provider(), ProviderKind::Bimodal);
        p.train(0x1000, true);
    }

    #[test]
    fn label_and_storage() {
        let p = TageScl::new(TslConfig::cbp64k());
        assert_eq!(p.label(), "64K TSL");
        assert!(p.storage_bits() > 0);
    }
}
