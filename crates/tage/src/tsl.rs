//! The TAGE-SC-L composition: core TAGE, statistical corrector and loop
//! predictor, arbitrated as in CBP-5.

use crate::config::TslConfig;
use crate::loop_pred::{LoopLookup, LoopPredictor};
use crate::pool::TablePool;
use crate::predictor::{PredictionInfo, Predictor, ProviderKind};
use crate::sc::{ScLookup, StatisticalCorrector};
use crate::tage::{Tage, TageLookup, UpdateMode};
use bputil::history::HistoryBuffer;
use bputil::kernel::FoldId;
use llbp_trace::BranchRecord;

/// Everything computed during a TAGE-SC-L lookup.
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
    pending: Option<TslLookup>,
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
            pending: None,
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

    /// A folded history that advances with this predictor's history, in
    /// the TAGE's bank ([`Tage::register_fold`]).
    pub fn register_fold(&mut self, length: usize, width: u32) -> FoldId {
        self.tage.register_fold(length, width)
    }

    /// The current value of a register of [`TageScl::register_fold`].
    #[inline]
    #[must_use]
    pub fn fold(&self, id: FoldId) -> u32 {
        self.tage.fold(id)
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
    /// correctors then operate on the combined prediction).
    pub fn finish_lookup(&mut self, pc: u64, tage: TageLookup, inject: Option<bool>) -> TslLookup {
        let injected_dir = inject.unwrap_or(tage.pred);
        let mut pred = injected_dir;
        let mut baseline = tage.pred;
        let mut provider = if inject.is_some() {
            ProviderKind::Llbp
        } else {
            match tage.provider {
                Some(t) if !tage.used_alt => ProviderKind::Tage { table: t },
                Some(_) => tage
                    .alt_table
                    .map_or(ProviderKind::Bimodal, |t| ProviderKind::Tage { table: t }),
                None => ProviderKind::Bimodal,
            }
        };

        let sc = self.sc.as_mut().map(|s| {
            // The real datapath corrects the (possibly injected) direction;
            // the baseline path is recomputed for attribution only.
            let l = s.lookup(&tage, pred);
            let corrected = s.arbitrate(&l, pred);
            if corrected != pred {
                provider = ProviderKind::StatisticalCorrector;
                pred = corrected;
            }
            if inject.is_some() {
                let lb = s.lookup(&tage, baseline);
                if lb.confident && lb.pred != baseline {
                    baseline = lb.pred;
                }
            } else {
                baseline = pred;
            }
            l
        });

        let loop_lookup = self.loop_pred.as_mut().map(|lp| {
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

        TslLookup { tage, sc, loop_lookup, pred, baseline_pred: baseline, provider }
    }

    /// The core TAGE stage only (pure); combine with
    /// [`TageScl::finish_lookup`]. Between TAGE's hash loop and its table
    /// probes it prefetches every statistical-corrector row the finishing
    /// stage may read, so those loads overlap the probes.
    #[must_use]
    pub fn lookup_tage(&self, pc: u64) -> TageLookup {
        let mut tage = self.tage.hash_lookup(pc);
        if let Some(sc) = &self.sc {
            sc.prefetch(&tage);
        }
        self.tage.probe(&mut tage);
        tage
    }

    /// Trains all components with the resolved direction.
    ///
    /// With [`UpdateMode::Cancelled`] (LLBP overrode the baseline), the
    /// core TAGE cancels its update per §V-D; the SC and loop predictor
    /// still observe the outcome — they are outcome-trained side tables
    /// whose state LLBP does not replicate.
    pub fn commit(&mut self, lookup: &TslLookup, taken: bool, mode: UpdateMode) {
        if let (Some(lp), Some(ll)) = (&mut self.loop_pred, &lookup.loop_lookup) {
            lp.train(ll, taken, lookup.tage.pred, lookup.tage.pred != taken);
        }
        if let (Some(sc), Some(sl)) = (&mut self.sc, &lookup.sc) {
            sc.train(sl, taken);
        }
        self.tage.commit(&lookup.tage, taken, mode);
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

impl Predictor for TageScl {
    fn predict(&mut self, pc: u64) -> bool {
        let lookup = self.lookup(pc);
        let pred = lookup.pred;
        self.pending = Some(lookup);
        self.predictions += 1;
        pred
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let lookup = self.pending.take().expect("train() without a matching predict()");
        debug_assert_eq!(lookup.tage.pc, pc, "train() PC does not match predict()");
        self.commit(&lookup, taken, UpdateMode::Full);
    }

    fn predict_train(&mut self, pc: u64, taken: bool) -> (bool, ProviderKind) {
        // Fused lookup+commit: the ~0.5 KiB `TslLookup` never round-trips
        // through `self.pending` (predict stashes it, train takes it back
        // out), it lives on this stack frame only. `pending` stays `None`,
        // which is indistinguishable from the split path after `train()`.
        let lookup = self.lookup(pc);
        self.predictions += 1;
        let out = (lookup.pred, lookup.provider);
        self.commit(&lookup, taken, UpdateMode::Full);
        out
    }

    fn predict_train_info(&mut self, pc: u64, taken: bool) -> (bool, PredictionInfo) {
        // Same fusion as `predict_train`: the provenance record is filled
        // straight from the lookup this frame already computed, so the
        // recording path adds a few stores, not a second lookup.
        let lookup = self.lookup(pc);
        self.predictions += 1;
        let out = (lookup.pred, lookup.prediction_info());
        self.commit(&lookup, taken, UpdateMode::Full);
        out
    }

    fn update_history(&mut self, record: &BranchRecord) {
        TageScl::update_history(self, record);
    }

    fn update_history_fast(&mut self, record: &BranchRecord) {
        TageScl::update_history_fast(self, record);
    }

    fn last_provider(&self) -> ProviderKind {
        self.pending.as_ref().map_or(ProviderKind::Bimodal, |l| l.provider)
    }

    fn last_prediction_info(&self, pred: bool) -> PredictionInfo {
        self.pending.as_ref().map_or_else(
            || PredictionInfo::from_provider(pred, ProviderKind::Bimodal),
            TslLookup::prediction_info,
        )
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
