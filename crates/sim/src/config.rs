//! Simulation configuration and the predictor factory.

use crate::backend::BackendKind;
use crate::driver::{LlbpCellStats, SimResult, Simulator};
use crate::error::{CancelToken, SimError};
use llbp_core::{LlbpParams, LlbpPredictor};
use llbp_prov::ProvRecorder;
use llbp_tage::classic::{Gshare, HashedPerceptron, TwoLevelLocal};
use llbp_tage::{Predictor, TablePool, TageScl, TslConfig};
use llbp_trace::Trace;
use std::borrow::Cow;

/// Which predictor design to simulate — the paper's §VI model list.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorKind {
    /// The 64 KiB TAGE-SC-L baseline (`64K TSL`).
    Tsl64K,
    /// TSL with TAGE tables scaled by a power-of-two factor
    /// (`128K/256K/512K/1M TSL`).
    TslScaled(u32),
    /// Unbounded TAGE tables, baseline auxiliary components (`Inf TAGE`).
    InfTage,
    /// Unbounded TAGE tables and enlarged auxiliaries (`Inf TSL`).
    InfTsl,
    /// The Last-Level Branch Predictor over a 64K TSL baseline.
    Llbp(LlbpParams),
    /// Any custom TSL configuration.
    CustomTsl(TslConfig),
    /// Classic gshare with `2^index_bits` counters (historical baseline).
    Gshare {
        /// log2 entries of the counter table.
        index_bits: u32,
        /// Global history bits XORed into the index.
        history_bits: u32,
    },
    /// Classic two-level local-history predictor (PAg flavour).
    TwoLevelLocal {
        /// log2 entries of the per-branch history table.
        bht_bits: u32,
        /// Local history register width / log2 pattern-table entries.
        local_bits: u32,
    },
    /// Hashed perceptron (historical baseline).
    HashedPerceptron {
        /// Number of weight tables.
        tables: usize,
        /// log2 entries per weight table.
        index_bits: u32,
        /// History bits hashed per table segment.
        segment_bits: u32,
    },
}

impl PredictorKind {
    /// Instantiates the predictor.
    #[must_use]
    pub fn build(&self) -> Box<dyn Predictor> {
        match self {
            PredictorKind::Llbp(p) => Box::new(LlbpPredictor::new(p.clone())),
            PredictorKind::Gshare { index_bits, history_bits } => {
                Box::new(Gshare::new(*index_bits, *history_bits))
            }
            PredictorKind::TwoLevelLocal { bht_bits, local_bits } => {
                Box::new(TwoLevelLocal::new(*bht_bits, *local_bits))
            }
            PredictorKind::HashedPerceptron { tables, index_bits, segment_bits } => {
                Box::new(HashedPerceptron::new(*tables, *index_bits, *segment_bits))
            }
            tsl => {
                let cfg = tsl.tsl_config().expect("the other kinds are TSLs");
                Box::new(TageScl::with_pool(&cfg, &mut TablePool::new()))
            }
        }
    }

    /// The configuration of a TAGE-SC-L kind, built for a preset and
    /// borrowed from a [`PredictorKind::CustomTsl`]; `None` for LLBP and
    /// the classic predictors.
    pub(crate) fn tsl_config(&self) -> Option<Cow<'_, TslConfig>> {
        Some(match self {
            PredictorKind::Tsl64K => Cow::Owned(TslConfig::cbp64k()),
            PredictorKind::TslScaled(f) => Cow::Owned(TslConfig::scaled(*f)),
            PredictorKind::InfTage => Cow::Owned(TslConfig::infinite_tage()),
            PredictorKind::InfTsl => Cow::Owned(TslConfig::infinite_tsl()),
            PredictorKind::CustomTsl(cfg) => Cow::Borrowed(cfg),
            PredictorKind::Llbp(_)
            | PredictorKind::Gshare { .. }
            | PredictorKind::TwoLevelLocal { .. }
            | PredictorKind::HashedPerceptron { .. } => return None,
        })
    }

    /// This kind with a TAGE-SC-L preset replaced by the
    /// [`PredictorKind::CustomTsl`] of its configuration, which builds the
    /// same predictor under the same label and borrows the configuration.
    /// The sweep engine resolves each predictor once per run, so its cells
    /// build no configuration; other kinds are borrowed as they are.
    pub(crate) fn resolve_preset(&self) -> Cow<'_, PredictorKind> {
        match self {
            PredictorKind::Tsl64K
            | PredictorKind::TslScaled(_)
            | PredictorKind::InfTage
            | PredictorKind::InfTsl => Cow::Owned(PredictorKind::CustomTsl(
                self.tsl_config().expect("a TSL preset").into_owned(),
            )),
            other => Cow::Borrowed(other),
        }
    }

    /// Report label of the built predictor.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PredictorKind::Tsl64K => "64K TSL".into(),
            PredictorKind::TslScaled(f) => format!("{}K TSL", 64 * f),
            PredictorKind::InfTage => "Inf TAGE".into(),
            PredictorKind::InfTsl => "Inf TSL".into(),
            PredictorKind::Llbp(p) => p.label.clone(),
            PredictorKind::CustomTsl(cfg) => cfg.label.clone(),
            PredictorKind::Gshare { index_bits, .. } => format!("gshare-{index_bits}b"),
            PredictorKind::TwoLevelLocal { bht_bits, local_bits } => {
                format!("2level-{bht_bits}x{local_bits}")
            }
            PredictorKind::HashedPerceptron { tables, index_bits, .. } => {
                format!("perceptron-{tables}x{index_bits}b")
            }
        }
    }

    /// A stable string describing this predictor for cache fingerprinting:
    /// the `Debug` form, which covers every configuration field.
    #[must_use]
    pub fn fingerprint_text(&self) -> String {
        format!("{self:?}")
    }
}

/// Simulation parameters (warmup split, probes, execution backend).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Fraction of records used as warmup: statistics are collected only
    /// after this point (the paper warms 100M of 300M instructions).
    pub warmup_fraction: f64,
    /// Record per-static-branch misprediction counts (Fig. 3 probes).
    pub track_per_branch: bool,
    /// Which execution backend runs the hot loop (see [`crate::backend`]).
    /// A pure throughput choice: backends are parity-pinned to produce
    /// identical results, so this field is excluded from memo fingerprints
    /// ([`SimConfig::fingerprint_text`]).
    pub backend: BackendKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { warmup_fraction: 1.0 / 3.0, track_per_branch: false, backend: BackendKind::Auto }
    }
}

impl SimConfig {
    /// Returns the config with the execution backend replaced.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// A stable string describing the *result-relevant* configuration for
    /// cache fingerprinting. Deliberately excludes [`SimConfig::backend`]
    /// — backends are parity-pinned, so a cell memoized under one backend
    /// is valid for all of them — and reproduces the pre-backend `Debug`
    /// format exactly so existing memo stores stay warm.
    #[must_use]
    pub fn fingerprint_text(&self) -> String {
        format!(
            "SimConfig {{ warmup_fraction: {:?}, track_per_branch: {:?} }}",
            self.warmup_fraction, self.track_per_branch
        )
    }
    /// Runs `kind` over `trace` and returns the measured result.
    ///
    /// For LLBP designs the result additionally carries the predictor's
    /// internal statistics ([`SimResult::llbp`]) so bandwidth/energy/
    /// breakdown analyses can run through the sweep engine.
    #[must_use]
    pub fn run(&self, kind: PredictorKind, trace: &Trace) -> SimResult {
        match self.run_cancellable(kind, trace, &CancelToken::none()) {
            Ok(result) => result,
            Err(_) => unreachable!("a no-op cancel token never fires"),
        }
    }

    /// [`SimConfig::run`] under a cooperative [`CancelToken`]: the sweep
    /// engine's watchdog path, where a hung cell must abandon itself at
    /// the token's deadline instead of stalling the whole campaign.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_cancellable(
        &self,
        kind: PredictorKind,
        trace: &Trace,
        token: &CancelToken,
    ) -> Result<SimResult, SimError> {
        self.run_observed(kind, trace, token, &llbp_obs::Counter::noop())
    }

    /// [`SimConfig::run_cancellable`] with a sampled progress counter
    /// threaded into the hot loop (see [`Simulator::run_observed`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_observed(
        &self,
        kind: PredictorKind,
        trace: &Trace,
        token: &CancelToken,
        records: &llbp_obs::Counter,
    ) -> Result<SimResult, SimError> {
        self.run_recorded(kind, trace, token, records, &mut ProvRecorder::disabled())
    }

    /// [`SimConfig::run_observed`] with a provenance recorder threaded
    /// into whichever execution backend runs the cell (see
    /// [`Simulator::run_recorded`]). A disabled recorder leaves every
    /// backend's loop — and therefore every result and output byte —
    /// exactly as it was without the recorder.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_recorded(
        &self,
        kind: PredictorKind,
        trace: &Trace,
        token: &CancelToken,
        records: &llbp_obs::Counter,
        prov: &mut ProvRecorder,
    ) -> Result<SimResult, SimError> {
        self.run_pooled(&kind, trace, token, records, prov, &mut TablePool::new())
    }

    /// [`SimConfig::run_recorded`] with `kind` by reference and every
    /// TAGE-SC-L and LLBP built on `pool`'s tables and handed back to it,
    /// also when the token fires. The sweep engine keeps one pool per
    /// worker for a run, so a worker builds its predictors' large tables
    /// once per run instead of once per cell (see [`TablePool`]).
    pub(crate) fn run_pooled(
        &self,
        kind: &PredictorKind,
        trace: &Trace,
        token: &CancelToken,
        records: &llbp_obs::Counter,
        prov: &mut ProvRecorder,
        pool: &mut TablePool,
    ) -> Result<SimResult, SimError> {
        match self.backend.resolve() {
            BackendKind::Reference => self.run_reference(kind, trace, token, records, prov, pool),
            BackendKind::Batch => {
                crate::backend::run_batch(self, kind, trace, token, records, prov, pool)
            }
            BackendKind::Auto => unreachable!("resolve() always returns a concrete backend"),
        }
    }

    /// The reference backend: the original scalar `dyn Predictor` loop.
    fn run_reference(
        &self,
        kind: &PredictorKind,
        trace: &Trace,
        token: &CancelToken,
        records: &llbp_obs::Counter,
        prov: &mut ProvRecorder,
        pool: &mut TablePool,
    ) -> Result<SimResult, SimError> {
        let sim = Simulator::new(*self);
        if let PredictorKind::Llbp(params) = kind {
            let mut predictor = LlbpPredictor::with_pool(params, pool);
            let result = sim
                .run_recorded(&mut predictor, trace, token, records, prov)
                .map(|r| SimResult { llbp: Some(LlbpCellStats::of(&predictor)), ..r });
            predictor.into_pool(pool);
            return result;
        }
        match kind.tsl_config() {
            Some(cfg) => {
                let mut predictor = TageScl::with_pool(&cfg, pool);
                let result = sim.run_recorded(&mut predictor, trace, token, records, prov);
                predictor.into_pool(pool);
                result
            }
            None => sim.run_recorded(kind.build().as_mut(), trace, token, records, prov),
        }
    }

    /// Runs a pre-built predictor (for callers that need to inspect its
    /// internal state afterwards, e.g. LLBP statistics).
    #[must_use]
    pub fn run_predictor(&self, predictor: &mut dyn Predictor, trace: &Trace) -> SimResult {
        Simulator::new(*self).run(predictor, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::{Workload, WorkloadSpec};

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(PredictorKind::Tsl64K.label(), "64K TSL");
        assert_eq!(PredictorKind::TslScaled(8).label(), "512K TSL");
        assert_eq!(PredictorKind::InfTsl.label(), "Inf TSL");
        assert_eq!(PredictorKind::Llbp(LlbpParams::default()).label(), "LLBP");
    }

    #[test]
    fn fingerprint_text_excludes_backend() {
        let base = SimConfig::default();
        for backend in BackendKind::CONCRETE {
            assert_eq!(
                base.with_backend(backend).fingerprint_text(),
                base.fingerprint_text(),
                "backend choice must not split memo caches"
            );
        }
        let tracked = SimConfig { track_per_branch: true, ..base };
        assert_ne!(tracked.fingerprint_text(), base.fingerprint_text());
    }

    #[test]
    fn run_produces_consistent_result() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(5_000).generate();
        let r = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        assert!(r.conditional_branches > 0);
        assert!(r.mispredictions <= r.conditional_branches);
        assert!(r.mpki() >= 0.0);
    }
}
