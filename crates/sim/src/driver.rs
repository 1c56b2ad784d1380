//! The trace-driven simulation loop.

use crate::config::SimConfig;
use crate::error::{CancelToken, SimError};
use bputil::hash::FastHashMap;
use llbp_core::{LlbpPredictor, LlbpStats};
use llbp_prov::ProvRecorder;
use llbp_tage::{FrontEndStats, Predictor, ProviderKind};
use llbp_trace::{BranchKind, Trace};

/// Internal LLBP predictor statistics captured alongside a [`SimResult`]
/// when the simulated design is an LLBP (bandwidth, energy and breakdown
/// figures need them; carrying them in the result lets those figures run
/// through the sweep engine and be memoized like any other cell).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LlbpCellStats {
    /// The LLBP-level counters (matches, overrides, storage traffic, …).
    pub llbp: LlbpStats,
    /// Front-end reset attribution (BTB / RAS / indirect).
    pub frontend: FrontEndStats,
}

impl LlbpCellStats {
    /// The statistics `predictor` has gathered.
    pub(crate) fn of(predictor: &LlbpPredictor) -> Self {
        Self { llbp: predictor.stats().clone(), frontend: *predictor.frontend().stats() }
    }
}

/// Measured outcome of one simulation run (post-warmup statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Predictor label ("64K TSL", "LLBP", …).
    pub label: String,
    /// Workload/trace name.
    pub workload: String,
    /// Instructions represented by the measured region.
    pub instructions: u64,
    /// Conditional branches measured.
    pub conditional_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
    /// Final-direction provider attribution.
    pub provider_counts: FastHashMap<&'static str, u64>,
    /// Per-static-branch misprediction counts, when enabled.
    pub per_branch_mispredicts: Option<FastHashMap<u64, u64>>,
    /// Per-static-branch execution counts, when enabled.
    pub per_branch_executions: Option<FastHashMap<u64, u64>>,
    /// LLBP-internal statistics, when the simulated design is an LLBP
    /// (populated by [`SimConfig::run`], `None` for other predictors).
    pub llbp: Option<LlbpCellStats>,
}

impl SimResult {
    /// Mispredictions per kilo-instruction — the paper's headline metric.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Misprediction rate over conditional branches.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.conditional_branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.conditional_branches as f64
        }
    }

    /// Relative MPKI reduction versus a baseline result, in percent
    /// (positive = better than baseline).
    #[must_use]
    pub fn mpki_reduction_vs(&self, baseline: &SimResult) -> f64 {
        if baseline.mispredictions == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.mpki() / baseline.mpki())
        }
    }
}

/// Drives a [`Predictor`] over a [`Trace`]: warmup, then measurement.
#[derive(Debug, Clone, Copy)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// Runs the CBP-style loop: for each conditional branch `predict`,
    /// compare, `train`; for every branch `update_history`.
    pub fn run(&self, predictor: &mut dyn Predictor, trace: &Trace) -> SimResult {
        match self.run_cancellable(predictor, trace, &CancelToken::none()) {
            Ok(result) => result,
            Err(_) => unreachable!("a no-op cancel token never fires"),
        }
    }

    /// How many branch records the loop processes between cancellation
    /// polls. A power of two so the check compiles to a mask; small
    /// enough that a watchdog deadline is honored within milliseconds.
    pub const CANCEL_POLL_INTERVAL: usize = 8192;

    /// [`Simulator::run`] with cooperative cancellation: the loop polls
    /// `token` every [`Simulator::CANCEL_POLL_INTERVAL`] records and
    /// abandons the simulation once it fires. This is the watchdog
    /// mechanism for hung or injected-slow sweep cells — nothing is
    /// forcibly killed, the loop just returns early.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_cancellable(
        &self,
        predictor: &mut dyn Predictor,
        trace: &Trace,
        token: &CancelToken,
    ) -> Result<SimResult, SimError> {
        self.run_observed(predictor, trace, token, &llbp_obs::Counter::noop())
    }

    /// [`Simulator::run_cancellable`] with a *sampled* progress counter:
    /// `records` is bumped by [`Simulator::CANCEL_POLL_INTERVAL`] at each
    /// cancellation poll (plus the sub-interval tail once the loop
    /// finishes, so a completed run always reports exactly
    /// [`Trace::len`] records), giving telemetry simulation progress at
    /// poll granularity while the per-record loop stays untouched. Pass a
    /// pre-resolved counter ([`llbp_obs::Counter::noop`] when telemetry
    /// is off — a null-pointer branch every 8192 records, nothing more).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_observed(
        &self,
        predictor: &mut dyn Predictor,
        trace: &Trace,
        token: &CancelToken,
        records: &llbp_obs::Counter,
    ) -> Result<SimResult, SimError> {
        self.run_recorded(predictor, trace, token, records, &mut ProvRecorder::disabled())
    }

    /// [`Simulator::run_observed`] with a provenance recorder: every
    /// *measured* conditional branch is offered to `prov` together with
    /// the predictor's [`PredictionInfo`] (warmup branches are never
    /// recorded). With a disabled recorder this is the exact reference
    /// loop — the recorder hook costs one predictable branch per
    /// measured conditional and touches nothing else, so results and
    /// output stay byte-identical.
    ///
    /// [`PredictionInfo`]: llbp_tage::PredictionInfo
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the token fires mid-run.
    pub fn run_recorded(
        &self,
        predictor: &mut dyn Predictor,
        trace: &Trace,
        token: &CancelToken,
        records: &llbp_obs::Counter,
        prov: &mut ProvRecorder,
    ) -> Result<SimResult, SimError> {
        let warmup = warmup_len(&self.config, trace);
        let mut result = SimResult {
            label: predictor.label().to_string(),
            workload: trace.name().to_string(),
            instructions: 0,
            conditional_branches: 0,
            mispredictions: 0,
            provider_counts: FastHashMap::default(),
            per_branch_mispredicts: self.config.track_per_branch.then(FastHashMap::default),
            per_branch_executions: self.config.track_per_branch.then(FastHashMap::default),
            llbp: None,
        };
        // Providers are a tiny closed set; counting into a fixed array and
        // materialising the map once afterwards keeps string hashing out of
        // the per-branch loop.
        let mut provider_counts = [0u64; ProviderKind::COUNT];
        let mut reported = 0u64;
        for (i, record) in trace.iter().enumerate() {
            if i % Self::CANCEL_POLL_INTERVAL == 0 {
                if token.is_cancelled() {
                    return Err(token.cancellation_error());
                }
                if i > 0 {
                    records.add(Self::CANCEL_POLL_INTERVAL as u64);
                    reported += Self::CANCEL_POLL_INTERVAL as u64;
                }
            }
            let measuring = i >= warmup;
            if measuring {
                result.instructions += record.instructions();
            }
            if record.kind() == BranchKind::Conditional {
                let pred = predictor.predict(record.pc());
                let wrong = pred != record.taken();
                if measuring {
                    result.conditional_branches += 1;
                    result.mispredictions += u64::from(wrong);
                    provider_counts[predictor.last_provider().ordinal()] += 1;
                    if prov.is_enabled() {
                        let info = predictor.last_prediction_info(pred);
                        prov.record(record.pc(), record.taken(), &info);
                    }
                    if let Some(map) = &mut result.per_branch_executions {
                        *map.entry(record.pc()).or_default() += 1;
                    }
                    if wrong {
                        if let Some(map) = &mut result.per_branch_mispredicts {
                            *map.entry(record.pc()).or_default() += 1;
                        }
                    }
                }
                predictor.train(record.pc(), record.taken());
            }
            predictor.update_history(record);
        }
        // The polls only report full intervals; account for the trailing
        // `len % CANCEL_POLL_INTERVAL` records (and the final full chunk,
        // which has no poll after it) so a completed run's counter totals
        // exactly the trace length.
        records.add(trace.len() as u64 - reported);
        result.provider_counts = finish_provider_counts(&provider_counts);
        Ok(result)
    }
}

/// The number of leading warmup records for `trace` under `config`:
/// statistics are collected only after this index. Shared by every
/// execution backend so the warmup split can never diverge between tiers.
pub(crate) fn warmup_len(config: &SimConfig, trace: &Trace) -> usize {
    (trace.len() as f64 * config.warmup_fraction.clamp(0.0, 1.0)) as usize
}

/// Materializes the per-ordinal provider counting array into the report
/// map, skipping zero entries. Shared by every execution backend so the
/// map shape (which keys are present) can never diverge between tiers.
pub(crate) fn finish_provider_counts(
    counts: &[u64; ProviderKind::COUNT],
) -> FastHashMap<&'static str, u64> {
    let mut map = FastHashMap::default();
    for (ordinal, &count) in counts.iter().enumerate() {
        if count > 0 {
            map.insert(ProviderKind::LABELS[ordinal], count);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PredictorKind, SimConfig};
    use llbp_trace::{Workload, WorkloadSpec};

    #[test]
    fn warmup_region_is_excluded() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(9_000).generate();
        let all = SimConfig { warmup_fraction: 0.0, ..SimConfig::default() }
            .run(PredictorKind::Tsl64K, &trace);
        let warm = SimConfig { warmup_fraction: 0.5, ..SimConfig::default() }
            .run(PredictorKind::Tsl64K, &trace);
        assert!(warm.conditional_branches < all.conditional_branches);
        assert!(warm.instructions < all.instructions);
    }

    #[test]
    fn per_branch_tracking_sums_to_totals() {
        let trace = WorkloadSpec::named(Workload::Tpcc).with_branches(8_000).generate();
        let cfg =
            SimConfig { warmup_fraction: 0.25, track_per_branch: true, ..SimConfig::default() };
        let r = cfg.run(PredictorKind::Tsl64K, &trace);
        let sum_mis: u64 = r.per_branch_mispredicts.as_ref().unwrap().values().sum();
        let sum_exec: u64 = r.per_branch_executions.as_ref().unwrap().values().sum();
        assert_eq!(sum_mis, r.mispredictions);
        assert_eq!(sum_exec, r.conditional_branches);
    }

    #[test]
    fn provider_counts_cover_all_predictions() {
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(8_000).generate();
        let r = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        let total: u64 = r.provider_counts.values().sum();
        assert_eq!(total, r.conditional_branches);
    }

    #[test]
    fn determinism_across_runs() {
        let trace = WorkloadSpec::named(Workload::Twitter).with_branches(6_000).generate();
        let a = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        let b = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
        assert_eq!(a.mispredictions, b.mispredictions);
    }

    #[test]
    fn cancelled_runs_return_timeout_not_a_result() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(5_000).generate();
        let token = CancelToken::manual();
        token.cancel();
        let mut predictor = PredictorKind::Tsl64K.build();
        let err = Simulator::new(SimConfig::default())
            .run_cancellable(predictor.as_mut(), &trace, &token)
            .expect_err("a pre-cancelled token must abort the run");
        assert_eq!(err.class(), "timeout");

        // An inert token runs to completion with the identical result.
        let mut a = PredictorKind::Tsl64K.build();
        let mut b = PredictorKind::Tsl64K.build();
        let plain = Simulator::new(SimConfig::default()).run(a.as_mut(), &trace);
        let tokened = Simulator::new(SimConfig::default())
            .run_cancellable(b.as_mut(), &trace, &CancelToken::none())
            .expect("inert token never cancels");
        assert_eq!(plain, tokened);
    }

    #[test]
    fn progress_counter_reports_exactly_the_trace_length() {
        // The sampled counter used to add only full CANCEL_POLL_INTERVAL
        // chunks at poll boundaries, silently dropping the trailing
        // `len % 8192` records of every run. Cover a sub-interval trace,
        // an exact multiple, and a multi-interval trace with a tail.
        for len in [100, Simulator::CANCEL_POLL_INTERVAL, 2 * Simulator::CANCEL_POLL_INTERVAL + 77]
        {
            let trace = WorkloadSpec::named(Workload::Http).with_branches(len).generate();
            let telemetry = llbp_obs::Telemetry::enabled();
            let counter = telemetry.counter("sim_records_total");
            let mut predictor = PredictorKind::Tsl64K.build();
            Simulator::new(SimConfig::default())
                .run_observed(predictor.as_mut(), &trace, &CancelToken::none(), &counter)
                .expect("inert token never cancels");
            assert_eq!(counter.get(), trace.len() as u64, "len={len}");
        }
    }

    #[test]
    fn mpki_reduction_math() {
        let mk = |mis: u64| SimResult {
            label: "x".into(),
            workload: "w".into(),
            instructions: 1000,
            conditional_branches: 100,
            mispredictions: mis,
            provider_counts: FastHashMap::default(),
            per_branch_mispredicts: None,
            per_branch_executions: None,
            llbp: None,
        };
        let base = mk(100);
        let better = mk(80);
        assert!((better.mpki_reduction_vs(&base) - 20.0).abs() < 1e-9);
    }
}
