//! The correctness check: every cell a campaign attempted must have
//! completed and must equal the `reference` backend's result exactly.

use llbp_sim::{SimResult, SweepReport};

/// Cells attempted and cells in error across one or more campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCheck {
    /// Grid cells attempted.
    pub attempted: u64,
    /// Cells that failed in the engine.
    pub failed: u64,
    /// Completed cells whose result differs from the reference.
    pub mismatched: u64,
}

impl CellCheck {
    /// Checks one campaign's report against the reference results of the
    /// same grid, in grid order.
    ///
    /// # Panics
    ///
    /// Panics when `reference` does not cover the report's grid, a bug in
    /// the caller.
    #[must_use]
    pub fn of(report: &SweepReport, reference: &[SimResult]) -> Self {
        assert_eq!(report.jobs.len(), reference.len(), "reference must cover the whole grid");
        let failed: Vec<usize> = report.failed.iter().map(|e| e.index).collect();
        let mismatched = report
            .jobs
            .iter()
            .zip(reference)
            .enumerate()
            .filter(|(i, (job, want))| !failed.contains(i) && job.result != **want)
            .count();
        Self {
            attempted: report.jobs.len() as u64,
            failed: failed.len() as u64,
            mismatched: mismatched as u64,
        }
    }

    /// Cells in error: failed plus mismatched.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.failed + self.mismatched
    }

    /// Cells in error per cell attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.errors() as f64 / self.attempted as f64
        }
    }

    /// Accumulates another check.
    pub fn add(&mut self, other: CellCheck) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_sim::engine::{SweepEngine, SweepSpec};
    use llbp_sim::{BackendKind, PredictorKind, SimConfig};
    use llbp_trace::{Workload, WorkloadSpec};

    fn tiny_grid() -> SweepSpec {
        SweepSpec::new(
            vec![PredictorKind::Tsl64K, PredictorKind::InfTage],
            vec![
                WorkloadSpec::named(Workload::Http).with_branches(3_000),
                WorkloadSpec::named(Workload::Kafka).with_branches(3_000),
            ],
            SimConfig::default(),
        )
    }

    fn reference(spec: &SweepSpec) -> Vec<SimResult> {
        let cfg = spec.sim.with_backend(BackendKind::Reference);
        spec.workloads
            .iter()
            .flat_map(|w| {
                let trace = w.generate();
                spec.predictors.iter().map(move |p| cfg.run(p.clone(), &trace)).collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn a_perturbed_cell_raises_the_error_rate() {
        let spec = tiny_grid();
        let want = reference(&spec);
        let mut report = SweepEngine::with_workers(1).run(&spec);
        let clean = CellCheck::of(&report, &want);
        assert_eq!(clean, CellCheck { attempted: 4, failed: 0, mismatched: 0 });
        assert_eq!(clean.error_rate(), 0.0);

        report.jobs[3].result.mispredictions += 1;
        let perturbed = CellCheck::of(&report, &want);
        assert_eq!(perturbed.mismatched, 1);
        assert_eq!(perturbed.error_rate(), 0.25);
    }

    #[test]
    fn a_failed_cell_counts_once_even_though_its_placeholder_differs() {
        let spec = tiny_grid();
        let want = reference(&spec);
        let faults = llbp_sim::FaultInjector::parse("panic:cell=1").expect("valid fault spec");
        let report = SweepEngine::with_workers(1)
            .retries(0)
            .with_faults(std::sync::Arc::new(faults))
            .run(&spec);
        let check = CellCheck::of(&report, &want);
        assert_eq!(check, CellCheck { attempted: 4, failed: 1, mismatched: 0 });
        assert_eq!(check.errors(), 1);
    }
}
