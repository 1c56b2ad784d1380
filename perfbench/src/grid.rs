//! The benchmark's workloads and the figure grids they run.

use llbp_bench::figures::fig02_predictors;
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::{PredictorKind, SimConfig};
use llbp_trace::{Workload, WorkloadSpec};

/// Branch records per trace: the experiment binaries' `--quick` length.
pub const QUICK_BRANCHES: usize = 150_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The Figure 9 grid simulated into an empty result store.
    LlbpCold,
    /// The Figure 2 grid simulated into an empty result store.
    TslLimitsCold,
}

impl Bench {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Bench; 2] = [Bench::LlbpCold, Bench::TslLimitsCold];

    /// The name the command line takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Bench::LlbpCold => "llbp_cold",
            Bench::TslLimitsCold => "tsl_limits_cold",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL.into_iter().find(|b| b.name() == name).ok_or_else(|| {
            let names: Vec<_> = Self::ALL.iter().map(|b| b.name()).collect();
            format!("unknown workload `{name}` (want one of {})", names.join(", "))
        })
    }

    /// The grid one campaign of this workload runs.
    #[must_use]
    pub fn grid(self, seed: u64) -> SweepSpec {
        let predictors = match self {
            Bench::LlbpCold => fig09_predictors(),
            Bench::TslLimitsCold => fig02_predictors(),
        };
        SweepSpec::new(predictors, trace_specs(seed), SimConfig::default())
    }
}

/// The generator seed of one trace: the preset's own seed mixed with the
/// benchmark seed, so seed 0 reproduces the figures' committed inputs and
/// every other seed gives each workload a different program.
#[must_use]
pub fn trace_seed(preset: u64, seed: u64) -> u64 {
    preset ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The fourteen paper workloads at quick length under `seed`.
#[must_use]
pub fn trace_specs(seed: u64) -> Vec<WorkloadSpec> {
    Workload::ALL.iter().map(|&w| trace_spec(w, seed)).collect()
}

/// One paper workload at quick length under `seed`.
#[must_use]
pub fn trace_spec(workload: Workload, seed: u64) -> WorkloadSpec {
    WorkloadSpec::named(workload)
        .with_branches(QUICK_BRANCHES)
        .with_seed(trace_seed(workload.params().seed, seed))
}

/// Figure 9's predictor axis: 64K TSL, LLBP, LLBP-0Lat and 512K TSL.
#[must_use]
pub fn fig09_predictors() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Tsl64K,
        PredictorKind::Llbp(LlbpParams::default()),
        PredictorKind::Llbp(LlbpParams::zero_latency()),
        PredictorKind::TslScaled(8),
    ]
}

/// The LLBP predictor of Figure 9's second column.
#[must_use]
pub fn llbp_kind() -> PredictorKind {
    fig09_predictors().swap_remove(1)
}

/// The short name a per-layer metric uses for `kind`, if it is one of the
/// benchmark's predictors.
#[must_use]
pub fn short_name(kind: &PredictorKind) -> Option<&'static str> {
    Some(match kind {
        PredictorKind::Tsl64K => "tsl64k",
        PredictorKind::Llbp(p) if *p == LlbpParams::default() => "llbp",
        PredictorKind::Llbp(p) if *p == LlbpParams::zero_latency() => "llbp_0lat",
        PredictorKind::TslScaled(8) => "tsl512k",
        PredictorKind::InfTage => "inf_tage",
        PredictorKind::InfTsl => "inf_tsl",
        _ => return None,
    })
}

/// The predictors of both grids, each once, with their short names.
///
/// # Panics
///
/// Panics when a grid gains a predictor [`short_name`] does not know.
#[must_use]
pub fn layer_predictors() -> Vec<(&'static str, PredictorKind)> {
    let mut out: Vec<(&'static str, PredictorKind)> = Vec::new();
    for kind in fig09_predictors().into_iter().chain(fig02_predictors()) {
        if !out.iter().any(|(_, k)| *k == kind) {
            let name = short_name(&kind).unwrap_or_else(|| panic!("no short name for {kind:?}"));
            out.push((name, kind));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for bench in Bench::ALL {
            assert_eq!(Bench::parse(bench.name()), Ok(bench));
        }
        assert!(Bench::parse("hot").is_err());
    }

    #[test]
    fn seed_zero_keeps_the_preset_inputs() {
        let spec = trace_spec(Workload::Tomcat, 0);
        assert_eq!(spec.params().seed, Workload::Tomcat.params().seed);
        assert_ne!(trace_spec(Workload::Tomcat, 1).params().seed, spec.params().seed);
    }

    #[test]
    fn layer_predictors_cover_both_grids_once() {
        let names: Vec<_> = layer_predictors().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["tsl64k", "llbp", "llbp_0lat", "tsl512k", "inf_tage", "inf_tsl"]);
        assert_eq!(llbp_kind(), Bench::LlbpCold.grid(0).predictors[1]);
    }
}
