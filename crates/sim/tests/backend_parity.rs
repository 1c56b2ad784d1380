//! The backend contract: execution tier is a pure throughput choice.
//!
//! Every non-reference backend must reproduce the reference backend's
//! [`llbp_sim::SimResult`] *exactly* — same misprediction counts, same
//! provider attribution, same per-branch maps, same LLBP-internal
//! statistics — for every [`PredictorKind`]. Any divergence here means a
//! backend changed simulation semantics, which would silently corrupt
//! figures and poison the shared memo store.

use llbp_core::LlbpParams;
use llbp_sim::{BackendKind, CancelToken, PredictorKind, SimConfig, BATCH_BLOCK};
use llbp_tage::TslConfig;
use llbp_trace::{Trace, Workload, WorkloadSpec};

/// One instance of every `PredictorKind` variant, small enough for a
/// debug-mode test run.
fn every_kind() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Tsl64K,
        PredictorKind::TslScaled(2),
        PredictorKind::InfTage,
        PredictorKind::InfTsl,
        PredictorKind::Llbp(LlbpParams::default()),
        PredictorKind::CustomTsl(TslConfig::cbp64k()),
        PredictorKind::Gshare { index_bits: 12, history_bits: 12 },
        PredictorKind::TwoLevelLocal { bht_bits: 10, local_bits: 10 },
        PredictorKind::HashedPerceptron { tables: 4, index_bits: 10, segment_bits: 8 },
    ]
}

fn non_reference() -> [BackendKind; 1] {
    [BackendKind::Batch]
}

fn assert_backends_match(cfg: &SimConfig, kind: &PredictorKind, trace: &Trace) {
    let reference = cfg.with_backend(BackendKind::Reference).run(kind.clone(), trace);
    // Full-warmup configs legitimately measure nothing; every other split
    // must exercise the measure phase or the comparison proves nothing.
    assert!(
        cfg.warmup_fraction >= 1.0 || reference.conditional_branches > 0,
        "degenerate trace would prove nothing"
    );
    for backend in non_reference() {
        let got = cfg.with_backend(backend).run(kind.clone(), trace);
        assert_eq!(
            got,
            reference,
            "backend `{backend}` diverges from reference for {kind:?} on {} \
             (cfg: warmup={}, track={})",
            trace.name(),
            cfg.warmup_fraction,
            cfg.track_per_branch,
        );
    }
}

#[test]
fn every_backend_matches_reference_for_every_predictor_kind() {
    // Tracking on: the per-branch maps and provider counts must round-trip
    // identically too, not just the scalar totals.
    let trace = WorkloadSpec::named(Workload::Tomcat).with_branches(2_500).generate();
    let cfg = SimConfig { warmup_fraction: 0.25, track_per_branch: true, ..SimConfig::default() };
    for kind in every_kind() {
        assert_backends_match(&cfg, &kind, &trace);
    }
}

#[test]
fn parity_holds_across_sampled_workloads_and_phase_splits() {
    // The untracked loop instantiations and the warmup edge cases
    // (warmup = 0: no warmup phase; warmup = 1: no measure phase) are
    // separate code paths in the non-reference tiers — pin each of them
    // on a second and third workload.
    for workload in [Workload::Kafka, Workload::Http] {
        let trace = WorkloadSpec::named(workload).with_branches(2_500).generate();
        for warmup_fraction in [0.0, 1.0 / 3.0, 1.0] {
            let cfg =
                SimConfig { warmup_fraction, track_per_branch: false, ..SimConfig::default() };
            for kind in [PredictorKind::Tsl64K, PredictorKind::Llbp(LlbpParams::default())] {
                assert_backends_match(&cfg, &kind, &trace);
            }
        }
    }
}

#[test]
fn auto_backend_runs_and_matches_reference() {
    let trace = WorkloadSpec::named(Workload::Tomcat).with_branches(2_500).generate();
    let cfg = SimConfig::default(); // backend: Auto
    let reference = cfg.with_backend(BackendKind::Reference).run(PredictorKind::Tsl64K, &trace);
    assert_eq!(cfg.run(PredictorKind::Tsl64K, &trace), reference);
}

#[test]
fn non_reference_backends_honor_cancellation_within_one_block() {
    // A token that is already cancelled must stop the run at the first
    // block boundary: the error surfaces and no more than one block of
    // progress is ever reported.
    let trace = WorkloadSpec::named(Workload::Tomcat).with_branches(3 * BATCH_BLOCK).generate();
    for backend in non_reference() {
        let cfg = SimConfig::default().with_backend(backend);
        let token = CancelToken::manual();
        token.cancel();
        let telemetry = llbp_obs::Telemetry::enabled();
        let progress = telemetry.counter("sim_records_total");
        let result = cfg.run_observed(PredictorKind::Tsl64K, &trace, &token, &progress);
        assert!(result.is_err(), "backend `{backend}` ignored a cancelled token");
        assert!(
            progress.get() <= BATCH_BLOCK as u64,
            "backend `{backend}` ran {} records past a cancelled token",
            progress.get(),
        );
    }
}
