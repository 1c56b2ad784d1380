//! On the batch tier the sweep engine runs a trace's cells that share a
//! TAGE-SC-L history geometry as one unit: one stage advances and hashes
//! the histories, tracks the front end and the RCRs, and every member runs
//! from its values. Each member must still be its own cell: its result
//! equals a per-cell reference-tier run, with per-branch tracking and
//! provenance on, at one and two workers, for units of several context
//! configurations and for a grid that lists one predictor twice; a member
//! whose fault fires is retried alone.

use llbp_core::{ContextHistoryKind, LlbpParams};
use llbp_sim::engine::{grid_fingerprints, SweepEngine, SweepSpec};
use llbp_sim::{
    BackendKind, FaultInjector, MemoStore, PredictorKind, ProvConfig, SimConfig, SimResult,
};
use llbp_tage::TslConfig;
use llbp_trace::{Workload, WorkloadSpec};
use std::sync::Arc;

fn workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::named(Workload::Http).with_branches(6_000),
        WorkloadSpec::named(Workload::Tomcat).with_branches(6_000),
    ]
}

/// fig09's axis: three cells of the 64K TSL geometry and 512K TSL.
fn fig09_axis() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Tsl64K,
        PredictorKind::Llbp(LlbpParams::default()),
        PredictorKind::Llbp(LlbpParams::zero_latency()),
        PredictorKind::TslScaled(8),
    ]
}

/// fig02's axis: 64K TSL and Inf TAGE share a geometry, the infinite TSL
/// (corrector at 2^14 entries to keep the debug run short) does not.
fn fig02_axis() -> Vec<PredictorKind> {
    let inf_tsl = TslConfig { sc_index_bits: 14, ..TslConfig::infinite_tsl() };
    vec![PredictorKind::Tsl64K, PredictorKind::InfTage, PredictorKind::CustomTsl(inf_tsl)]
}

/// fig13-like: LLBPs of several context configurations in one unit, the
/// windows on both sides of the RCR's incremental limit (24).
fn contexts_axis() -> Vec<PredictorKind> {
    let mut axis = vec![PredictorKind::Tsl64K];
    for (kind, window, distance) in [
        (ContextHistoryKind::Unconditional, 8, 4),
        (ContextHistoryKind::Unconditional, 8, 0),
        (ContextHistoryKind::CallReturn, 24, 4),
        (ContextHistoryKind::All, 32, 2),
    ] {
        axis.push(PredictorKind::Llbp(LlbpParams {
            history_kind: kind,
            window,
            prefetch_distance: distance,
            label: format!("LLBP-{kind:?}-W{window}-D{distance}"),
            ..LlbpParams::default()
        }));
    }
    axis
}

/// One predictor listed twice, in a unit with a third.
fn twice_axis() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Llbp(LlbpParams::default()),
        PredictorKind::Tsl64K,
        PredictorKind::Llbp(LlbpParams::default()),
    ]
}

/// Every cell of `spec` run alone on the reference tier.
fn reference(spec: &SweepSpec) -> Vec<SimResult> {
    let sim = SimConfig { backend: BackendKind::Reference, ..spec.sim };
    let mut out = Vec::new();
    for w in &spec.workloads {
        let trace = w.generate();
        for p in &spec.predictors {
            out.push(sim.run(p.clone(), &trace));
        }
    }
    out
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("llbp-unit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn unit_members_match_per_cell_reference_runs() {
    for axis in [fig09_axis(), fig02_axis(), contexts_axis(), twice_axis()] {
        for track in [false, true] {
            let sim = SimConfig { track_per_branch: track, ..SimConfig::default() };
            let spec = SweepSpec::new(axis.clone(), workloads(), sim);
            let want = reference(&spec);
            for workers in [1, 2] {
                let report = SweepEngine::with_workers(workers).run(&spec);
                assert!(report.is_complete(), "{:?}", report.failed);
                assert_eq!(report.backend, "batch");
                for (index, (job, want)) in report.jobs.iter().zip(&want).enumerate() {
                    assert_eq!(&job.result, want, "cell {index}, {workers} workers, track {track}");
                    assert_eq!(job.stats.branches, 6_000);
                }
            }
        }
    }
}

#[test]
fn unit_members_record_the_reference_provenance_streams() {
    let spec = SweepSpec::new(fig09_axis(), workloads(), SimConfig::default());
    let prov = ProvConfig { sample: 4, ring: 1024 };
    let mut streams = Vec::new();
    for (tag, backend) in [("prov-ref", BackendKind::Reference), ("prov-unit", BackendKind::Batch)]
    {
        let dir = scratch(tag);
        let store = Arc::new(MemoStore::open(&dir).expect("scratch store"));
        let spec = SweepSpec { sim: SimConfig { backend, ..spec.sim }, ..spec.clone() };
        let report =
            SweepEngine::with_workers(2).with_store(Arc::clone(&store)).with_prov(prov).run(&spec);
        assert!(report.is_complete());
        assert_eq!(report.memo_misses, 8);
        let loaded: Vec<_> = grid_fingerprints(&spec, &store)
            .into_iter()
            .map(|fp| store.load_prov(fp).expect("readable").expect("a stream per cell"))
            .collect();
        streams.push(loaded);
        let _ = std::fs::remove_dir_all(dir);
    }
    assert_eq!(streams[0], streams[1], "every member's stream equals its reference run's");
}

#[test]
fn a_listed_twice_predictor_serves_both_cells_through_the_store() {
    let dir = scratch("twice");
    let store = Arc::new(MemoStore::open(&dir).expect("scratch store"));
    let spec = SweepSpec::new(twice_axis(), workloads(), SimConfig::default());
    let want = reference(&spec);
    for workers in [1, 2] {
        for cold in [true, false] {
            let report = SweepEngine::with_workers(workers)
                .with_store(Arc::clone(&store))
                .cold(cold)
                .run(&spec);
            assert!(report.is_complete());
            assert_eq!(report.memo_hits + report.memo_misses, 6);
            for (job, want) in report.jobs.iter().zip(&want) {
                assert_eq!(&job.result, want);
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_member_whose_fault_fires_is_retried_alone() {
    let spec = SweepSpec::new(fig09_axis(), workloads(), SimConfig::default());
    let want = reference(&spec);
    for workers in [1, 2] {
        // Cell 0 (64K TSL on HTTP) panics once: its retry runs alone and
        // converges, while the rest of its unit runs together.
        let faults = Arc::new(FaultInjector::parse("panic:cell=0").expect("spec parses"));
        let report = SweepEngine::with_workers(workers).retries(2).with_faults(faults).run(&spec);
        assert!(report.is_complete(), "{:?}", report.failed);
        for (job, want) in report.jobs.iter().zip(&want) {
            assert_eq!(&job.result, want);
        }

        // A fault that fires on every attempt fails that cell alone.
        let faults = Arc::new(FaultInjector::parse("panic:cell=0,count=99").expect("spec parses"));
        let report = SweepEngine::with_workers(workers).retries(2).with_faults(faults).run(&spec);
        assert_eq!(report.failed.len(), 1);
        assert_eq!((report.failed[0].index, report.failed[0].attempts), (0, 3));
        assert_eq!(report.failed[0].error.class(), "injected");
        for (index, (job, want)) in report.jobs.iter().zip(&want).enumerate().skip(1) {
            assert_eq!(&job.result, want, "cell {index}");
        }
    }
}
