//! The sweep engine must be bit-identical to the serial simulation path:
//! for every grid cell, the engine's `SimResult` equals what a plain
//! `Simulator::run` over a freshly generated trace produces, at any worker
//! count. It must also hold each trace only while the trace's cells that
//! simulate run, unless the caller owns the cache.

use llbp_core::LlbpParams;
use llbp_sim::engine::{SweepEngine, SweepSpec};
use llbp_sim::{MemoStore, PredictorKind, SimConfig, TraceCache};
use llbp_tage::TslConfig;
use llbp_trace::{Workload, WorkloadSpec};
use std::sync::Arc;

/// Every TAGE-SC-L family and LLBP designs of two shapes, so that a
/// worker's cells hand statistical-corrector tables of two lengths (2^10
/// and 2^14), TAGE table blocks of two lengths, loop predictors of two
/// sizes, the infinite storage and LLBP's arenas, directories and front end
/// on to each other, while the serial reference builds every predictor
/// afresh. The infinite TSL's corrector is 2^14 entries, not Inf TSL's
/// 2^21, to keep the debug run short.
fn grid() -> SweepSpec {
    let inf_tsl = TslConfig { sc_index_bits: 14, ..TslConfig::infinite_tsl() };
    SweepSpec::new(
        vec![
            PredictorKind::Tsl64K,
            PredictorKind::TslScaled(2),
            PredictorKind::InfTage,
            PredictorKind::CustomTsl(inf_tsl),
            PredictorKind::Llbp(LlbpParams::default()),
            PredictorKind::Llbp(LlbpParams::zero_latency()),
            PredictorKind::Llbp(LlbpParams::default().with_pb_entries(256)),
        ],
        vec![
            WorkloadSpec::named(Workload::Http).with_branches(4_000),
            WorkloadSpec::named(Workload::Tpcc).with_branches(4_000),
            WorkloadSpec::named(Workload::NodeApp).with_branches(4_000),
        ],
        SimConfig::default(),
    )
}

/// The serial reference: generate each trace independently and run each
/// cell with the plain one-shot path, no sharing, no threads.
fn serial_reference(spec: &SweepSpec) -> Vec<llbp_sim::SimResult> {
    let mut out = Vec::new();
    for w in &spec.workloads {
        let trace = w.generate();
        for p in &spec.predictors {
            out.push(spec.sim.run(p.clone(), &trace));
        }
    }
    out
}

#[test]
fn engine_matches_serial_at_any_worker_count() {
    let spec = grid();
    let reference = serial_reference(&spec);
    for workers in [1, 2, 3, 8] {
        let report = SweepEngine::with_workers(workers).run(&spec);
        assert_eq!(report.jobs.len(), reference.len(), "workers={workers}");
        for (i, rec) in report.jobs.iter().enumerate() {
            assert_eq!(rec.result, reference[i], "cell {i} diverged at workers={workers}");
        }
    }
}

#[test]
fn engine_runs_are_reproducible() {
    let spec = grid();
    let a = SweepEngine::with_workers(2).run(&spec);
    let b = SweepEngine::with_workers(4).run(&spec);
    for (ra, rb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ra.result, rb.result);
        assert_eq!(ra.job, rb.job);
    }
}

#[test]
fn per_branch_tracking_survives_the_engine() {
    // The optional per-branch maps must also round-trip identically
    // (they exercise the FastHashMap-backed SimResult fields).
    let spec = SweepSpec::new(
        vec![PredictorKind::Tsl64K],
        vec![WorkloadSpec::named(Workload::Kafka).with_branches(5_000)],
        SimConfig { warmup_fraction: 0.25, track_per_branch: true, ..SimConfig::default() },
    );
    let reference = serial_reference(&spec);
    let report = SweepEngine::with_workers(3).run(&spec);
    assert_eq!(report.jobs[0].result, reference[0]);
    assert!(report.jobs[0].result.per_branch_mispredicts.is_some());
}

/// Three workloads × two predictors.
fn small_grid() -> SweepSpec {
    SweepSpec::new(
        vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(2)],
        vec![
            WorkloadSpec::named(Workload::Http).with_branches(4_000),
            WorkloadSpec::named(Workload::Tpcc).with_branches(6_000),
            WorkloadSpec::named(Workload::NodeApp).with_branches(5_000),
        ],
        SimConfig::default(),
    )
}

/// The footprint of the grid's largest trace with its column view.
fn largest_trace_bytes(spec: &SweepSpec) -> usize {
    spec.workloads
        .iter()
        .map(|w| {
            let trace = w.generate();
            let _view = trace.soa();
            trace.memory_footprint()
        })
        .max()
        .expect("a grid with workloads")
}

#[test]
fn a_one_worker_run_holds_one_trace_at_a_time() {
    let spec = small_grid();
    let report = SweepEngine::with_workers(1).run(&spec);
    assert_eq!(report.cache_misses, 3);
    let largest = largest_trace_bytes(&spec);
    assert!(report.trace_bytes > 0, "the peak counts the trace that ran");
    assert!(
        report.trace_bytes <= largest,
        "peak {} B exceeds the largest single trace with its view, {largest} B",
        report.trace_bytes
    );
}

#[test]
fn a_partially_warm_run_holds_one_trace_at_a_time() {
    // As fig09 over a store fig02 populated: the first predictor's cells
    // are memoized and claimed last, after every cell that simulates.
    let spec = small_grid();
    let dir = std::env::temp_dir().join(format!("llbp-engine-partial-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(MemoStore::open(&dir).expect("scratch store"));
    let first = SweepSpec::new(vec![spec.predictors[0].clone()], spec.workloads.clone(), spec.sim);
    assert!(SweepEngine::with_workers(1).with_store(Arc::clone(&store)).run(&first).is_complete());
    let report = SweepEngine::with_workers(1).with_store(store).run(&spec);
    assert!(report.is_complete());
    assert_eq!((report.memo_hits, report.memo_misses), (3, 3));
    assert_eq!(report.trace_disk_hits, 3, "each trace is decoded once");
    let largest = largest_trace_bytes(&spec);
    assert!(report.trace_bytes > 0, "the peak counts the traces that ran");
    assert!(
        report.trace_bytes <= largest,
        "peak {} B exceeds the largest single trace with its view, {largest} B: \
         memo hits kept traces they never read",
        report.trace_bytes
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_spec_listed_twice_is_generated_once() {
    let http = WorkloadSpec::named(Workload::Http).with_branches(4_000);
    let tpcc = WorkloadSpec::named(Workload::Tpcc).with_branches(4_000);
    let predictors = vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(2)];
    let once =
        SweepSpec::new(predictors.clone(), vec![http.clone(), tpcc.clone()], SimConfig::default());
    let twice = SweepSpec::new(predictors, vec![http.clone(), tpcc, http], SimConfig::default());
    let base = SweepEngine::with_workers(1).run(&once);
    for workers in [1, 2] {
        let report = SweepEngine::with_workers(workers).run(&twice);
        assert_eq!(report.cache_misses, 2, "workers={workers}: one generation per distinct spec");
        assert_eq!(report.row(0), base.row(0), "workers={workers}");
        assert_eq!(report.row(1), base.row(1), "workers={workers}");
        assert_eq!(report.row(2), base.row(0), "workers={workers}: the repeated spec");
    }
}

#[test]
fn a_callers_cache_keeps_every_trace() {
    let spec = small_grid();
    let cache = TraceCache::new();
    let report = SweepEngine::with_workers(1).run_with_cache(&spec, &cache);
    assert_eq!(cache.len(), spec.workloads.len());
    assert_eq!(report.trace_bytes, cache.memory_footprint());
}

#[test]
fn a_cold_campaign_decodes_each_stored_trace_once() {
    // perfbench's cold workloads: traces stored ahead, no results yet.
    let spec = small_grid();
    for workers in [1, 2] {
        let dir = std::env::temp_dir()
            .join(format!("llbp-engine-cold-decode-{}-{workers}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(MemoStore::open(&dir).expect("scratch store"));
        for w in &spec.workloads {
            store.store_trace(store.trace_fingerprint(w), &w.generate()).expect("store trace");
        }
        let report = SweepEngine::with_workers(workers).with_store(store).run(&spec);
        assert!(report.is_complete());
        assert_eq!(report.memo_misses, spec.num_jobs() as u64, "workers={workers}");
        assert_eq!(report.cache_misses, 0, "workers={workers}: nothing regenerates");
        assert_eq!(
            report.trace_disk_hits,
            spec.workloads.len() as u64,
            "workers={workers}: one decode per trace"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
