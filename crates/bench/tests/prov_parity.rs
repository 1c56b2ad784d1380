//! Provenance parity: recording must be observational.
//!
//! The contract DESIGN.md §13 pins: a sweep with provenance recording
//! enabled produces *exactly* the results (and therefore exactly the
//! figure bytes) of a sweep without it, and a disabled recorder leaves
//! the engine's behaviour untouched. These tests drive real figure
//! grids — fig02's scaling predictors and fig09's LLBP designs — through
//! both configurations and compare at the byte level.

use llbp_bench::figures::{fig02_render, fig02_spec};
use llbp_bench::Opts;
use llbp_core::LlbpParams;
use llbp_sim::engine::SweepSpec;
use llbp_sim::{MemoStore, PredictorKind, ProvConfig, SweepEngine, SweepReport};
use std::sync::Arc;

fn quick_opts() -> Opts {
    Opts::parse(
        ["--branches", "4000", "--workloads", "Tomcat,HTTP,Kafka"].iter().map(ToString::to_string),
    )
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("llbp-prov-parity-{tag}-{}", std::process::id()))
}

/// Runs `spec` twice — plain, and with a store + live recorder — and
/// asserts every cell's result is identical.
fn assert_prov_parity(spec: &SweepSpec, tag: &str) -> (SweepReport, SweepReport) {
    let plain = SweepEngine::with_workers(2).run(spec);
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(MemoStore::open(&dir).expect("scratch store"));
    let recorded = SweepEngine::with_workers(2)
        .with_store(store)
        .with_prov(ProvConfig { sample: 4, ring: 4096 })
        .run(spec);
    assert!(plain.is_complete() && recorded.is_complete());
    assert_eq!(plain.jobs.len(), recorded.jobs.len());
    for (a, b) in plain.jobs.iter().zip(recorded.jobs.iter()) {
        assert_eq!(a.result, b.result, "cell ({}, {})", a.job.workload, a.job.predictor);
    }
    let _ = std::fs::remove_dir_all(dir);
    (plain, recorded)
}

#[test]
fn fig02_bytes_are_identical_with_prov_recording() {
    let opts = quick_opts();
    let spec = fig02_spec(&opts);
    let (plain, recorded) = assert_prov_parity(&spec, "fig02");
    let off = fig02_render(|w, p| plain.get(w, p), &opts);
    let on = fig02_render(|w, p| recorded.get(w, p), &opts);
    assert_eq!(off, on, "figure bytes must not depend on the recorder");
    assert!(recorded.prov.is_some());
    assert!(plain.prov.is_none());
}

#[test]
fn fig09_llbp_cells_are_identical_with_prov_recording() {
    // Fig09's grid exercises the composite LLBP predictor, whose
    // provenance path (fused predict+train with override attribution)
    // is the one most at risk of perturbing results.
    let opts = quick_opts();
    let spec = SweepSpec::new(
        vec![
            PredictorKind::Tsl64K,
            PredictorKind::Llbp(LlbpParams::default()),
            PredictorKind::Llbp(LlbpParams::zero_latency()),
        ],
        llbp_bench::workload_specs(&opts),
        llbp_bench::sim_config(&opts),
    );
    let (_, recorded) = assert_prov_parity(&spec, "fig09");
    let summary = recorded.prov.expect("summary");
    assert_eq!(summary.streams, 9, "one stream per cell");
    assert!(summary.mispredicts > 0);
}

#[test]
fn every_backend_yields_the_same_stream() {
    // Backends are parity-pinned for results; with a recorder attached
    // they must also be parity-pinned for the *stream* — same events in
    // the ring, same profiles — since reports built from either must
    // agree.
    use llbp_sim::{BackendKind, CancelToken, ProvRecorder, SimConfig};
    let trace = llbp_trace::WorkloadSpec::named(llbp_trace::Workload::Tomcat)
        .with_branches(6_000)
        .generate();
    let run = |backend: BackendKind, kind: PredictorKind| {
        let mut recorder = ProvRecorder::enabled(ProvConfig { sample: 2, ring: 8192 });
        let cfg = SimConfig::default().with_backend(backend);
        let result = cfg
            .run_recorded(
                kind,
                &trace,
                &CancelToken::none(),
                &llbp_sim::obs::Counter::noop(),
                &mut recorder,
            )
            .expect("no cancel token");
        (result, recorder.finish("l", "w").expect("enabled"))
    };
    for kind in [
        PredictorKind::Tsl64K,
        PredictorKind::Llbp(LlbpParams::default()),
        PredictorKind::Gshare { index_bits: 12, history_bits: 8 },
    ] {
        let (ref_result, ref_stream) = run(BackendKind::Reference, kind.clone());
        let (result, stream) = run(BackendKind::Batch, kind.clone());
        assert_eq!(result, ref_result, "{kind:?} on batch");
        assert_eq!(stream, ref_stream, "{kind:?} stream on batch");
    }
}

#[test]
fn table01_bytes_are_unaffected_by_prov_artifacts() {
    // Table I never runs a predictor — its stdout is a pure function of
    // the workload traces. Rendering it from a cache root that a
    // prov-recording sweep has already populated (streams and all) must
    // produce exactly the bytes a storeless render does.
    use llbp_bench::figures::table01_render;
    use llbp_sim::TraceCache;
    let opts = quick_opts();
    let specs = llbp_bench::workload_specs(&opts);
    let plain: Vec<_> = {
        let cache = TraceCache::new();
        specs.iter().map(|s| cache.get_or_generate(s).stats()).collect()
    };
    let dir = scratch_dir("table01");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(MemoStore::open(&dir).expect("scratch store"));
    let populate = SweepEngine::with_workers(2)
        .with_store(Arc::clone(&store))
        .with_prov(ProvConfig::default())
        .run(&fig02_spec(&opts));
    assert!(populate.is_complete());
    let recorded: Vec<_> = {
        let cache = TraceCache::with_store(store, false);
        specs.iter().map(|s| cache.get_or_generate(s).stats()).collect()
    };
    assert_eq!(
        table01_render(&opts.workloads, &plain),
        table01_render(&opts.workloads, &recorded),
        "table01 bytes must not depend on prov artifacts in the cache"
    );
    let _ = std::fs::remove_dir_all(dir);
}
