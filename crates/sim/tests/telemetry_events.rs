//! Telemetry integration: an observed campaign must narrate itself —
//! every job leaves the five stage spans (`queue_wait`, `memo_probe`,
//! `generation`, `simulation`, `write_back`), injected faults leave
//! their marks (`retry`, `watchdog_kill`, `stale_demotion`), lock churn
//! leaves `lock_wait`/`lock_takeover`, and the metrics snapshot agrees
//! with the event log to the microsecond. These tests reuse the
//! fault-parity harness (tiny grid, `FaultInjector::parse`, temp store
//! dirs) so observation is checked under the same adversity the
//! resilience layer is.

use llbp_sim::engine::{SweepEngine, SweepSpec};
use llbp_sim::obs::{Event, EventKind, Telemetry};
use llbp_sim::{FaultInjector, MemoStore, PredictorKind, SimConfig};
use llbp_trace::{Workload, WorkloadSpec};
use std::sync::Arc;
use std::time::Duration;

/// The five per-job stage spans the engine promises (grepped by name in
/// `scripts/tier1.sh` — keep in sync).
const STAGE_SPANS: [&str; 5] =
    ["queue_wait", "memo_probe", "generation", "simulation", "write_back"];

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("llbp-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid() -> SweepSpec {
    SweepSpec::new(
        vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(2)],
        vec![
            WorkloadSpec::named(Workload::Http).with_branches(3_000),
            WorkloadSpec::named(Workload::Kafka).with_branches(3_000),
            WorkloadSpec::named(Workload::Tpcc).with_branches(3_000),
        ],
        SimConfig::default(),
    )
}

fn injector(spec: &str) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::parse(spec).expect("test fault spec parses"))
}

fn spans<'a>(events: &'a [Event], name: &str) -> Vec<&'a Event> {
    events.iter().filter(|e| e.kind == EventKind::Span && e.name == name).collect()
}

fn marks<'a>(events: &'a [Event], name: &str) -> Vec<&'a Event> {
    events.iter().filter(|e| e.kind == EventKind::Mark && e.name == name).collect()
}

#[test]
fn every_job_records_the_five_stage_spans() {
    let dir = temp_store_dir("stages");
    let telemetry = Telemetry::enabled();
    let spec = grid();
    let n = spec.num_jobs();
    let report = SweepEngine::with_workers(2)
        .with_store(Arc::new(MemoStore::open(&dir).expect("temp store")))
        .with_telemetry(telemetry.clone())
        .run(&spec);
    assert!(report.is_complete(), "unexpected failures: {:?}", report.failed);

    let events = telemetry.drain_events();
    for stage in STAGE_SPANS {
        let stage_spans = spans(&events, stage);
        assert_eq!(stage_spans.len(), n, "one `{stage}` span per job");
        let mut cells: Vec<i64> = stage_spans.iter().map(|e| e.cell).collect();
        cells.sort_unstable();
        let expected: Vec<i64> = (0..n as i64).collect();
        assert_eq!(cells, expected, "`{stage}` spans cover every cell exactly once");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_snapshot_agrees_with_the_event_log() {
    let dir = temp_store_dir("agree");
    let telemetry = Telemetry::enabled();
    let spec = grid();
    let report = SweepEngine::with_workers(2)
        .with_store(Arc::new(MemoStore::open(&dir).expect("temp store")))
        .with_telemetry(telemetry.clone())
        .run(&spec);
    assert!(report.is_complete());

    // Snapshot FIRST: draining must not be what makes the metrics real.
    let snapshot = telemetry.metrics();
    let events = telemetry.drain_events();
    for stage in STAGE_SPANS {
        let stage_spans = spans(&events, stage);
        let hist = snapshot.histograms.get(stage).expect("stage histogram registered");
        assert_eq!(hist.count(), stage_spans.len() as u64, "`{stage}` sample count");
        let event_total: u64 = stage_spans.iter().map(|e| e.dur_us).sum();
        assert_eq!(hist.sum, event_total, "`{stage}` total µs matches the event log");
    }
    // The engine mirrors its summary counters into the registry.
    assert_eq!(snapshot.counters["sweep_jobs"], spec.num_jobs() as u64);
    assert_eq!(snapshot.counters["memo_misses"], report.memo_misses);
    // The hot loop's sampled record counter is registered (the loop
    // resolves it once per attempt) and never overcounts: sampling at
    // poll granularity undercounts by at most one interval per cell —
    // with these 3 000-branch traces, that rounds all the way to zero.
    let simulated: u64 = snapshot.counters["sim_records_total"];
    assert!(
        simulated <= spec.num_jobs() as u64 * 3_000,
        "sampled counter never overcounts (saw {simulated})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn throughput_json_carries_wall_percentiles_and_lock_stats() {
    let dir = temp_store_dir("json");
    let telemetry = Telemetry::enabled();
    let report = SweepEngine::with_workers(2)
        .with_store(Arc::new(MemoStore::open(&dir).expect("temp store")))
        .with_telemetry(telemetry)
        .run(&grid());
    let json = report.throughput_json("telemetry-test");
    for key in [
        "\"lock_wait_ms\":",
        "\"lock_takeovers\":",
        "\"cell_wall_p50_ms\":",
        "\"cell_wall_p95_ms\":",
        "\"cell_wall_max_ms\":",
    ] {
        assert!(json.contains(key), "throughput JSON missing {key}: {json}");
    }
    // The percentiles are exact: each is one of the cells' own walls,
    // picked by nearest rank from the sorted samples.
    assert!(report.failed.is_empty());
    let mut walls: Vec<f64> =
        report.jobs.iter().map(|job| job.stats.wall.as_secs_f64() * 1000.0).collect();
    walls.sort_by(f64::total_cmp);
    let n = walls.len();
    for (key, rank) in [
        ("cell_wall_p50_ms", n.div_ceil(2)),
        ("cell_wall_p95_ms", (n * 95).div_ceil(100)),
        ("cell_wall_max_ms", n),
    ] {
        let expected = format!("\"{key}\":{:.3}", walls[rank - 1]);
        assert!(json.contains(&expected), "want {expected} in {json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_slowness_leaves_retry_and_watchdog_marks() {
    let telemetry = Telemetry::enabled();
    let spec = grid();
    // Attempt 0 of cell 0 sleeps past the watchdog and is killed; the
    // retry converges (same shape as the fault-parity test).
    let report = SweepEngine::with_workers(1)
        .retries(2)
        .timeout(Some(Duration::from_millis(100)))
        .with_faults(injector("slow:cell=0,ms=400"))
        .with_telemetry(telemetry.clone())
        .run(&spec);
    assert!(report.is_complete(), "retry must converge: {:?}", report.failed);

    let snapshot = telemetry.metrics();
    let events = telemetry.drain_events();
    let kills = marks(&events, "watchdog_kill");
    let retries = marks(&events, "retry");
    assert!(!kills.is_empty(), "watchdog kill must be marked");
    assert!(!retries.is_empty(), "retry must be marked");
    assert!(kills.iter().all(|e| e.cell == 0), "only cell 0 was killed");
    assert!(retries.iter().all(|e| e.cell == 0), "only cell 0 retried");
    // Mark events and mark counters are the same tally.
    assert_eq!(snapshot.counters["watchdog_kill"], kills.len() as u64);
    assert_eq!(snapshot.counters["retry"], retries.len() as u64);
}

#[test]
fn stale_demotion_under_verify_resume_is_marked() {
    let dir = temp_store_dir("stale");
    let spec = grid();

    // Campaign 1 (unobserved): complete the grid and journal it.
    let first = SweepEngine::with_workers(2)
        .with_store(Arc::new(MemoStore::open(&dir).expect("temp store")))
        .run(&spec);
    assert!(first.is_complete());

    // Campaign 2: --verify-resume with an injected stale verdict on cell
    // 2. The demotion is marked, counted, and the cell re-simulates.
    let telemetry = Telemetry::enabled();
    let second = SweepEngine::with_workers(2)
        .resume(true)
        .verify_resume(true)
        .with_store(Arc::new(MemoStore::open(&dir).expect("temp store")))
        .with_faults(injector("stale:cell=2"))
        .with_telemetry(telemetry.clone())
        .run(&spec);
    assert!(second.is_complete());
    assert_eq!(second.stale, 1);

    let snapshot = telemetry.metrics();
    let events = telemetry.drain_events();
    let demotions = marks(&events, "stale_demotion");
    assert_eq!(demotions.len(), 1, "exactly one demotion mark");
    assert_eq!(demotions[0].cell, 2, "the injected cell was demoted");
    assert_eq!(snapshot.counters["stale_demotion"], 1);
    // The demoted cell ran the full pipeline again: generation and
    // simulation spans exist for cell 2 and for nothing else.
    for stage in ["generation", "simulation"] {
        let cells: Vec<i64> = spans(&events, stage).iter().map(|e| e.cell).collect();
        assert_eq!(cells, vec![2], "`{stage}` re-ran only for the demoted cell");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_holder_takeover_is_observed_through_the_engine() {
    // Only meaningful where /proc lets us prove a PID dead.
    let proc_root = std::path::Path::new("/proc");
    if !proc_root.is_dir() {
        return;
    }
    let Some(dead) = (400_000..500_000).find(|p| !proc_root.join(p.to_string()).exists()) else {
        return;
    };

    let dir = temp_store_dir("takeover");
    let spec = grid();
    let store = Arc::new(MemoStore::open(&dir).expect("temp store"));

    // Plant a lock orphaned by a "crashed" campaign: same path the
    // journal derives (<root>/<campaign>.journal.lock). Job order is
    // workload-major, mirroring the engine's grid layout.
    let fingerprints: Vec<_> = (0..spec.num_jobs())
        .map(|i| {
            let (w, p) = (i / spec.predictors.len(), i % spec.predictors.len());
            store.result_fingerprint(&spec.predictors[p], &spec.workloads[w], &spec.sim)
        })
        .collect();
    let campaign = llbp_sim::campaign_fingerprint(&fingerprints);
    let lock_path = store.root().join(format!("{campaign}.journal.lock"));
    std::fs::write(&lock_path, format!("{dead}\n")).expect("plant orphaned lock");

    let telemetry = Telemetry::enabled();
    let report =
        SweepEngine::with_workers(1).with_store(store).with_telemetry(telemetry.clone()).run(&spec);
    assert!(report.is_complete());
    assert_eq!(report.lock_takeovers, 1, "the orphaned lock was taken over");

    let events = telemetry.drain_events();
    assert_eq!(marks(&events, "lock_takeover").len(), 1);
    let waits = spans(&events, "lock_wait");
    assert_eq!(waits.len(), 1, "takeover records the acquisition as a lock_wait span");
    assert_eq!(telemetry.metrics().counters["lock_takeover"], 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_telemetry_changes_nothing_and_records_nothing() {
    let dir = temp_store_dir("inert");
    let spec = grid();
    let clean = SweepEngine::with_workers(1).run(&spec);

    let telemetry = Telemetry::disabled();
    let observed = SweepEngine::with_workers(1)
        .with_store(Arc::new(MemoStore::open(&dir).expect("temp store")))
        .with_telemetry(telemetry.clone())
        .run(&spec);
    assert!(observed.is_complete());
    for (c, o) in clean.jobs.iter().zip(&observed.jobs) {
        assert_eq!(c.result, o.result, "telemetry must not perturb results");
    }
    assert!(telemetry.drain_events().is_empty());
    assert!(telemetry.metrics().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
