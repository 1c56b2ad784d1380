//! Sweep-daemon integration tests: cross-campaign dedup, remote/local
//! report parity, restart resume, the journal lock (a dead holder taken
//! over, a live one respected) and the daemon's cell fault rules — all
//! against an in-process [`ServeDaemon`] on a loopback socket, which
//! exercises the real wire protocol end to end. The process-level story
//! (spawned `llbp_serve`, a killed daemon resumed by a fresh one,
//! byte-identical stdout through `--server`, metrics scrape, injected
//! network faults, clean shutdown) lives in `scripts/tier1.sh`.

use llbp_sim::engine::grid_fingerprints;
use llbp_sim::journal::{campaign_fingerprint, read_outcomes};
use llbp_sim::lock::ProcessStamp;
use llbp_sim::serve::client::{run_remote, run_remote_with, ServeClient};
use llbp_sim::serve::proto::{self, Op, Request};
use llbp_sim::serve::wire::encode_spec;
use llbp_sim::serve::{ServeDaemon, ServeHandle};
use llbp_sim::{
    CampaignJournal, CellOutcome, FaultInjector, MemoStore, PredictorKind, SimConfig, SweepEngine,
    SweepSpec,
};
use llbp_trace::fingerprint::Fingerprint;
use llbp_trace::{Workload, WorkloadSpec};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "llbp-serve-it-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spec_for(workloads: &[Workload]) -> SweepSpec {
    SweepSpec::new(
        vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(2)],
        workloads.iter().map(|&w| WorkloadSpec::named(w).with_branches(2_000)).collect(),
        SimConfig::default(),
    )
}

/// Binds a daemon over `root` and serves it from a background thread.
/// The returned handle stops the accept loop; resident campaigns have
/// all finished by the time the tests call it (they block on
/// `run_remote`), so join-after-shutdown is prompt.
fn start_daemon(root: &Path) -> (ServeHandle, String, std::thread::JoinHandle<()>) {
    start_daemon_with(root, None)
}

/// [`start_daemon`] with a fault injector bound into the daemon.
fn start_daemon_with(
    root: &Path,
    faults: Option<Arc<FaultInjector>>,
) -> (ServeHandle, String, std::thread::JoinHandle<()>) {
    let store = Arc::new(MemoStore::open(root).expect("store opens"));
    let daemon = ServeDaemon::bind("127.0.0.1:0", store, faults).expect("daemon binds");
    let addr = format!("tcp://{}", daemon.local_addr());
    let handle = daemon.handle();
    let join = std::thread::spawn(move || daemon.run());
    (handle, addr, join)
}

fn published_cells(root: &Path) -> usize {
    std::fs::read_dir(root.join("results"))
        .expect("results dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|ext| ext == "llbr"))
        .count()
}

#[test]
fn concurrent_overlapping_campaigns_compute_shared_cells_exactly_once() {
    let root = scratch_dir("dedup");
    let (handle, addr, join) = start_daemon(&root);

    // Two 2x2 grids sharing the Kafka column: 8 submitted cells, 6
    // distinct. The store's cell gate plus the memo probe must
    // make the 2 shared cells simulate once and memo-serve the other
    // campaign, whichever gets there first.
    let spec_a = spec_for(&[Workload::Http, Workload::Kafka]);
    let spec_b = spec_for(&[Workload::Kafka, Workload::Tpcc]);
    let (report_a, report_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_remote(&addr, &spec_a).expect("campaign A"));
        let b = scope.spawn(|| run_remote(&addr, &spec_b).expect("campaign B"));
        (a.join().expect("A thread"), b.join().expect("B thread"))
    });

    for (label, report) in [("A", &report_a), ("B", &report_b)] {
        assert_eq!(report.jobs.len(), 4, "campaign {label} grid");
        assert!(report.failed.is_empty(), "campaign {label} failures: {:?}", report.failed);
        assert_eq!(report.store_tier, "serve");
    }
    // `memo_misses` counts cells a campaign actually simulated;
    // exactly-once means the two campaigns split the 6 distinct cells
    // between them, and the store holds exactly the union.
    assert_eq!(
        report_a.memo_misses + report_b.memo_misses,
        6,
        "each distinct cell simulated exactly once \
         (A: {}, B: {})",
        report_a.memo_misses,
        report_b.memo_misses
    );
    assert_eq!(published_cells(&root), 6, "store holds the union grid, nothing twice");
    // The 2 shared cells were served across campaigns, not recomputed.
    assert!(
        report_a.memo_hits + report_b.memo_hits >= 2,
        "shared cells memo-served (A: {}, B: {})",
        report_a.memo_hits,
        report_b.memo_hits
    );

    // Kafka is workload index 1 in A (cells 2,3) and index 0 in B
    // (cells 0,1): the shared cells must carry identical results.
    for pred in 0..2 {
        assert_eq!(
            report_a.jobs[2 + pred].result,
            report_b.jobs[pred].result,
            "shared Kafka cell, predictor {pred}"
        );
    }

    handle.shutdown();
    join.join().expect("daemon thread");
}

#[test]
fn remote_report_matches_a_local_run_cell_for_cell() {
    let remote_root = scratch_dir("parity-remote");
    let local_root = scratch_dir("parity-local");
    let spec = spec_for(&[Workload::Http, Workload::Kafka]);

    let (handle, addr, join) = start_daemon(&remote_root);
    let remote = run_remote(&addr, &spec).expect("remote sweep");
    let local = SweepEngine::with_workers(1)
        .with_store(Arc::new(MemoStore::open(&local_root).expect("local store")))
        .run(&spec);

    assert_eq!(remote.jobs.len(), local.jobs.len());
    assert!(remote.failed.is_empty() && local.failed.is_empty());
    for (r, l) in remote.jobs.iter().zip(&local.jobs) {
        assert_eq!(r.job, l.job, "grid order");
        assert_eq!(r.result, l.result, "cell {:?}", r.job);
        assert_eq!(r.stats.branches, l.stats.branches, "cell {:?}", r.job);
    }
    assert_eq!(remote.memo_misses, 4, "fresh grid: every cell simulated daemon-side");
    assert_eq!(remote.num_predictors, local.num_predictors);

    // Resubmitting the identical grid is idempotent: the
    // content-addressed ticket lands on the finished resident campaign
    // and the store still holds exactly one file per cell.
    let again = run_remote(&addr, &spec).expect("resubmitted sweep");
    assert_eq!(again.jobs.len(), 4);
    for (r, l) in again.jobs.iter().zip(&local.jobs) {
        assert_eq!(r.result, l.result, "resubmitted cell {:?}", r.job);
    }
    assert_eq!(published_cells(&remote_root), 4);

    handle.shutdown();
    join.join().expect("daemon thread");
}

#[test]
fn injected_disconnects_cost_a_retry_tick_not_the_campaign() {
    let spec = spec_for(&[Workload::Http, Workload::Kafka]);
    // Two injected faults of each kind (one per request): the client
    // reconnects and idempotently resubmits, and the campaign still
    // completes whole.
    for kind in ["disconnect", "drop", "timeout", "torn-write"] {
        let root = scratch_dir("netfault");
        let (handle, addr, join) = start_daemon(&root);
        let rule = format!("net:{kind}:count=2");
        let faults = Arc::new(FaultInjector::parse(&rule).expect("spec parses"));
        let report = run_remote_with(&addr, &spec, Some(faults)).expect("survives the faults");
        handle.shutdown();
        join.join().expect("daemon thread");
        assert_eq!(report.jobs.len(), 4, "{rule}");
        assert!(report.failed.is_empty(), "{rule} failures: {:?}", report.failed);
        assert_eq!(report.memo_misses, 4, "{rule}: every cell simulated despite the faults");
        assert_eq!(published_cells(&root), 4, "{rule}");
        let _ = std::fs::remove_dir_all(root);
    }
}

/// The value of counter `name` in a Prometheus scrape; a counter the
/// daemon never touched is absent and reads 0.
fn scraped_counter(metrics: &str, name: &str) -> u64 {
    let prefix = format!("llbp_{name} ");
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .map_or(0, |value| value.parse().expect("counter value"))
}

#[test]
fn a_torn_submit_frame_closes_the_connection_without_starting_a_campaign() {
    let root = scratch_dir("torn");
    let (handle, addr, join) = start_daemon(&root);
    let request = Request {
        op: Op::SubmitSweep,
        fp: Fingerprint(0),
        aux: 0,
        payload: encode_spec(&spec_for(&[Workload::Http])),
    };
    let frame = proto::encode_request(&request);
    let mut conn = TcpStream::connect(addr.trim_start_matches("tcp://")).expect("daemon dials");
    conn.write_all(&frame[..frame.len() / 2]).expect("half a frame");
    drop(conn);

    let metrics = ServeClient::connect(&addr).expect("fresh connection").metrics().expect("scrape");
    handle.shutdown();
    join.join().expect("daemon thread");
    assert_eq!(scraped_counter(&metrics, "serve_campaigns_total"), 0, "{metrics}");
    assert_eq!(scraped_counter(&metrics, "serve_requests_total"), 1, "only the scrape counts");
    assert_eq!(published_cells(&root), 0);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn an_unreachable_daemon_is_a_network_error_that_names_it() {
    let err = run_remote("127.0.0.1:1", &spec_for(&[Workload::Http]))
        .expect_err("nothing listens on port 1");
    assert_eq!(err.class(), "network");
    assert_eq!(err.exit_code(), 4);
    assert!(err.to_string().starts_with("sweep daemon connect failed"), "{err}");
}

#[test]
fn daemon_restart_resumes_from_journals_and_published_cells() {
    let root = scratch_dir("restart");
    let spec = spec_for(&[Workload::Http, Workload::Kafka]);

    // First incarnation completes the campaign and shuts down.
    let (handle, addr, join) = start_daemon(&root);
    let first = run_remote(&addr, &spec).expect("first incarnation sweep");
    assert_eq!(first.memo_misses, 4);
    handle.shutdown();
    join.join().expect("first daemon thread");

    // Simulate a cell lost to a crash before publish: delete one
    // published result. (A real crash also leaves the dead daemon's
    // journal lock behind; a later test plants one.)
    let store = MemoStore::open(&root).expect("store reopens");
    let fps = grid_fingerprints(&spec, &store);
    let campaign = campaign_fingerprint(&fps);
    let victim = root.join("results").join(format!("{}.llbr", fps[2]));
    std::fs::remove_file(&victim).expect("victim cell exists");
    assert_eq!(published_cells(&root), 3);

    // Second incarnation: same root, fresh daemon state. Resubmission
    // must re-simulate exactly the missing cell and memo-serve the
    // other three from the store.
    let (handle, addr, join) = start_daemon(&root);
    let second = run_remote(&addr, &spec).expect("second incarnation sweep");
    assert!(second.failed.is_empty(), "failures: {:?}", second.failed);
    assert_eq!(second.memo_misses, 1, "only the deleted cell re-simulates");
    assert!(second.memo_hits >= 3, "published cells memo-serve (got {})", second.memo_hits);
    assert_eq!(published_cells(&root), 4, "grid is whole again");
    for (r, l) in second.jobs.iter().zip(&first.jobs) {
        assert_eq!(r.result, l.result, "resumed cell {:?}", r.job);
    }

    // The campaign journal covers the full grid after resume.
    let outcomes = read_outcomes(&root.join(format!("{campaign}.journal")));
    assert_eq!(outcomes.len(), 4, "merged journal covers the grid: {outcomes:?}");

    // Poll/stream against the dead first incarnation's ticket on the
    // *new* daemon works because resubmission re-registered it; an
    // unknown ticket is a clean protocol miss, not a hang.
    let mut client = ServeClient::connect(&addr).expect("client connects");
    let status = client.poll(campaign).expect("known ticket polls");
    assert!(status.finished && status.total == 4);
    let err = client.poll(llbp_trace::fingerprint::Fingerprint(0xdead_beef)).unwrap_err();
    assert!(
        err.to_string().contains("unknown campaign ticket"),
        "unknown ticket is a clean miss: {err}"
    );

    handle.shutdown();
    join.join().expect("second daemon thread");
}

#[test]
fn a_dead_holders_journal_lock_is_taken_over_and_the_cells_match_a_one_worker_run() {
    let root = scratch_dir("takeover");
    let spec = spec_for(&[Workload::Http, Workload::Kafka]);

    // What a daemon killed mid-campaign leaves behind: the grid's journal
    // lock, stamped by a process that can never be alive (our PID with a
    // perturbed start time — the PID-reuse shape), over a journal whose
    // last line the kill tore.
    let fps = grid_fingerprints(&spec, &MemoStore::open(&root).expect("store opens"));
    let journal = root.join(format!("{}.journal", campaign_fingerprint(&fps)));
    let dead = ProcessStamp {
        pid: std::process::id(),
        start_time: Some(ProcessStamp::current().start_time.unwrap_or(7) + 1),
    };
    std::fs::write(journal.with_extension("journal.lock"), format!("{}\n", dead.to_line()))
        .expect("plant the dead holder's lock");
    let torn = format!("ok 0 {}", &fps[0].to_string()[..20]);
    std::fs::write(&journal, &torn).expect("plant the torn journal");

    let (handle, addr, join) = start_daemon(&root);
    let report = run_remote(&addr, &spec).expect("campaign completes");
    handle.shutdown();
    join.join().expect("daemon thread");
    assert!(report.lock_takeovers >= 1, "the dead holder's journal lock must be taken over");
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);

    // The recovered campaign equals a plain one-worker engine run on a
    // fresh root, cell for cell.
    let serial_root = scratch_dir("takeover-serial");
    let serial = SweepEngine::with_workers(1)
        .with_store(Arc::new(MemoStore::open(&serial_root).expect("serial store")))
        .run(&spec);
    assert_eq!(report.jobs.len(), serial.jobs.len());
    for (index, (r, l)) in report.jobs.iter().zip(&serial.jobs).enumerate() {
        assert_eq!(r.result, l.result, "cell {index} must match the one-worker run");
    }
    // The torn tail was terminated, then each cell appended one entry.
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], torn, "the torn line stays, on a line of its own");
    assert_eq!(lines.len() - 1, spec.num_jobs(), "one journal entry per cell: {text}");
    assert_eq!(read_outcomes(&journal).len(), spec.num_jobs());
    for dir in [root, serial_root] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn the_daemons_fault_spec_drives_the_engines_cell_rules() {
    let root = scratch_dir("cellfaults");
    let spec = spec_for(&[Workload::Http, Workload::Kafka]);

    // Cell 1 panics on its first attempt only, so the engine's retry
    // absorbs it; cell 2 panics on every attempt and fails.
    let faults =
        Arc::new(FaultInjector::parse("panic:cell=1;panic:cell=2,count=99").expect("spec parses"));
    let (handle, addr, join) = start_daemon_with(&root, Some(faults));
    let report = run_remote(&addr, &spec).expect("campaign completes");
    handle.shutdown();
    join.join().expect("daemon thread");
    assert_eq!(report.jobs.len(), 4);
    assert_eq!(report.failed.len(), 1, "failures: {:?}", report.failed);
    assert_eq!(report.failed[0].index, 2);
    assert_eq!(report.failed[0].error.class(), "injected");
    assert_eq!(report.memo_misses, 3, "cells 0, 1 and 3 simulated");
    assert_eq!(published_cells(&root), 3);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_daemon_campaign_respects_a_live_journal_lock_and_reruns_once_it_is_free() {
    let root = scratch_dir("livelock");
    let spec = spec_for(&[Workload::Http, Workload::Kafka]);

    // A local run of the same grid on the same root holds its journal.
    let fps = grid_fingerprints(&spec, &MemoStore::open(&root).expect("store opens"));
    let holder =
        CampaignJournal::open_with_wait(&root, campaign_fingerprint(&fps), false, Duration::ZERO)
            .expect("the holder opens the journal");
    holder.record(0, &CellOutcome::Failed { class: "timeout".into() });
    let before = std::fs::read(holder.path()).expect("holder's journal");

    let (handle, addr, join) = start_daemon(&root);
    let err = run_remote(&addr, &spec).expect_err("a live holder's journal is not shared");
    assert!(err.to_string().starts_with("sweep daemon campaign failed"), "{err}");
    assert!(err.to_string().contains(".journal.lock"), "the error names the lock: {err}");
    assert_eq!(
        std::fs::read(holder.path()).expect("holder's journal"),
        before,
        "the holder's journal is untouched"
    );

    // Once the holder is done, resubmitting replaces the failed campaign.
    drop(holder);
    let report = run_remote(&addr, &spec).expect("campaign runs once the lock is free");
    handle.shutdown();
    join.join().expect("daemon thread");
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert_eq!(report.memo_misses, 4, "every cell simulated on the rerun");
    let _ = std::fs::remove_dir_all(root);
}
