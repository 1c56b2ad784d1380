//! A cell's store costs repeat exactly: an object path takes one heap
//! allocation, a result write takes as many at its thousandth call as at
//! its first, whatever the PID and the temp-file sequence number, and two
//! identical cold campaigns allocate equally. A cell's predictor costs
//! shrink on a warm table pool: a TAGE-SC-L or an LLBP built from a pool
//! that a previous one filled allocates only its labels, copies no
//! configuration, and faults few pages in.
//!
//! Uses a counting global allocator, as
//! `crates/trace/tests/fingerprint_alloc.rs` does. The count is per
//! thread, and a one-worker engine runs its cells on the caller's thread,
//! so sibling tests running on other threads cannot disturb a
//! measurement.

use llbp_core::{LlbpParams, LlbpPredictor};
use llbp_sim::engine::{SweepEngine, SweepSpec};
use llbp_sim::store::local::LocalDir;
use llbp_sim::{MemoStore, ObjectKind, PredictorKind, SimConfig};
use llbp_tage::{Predictor, TablePool, TageScl, TslConfig};
use llbp_trace::fingerprint::Fingerprint;
use llbp_trace::{BranchKind, Trace, Workload, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialised thread-local `Cell` with no destructor, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A fresh scratch directory; tags of equal length give paths of equal
/// length.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("llbp-store-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn an_object_path_takes_one_allocation_and_keeps_its_text() {
    let dir = scratch("path");
    let store = LocalDir::open(&dir).expect("scratch store");
    for fp in [Fingerprint(1), Fingerprint(0xabcd << 64), Fingerprint(u128::MAX)] {
        for kind in [ObjectKind::Trace, ObjectKind::Result, ObjectKind::Prov] {
            let before = allocations();
            let path = store.object_path(kind, fp);
            assert_eq!(allocations() - before, 1, "{kind:?} {fp}");
            let joined = dir.join(kind.dir()).join(format!("{fp}.{}", kind.ext()));
            assert_eq!(path.as_os_str(), joined.as_os_str());
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_result_write_allocates_the_same_at_any_sequence_number() {
    let dir = scratch("write");
    let store = MemoStore::open(&dir).expect("scratch store");
    let trace = WorkloadSpec::named(Workload::Http).with_branches(1_000).generate();
    let result = SimConfig::default().run(PredictorKind::Tsl64K, &trace);
    let fp = Fingerprint(0x5eed);
    let mut counts = Vec::new();
    // Each write takes the next temp-file sequence number, so these calls
    // cross from one decimal digit to four.
    for call in 1..=1000 {
        let before = allocations();
        store.store_result(fp, &result, Duration::from_millis(1), 1_000).expect("store");
        let took = allocations() - before;
        if [1, 10, 100, 1000].contains(&call) {
            counts.push((call, took));
        }
    }
    assert!(
        counts.iter().all(|&(_, took)| took == counts[0].1),
        "(call, allocations) at PID {}: {counts:?}",
        std::process::id()
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn identical_cold_campaigns_allocate_equally() {
    let spec = SweepSpec::new(
        vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(2)],
        vec![
            WorkloadSpec::named(Workload::Http).with_branches(3_000),
            WorkloadSpec::named(Workload::Tpcc).with_branches(3_000),
            WorkloadSpec::named(Workload::Kafka).with_branches(3_000),
        ],
        SimConfig::default(),
    );
    // As perfbench's cold workloads: traces stored ahead, no results yet.
    let campaign = |tag: &str| {
        let dir = scratch(tag);
        let store = Arc::new(MemoStore::open(&dir).expect("scratch store"));
        for w in &spec.workloads {
            store.store_trace(store.trace_fingerprint(w), &w.generate()).expect("store trace");
        }
        let engine = SweepEngine::with_workers(1).with_store(store);
        let before = allocations();
        let report = engine.try_run(&spec).expect("campaign runs");
        let took = allocations() - before;
        assert!(report.is_complete());
        assert_eq!(report.memo_misses, spec.num_jobs() as u64, "{tag}: every cell simulates");
        let _ = std::fs::remove_dir_all(dir);
        took
    };
    let (first, second) = (campaign("cold-a"), campaign("cold-b"));
    assert_eq!(
        first,
        second,
        "allocations of two identical campaigns at PID {}",
        std::process::id()
    );
}

/// Minor page faults of the calling thread so far: field 10 of
/// `/proc/thread-self/stat`. `None` where that file cannot be read.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The fields after the parenthesised command name start at field 3.
    stat.rsplit_once(')')?.1.split_whitespace().nth(7)?.parse().ok()
}

/// Drives `predictor` over `trace` as the batch tier does.
fn drive(predictor: &mut impl Predictor, trace: &Trace) {
    for r in trace {
        if r.kind() == BranchKind::Conditional {
            std::hint::black_box(predictor.predict_train(r.pc(), r.taken()));
        }
        predictor.update_history_fast(r);
    }
}

/// Allocations while a predictor is built, allocations while it runs
/// `trace`, and the minor faults of both.
fn build_and_drive<P: Predictor>(
    build: impl FnOnce() -> P,
    trace: &Trace,
) -> (P, u64, u64, Option<u64>) {
    let faults = minor_faults();
    let before = allocations();
    let mut predictor = build();
    let built = allocations() - before;
    let before = allocations();
    drive(&mut predictor, trace);
    let ran = allocations() - before;
    let faults = faults.zip(minor_faults()).map(|(before, after)| after - before);
    (predictor, built, ran, faults)
}

#[test]
fn an_inf_tsl_on_a_warm_pool_allocates_nothing_for_its_tables() {
    // NodeApp, as in `crates/core/tests/no_alloc.rs`: its 20K records
    // write most of the corrector's pages. The pooled build re-zeroes
    // every page, so a page the previous cell only read (a zero-page
    // mapping) faults at that `fill(0)` instead of at its first read.
    let trace = WorkloadSpec::named(Workload::NodeApp).with_branches(20_000).generate();
    let cfg = TslConfig::infinite_tsl();
    // The fresh build goes first, before this thread has freed a large
    // table the allocator could hand back already resident.
    let (fresh, fresh_built, fresh_ran, fresh_faults) =
        build_and_drive(|| TageScl::new(cfg.clone()), &trace);
    drop(fresh);
    let mut pool = TablePool::new();
    let (previous, ..) = build_and_drive(|| TageScl::with_pool(&cfg, &mut pool), &trace);
    previous.into_pool(&mut pool);
    let (pooled, pooled_built, pooled_ran, pooled_faults) =
        build_and_drive(|| TageScl::with_pool(&cfg, &mut pool), &trace);
    pooled.into_pool(&mut pool);

    let sc_tables = cfg.sc_history_lengths.len() as u64 + 1;
    assert!(fresh_built > sc_tables, "a fresh build allocates its tables ({fresh_built})");
    assert_eq!(pooled_built, 1, "a build from the pool copies its label and nothing else");
    assert!(fresh_ran > 0, "a fresh build grows its infinite storage while it runs");
    assert_eq!(pooled_ran, 0, "the pooled arena and run map already fit the trace");
    match (fresh_faults, pooled_faults) {
        (Some(fresh), Some(pooled)) => assert!(
            pooled * 10 < fresh,
            "minor faults: {pooled} on the pool, {fresh} fresh (want under a tenth)"
        ),
        _ => eprintln!("skipping the fault check: /proc/thread-self/stat cannot be read"),
    }
}

/// Allocations of a build of `cfg` from a pool that a build of the same
/// configuration has filled.
fn warm_tsl_build(cfg: &TslConfig) -> u64 {
    let mut pool = TablePool::new();
    TageScl::with_pool(cfg, &mut pool).into_pool(&mut pool);
    let before = allocations();
    let tsl = TageScl::with_pool(cfg, &mut pool);
    let built = allocations() - before;
    tsl.into_pool(&mut pool);
    built
}

#[test]
fn warm_pool_builds_allocate_only_their_labels() {
    // A TAGE-SC-L takes its TAGE tables, history buffer, fold bank, hash
    // lanes, loop predictor and corrector tables from the pool and reads
    // its configuration without copying it: one allocation, the label.
    assert_eq!(warm_tsl_build(&TslConfig::cbp64k()), 1, "warm 64K TSL");
    assert_eq!(warm_tsl_build(&TslConfig::scaled(8)), 1, "warm 512K TSL");
    // LLBP adds its own tables and front end from the pool, and copies
    // two labels: its own and its baseline's.
    let params = LlbpParams::default();
    let mut pool = TablePool::new();
    LlbpPredictor::with_pool(&params, &mut pool).into_pool(&mut pool);
    let before = allocations();
    let llbp = LlbpPredictor::with_pool(&params, &mut pool);
    let built = allocations() - before;
    llbp.into_pool(&mut pool);
    assert_eq!(built, 2, "warm LLBP");
}

#[test]
fn an_llbp_on_a_warm_pool_faults_few_pages() {
    let trace = WorkloadSpec::named(Workload::NodeApp).with_branches(20_000).generate();
    let params = LlbpParams::default();
    let (fresh, _, _, fresh_faults) =
        build_and_drive(|| LlbpPredictor::new(params.clone()), &trace);
    drop(fresh);
    // The first pooled build re-zeroes arena pages the fresh one never
    // wrote; the second finds every page resident.
    let mut pool = TablePool::new();
    for _ in 0..2 {
        let (previous, ..) =
            build_and_drive(|| LlbpPredictor::with_pool(&params, &mut pool), &trace);
        previous.into_pool(&mut pool);
    }
    let (pooled, _, pooled_ran, pooled_faults) =
        build_and_drive(|| LlbpPredictor::with_pool(&params, &mut pool), &trace);
    pooled.into_pool(&mut pool);
    assert_eq!(pooled_ran, 0, "the LLBP hot path allocates nothing");
    match (fresh_faults, pooled_faults) {
        (Some(fresh), Some(pooled)) => assert!(
            pooled * 10 < fresh,
            "minor faults: {pooled} on the pool, {fresh} fresh (want under a tenth)"
        ),
        _ => eprintln!("skipping the fault check: /proc/thread-self/stat cannot be read"),
    }
}
