//! A cell's store costs repeat exactly: an object path takes one heap
//! allocation, a result write takes as many at its thousandth call as at
//! its first, whatever the PID and the temp-file sequence number, and two
//! identical cold campaigns allocate equally. A cell's predictor costs
//! shrink on a warm table pool: an `Inf TSL` built from a pool that a
//! previous one filled allocates nothing for its statistical corrector or
//! its infinite storage, and faults few pages in; a 64K TSL built on a
//! warm pool copies no configuration.
//!
//! Uses a counting global allocator, as
//! `crates/trace/tests/fingerprint_alloc.rs` does. The count is per
//! thread, and a one-worker engine runs its cells on the caller's thread,
//! so sibling tests running on other threads cannot disturb a
//! measurement.

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

/// Drives `tsl` over `trace` as the batch tier does.
fn drive(tsl: &mut TageScl, trace: &Trace) {
    for r in trace {
        if r.kind() == BranchKind::Conditional {
            std::hint::black_box(tsl.predict_train(r.pc(), r.taken()));
        }
        tsl.update_history_fast(r);
    }
}

/// Allocations while `tsl` is built, allocations while it runs `trace`,
/// and the minor faults of both.
fn build_and_drive(
    build: impl FnOnce() -> TageScl,
    trace: &Trace,
) -> (TageScl, u64, u64, Option<u64>) {
    let faults = minor_faults();
    let before = allocations();
    let mut tsl = build();
    let built = allocations() - before;
    let before = allocations();
    drive(&mut tsl, trace);
    let ran = allocations() - before;
    let faults = faults.zip(minor_faults()).map(|(before, after)| after - before);
    (tsl, built, ran, faults)
}

#[test]
fn an_inf_tsl_on_a_warm_pool_allocates_nothing_for_its_tables() {
    // NodeApp, as in `crates/core/tests/no_alloc.rs`: its 20K records
    // write most of the corrector's pages. The pooled build re-zeroes
    // every page, so a page the previous cell only read (a zero-page
    // mapping) faults at that `fill(0)` instead of at its first read.
    let trace = WorkloadSpec::named(Workload::NodeApp).with_branches(20_000).generate();
    // The fresh build goes first, before this thread has freed a large
    // table the allocator could hand back already resident.
    let (fresh, fresh_built, fresh_ran, fresh_faults) =
        build_and_drive(|| TageScl::new(TslConfig::infinite_tsl()), &trace);
    drop(fresh);
    let mut pool = TablePool::new();
    let (previous, ..) =
        build_and_drive(|| TageScl::with_pool(TslConfig::infinite_tsl(), &mut pool), &trace);
    previous.into_pool(&mut pool);
    let (pooled, pooled_built, pooled_ran, pooled_faults) =
        build_and_drive(|| TageScl::with_pool(TslConfig::infinite_tsl(), &mut pool), &trace);
    pooled.into_pool(&mut pool);

    let sc_tables = TslConfig::infinite_tsl().sc_history_lengths.len() as u64 + 1;
    assert_eq!(
        fresh_built - pooled_built,
        sc_tables,
        "a build from the pool takes all {sc_tables} corrector tables from it \
         ({fresh_built} allocations fresh, {pooled_built} pooled)"
    );
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

#[test]
fn a_64k_tsl_on_a_warm_pool_moves_its_tage_config_into_its_tage() {
    // Eight allocations: TAGE's history buffer, fold bank, hash lanes, two
    // bimodal tables and table block, and the loop predictor's two. The
    // corrector's tables come from the pool, and the `TageConfig` moves
    // into the TAGE: a clone of it (as the build once made) adds two, one
    // per vector (`history_lengths`, `tag_bits`), for 10 in all.
    const BUILD: u64 = 8;
    let mut pool = TablePool::new();
    TageScl::with_pool(TslConfig::cbp64k(), &mut pool).into_pool(&mut pool);
    let cfg = TslConfig::cbp64k();
    let before = allocations();
    let tsl = TageScl::with_pool(cfg, &mut pool);
    let built = allocations() - before;
    tsl.into_pool(&mut pool);
    assert_eq!(built, BUILD, "allocations of a warm-pool 64K TSL build");
}
