//! The per-record path of every LLBP design point, and of the 64K
//! TAGE-SC-L baseline, performs zero heap allocations once the predictor
//! is built: a whole 150k-record cell runs on the memory `new` reserved.
//!
//! Uses a counting global allocator, as `crates/obs/tests/noop_alloc.rs`
//! does. The count is per thread, so the test harness and sibling tests
//! running on other threads cannot disturb a measurement.

use llbp_core::{CdReplacement, LlbpParams, LlbpPredictor};
use llbp_tage::{Predictor, TageScl, TslConfig};
use llbp_trace::{BranchKind, Trace, Workload, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const RECORDS: usize = 150_000;

fn trace() -> Trace {
    WorkloadSpec::named(Workload::NodeApp).with_branches(RECORDS).generate()
}

/// Heap allocations while `p` runs `trace` the way the reference tier
/// does: `predict`, `train`, `update_history`.
fn split_path(p: &mut dyn Predictor, trace: &Trace) -> u64 {
    let before = allocations();
    for r in trace {
        if r.kind() == BranchKind::Conditional {
            let pred = p.predict(r.pc());
            std::hint::black_box(p.last_prediction_info(pred));
            p.train(r.pc(), r.taken());
        }
        p.update_history(r);
    }
    allocations() - before
}

/// Heap allocations while `p` runs `trace` the way the fast tiers do:
/// `predict_train` and `update_history_fast`.
fn fused_path(p: &mut dyn Predictor, trace: &Trace) -> u64 {
    let before = allocations();
    for r in trace {
        if r.kind() == BranchKind::Conditional {
            std::hint::black_box(p.predict_train(r.pc(), r.taken()));
        }
        p.update_history_fast(r);
    }
    allocations() - before
}

type Path = fn(&mut dyn Predictor, &Trace) -> u64;

fn assert_no_allocations(build: &dyn Fn() -> Box<dyn Predictor>, trace: &Trace) {
    let paths: [(&str, Path); 2] = [("split", split_path), ("fused", fused_path)];
    for (path, run) in paths {
        let mut p = build();
        let allocs = run(p.as_mut(), trace);
        assert_eq!(allocs, 0, "{} allocated {allocs} times on the {path} path", p.label());
    }
}

fn llbp(params: LlbpParams) -> impl Fn() -> Box<dyn Predictor> {
    move || Box::new(LlbpPredictor::new(params.clone()))
}

#[test]
fn llbp_paper_and_latency_designs_do_not_allocate() {
    let trace = trace();
    assert_no_allocations(&llbp(LlbpParams::default()), &trace);
    assert_no_allocations(&llbp(LlbpParams::zero_latency()), &trace);
    assert_no_allocations(&llbp(LlbpParams::default().with_pb_entries(16)), &trace);
}

#[test]
fn llbp_study_designs_do_not_allocate() {
    let trace = trace();
    assert_no_allocations(&llbp(LlbpParams::study_full_assoc(8192, 8)), &trace);
    assert_no_allocations(&llbp(LlbpParams::study_full_assoc(8192, 64)), &trace);
}

#[test]
fn llbp_ablations_do_not_allocate() {
    let trace = trace();
    let lru = LlbpParams { cd_replacement: CdReplacement::Lru, ..LlbpParams::default() };
    let no_buckets = LlbpParams { num_buckets: 1, ..LlbpParams::default() };
    assert_no_allocations(&llbp(lru), &trace);
    assert_no_allocations(&llbp(no_buckets), &trace);
}

#[test]
fn tsl64k_baseline_does_not_allocate() {
    let trace = trace();
    assert_no_allocations(&|| Box::new(TageScl::new(TslConfig::cbp64k())), &trace);
}
