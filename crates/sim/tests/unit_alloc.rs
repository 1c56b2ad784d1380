//! A unit of three cells that share one history geometry (64K TSL, LLBP
//! and LLBP-0Lat, as fig09 runs them) allocates nothing per record once
//! its first block has run: the stage's buffers and every member's tables
//! are sized when the unit starts, so a campaign over a longer trace
//! allocates exactly as much as one over a shorter trace, as
//! `crates/core/tests/no_alloc.rs` checks for a lone LLBP.
//!
//! Uses a counting global allocator, as `store_alloc.rs` does. The count
//! is per thread, and a one-worker engine runs its cells on the caller's
//! thread.

use llbp_core::LlbpParams;
use llbp_sim::engine::{SweepEngine, SweepSpec};
use llbp_sim::{PredictorKind, SimConfig, TraceCache, BATCH_BLOCK};
use llbp_trace::{Workload, WorkloadSpec};
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

/// Allocations of a one-worker campaign of the three cells over a cached
/// trace of `branches` records.
fn campaign_allocations(branches: usize) -> u64 {
    let spec = SweepSpec::new(
        vec![
            PredictorKind::Tsl64K,
            PredictorKind::Llbp(LlbpParams::default()),
            PredictorKind::Llbp(LlbpParams::zero_latency()),
        ],
        vec![WorkloadSpec::named(Workload::Kafka).with_branches(branches)],
        SimConfig::default(),
    );
    let cache = TraceCache::new();
    let engine = SweepEngine::with_workers(1);
    // Generate the trace into the cache, which keeps it.
    let _ = engine.run_with_cache(&spec, &cache);
    let before = allocations();
    let report = engine.run_with_cache(&spec, &cache);
    let spent = allocations() - before;
    assert!(report.is_complete());
    assert_eq!(report.cache_hits, 1, "the unit reads the cached trace once");
    spent
}

#[test]
fn a_three_member_unit_allocates_nothing_per_record() {
    let short = campaign_allocations(8 * BATCH_BLOCK);
    let long = campaign_allocations(24 * BATCH_BLOCK);
    assert_eq!(short, long, "allocations grew with the trace: {short} then {long}");
}
