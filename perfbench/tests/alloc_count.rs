//! The counting allocator must count a known allocation exactly, and a
//! campaign's allocation count must repeat exactly. This file holds one
//! test so no sibling test thread allocates concurrently.

use llbp_perfbench::alloc::{self, CountingAlloc};
use llbp_perfbench::runs::{open_store, run_campaign};
use llbp_sim::engine::SweepSpec;
use llbp_sim::obs::Telemetry;
use llbp_sim::{PredictorKind, SimConfig};
use llbp_trace::{Workload, WorkloadSpec};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_known_allocations_and_repeats_campaign_counts() {
    let before = alloc::allocations();
    let boxed = black_box(Box::new([7u8; 64]));
    assert_eq!(alloc::allocations() - before, 1, "one Box is one allocation");
    drop(boxed);

    let before = alloc::allocations();
    let mut v: Vec<u64> = black_box(Vec::with_capacity(4));
    v.extend([1, 2, 3, 4, 5]);
    assert_eq!(alloc::allocations() - before, 2, "allocation plus one growth");
    drop(v);

    let spec = SweepSpec::new(
        vec![PredictorKind::Tsl64K],
        vec![WorkloadSpec::named(Workload::Http).with_branches(4_000)],
        SimConfig::default(),
    );
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("alloc-count");
    let mut counts = Vec::new();
    for round in 0..3 {
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            open_store(&dir.join(round.to_string()), &Telemetry::disabled()).expect("store");
        let (campaign, _) = run_campaign(&spec, &store, &Telemetry::disabled()).expect("run");
        counts.push(campaign.allocs);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(counts[1] > 0);
    assert_eq!(counts[1], counts[2], "a repeated campaign allocates exactly as often: {counts:?}");
}
