//! Microbenchmarks of the predictor building blocks: folded history
//! maintenance, pattern-set matching/allocation, RCR hashing, and table
//! lookups. These quantify the per-branch cost of each hardware
//! structure's software model.
//!
//! Uses a std-only timing harness (no external bench framework) so the
//! workspace builds hermetically; run with `cargo bench --bench components`.

use bputil::history::{FoldedHistory, HistoryBuffer};
use bputil::rng::SplitMix64;
use bputil::table::SetAssoc;
use llbp_core::rcr::RollingContextRegister;
use llbp_core::{ContextHistoryKind, PatternArena, SetGeometry};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 2_000_000;

/// Times `ITERS` calls of `f` and reports nanoseconds per call.
fn bench<F: FnMut()>(name: &str, mut f: F) {
    // Warmup.
    for _ in 0..(ITERS / 10) {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / ITERS as f64;
    println!("{name:28} {ns:>10.2} ns/op");
}

fn bench_folded_history() {
    let mut ghr = HistoryBuffer::new(4096);
    let mut folds: Vec<FoldedHistory> =
        (1..=21).map(|i| FoldedHistory::new(i * 140 + 6, 13)).collect();
    let mut rng = SplitMix64::new(1);
    bench("folded_history_update", || {
        let bit = rng.chance(1, 2);
        for f in &mut folds {
            f.update_before_push(&ghr, bit);
        }
        ghr.push(bit);
        black_box(folds[20].value());
    });
}

fn bench_pattern_set() {
    let geometry = SetGeometry { patterns: 16, buckets: 4, lengths: 16, counter_bits: 3 };
    let mut sets = PatternArena::new(geometry, 1);
    let mut rng = SplitMix64::new(2);
    for i in 0..16u8 {
        sets.allocate(0, i, rng.next_u64() as u32 & 0x1FFF, rng.chance(1, 2));
    }
    let tags: Vec<u32> = (0..16).map(|_| rng.next_u64() as u32 & 0x1FFF).collect();
    bench("pattern_set_match", || {
        let tags = black_box(&tags);
        black_box(sets.find_longest(0, |len| tags[usize::from(len)]));
    });

    let mut rng = SplitMix64::new(3);
    bench("pattern_set_allocate", || {
        sets.clear(0);
        for _ in 0..16 {
            sets.allocate(0, rng.below(16) as u8, rng.next_u64() as u32 & 0x1FFF, rng.chance(1, 2));
        }
        black_box(sets.occupancy(0));
    });
}

fn bench_rcr() {
    let mut rcr = RollingContextRegister::new(8, 4, 14, ContextHistoryKind::Unconditional);
    let mut rng = SplitMix64::new(4);
    bench("rcr_push_and_cid", || {
        rcr.push(rng.next_u64());
        black_box((rcr.current_cid(), rcr.prefetch_cid()));
    });
}

fn bench_set_assoc() {
    let mut t: SetAssoc<u64> = SetAssoc::new(11, 7);
    for i in 0..14_000u64 {
        t.insert_lru(i, i >> 11, i);
    }
    let mut rng = SplitMix64::new(5);
    bench("set_assoc_lookup_hit", || {
        let i = rng.below(14_000);
        black_box(t.get(i, i >> 11).copied());
    });
}

fn main() {
    bench_folded_history();
    bench_pattern_set();
    bench_rcr();
    bench_set_assoc();
}
