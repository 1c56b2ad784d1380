//! Microbenchmarks of the predictor building blocks: folded history
//! maintenance, pattern-set matching/allocation, RCR hashing, table
//! lookups, the infinite TAGE's lookup and the statistical corrector.
//! These quantify the per-branch
//! cost of each hardware structure's software model. The trace layer
//! (generation, `LLBT` encode and decode) and one whole record step of the
//! 64K TSL and of LLBP are timed per record.
//!
//! Uses a std-only timing harness (no external bench framework) so the
//! workspace builds hermetically; run with `cargo bench --bench components`.

use bputil::hash::{fold_to_bits, gehl_index, mix64, tage_index_base, tage_tag};
use bputil::history::{FoldedHistory, HistoryBuffer};
use bputil::kernel::{Kernel, MAX_LANES};
use bputil::rng::SplitMix64;
use bputil::table::SetAssoc;
use llbp_core::rcr::RollingContextRegister;
use llbp_core::{ContextHistoryKind, LlbpParams, LlbpPredictor, PatternArena, SetGeometry};
use llbp_tage::tage::{Tage, TageLookup, UpdateMode};
use llbp_tage::{Predictor, StatisticalCorrector, TageConfig, TageScl, TslConfig};
use llbp_trace::{read_trace, write_trace, BranchKind, Trace, Workload, WorkloadSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// Runs `f`, a pass over `records` records, once to warm up and then five
/// times, and reports the median pass in nanoseconds per record.
fn per_record(name: &str, records: usize, mut f: impl FnMut()) {
    f();
    let mut rounds: Vec<Duration> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    rounds.sort_unstable();
    let ns = rounds[2].as_secs_f64() * 1e9 / records as f64;
    println!("{name:28} {ns:>10.2} ns/record");
}

/// A quick trace (150 000 records) as perfbench generates it at its
/// development seed 1: the preset seed XOR `0x9E37_79B9_7F4A_7C15`.
fn quick_trace(workload: Workload) -> Trace {
    WorkloadSpec::named(workload)
        .with_branches(150_000)
        .with_seed(workload.params().seed ^ 0x9E37_79B9_7F4A_7C15)
        .generate()
}

fn bench_folded_history() {
    let mut ghr = HistoryBuffer::new(4096);
    let mut folds: Vec<FoldedHistory> =
        (1..=21).map(|i| FoldedHistory::new(i * 140 + 6, 13)).collect();
    let mut rng = SplitMix64::new(1);
    // The fold the batch tier runs (`update_history_fast`): the outgoing
    // bit is read from the GHR and applied branch-free.
    bench("folded_history_update", || {
        let bit = rng.chance(1, 2);
        for f in &mut folds {
            f.update_with_out_bit(ghr.bit(f.original_len() - 1), bit);
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

/// One SC prediction and training step per call, at the 64K TSL component
/// size (2^10 counters, 1 KiB) and the Inf TSL one (2^21 counters, 2 MiB,
/// beyond a core's L2). The SC's indices are hashed in its TAGE's lookup,
/// so the call reads them from one fixed lookup; history does not advance.
fn bench_sc() {
    let lengths = TslConfig::cbp64k().sc_history_lengths;
    for index_bits in [10, 21] {
        let mut tage = Tage::new(TslConfig::cbp64k().tage);
        let mut sc = StatisticalCorrector::new(index_bits, &lengths, &mut tage);
        let lookups: Vec<TageLookup> = (0..1024u64).map(|i| tage.lookup(i * 0x2c4 + 4)).collect();
        let mut rng = SplitMix64::new(6);
        bench(&format!("sc_lookup_train/2^{index_bits}"), || {
            let lookup = &lookups[rng.below(1024) as usize];
            let (tage_pred, taken) = (rng.chance(1, 2), rng.chance(1, 2));
            let l = sc.lookup(lookup, tage_pred);
            black_box(sc.arbitrate(&l, tage_pred));
            sc.train(&l, taken);
        });
    }
}

/// One `Tage::lookup` of an Inf TAGE trained over a quick trace, per call:
/// the hash loop, one run-map probe and a scan of the PC's slots. The
/// calls cycle through the trace's conditional PCs under the history the
/// training left, so each PC's run is scanned as often as the trace
/// predicts it. The traces are perfbench's at its development seed 1
/// (the preset seed XOR `0x9E37_79B9_7F4A_7C15`), where a NodeApp lookup
/// scans 76.0 slots on average, the most of the 14, and a Twitter one 8.0,
/// the fewest.
fn bench_inf_tage_lookup() {
    for workload in [Workload::NodeApp, Workload::Twitter] {
        let trace = quick_trace(workload);
        let mut tage = Tage::new(TageConfig::infinite());
        let mut pcs = Vec::new();
        for r in &trace {
            if r.kind() == BranchKind::Conditional {
                let l = tage.lookup(r.pc());
                tage.commit(&l, r.taken(), UpdateMode::Full);
                pcs.push(r.pc());
            }
            tage.update_history_fast(r);
        }
        let mut next = 0;
        bench(&format!("inf_tage_lookup/{workload:?}"), || {
            black_box(tage.lookup(pcs[next]));
            next = (next + 1) % pcs.len();
        });
    }
}

/// The builds of the bank and hash loops this CPU runs.
fn kernels() -> Vec<Kernel> {
    let detected = Kernel::detect();
    if detected == Kernel::baseline() {
        vec![detected]
    } else {
        vec![Kernel::baseline(), detected]
    }
}

/// The 64K TSL + LLBP geometry as the per-register scalar code advanced
/// it: `(length, widths)` per group of folds sharing one outgoing-bit read.
fn scalar_fold_groups() -> Vec<(usize, Vec<u32>)> {
    let (tsl, llbp) = (TslConfig::cbp64k(), LlbpParams::default());
    let tage = &tsl.tage;
    let mut groups: Vec<(usize, Vec<u32>)> = tage
        .history_lengths
        .iter()
        .zip(&tage.tag_bits)
        .map(|(&l, &t)| (l, vec![tage.index_bits, t, t - 1]))
        .collect();
    for &l in tsl.sc_history_lengths.iter().filter(|&&l| l > 0) {
        groups.push((l, vec![tsl.sc_index_bits]));
    }
    let mut own: Vec<usize> = llbp
        .history_lengths
        .iter()
        .copied()
        .filter(|&l| {
            !(0..tage.num_tables())
                .any(|t| tage.history_lengths[t] == l && tage.tag_bits[t] == llbp.tag_bits)
        })
        .collect();
    own.dedup();
    groups.extend(own.into_iter().map(|l| (l, vec![llbp.tag_bits, llbp.tag_bits - 1])));
    groups
}

/// One record's folded-history advance at the 64K TSL + LLBP geometry:
/// the per-register scalar code (83 registers, 34 outgoing-bit reads)
/// beside the bank (one register per distinct pair, one read per
/// distinct length) in each build.
fn bench_fold_bank() {
    let mut ghr = HistoryBuffer::new(3100);
    let mut groups: Vec<(usize, Vec<FoldedHistory>)> = scalar_fold_groups()
        .into_iter()
        .map(|(l, widths)| (l, widths.into_iter().map(|w| FoldedHistory::new(l, w)).collect()))
        .collect();
    let mut rng = SplitMix64::new(7);
    bench("fold_bank_advance/scalar", || {
        let bit = rng.chance(1, 2);
        for (l, folds) in &mut groups {
            let out = ghr.bit(*l - 1);
            for f in folds {
                f.update_with_out_bit(out, bit);
            }
        }
        ghr.push(bit);
        black_box(groups[20].1[0].value());
    });
    let llbp = LlbpPredictor::new(LlbpParams::default());
    for kernel in kernels() {
        let mut bank = llbp.baseline().tage().fold_bank().clone();
        let mut ghr = HistoryBuffer::new(3100);
        let mut rng = SplitMix64::new(7);
        bench(&format!("fold_bank_advance/{}", kernel.name()), || {
            let bit = rng.chance(1, 2);
            bank.advance(kernel, &ghr, bit);
            ghr.push(bit);
            black_box(bank.values()[20]);
        });
    }
}

/// One lookup's 42 TAGE index/tag hashes and its SC hashes at the 64K
/// TSL + LLBP geometry: the per-table scalar code (the PC scramble and
/// path masking hoisted out of the table loop, a path rotation per table,
/// 8 SC hashes) beside the hash loop in each build (9 SC hashes: the bias
/// for both TAGE directions).
fn bench_tage_hashes() {
    let cfg = TslConfig::cbp64k();
    let (ib, n) = (cfg.tage.index_bits, cfg.tage.num_tables());
    let rotation: Vec<u32> = (0..n as u32).map(|t| t % ib).collect();
    let mut rng = SplitMix64::new(8);
    let folds: Vec<u32> = (0..3 * n + 8).map(|_| rng.next_u64() as u32 & 0x3ff).collect();
    bench("tage_hashes/scalar", || {
        let (pc, path) = (black_box(rng.next_u64()), black_box(rng.next_u64()));
        let pc_part = pc ^ (pc >> (ib + 1)) ^ (pc >> (2 * ib + 2));
        let m = (1u64 << ib) - 1;
        let a = path & ((1u64 << ib.min(16)) - 1);
        let (a1, a2) = (a & m, a >> ib);
        let mut out = [0u64; MAX_LANES];
        for t in 0..n {
            let p = (a1 ^ a2.rotate_left(rotation[t])) & m;
            let x = pc_part ^ u64::from(folds[t]) ^ p;
            out[t] = fold_to_bits(mix64(x ^ (t as u64) << 57), ib);
            let (f0, f1) = (folds[n + t], folds[2 * n + t]);
            let tag = tage_tag(pc ^ (t as u64).rotate_left(11), f0, f1, cfg.tage.tag_bits[t]);
            out[n + t] = u64::from(tag);
        }
        for c in 0..cfg.sc_history_lengths.len() + 1 {
            out[2 * n + c] = u64::from(gehl_index(pc, folds[3 * n + c], c as u32, 10));
        }
        black_box(&out);
    });
    let llbp = LlbpPredictor::new(LlbpParams::default());
    let tage = llbp.baseline().tage();
    let (bank, lanes) = (tage.fold_bank(), tage.hash_lanes());
    for kernel in kernels() {
        let mut rng = SplitMix64::new(8);
        bench(&format!("tage_hashes/{}", kernel.name()), || {
            let (pc, path) = (black_box(rng.next_u64()), black_box(rng.next_u64()));
            let mut out = [0u32; MAX_LANES];
            lanes.hash(kernel, bank, pc, tage_index_base(pc, path, ib), &mut out);
            black_box(&out);
        });
    }
}

/// Generation, encoding into a pre-sized buffer and decoding from it, in
/// ns per record over one quick trace (Tomcat, 150 000 records): the
/// median of five rounds after one warm-up round.
fn bench_trace() {
    const RECORDS: usize = 150_000;
    let spec = WorkloadSpec::named(Workload::Tomcat).with_branches(RECORDS);
    per_record("trace_gen", RECORDS, || {
        black_box(spec.generate());
    });
    let trace = spec.generate();
    let mut bytes = Vec::with_capacity(RECORDS * 20 + 64);
    per_record("trace_encode", RECORDS, || {
        bytes.clear();
        write_trace(&mut bytes, &trace).expect("writing to a Vec cannot fail");
        black_box(&bytes);
    });
    per_record("trace_decode", RECORDS, || {
        black_box(read_trace(bytes.as_slice()).expect("decodes its own encoding"));
    });
}

/// One record step of the batch tier, `predict_train` on a conditional
/// branch and `update_history_fast` on every record, in ns per record:
/// the 64K TSL and the default LLBP over the quick Tomcat trace at seed 1.
/// The untimed first pass warms the predictor; each timed pass goes on
/// training it.
fn bench_record_step() {
    fn pass(p: &mut impl Predictor, trace: &Trace) {
        for r in trace {
            if r.kind() == BranchKind::Conditional {
                black_box(p.predict_train(r.pc(), r.taken()));
            }
            p.update_history_fast(r);
        }
    }
    let trace = quick_trace(Workload::Tomcat);
    let mut tsl = TageScl::new(TslConfig::cbp64k());
    per_record("record_step/tsl64k", trace.len(), || pass(&mut tsl, &trace));
    let mut llbp = LlbpPredictor::new(LlbpParams::default());
    per_record("record_step/llbp", trace.len(), || pass(&mut llbp, &trace));
}

fn main() {
    bench_trace();
    bench_folded_history();
    bench_pattern_set();
    bench_rcr();
    bench_set_assoc();
    bench_sc();
    bench_inf_tage_lookup();
    bench_fold_bank();
    bench_tage_hashes();
    bench_record_step();
}
