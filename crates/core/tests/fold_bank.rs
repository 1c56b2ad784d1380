//! The folded-history bank of real predictor geometries: every register
//! stored once, and every build of the bank's advance equal to an
//! independent `FoldedHistory` per register.

use bputil::history::{FoldedHistory, HistoryBuffer};
use bputil::kernel::{FoldBank, Kernel};
use bputil::rng::SplitMix64;
use llbp_core::{LlbpParams, LlbpPredictor};
use llbp_tage::{TageScl, TslConfig};
use std::collections::HashSet;

/// Every `(length, width)` fold a configuration asks for, duplicates
/// included: TAGE's index and two tag folds per table, the SC's folds and
/// LLBP's two pattern-tag folds per length.
fn requested_folds(tsl: &TslConfig, llbp: Option<&LlbpParams>) -> Vec<(usize, u32)> {
    let tage = &tsl.tage;
    let mut folds = Vec::new();
    for (&l, &t) in tage.history_lengths.iter().zip(&tage.tag_bits) {
        folds.extend([(l, tage.index_bits), (l, t), (l, (t - 1).max(1))]);
    }
    folds
        .extend(tsl.sc_history_lengths.iter().filter(|&&l| l > 0).map(|&l| (l, tsl.sc_index_bits)));
    if let Some(p) = llbp {
        for &l in &p.history_lengths {
            folds.extend([(l, p.tag_bits), (l, (p.tag_bits - 1).max(1))]);
        }
    }
    folds
}

/// The builds to check: both where the CPU runs AVX-512.
fn kernels() -> Vec<Kernel> {
    let detected = Kernel::detect();
    if detected == Kernel::baseline() {
        eprintln!("no AVX-512 on this CPU: only the baseline build is checked");
        vec![detected]
    } else {
        vec![Kernel::baseline(), detected]
    }
}

/// Drives copies of `bank` with a random bit stream through every build
/// and the reference advance, comparing each register with its own
/// `FoldedHistory` after every step.
fn check_against_folded_history(bank: &FoldBank, steps: usize) {
    for kernel in kernels().into_iter().map(Some).chain([None]) {
        let mut bank = bank.clone();
        let mut specs: Vec<_> =
            bank.registers().map(|(id, l, w)| (id, FoldedHistory::new(l, w))).collect();
        let mut ghr = HistoryBuffer::new(3100);
        let mut rng = SplitMix64::new(0xBA4C);
        for step in 0..steps {
            let taken = rng.chance(1, 2);
            for (_, f) in &mut specs {
                f.update_before_push(&ghr, taken);
            }
            match kernel {
                Some(k) => bank.advance(k, &ghr, taken),
                None => bank.advance_reference(&ghr, taken),
            }
            ghr.push(taken);
            for (id, f) in &specs {
                assert_eq!(bank.value(*id), f.value(), "{kernel:?} step {step}: {f:?}");
            }
        }
    }
}

/// Asserts the bank holds each requested pair exactly once and reads one
/// outgoing bit per distinct length; returns (requested, stored).
fn assert_stored_once(bank: &FoldBank, requested: &[(usize, u32)]) -> (usize, usize) {
    let distinct: HashSet<(usize, u32)> = requested.iter().copied().collect();
    let stored: Vec<(usize, u32)> = bank.registers().map(|(_, l, w)| (l, w)).collect();
    let stored_set: HashSet<(usize, u32)> = stored.iter().copied().collect();
    assert_eq!(stored.len(), stored_set.len(), "a pair is stored twice");
    assert_eq!(stored_set, distinct, "the bank holds exactly the requested pairs");
    let lengths: HashSet<usize> = requested.iter().map(|&(l, _)| l).collect();
    assert_eq!(bank.distinct_lengths(), lengths.len());
    (requested.len(), stored.len())
}

#[test]
fn llbp_geometry_stores_shared_folds_once_and_matches_folded_history() {
    let params = LlbpParams::default();
    let llbp = LlbpPredictor::new(params.clone());
    let bank = llbp.baseline().tage().fold_bank();
    let requested = requested_folds(&params.tsl, Some(&params));
    let (asked, stored) = assert_stored_once(bank, &requested);
    // 63 TAGE + 6 SC + 32 LLBP folds requested. The twins (54, 78, 112,
    // 161) repeat 12 TAGE folds; the tag1 fold of tables 7-13 (10 bits)
    // is their index fold; the SC's 12-bit-history fold at 10 bits is
    // table 1's index fold; 18 LLBP folds are TAGE's or each other's.
    assert_eq!((asked, stored), (101, 66));
    assert_eq!(bank.distinct_lengths(), 22);
    check_against_folded_history(bank, 4_000);
}

#[test]
fn tsl512k_geometry_stores_shared_folds_once_and_matches_folded_history() {
    let cfg = TslConfig::scaled(8);
    let tsl = TageScl::new(cfg.clone());
    let bank = tsl.tage().fold_bank();
    let (asked, stored) = assert_stored_once(bank, &requested_folds(&cfg, None));
    // At 13 index bits the 13-bit tag folds of tables 14-20 are their
    // index folds, and the twins repeat 12 folds.
    assert_eq!((asked, stored), (69, 50));
    check_against_folded_history(bank, 4_000);
}
