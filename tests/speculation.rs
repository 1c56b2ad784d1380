//! Failure injection: wrong-path speculation and rollback (§V-E2).
//!
//! A real front-end runs the predictor *speculatively*: histories advance
//! on predicted outcomes and must be rolled back exactly when a
//! misprediction resolves. These tests drive a predictor down a corrupted
//! "wrong path", restore the checkpoint, and verify its subsequent
//! behaviour is bit-identical to a twin that never speculated.

use llbp_repro::llbp::{LlbpParams, LlbpPredictor};
use llbp_repro::prelude::*;
use llbp_repro::tage::Predictor;
use llbp_repro::trace::{BranchKind, BranchRecord, Trace};

fn trace(n: usize) -> Trace {
    WorkloadSpec::named(Workload::Kafka).with_branches(n).generate()
}

/// Drives `p` over `records` the normal way (predict/train on
/// conditionals, history on everything), returning predictions.
fn drive(p: &mut dyn Predictor, records: &[BranchRecord]) -> Vec<bool> {
    let mut preds = Vec::new();
    for r in records {
        if r.kind() == BranchKind::Conditional {
            preds.push(p.predict(r.pc()));
            p.train(r.pc(), r.taken());
        }
        p.update_history(r);
    }
    preds
}

/// Pushes wrong-path noise into the histories *without* training (wrong
/// path instructions never commit).
fn wrong_path(p: &mut dyn Predictor, seed: u64, len: usize) {
    for i in 0..len {
        let pc = 0xBAD_000 + (seed ^ i as u64) * 24;
        let r = BranchRecord::conditional(pc, pc + 16, (seed >> (i % 48)) & 1 == 1, 2);
        p.update_history(&r);
    }
}

#[test]
fn tsl_rollback_restores_exact_behaviour() {
    let t = trace(30_000);
    let records = t.records();
    let (warm, rest) = records.split_at(20_000);

    let mut speculated = TageScl::new(TslConfig::cbp64k());
    let mut reference = TageScl::new(TslConfig::cbp64k());
    drive(&mut speculated, warm);
    drive(&mut reference, warm);

    // Inject a wrong path into one of them, then roll it back.
    let cp = speculated.checkpoint();
    wrong_path(&mut speculated, 0xDEAD, 40);
    speculated.restore(&cp);

    let a = drive(&mut speculated, rest);
    let b = drive(&mut reference, rest);
    assert_eq!(a, b, "post-rollback behaviour must be identical");
}

#[test]
fn llbp_rollback_restores_exact_behaviour() {
    let t = trace(30_000);
    let records = t.records();
    let (warm, rest) = records.split_at(20_000);

    let mut speculated = LlbpPredictor::new(LlbpParams::default());
    let mut reference = LlbpPredictor::new(LlbpParams::default());
    drive(&mut speculated, warm);
    drive(&mut reference, warm);

    let cp = speculated.checkpoint();
    // The wrong path includes unconditional branches, perturbing the RCR
    // and the folded pattern histories.
    for i in 0..24u64 {
        let pc = 0xBAD_400 + i * 32;
        speculated.update_history(&BranchRecord::unconditional(
            pc,
            pc + 0x100,
            BranchKind::DirectJump,
            1,
        ));
        speculated.update_history(&BranchRecord::conditional(pc + 8, pc + 24, i % 3 == 0, 1));
    }
    speculated.restore(&cp);

    let a = drive(&mut speculated, rest);
    let b = drive(&mut reference, rest);
    // The reference keeps its prefetch pipeline; the rolled-back twin had
    // in-flight prefetches squashed, which can perturb a handful of
    // PB-timing-dependent predictions — but direction state must match.
    let diff = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    assert!(diff <= a.len() / 200, "{diff}/{} predictions diverged after rollback", a.len());
}

#[test]
fn rollback_without_speculation_is_identity() {
    let t = trace(10_000);
    let mut p = TageScl::new(TslConfig::cbp64k());
    drive(&mut p, t.records());
    let cp = p.checkpoint();
    p.restore(&cp);
    let l1 = p.lookup(0x1234);
    p.restore(&cp);
    let l2 = p.lookup(0x1234);
    assert_eq!(l1.pred, l2.pred);
    for t in 0..8 {
        assert_eq!((l1.tage.index(t), l1.tage.tag(t)), (l2.tage.index(t), l2.tage.tag(t)));
    }
}

#[test]
#[should_panic(expected = "config mismatch")]
fn mismatched_checkpoint_is_rejected() {
    let a = TageScl::new(TslConfig::cbp64k());
    let cp = a.checkpoint();
    let mut small = TslConfig::cbp64k();
    small.tage.history_lengths = vec![4, 8];
    small.tage.tag_bits = vec![9, 9];
    let mut b = TageScl::new(small);
    b.restore(&cp);
}
