//! Working-set probes: useful patterns per branch (Fig. 3b) and per
//! program context (Fig. 5), plus the top-misprediction ranking used by
//! both (Fig. 3a).
//!
//! A pattern is *useful* when it provides a correct prediction while the
//! alternative (shorter match or bimodal) would have been wrong (§II-B).
//! These probes run an infinite-capacity TAGE so capacity effects do not
//! censor the distribution.

use crate::config::{PredictorKind, SimConfig};
use bputil::hash::mix64;
use bputil::stats::Histogram;
use llbp_tage::tage::UpdateMode;
use llbp_tage::{Tage, TageConfig, UsefulPatternTracker};
use llbp_trace::{BranchKind, Trace};

/// Ranks static conditional branches by misprediction count under the
/// 64K TSL baseline, most-mispredicted first.
#[must_use]
pub fn rank_by_mispredictions(trace: &Trace) -> Vec<(u64, u64)> {
    let cfg = SimConfig { warmup_fraction: 0.0, track_per_branch: true, ..SimConfig::default() };
    let result = cfg.run(PredictorKind::Tsl64K, trace);
    let mut ranked: Vec<(u64, u64)> =
        result.per_branch_mispredicts.expect("per-branch tracking enabled").into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// Counts distinct useful patterns per static branch under an
/// infinite-capacity TAGE (the Fig. 3b probe). Returns the tracker keyed
/// by branch PC.
#[must_use]
pub fn useful_patterns_per_branch(trace: &Trace) -> UsefulPatternTracker {
    let mut cfg = TageConfig::infinite();
    cfg.track_useful = true;
    let mut tage = Tage::new(cfg);
    for r in trace {
        if r.kind() == BranchKind::Conditional {
            let l = tage.lookup(r.pc());
            tage.commit(&l, r.taken(), UpdateMode::Full);
        }
        tage.update_history(r);
    }
    tage.useful_tracker().expect("tracking enabled").clone()
}

/// Counts distinct useful patterns per `(branch, context)` pair where the
/// context is a hash of the previous `window` unconditional-branch PCs —
/// the Fig. 5 probe. `window == 0` degenerates to per-branch counting
/// (the paper's `W = 0` baseline distribution).
///
/// Only branches in `focus` are tracked (the paper uses the top-128
/// most-mispredicted); pass an empty slice to track everything.
#[must_use]
pub fn useful_patterns_per_context(trace: &Trace, window: usize, focus: &[u64]) -> Histogram {
    let focus: bputil::hash::FastHashSet<u64> = focus.iter().copied().collect();
    let mut cfg = TageConfig::infinite();
    cfg.track_useful = false;
    let mut tage = Tage::new(cfg);
    let mut tracker = UsefulPatternTracker::new();
    let mut recent_ubs: Vec<u64> = vec![0; window.max(1)];
    for r in trace {
        if r.kind() == BranchKind::Conditional {
            let l = tage.lookup(r.pc());
            if !focus.is_empty() && !focus.contains(&r.pc()) {
                tage.commit(&l, r.taken(), UpdateMode::Full);
                tage.update_history(r);
                continue;
            }
            // Useful provider: correct while the alternative was wrong.
            if let Some(p) = l.provider {
                let provider_correct = l.provider_pred == r.taken();
                let alt_wrong = l.alt_pred != r.taken();
                if provider_correct && alt_wrong {
                    let ctx = if window == 0 {
                        0
                    } else {
                        recent_ubs
                            .iter()
                            .take(window)
                            .enumerate()
                            .fold(0u64, |acc, (i, &pc)| acc ^ (pc >> 1) << (2 * i as u64 % 48))
                    };
                    let key = mix64(r.pc() ^ mix64(ctx).rotate_left(23));
                    tracker.record(key, p as u8, l.index(p), l.tag(p));
                }
            }
            tage.commit(&l, r.taken(), UpdateMode::Full);
        } else {
            recent_ubs.rotate_right(1);
            recent_ubs[0] = r.pc();
        }
        tage.update_history(r);
    }
    tracker.histogram()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::{Workload, WorkloadSpec};

    fn trace() -> Trace {
        WorkloadSpec::named(Workload::NodeApp).with_branches(60_000).generate()
    }

    #[test]
    fn ranking_is_sorted_descending() {
        let ranked = rank_by_mispredictions(&trace());
        assert!(!ranked.is_empty());
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn per_branch_probe_counts_patterns() {
        let t = useful_patterns_per_branch(&trace());
        assert!(t.num_keys() > 0);
        assert!(t.total_patterns() >= t.num_keys());
    }

    #[test]
    fn deeper_contexts_localise_patterns() {
        // The paper's core claim (Fig. 5): increasing W slices the pattern
        // space so the per-context distribution collapses.
        let tr = trace();
        let ranked = rank_by_mispredictions(&tr);
        let focus: Vec<u64> = ranked.iter().take(64).map(|&(pc, _)| pc).collect();
        let w0 = useful_patterns_per_context(&tr, 0, &focus);
        let w8 = useful_patterns_per_context(&tr, 8, &focus);
        let p95_w0 = w0.percentile(95.0).unwrap_or(0);
        let p95_w8 = w8.percentile(95.0).unwrap_or(0);
        assert!(
            p95_w8 < p95_w0,
            "95th percentile must shrink with context depth (W0={p95_w0}, W8={p95_w8})"
        );
    }

    #[test]
    fn focus_filter_limits_keys() {
        let tr = trace();
        let ranked = rank_by_mispredictions(&tr);
        let focus: Vec<u64> = ranked.iter().take(8).map(|&(pc, _)| pc).collect();
        let h = useful_patterns_per_context(&tr, 0, &focus);
        // With W=0 every focused branch contributes at most one key.
        assert!(h.count() <= 8);
    }
}
