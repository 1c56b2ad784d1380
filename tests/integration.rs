//! Cross-crate integration tests: end-to-end invariants the paper's
//! evaluation relies on, exercised through the public API of the umbrella
//! crate.

use llbp_repro::llbp::{LlbpParams, LlbpPredictor};
use llbp_repro::prelude::*;
use llbp_repro::sim::patterns::{rank_by_mispredictions, useful_patterns_per_context};
use llbp_repro::sim::{EnergyModel, TimingModel};
use llbp_repro::trace::{read_trace, write_trace};

fn trace_for(w: Workload, n: usize) -> llbp_repro::trace::Trace {
    WorkloadSpec::named(w).with_branches(n).generate()
}

#[test]
fn capacity_ordering_holds() {
    // Inf TSL <= 512K TSL <= 64K TSL in mispredictions (with a small
    // tolerance — replacement noise can perturb individual runs).
    for w in [Workload::NodeApp, Workload::Kafka] {
        let trace = trace_for(w, 150_000);
        let cfg = SimConfig::default();
        let base = cfg.run(PredictorKind::Tsl64K, &trace);
        let big = cfg.run(PredictorKind::TslScaled(8), &trace);
        let inf = cfg.run(PredictorKind::InfTsl, &trace);
        assert!(
            big.mispredictions as f64 <= base.mispredictions as f64 * 1.02,
            "{w}: 512K ({}) should not lose to 64K ({})",
            big.mispredictions,
            base.mispredictions
        );
        assert!(
            inf.mispredictions as f64 <= big.mispredictions as f64 * 1.05,
            "{w}: Inf ({}) should not lose to 512K ({})",
            inf.mispredictions,
            big.mispredictions
        );
    }
}

#[test]
fn llbp_helps_context_heavy_workloads() {
    let trace = trace_for(Workload::Merced, 300_000);
    let cfg = SimConfig::default();
    let base = cfg.run(PredictorKind::Tsl64K, &trace);
    let llbp = cfg.run(PredictorKind::Llbp(LlbpParams::default()), &trace);
    assert!(
        llbp.mispredictions < base.mispredictions,
        "LLBP ({}) must beat the baseline ({}) on Merced",
        llbp.mispredictions,
        base.mispredictions
    );
}

#[test]
fn end_to_end_determinism() {
    let run = || {
        let trace = trace_for(Workload::Twitter, 60_000);
        SimConfig::default().run(PredictorKind::Llbp(LlbpParams::default()), &trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a.mispredictions, b.mispredictions);
    assert_eq!(a.conditional_branches, b.conditional_branches);
}

#[test]
fn trace_io_roundtrip_preserves_simulation() {
    let trace = trace_for(Workload::Http, 40_000);
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).unwrap();
    let reloaded = read_trace(buf.as_slice()).unwrap();
    let cfg = SimConfig::default();
    let direct = cfg.run(PredictorKind::Tsl64K, &trace);
    let via_io = cfg.run(PredictorKind::Tsl64K, &reloaded);
    assert_eq!(direct.mispredictions, via_io.mispredictions);
}

#[test]
fn llbp_stats_consistent_through_driver() {
    let trace = trace_for(Workload::Spring, 80_000);
    let mut p = LlbpPredictor::new(LlbpParams::default());
    let result = SimConfig::default().run_predictor(&mut p, &trace);
    let s = p.stats();
    assert!(s.breakdown_is_consistent());
    // The driver predicts every conditional branch; LLBP's own counter
    // covers warmup too, so it must be >= the measured region's count.
    assert!(s.predictions >= result.conditional_branches);
    assert!(s.pb_hits <= s.predictions);
}

#[test]
fn context_locality_claim_reproduces() {
    // Fig. 5's claim through the public probe API: deeper context windows
    // need fewer patterns per context at the 95th percentile.
    let trace = trace_for(Workload::NodeApp, 80_000);
    let ranked = rank_by_mispredictions(&trace);
    let focus: Vec<u64> = ranked.iter().take(64).map(|&(pc, _)| pc).collect();
    let w0 = useful_patterns_per_context(&trace, 0, &focus).percentile(95.0).unwrap_or(0);
    let w32 = useful_patterns_per_context(&trace, 32, &focus).percentile(95.0).unwrap_or(0);
    assert!(w32 < w0, "W=32 p95 ({w32}) must undercut W=0 p95 ({w0})");
}

#[test]
fn timing_and_energy_models_are_wired() {
    let trace = trace_for(Workload::Chirper, 60_000);
    let cfg = SimConfig::default();
    let base = cfg.run(PredictorKind::Tsl64K, &trace);
    let timing = TimingModel::default();
    let wasted = timing.wasted_fraction(base.instructions, base.mispredictions);
    assert!(wasted > 0.0 && wasted < 1.0);

    let mut p = LlbpPredictor::new(LlbpParams::default());
    let _ = cfg.run_predictor(&mut p, &trace);
    let breakdown = EnergyModel::default().fig12(p.stats(), &LlbpParams::default(), 64);
    assert!(breakdown.total() > 1.0, "LLBP adds energy on top of the baseline");
    assert!(breakdown.llbp_structures() < 2.0, "added structures stay moderate");
}

#[test]
fn provider_attribution_covers_all_predictions() {
    let trace = trace_for(Workload::Delta, 60_000);
    let r = SimConfig::default().run(PredictorKind::Llbp(LlbpParams::default()), &trace);
    let total: u64 = r.provider_counts.values().sum();
    assert_eq!(total, r.conditional_branches);
    assert!(r.provider_counts.contains_key("bim"), "bimodal must provide sometimes");
}

#[test]
fn storage_budgets_match_paper_scale() {
    use llbp_repro::tage::Predictor as _;
    let tsl = TageScl::new(TslConfig::cbp64k());
    let kib = tsl.storage_bits() as f64 / 8192.0;
    assert!((40.0..80.0).contains(&kib), "baseline {kib:.1} KiB");

    let llbp = LlbpPredictor::new(LlbpParams::default());
    let extra = (llbp.storage_bits() - tsl.storage_bits()) as f64 / 8192.0;
    assert!((500.0..540.0).contains(&extra), "LLBP adds {extra:.1} KiB (paper ~515)");
}
