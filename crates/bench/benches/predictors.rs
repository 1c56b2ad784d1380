//! End-to-end benchmarks: throughput of each predictor design over a
//! fixed synthetic trace (branches per second of simulation), the
//! simulator-side counterpart of the paper's "15–45 min per
//! configuration" artifact note.
//!
//! Uses a std-only timing harness (no external bench framework) so the
//! workspace builds hermetically; run with `cargo bench --bench predictors`.

use llbp_core::LlbpParams;
use llbp_sim::{PredictorKind, SimConfig};
use llbp_trace::{Trace, Workload, WorkloadSpec};
use std::hint::black_box;
use std::time::Instant;

const BRANCHES: usize = 30_000;
const SAMPLES: usize = 5;

fn trace() -> Trace {
    WorkloadSpec::named(Workload::Tpcc).with_branches(BRANCHES).generate()
}

/// Runs `f` `SAMPLES` times and reports the best wall time and a derived
/// elements-per-second rate, criterion-style but dependency-free.
fn bench<F: FnMut()>(name: &str, elements: u64, mut f: F) {
    // One untimed warmup iteration.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let rate = elements as f64 / best;
    println!("{name:28} {:>10.3} ms   {:>12.0} elem/s", best * 1e3, rate);
}

fn bench_predictors(trace: &Trace) {
    let cfg = SimConfig { warmup_fraction: 0.0, track_per_branch: false, ..SimConfig::default() };
    for (name, kind) in [
        ("simulate/64k_tsl", PredictorKind::Tsl64K),
        ("simulate/512k_tsl", PredictorKind::TslScaled(8)),
        ("simulate/inf_tage", PredictorKind::InfTage),
        ("simulate/inf_tsl", PredictorKind::InfTsl),
        ("simulate/llbp", PredictorKind::Llbp(LlbpParams::default())),
        ("simulate/llbp_0lat", PredictorKind::Llbp(LlbpParams::zero_latency())),
    ] {
        bench(name, trace.len() as u64, || {
            black_box(cfg.run(kind.clone(), black_box(trace)));
        });
    }
}

fn bench_trace_generation() {
    bench("generate/synthetic_workload", BRANCHES as u64, || {
        black_box(trace());
    });
}

fn main() {
    let trace = trace();
    bench_predictors(&trace);
    bench_trace_generation();
}
