//! The provenance recorder's cost, timed in-process over the cells
//! `fig02_mpki_limits --quick` simulates: 64K TSL, Inf TAGE and Inf TSL
//! over the fourteen workloads at 150k branch records each.
//!
//! Every cell runs through [`SimConfig::run_recorded`] five times with
//! the recorder off and five times with `--prov`'s configuration on, in
//! off/on pairs whose first side alternates. A recorded run's timed region
//! includes [`ProvRecorder::finish`], which builds the stream the engine
//! persists. The gate is the sum over cells of each cell's fastest
//! recorded run over the sum of its fastest plain run: at most 1.03.
//! Fastest runs leave out the phases in which other tenants of a shared
//! host slow a process; timing cells, not processes, leaves out the trace
//! decodes, store writes and process start-up that both sides share.
//!
//! A timing gate, so it runs only when asked, and only means something
//! in a release build:
//!
//! ```text
//! cargo test --release -p llbp-sim --test prov_overhead -- --ignored --nocapture
//! ```

use llbp_sim::engine::prov_config_from_env;
use llbp_sim::obs::Telemetry;
use llbp_sim::{CancelToken, PredictorKind, ProvRecorder, SimConfig, SimResult};
use llbp_trace::{Trace, Workload, WorkloadSpec};
use std::time::{Duration, Instant};

/// Branch records per trace: the experiment binaries' `--quick` length.
const QUICK_BRANCHES: usize = 150_000;

/// Runs per side and cell.
const RUNS: usize = 5;

/// The largest accepted ratio of recorded to plain time.
const BOUND: f64 = 1.03;

/// One timed simulation of `kind` over `trace`, with the recorder on when
/// `record` is set.
fn timed_run(kind: &PredictorKind, trace: &Trace, record: bool) -> (Duration, SimResult) {
    let sim = SimConfig::default();
    let records = Telemetry::disabled().counter("sim_records_total");
    let mut recorder = if record {
        ProvRecorder::enabled(prov_config_from_env().expect("prov knobs parse"))
    } else {
        ProvRecorder::disabled()
    };
    let started = Instant::now();
    let result = sim
        .run_recorded(kind.clone(), trace, &CancelToken::none(), &records, &mut recorder)
        .expect("no deadline to trip");
    let stream = recorder.finish(&result.label, &result.workload);
    let wall = started.elapsed();
    assert_eq!(stream.is_some(), record, "a stream exactly when recording");
    (wall, result)
}

#[test]
#[ignore = "timing gate: run in a release build with --ignored"]
fn the_recorder_costs_at_most_three_percent_of_the_quick_fig02_cells() {
    let predictors = [PredictorKind::Tsl64K, PredictorKind::InfTage, PredictorKind::InfTsl];
    let (mut plain, mut recorded) = (Duration::ZERO, Duration::ZERO);
    let mut per_predictor = [(Duration::ZERO, Duration::ZERO); 3];
    let mut cell = 0;
    for workload in Workload::ALL {
        let trace = WorkloadSpec::named(workload).with_branches(QUICK_BRANCHES).generate();
        // The batch backend's column view, built before any timing.
        let _view = trace.soa();
        for (p, kind) in predictors.iter().enumerate() {
            let mut best = [Duration::MAX; 2];
            for run in 0..RUNS {
                let first = (cell + run) % 2 == 1;
                let mut results = Vec::with_capacity(2);
                for record in [first, !first] {
                    let (wall, result) = timed_run(kind, &trace, record);
                    best[usize::from(record)] = best[usize::from(record)].min(wall);
                    results.push(result);
                }
                assert_eq!(
                    results[0], results[1],
                    "{kind:?} on {workload:?}: recording is observational"
                );
            }
            plain += best[0];
            recorded += best[1];
            per_predictor[p].0 += best[0];
            per_predictor[p].1 += best[1];
            cell += 1;
        }
    }
    for (kind, (off, on)) in predictors.iter().zip(per_predictor) {
        println!(
            "prov overhead: {:<8} off {:.3} s, on {:.3} s, ratio {:.4}",
            kind.label(),
            off.as_secs_f64(),
            on.as_secs_f64(),
            on.as_secs_f64() / off.as_secs_f64()
        );
    }
    let ratio = recorded.as_secs_f64() / plain.as_secs_f64();
    println!(
        "prov overhead: {cell} cells, fastest of {RUNS}: off {:.3} s, on {:.3} s, ratio {ratio:.4}",
        plain.as_secs_f64(),
        recorded.as_secs_f64()
    );
    assert!(ratio <= BOUND, "the recorder costs {ratio:.4}x the plain cells (bound {BOUND})");
}
