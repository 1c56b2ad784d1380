//! Campaign benchmark for the LLBP reproduction.
//!
//! One command runs a named workload in-process against fresh stores in a
//! scratch directory, times its figure campaigns through a one-worker
//! `SweepEngine`, checks every cell against the `reference` backend, and
//! prints each metric with its unit, then one JSON result line. With
//! `--trace 1` the run also probes each layer's public functions and
//! reports per-layer metrics instead. See `README.md` beside this crate.

pub mod alloc;
pub mod check;
pub mod grid;
pub mod layers;
pub mod output;
pub mod runs;
pub mod stats;

use check::CellCheck;
use grid::Bench;
use llbp_sim::obs::Telemetry;
use llbp_sim::{BackendKind, MemoStore};
use output::{Metric, Outcome};
use runs::{
    best_case_wall_s, cold_invariant, column, generate_traces, keep_going, open_store,
    reference_cells, run_campaign, span_total, Accuracy, BenchError, Campaign, WorkDir, STAGES,
};
use stats::{median, tail};
use std::path::Path;
use std::time::{Duration, Instant};

/// The paper's mean LLBP MPKI reduction over 64K TSL, in percent.
pub const PAPER_LLBP_MPKI_REDUCTION_PCT: f64 = 8.9;

/// Minimum timed campaigns of a run, so the best case of each cell is
/// taken over several repetitions.
const MIN_REPS: usize = 3;

/// Minimum timed campaigns of a traced run: two untraced-traced pairs.
const MIN_TRACED_REPS: usize = 4;

/// Command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub bench: Bench,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: u64,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
}

/// Usage text for argument errors.
pub const USAGE: &str =
    "usage: llbp-perfbench --workload llbp_cold|tsl_limits_cold [--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing workload, an unknown flag or a
    /// malformed value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let (mut bench, mut seed, mut seconds, mut trace) = (None, 1, 40, false);
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| format!("missing value for {flag}"))?;
            let number = || value.parse::<u64>().map_err(|_| format!("bad {flag}: {value}"));
            match flag.as_str() {
                "--workload" => bench = Some(Bench::parse(&value)?),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace: {value} (want 0 or 1)")),
                    }
                }
                _ => return Err(format!("unknown argument: {flag}")),
            }
        }
        let bench = bench.ok_or("missing --workload")?;
        Ok(Self { bench, seed, seconds, trace })
    }
}

/// Runs one workload in a scratch directory under `base` and returns what
/// it measured and checked.
///
/// # Errors
///
/// Returns the error of a set-up or campaign that could not complete.
pub fn run(args: &Args, base: &Path) -> Result<Outcome, BenchError> {
    let work = WorkDir::create(base)?;
    let grid = args.bench.grid(args.seed);
    let specs = &grid.workloads;
    let budget = Duration::from_secs(args.seconds);
    let min = if args.trace { MIN_TRACED_REPS } else { MIN_REPS };

    let mut setup = Vec::new();
    let mut timed = Timed::default();
    let mut reports = Vec::new();
    let mut last_store = None;
    let started = Instant::now();
    while keep_going(started, reports.len(), min, budget) {
        let dir = work.path(&format!("rep-{}", reports.len()));
        let setup_started = Instant::now();
        generate_traces(&dir, specs)?;
        setup.push(setup_started.elapsed().as_secs_f64());
        // A traced run alternates untraced and traced campaigns, so both
        // halves of each pair see the same phase of the host.
        let traced = args.trace && reports.len() % 2 == 1;
        let telemetry = if traced { Telemetry::enabled() } else { Telemetry::disabled() };
        let store = open_store(&dir, &telemetry)?;
        let (campaign, report) = run_campaign(&grid, &store, &telemetry)?;
        timed.push(traced, campaign);
        reports.push(report);
        if let Some(old) = last_store.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let peak_rss = runs::peak_rss_mib();

    let predictors = &grid.predictors;
    let reference = reference_cells(specs, predictors);
    let llbp = match predictors.iter().position(|k| *k == grid::llbp_kind()) {
        Some(p) => column(&reference, predictors.len(), p),
        None => reference_cells(specs, &[grid::llbp_kind()]),
    };
    let accuracy = Accuracy { tsl64k: column(&reference, predictors.len(), 0), llbp };
    let mut check = CellCheck::default();
    let mut problems = Vec::new();
    for report in &reports {
        check.add(CellCheck::of(report, &reference));
        problems.extend(cold_invariant(args.bench, report));
    }

    let layers = if args.trace {
        let store = MemoStore::open(last_store.as_ref().ok_or("no campaign ran")?)?;
        Some(layers::probe_layers(&layers::LayerInputs {
            seed: args.seed,
            specs,
            store: &store,
            grid: &grid,
            accuracy: &accuracy,
            scratch: &work.path("probes"),
        })?)
    } else {
        None
    };
    Ok(finish(args, &timed, &setup, peak_rss, check, problems, &accuracy, layers))
}

/// Timed campaigns of one run, split by whether they were traced. A traced
/// run alternates them, so `untraced[i]` ran just before `traced[i]`.
#[derive(Default)]
struct Timed {
    untraced: Vec<Campaign>,
    traced: Vec<Campaign>,
}

impl Timed {
    fn push(&mut self, traced: bool, campaign: Campaign) {
        if traced { &mut self.traced } else { &mut self.untraced }.push(campaign);
    }
}

/// Assembles the outcome: end-to-end metrics, or per-layer metrics when
/// the run was traced, plus the report-only quantities.
#[allow(clippy::too_many_arguments)]
fn finish(
    args: &Args,
    timed: &Timed,
    setup: &[f64],
    peak_rss: Option<f64>,
    check: CellCheck,
    problems: Vec<String>,
    accuracy: &Accuracy,
    layers: Option<(Vec<Metric>, Vec<String>)>,
) -> Outcome {
    let untraced = &timed.untraced;
    let n = untraced.len() as u64;
    let per_rep =
        |f: &dyn Fn(&Campaign) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let peak_heap =
        untraced.iter().map(|c| c.peak_heap).max().unwrap_or(0) as f64 / (1 << 20) as f64;
    let wall_s = best_case_wall_s(&untraced.iter().collect::<Vec<_>>());
    let (cells, branches) = untraced.first().map_or((0, 0), |c| (c.cells, c.branches));
    let end_to_end = vec![
        Metric::new("campaign_wall_s", wall_s, "s", n)
            .with_note("best case: each cell at its fastest campaign"),
        Metric::new("setup_s", median(setup), "s", setup.len() as u64),
        Metric::new("peak_rss_mib", peak_rss.unwrap_or(peak_heap), "MiB", 1),
        Metric::new("allocs_per_cell", per_rep(&|c| c.allocs as f64 / c.cells as f64), "count", n),
    ];
    // A campaign's cells and branch records are fixed by the seed, so these
    // rates are reciprocals of `campaign_wall_s`: printed, not gated twice.
    let rates = [
        Metric::new("branches_per_s", branches as f64 / wall_s, "1/s", n)
            .with_note("simulated branch records"),
        Metric::new("cells_per_s", cells as f64 / wall_s, "1/s", n),
    ];
    let reduction = Metric::new(
        "llbp_mpki_reduction_pct",
        accuracy.llbp_mpki_reduction_pct(),
        "%",
        accuracy.llbp.len() as u64,
    )
    .with_note(format!("paper: {PAPER_LLBP_MPKI_REDUCTION_PCT} %"));
    let error_rate = Metric::new("cell_error_rate", check.error_rate(), "ratio", check.attempted)
        .with_note(format!("{} failed, {} mismatched", check.failed, check.mismatched));

    let mut outcome = Outcome {
        correct: check.errors() == 0 && problems.is_empty(),
        attempted: check.attempted,
        failed: check.errors(),
        problems,
        ..Outcome::default()
    };
    outcome.lines.push(format!(
        "workload {} seed {} backend {} workers 1, {} untraced + {} traced campaigns",
        args.bench.name(),
        args.seed,
        BackendKind::Auto.resolve(),
        untraced.len(),
        timed.traced.len()
    ));
    match layers {
        None => {
            outcome.metrics = end_to_end;
            outcome.info.extend(rates);
            outcome.info.extend([error_rate, reduction]);
        }
        Some((probes, lines)) => {
            let (engine, engine_info) = engine_metrics(timed);
            outcome.metrics = engine;
            outcome.metrics.extend(probes);
            outcome.metrics.push(reduction);
            outcome.metrics.push(Metric::new("campaign.peak_heap_mib", peak_heap, "MiB", n));
            outcome.info = end_to_end;
            outcome.info.extend(rates);
            outcome.info.push(error_rate);
            outcome.info.extend(engine_info);
            outcome.lines.extend(lines);
        }
    }
    outcome
}

/// Engine, memo-journal and tracing-overhead metrics from the timed
/// campaigns: spans come from the traced ones, exact cell walls and lock
/// waits from the untraced ones, which alternate with them. The second
/// list holds the lock wait, which is zero by construction here (no second
/// campaign contends for the lock), so it goes to the report only;
/// `lock.acquire_us` times the acquisition itself.
fn engine_metrics(timed: &Timed) -> (Vec<Metric>, Vec<Metric>) {
    let (untraced, traced) = (&timed.untraced, &timed.traced);
    let events: Vec<_> = traced.iter().flat_map(|c| c.events.iter().cloned()).collect();
    let (probes, probe_us) = span_total(&events, "memo_probe");
    let (write_backs, write_back_us) = span_total(&events, "write_back");
    let traced_n = traced.len().max(1) as f64;
    let traced_cells: u64 = traced.iter().map(|c| c.cells).sum();
    let stage_us: u64 = STAGES.iter().map(|s| span_total(&events, s).1).sum();
    let traced_wall_us: f64 = traced.iter().map(|c| c.wall.as_secs_f64() * 1e6).sum();
    let overhead_ms = (traced_wall_us - stage_us as f64) / 1e3 / traced_cells.max(1) as f64;
    let lock_ms: Vec<f64> = untraced.iter().map(|c| c.lock_wait.as_secs_f64() * 1e3).collect();
    let cell_ms: Vec<f64> = untraced.iter().flat_map(|c| c.cell_ms.iter().copied()).collect();
    let cells = cell_ms.len() as u64;
    let (tail_pct, tail_ms) = tail(&cell_ms).unwrap_or((0.0, 0.0));
    let pair_ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| t.wall.as_secs_f64() / u.wall.as_secs_f64())
        .collect();
    let metrics = vec![
        Metric::new("engine.memo_probe_us", probe_us as f64 / probes.max(1) as f64, "us", probes),
        Metric::new(
            "engine.write_back_ms",
            write_back_us as f64 / 1e3 / traced_n,
            "ms",
            write_backs,
        )
        .with_note("per campaign"),
        Metric::new("engine.overhead_ms_per_cell", overhead_ms, "ms", traced_cells)
            .with_note("campaign wall minus memo_probe, generation, simulation and write_back"),
        Metric::new("engine.cell_ms_p50", median(&cell_ms), "ms", cells),
        Metric::new("engine.cell_ms_tail", tail_ms, "ms", cells)
            .with_note(format!("p{tail_pct:.3}, 10 of {cells} cells beyond")),
        Metric::new(
            "trace_overhead_pct",
            100.0 * (median(&pair_ratios) - 1.0),
            "%",
            pair_ratios.len() as u64,
        )
        .with_note("median over untraced-traced campaign pairs"),
    ];
    let info = vec![Metric::new(
        "engine.lock_wait_ms",
        lock_ms.iter().sum::<f64>() / lock_ms.len().max(1) as f64,
        "ms",
        lock_ms.len() as u64,
    )
    .with_note("per campaign")];
    (metrics, info)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "tsl_limits_cold",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a, Args { bench: Bench::TslLimitsCold, seed: 7, seconds: 3, trace: true });
        assert!(args(&["--seed", "7"]).is_err(), "workload is required");
        assert!(args(&["--workload", "llbp_cold", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "llbp_cold", "--bogus", "1"]).is_err());
    }
}
