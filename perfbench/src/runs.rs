//! Set-up, timed campaigns and the reference check of each workload.
//!
//! A campaign is what a user runs: the workload's grid through a
//! one-worker [`SweepEngine`] against a persistent [`MemoStore`]. Only the
//! engine call is timed. Set-up, store preparation, the reference pass
//! and the result checks all happen outside the timed region.

use crate::alloc;
use crate::grid::Bench;
use llbp_sim::engine::SweepSpec;
use llbp_sim::obs::{Event, EventKind, Telemetry};
use llbp_sim::{BackendKind, MemoStore, PredictorKind, SimResult, SweepEngine};
use llbp_sim::{SimError, SweepReport};
use llbp_trace::{Trace, WorkloadSpec};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error type of a benchmark run that could not complete.
pub type BenchError = Box<dyn Error>;

/// Threads of the untimed reference pass.
pub const REFERENCE_THREADS: usize = 2;

/// A scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Creates `<base>/.bench_work/run-<pid>`.
    ///
    /// # Errors
    ///
    /// Returns the IO error when the directory cannot be created.
    pub fn create(base: &Path) -> std::io::Result<Self> {
        let root = base.join(".bench_work").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// A path under the scratch directory.
    #[must_use]
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Removes `.bench_work` too when no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One timed campaign.
#[derive(Debug)]
pub struct Campaign {
    /// Wall time of the engine call.
    pub wall: Duration,
    /// Grid cells completed or attempted.
    pub cells: u64,
    /// Branch records the cells simulated.
    pub branches: u64,
    /// Heap allocations during the engine call.
    pub allocs: u64,
    /// Peak live heap bytes during the engine call.
    pub peak_heap: usize,
    /// Every cell's exact wall time in milliseconds (`JobStats::wall`).
    pub cell_ms: Vec<f64>,
    /// Journal lock wait.
    pub lock_wait: Duration,
    /// Telemetry events, when the campaign was traced.
    pub events: Vec<Event>,
}

/// Opens a store rooted at `dir`, reporting to `telemetry`.
///
/// # Errors
///
/// Returns the IO error when the store directory cannot be created.
pub fn open_store(dir: &Path, telemetry: &Telemetry) -> std::io::Result<Arc<MemoStore>> {
    let mut store = MemoStore::open(dir)?;
    store.attach_telemetry(telemetry.clone());
    Ok(Arc::new(store))
}

/// Runs `grid` once through a one-worker engine on `store` and times the
/// engine call.
///
/// # Errors
///
/// Returns a campaign-level engine error (the journal lock is held).
pub fn run_campaign(
    grid: &SweepSpec,
    store: &Arc<MemoStore>,
    telemetry: &Telemetry,
) -> Result<(Campaign, SweepReport), SimError> {
    let engine = SweepEngine::with_workers(1)
        .with_store(Arc::clone(store))
        .with_telemetry(telemetry.clone());
    let allocs = alloc::allocations();
    alloc::reset_peak();
    let started = Instant::now();
    let report = engine.try_run(grid)?;
    let wall = started.elapsed();
    let allocs = alloc::allocations() - allocs;
    let campaign = Campaign {
        wall,
        cells: report.jobs.len() as u64,
        branches: report.total_branches(),
        allocs,
        peak_heap: alloc::peak_bytes(),
        cell_ms: report.jobs.iter().map(|j| j.stats.wall.as_secs_f64() * 1e3).collect(),
        lock_wait: report.lock_wait,
        events: telemetry.drain_events(),
    };
    Ok((campaign, report))
}

/// Whether a campaign did the work a cold workload claims: it simulated
/// every cell from a trace decoded out of the store, once per trace.
/// Returns what went wrong, if anything.
#[must_use]
pub fn cold_invariant(bench: Bench, report: &SweepReport) -> Option<String> {
    let cells = report.jobs.len() as u64;
    let traces = report.num_predictors.max(1) as u64;
    let ran_cold = report.memo_misses == cells
        && report.cache_misses == 0
        && report.trace_disk_hits == cells / traces;
    (!ran_cold).then(|| {
        format!(
            "{}: campaign did not run as designed (cells {cells}, memo hits {}, memo misses {}, \
             traces generated {}, traces decoded {})",
            bench.name(),
            report.memo_hits,
            report.memo_misses,
            report.cache_misses,
            report.trace_disk_hits
        )
    })
}

/// The campaign's best case over repetitions: every cell at its fastest
/// repetition plus the smallest engine time outside the cells, in
/// seconds. Other tenants of a shared host slow a process in phases that
/// last seconds; a phase lengthens some cells of one repetition, and the
/// fastest repetition of each cell leaves it out.
#[must_use]
pub fn best_case_wall_s(campaigns: &[&Campaign]) -> f64 {
    let Some(first) = campaigns.first() else { return 0.0 };
    let cells_ms: f64 = (0..first.cell_ms.len())
        .map(|i| campaigns.iter().map(|c| c.cell_ms[i]).fold(f64::INFINITY, f64::min))
        .sum();
    let outside_s = campaigns
        .iter()
        .map(|c| c.wall.as_secs_f64() - c.cell_ms.iter().sum::<f64>() / 1e3)
        .fold(f64::INFINITY, f64::min);
    cells_ms / 1e3 + outside_s
}

/// Generates every trace of `specs` into a fresh store at `dir`: the
/// set-up of one campaign.
///
/// # Errors
///
/// Returns the IO error of a failed store write.
pub fn generate_traces(dir: &Path, specs: &[WorkloadSpec]) -> std::io::Result<()> {
    let store = MemoStore::open(dir)?;
    for spec in specs {
        let trace = spec.generate();
        store.store_trace(store.trace_fingerprint(spec), &trace)?;
    }
    Ok(())
}

/// The reference backend's result for every cell of `predictors` ×
/// `specs`, in grid order (workload-major), computed on
/// [`REFERENCE_THREADS`] threads.
#[must_use]
pub fn reference_cells(specs: &[WorkloadSpec], predictors: &[PredictorKind]) -> Vec<SimResult> {
    let traces: Vec<Trace> = specs.iter().map(WorkloadSpec::generate).collect();
    let cfg = llbp_sim::SimConfig::default().with_backend(BackendKind::Reference);
    let p = predictors.len();
    llbp_sim::engine::run_indexed(REFERENCE_THREADS, specs.len() * p, |i| {
        cfg.run(predictors[i % p].clone(), &traces[i / p])
    })
}

/// One column of a grid's results (all workloads, one predictor).
#[must_use]
pub fn column(results: &[SimResult], predictors: usize, predictor: usize) -> Vec<SimResult> {
    results.iter().skip(predictor).step_by(predictors).cloned().collect()
}

/// The reference results behind the accuracy statement: 64K TSL and LLBP
/// on every trace of the run.
#[derive(Debug, Clone)]
pub struct Accuracy {
    /// 64K TSL per workload.
    pub tsl64k: Vec<SimResult>,
    /// LLBP per workload.
    pub llbp: Vec<SimResult>,
}

impl Accuracy {
    /// Mean MPKI reduction of LLBP over 64K TSL across the workloads, in
    /// percent.
    #[must_use]
    pub fn llbp_mpki_reduction_pct(&self) -> f64 {
        let n = self.llbp.len().max(1) as f64;
        self.llbp.iter().zip(&self.tsl64k).map(|(l, b)| l.mpki_reduction_vs(b)).sum::<f64>() / n
    }
}

/// Span totals of one stage name: `(count, summed microseconds)`.
#[must_use]
pub fn span_total(events: &[Event], name: &str) -> (u64, u64) {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == name)
        .fold((0, 0), |(n, us), e| (n + 1, us + e.dur_us))
}

/// The engine's per-cell stage spans; `queue_wait` is left out because it
/// overlaps all of them.
pub const STAGES: [&str; 4] = ["memo_probe", "generation", "simulation", "write_back"];

/// Keeps a time-boxed loop going: always until `min` repetitions, then
/// while one more repetition of the mean length so far fits in `budget`.
#[must_use]
pub fn keep_going(started: Instant, reps: usize, min: usize, budget: Duration) -> bool {
    if reps < min {
        return true;
    }
    let elapsed = started.elapsed();
    elapsed + elapsed / u32::try_from(reps.max(1)).unwrap_or(u32::MAX) <= budget
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the platform
/// reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(wall_ms: u64, cell_ms: &[f64]) -> Campaign {
        Campaign {
            wall: Duration::from_millis(wall_ms),
            cells: cell_ms.len() as u64,
            branches: 0,
            allocs: 0,
            peak_heap: 0,
            cell_ms: cell_ms.to_vec(),
            lock_wait: Duration::ZERO,
            events: Vec::new(),
        }
    }

    #[test]
    fn best_case_takes_each_cell_at_its_fastest_repetition() {
        // Cells 100+200 and 150+120 ms, engine time outside the cells 10 and 5 ms.
        let (a, b) = (campaign(310, &[100.0, 200.0]), campaign(275, &[150.0, 120.0]));
        let best = best_case_wall_s(&[&a, &b]);
        assert!((best - (0.100 + 0.120 + 0.005)).abs() < 1e-12, "{best}");
        assert!((best_case_wall_s(&[&a]) - 0.310).abs() < 1e-12);
        assert_eq!(best_case_wall_s(&[]), 0.0);
    }
}
