//! The parallel sweep engine: enumerate a predictor × workload grid,
//! schedule the jobs onto a bounded worker pool, and return results in
//! deterministic grid order with per-job throughput stats.
//!
//! Every experiment binary runs the same shape of computation — "simulate
//! these predictors over these workloads" — and previously each one
//! hand-rolled it with one thread per workload. Unbounded fan-out
//! oversubscribes small machines badly: fourteen concurrent simulations
//! keep fourteen predictors' tables (tens to hundreds of MiB each) live at
//! once, and the resulting page-fault and cache pressure makes the sweep
//! *slower* than running serially. The engine instead claims jobs from a
//! shared counter with `min(available cores, jobs)` workers, so memory in
//! flight is bounded by the worker count and a single-core host degrades
//! gracefully to a serial run. Traces are bounded the same way: a run
//! drops each trace from its own cache once the last of the trace's cells
//! it expects to simulate has finished (a memo hit never reads a trace),
//! so with the workload-major claim order a one-worker run, cold or
//! partially warm, holds one trace at a time (see
//! [`SweepReport::trace_bytes`]).
//!
//! Results are bit-identical to calling [`SimConfig::run`] serially for
//! every grid cell, at any worker count: each simulation is a pure
//! function of `(predictor kind, trace)`, traces are generated once per
//! distinct spec (see [`TraceCache`]) and shared immutably, and results
//! are reassembled by job index rather than completion order.
//!
//! # Fault tolerance
//!
//! Long campaigns must survive single-cell failures. Each job runs
//! inside a `catch_unwind` isolation boundary, so a panicking cell
//! becomes a structured [`JobError`] in [`SweepReport::failed`] instead
//! of aborting the sweep. Transient failures (memo-store IO, injected
//! faults, watchdog timeouts) are retried with bounded deterministic
//! backoff (`LLBP_MAX_RETRIES`, default 2); deterministic failures
//! (predictor or trace-gen panics) fail fast. A per-job watchdog
//! (`LLBP_JOB_TIMEOUT_SECS`) hands each attempt a deadline-carrying
//! [`CancelToken`] that the simulation loop polls, so a hung cell
//! cancels itself cooperatively. When a persistent store is attached the
//! engine also appends per-cell outcomes to a campaign journal
//! (`<cache-root>/<campaign-fingerprint>.journal`); together with the
//! memoized cells this makes an interrupted campaign resumable — a
//! re-run only simulates missing or previously-failed cells.
//!
//! # Example
//!
//! ```
//! use llbp_sim::engine::{SweepEngine, SweepSpec};
//! use llbp_sim::{PredictorKind, SimConfig};
//! use llbp_trace::{Workload, WorkloadSpec};
//!
//! let spec = SweepSpec::new(
//!     vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(8)],
//!     vec![WorkloadSpec::named(Workload::Http).with_branches(5_000)],
//!     SimConfig::default(),
//! );
//! let report = SweepEngine::new().run(&spec);
//! assert_eq!(report.jobs.len(), 2);
//! let base = report.get(0, 0); // (workload 0, predictor 0)
//! assert_eq!(base.label, "64K TSL");
//! ```

use crate::backend::BackendKind;
use crate::cache::TraceCache;
use crate::config::{PredictorKind, SimConfig};
use crate::driver::SimResult;
use crate::error::{backoff_delay, panic_message, CancelToken, SimError};
use crate::faultinject::FaultInjector;
use crate::journal::{campaign_fingerprint, CampaignJournal, CellOutcome};
use crate::memo::MemoStore;
use bputil::hash::FastHashMap;
use bputil::kernel::Kernel;
use llbp_obs::Telemetry;
use llbp_prov::{ProvConfig, ProvRecorder};
use llbp_tage::TablePool;
use llbp_trace::{Fingerprint, WorkloadSpec};
use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Environment variable bounding per-cell retries of transient failures
/// (memo-store IO errors, injected faults, watchdog timeouts).
pub const MAX_RETRIES_ENV: &str = "LLBP_MAX_RETRIES";

/// Retry budget used when [`MAX_RETRIES_ENV`] is unset or unparsable.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Environment variable setting the per-job watchdog timeout in seconds
/// (fractional values accepted; unset or non-positive disables it).
pub const JOB_TIMEOUT_ENV: &str = "LLBP_JOB_TIMEOUT_SECS";

/// Environment variable pinning the worker pool size (CI and shared
/// hosts), else one worker per available core.
pub const WORKERS_ENV: &str = "LLBP_WORKERS";

/// Environment variable setting the provenance sampling period (keep
/// every Nth event; default [`ProvConfig::DEFAULT_SAMPLE`]).
pub const PROV_SAMPLE_ENV: &str = "LLBP_PROV_SAMPLE";

/// Environment variable setting the provenance ring capacity in events
/// (default [`ProvConfig::DEFAULT_RING`]).
pub const PROV_RING_ENV: &str = "LLBP_PROV_RING";

/// The recorder tuning from [`PROV_SAMPLE_ENV`] / [`PROV_RING_ENV`],
/// with crate defaults for whichever is unset.
///
/// # Errors
///
/// [`SimError::Config`] when either variable is set but unparsable —
/// silently recording at a default rate would misrepresent a campaign
/// that asked for full-rate capture.
pub fn prov_config_from_env() -> Result<ProvConfig, SimError> {
    Ok(ProvConfig {
        sample: crate::envknob::parse_env_or(PROV_SAMPLE_ENV, ProvConfig::DEFAULT_SAMPLE)?,
        ring: crate::envknob::parse_env_or(PROV_RING_ENV, ProvConfig::DEFAULT_RING)?,
    })
}

/// The retry budget from [`MAX_RETRIES_ENV`], else
/// [`DEFAULT_MAX_RETRIES`].
///
/// # Errors
///
/// [`SimError::Config`] when the variable is set but unparsable.
pub fn retries_from_env() -> Result<u32, SimError> {
    crate::envknob::parse_env_or(MAX_RETRIES_ENV, DEFAULT_MAX_RETRIES)
}

/// The watchdog timeout from [`JOB_TIMEOUT_ENV`]: `Ok(None)` when unset
/// or non-positive (disabled), `Ok(Some)` otherwise.
///
/// # Errors
///
/// [`SimError::Config`] when the variable is set but not a finite
/// number.
pub fn timeout_from_env() -> Result<Option<Duration>, SimError> {
    let secs: Option<f64> = crate::envknob::parse_env(JOB_TIMEOUT_ENV)?;
    let Some(secs) = secs else { return Ok(None) };
    if !secs.is_finite() {
        return Err(SimError::Config {
            detail: format!("{JOB_TIMEOUT_ENV} `{secs}`: expected a finite number of seconds"),
        });
    }
    Ok((secs > 0.0).then(|| Duration::from_secs_f64(secs)))
}

/// The worker-count override from [`WORKERS_ENV`]: `Ok(None)` when
/// unset, else the value clamped to ≥ 1.
///
/// # Errors
///
/// [`SimError::Config`] when the variable is set but unparsable.
pub fn workers_from_env() -> Result<Option<usize>, SimError> {
    Ok(crate::envknob::parse_env::<usize>(WORKERS_ENV)?.map(|n| n.max(1)))
}

/// One worker per available core (the default when [`WORKERS_ENV`] is
/// unset).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Number of workers the engine uses by default: [`WORKERS_ENV`] when
/// set, else one per available core.
///
/// Infallible for legacy harness fan-out callers; an unparsable
/// override is *warned about* and ignored here, while engine-routed
/// runs surface it as a typed config error via
/// [`workers_from_env`] (captured in [`SweepEngine::new`]).
#[must_use]
pub fn default_workers() -> usize {
    match workers_from_env() {
        Ok(Some(n)) => n,
        Ok(None) => available_cores(),
        Err(e) => {
            eprintln!("warning: {e}; using one worker per core");
            available_cores()
        }
    }
}

/// Runs `f(0..n)` on a pool of `workers` threads and returns the results
/// in index order regardless of which worker ran which index.
///
/// This is the engine's scheduling primitive, exposed because harness code
/// with job shapes other than a predictor grid (e.g. per-workload trace
/// characterisation) wants the same bounded fan-out. Workers claim indices
/// from a shared atomic counter, so a slow job never blocks the queue
/// behind it; with `workers <= 1` the closure runs inline on the caller's
/// thread.
///
/// A panic in `f` poisons nothing: the collection mutex only guards a
/// `Vec` whose partial contents stay structurally valid, so surviving
/// workers recover the guard with [`PoisonError::into_inner`] and keep
/// collecting. (The sweep engine additionally catches panics per job, so
/// its closures never unwind out of here at all.)
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(workers, n, || (), |(), i| f(i))
}

/// [`run_indexed`] with per-worker state: each worker makes one `S` with
/// `init` before its first index, lends it to `f` for every index it
/// runs, and drops it when the queue is empty. The sweep engine keeps
/// each worker's [`TablePool`] this way, for the length of one run.
fn run_indexed_with<S, T, I, F>(workers: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&mut state, i)));
                }
                collected.lock().unwrap_or_else(PoisonError::into_inner).extend(local);
            });
        }
    });
    let mut indexed = collected.into_inner().unwrap_or_else(PoisonError::into_inner);
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, value)| value).collect()
}

/// A sweep: every predictor in `predictors` over every workload in
/// `workloads`, simulated under one [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Predictor designs, in report order.
    pub predictors: Vec<PredictorKind>,
    /// Workload specs, in report order.
    pub workloads: Vec<WorkloadSpec>,
    /// Simulation parameters shared by every job.
    pub sim: SimConfig,
}

impl SweepSpec {
    /// Creates a sweep spec.
    #[must_use]
    pub fn new(
        predictors: Vec<PredictorKind>,
        workloads: Vec<WorkloadSpec>,
        sim: SimConfig,
    ) -> Self {
        Self { predictors, workloads, sim }
    }

    /// Total number of grid cells.
    #[must_use]
    pub fn num_jobs(&self) -> usize {
        self.predictors.len() * self.workloads.len()
    }

    /// The grid in job order: workload-major, so that the jobs sharing a
    /// trace are adjacent in the queue and the cache holds few traces at
    /// a time.
    fn job(&self, index: usize) -> SweepJob {
        SweepJob {
            workload: index / self.predictors.len(),
            predictor: index % self.predictors.len(),
        }
    }
}

/// The grid's result fingerprints in job order (workload-major, like
/// [`SweepSpec`]'s job numbering), as addressed in `store`: cell by cell
/// what [`MemoStore::result_fingerprint`] returns.
#[must_use]
pub fn grid_fingerprints(spec: &SweepSpec, store: &MemoStore) -> Vec<Fingerprint> {
    cell_fingerprints(spec, store, &TraceKeys::new(spec))
}

/// [`grid_fingerprints`] with each text it hashes formatted once per
/// grid, not once per cell: the predictors' and the config's here, the
/// workloads' as `traces`' keys (a spec's key is its `Debug` text).
fn cell_fingerprints(spec: &SweepSpec, store: &MemoStore, traces: &TraceKeys) -> Vec<Fingerprint> {
    let predictors: Vec<String> =
        spec.predictors.iter().map(PredictorKind::fingerprint_text).collect();
    let sim = spec.sim.fingerprint_text();
    (0..spec.num_jobs())
        .map(|index| {
            let job = spec.job(index);
            store.result_fingerprint_of(&predictors[job.predictor], traces.key(job.workload), &sim)
        })
        .collect()
}

/// A cell's final outcome: its record and stored digest, or its error.
type CellResult = Result<(JobRecord, Option<Fingerprint>), Box<JobError>>;

/// A cell as its attempts see it: grid index, fingerprint, whether a
/// resume trusts it and whether verify-resume demoted it.
type CellRef = (usize, Option<Fingerprint>, bool, bool);

/// The run's memo-hit, memo-miss and resumed-cell counters.
type Counters<'a> = (&'a AtomicU64, &'a AtomicU64, &'a AtomicU64);

/// The cells of unit `u` in `order`.
fn unit_members<'a>(
    order: &'a [usize],
    unit_of: &'a [usize],
    u: usize,
) -> impl Iterator<Item = usize> + 'a {
    order.iter().copied().filter(move |&index| unit_of[index] == u)
}

/// A worker's reusable lists for running units, kept in its
/// [`TablePool`] between units.
#[derive(Default)]
struct UnitScratch {
    /// The members of the unit in flight that must simulate.
    pending: Vec<usize>,
    recorders: Vec<ProvRecorder>,
    results: Vec<(SimResult, Duration)>,
}

/// Called by [`SweepEngine::try_run_observed`] with each cell's grid
/// index and outcome, right after the outcome is journaled.
pub type CellObserver<'a> = &'a (dyn Fn(usize, &CellOutcome) + Sync);

/// One grid cell: indices into [`SweepSpec::workloads`] and
/// [`SweepSpec::predictors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepJob {
    /// Index into [`SweepSpec::workloads`].
    pub workload: usize,
    /// Index into [`SweepSpec::predictors`].
    pub predictor: usize,
}

/// Throughput statistics for one job.
#[derive(Debug, Clone, Copy)]
pub struct JobStats {
    /// Wall time of the simulation (excluding trace generation, which is
    /// attributed to the job that missed the cache).
    pub wall: Duration,
    /// Branch records simulated.
    pub branches: u64,
}

impl JobStats {
    /// Simulated branch records per second of wall time.
    #[must_use]
    pub fn branches_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.branches as f64 / secs
        } else {
            0.0
        }
    }
}

/// One completed grid cell.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Which grid cell this is.
    pub job: SweepJob,
    /// The simulation result.
    pub result: SimResult,
    /// Throughput statistics.
    pub stats: JobStats,
}

/// A grid cell that exhausted its retry budget (or failed
/// deterministically) — the sweep's structured record of the failure.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Which grid cell failed.
    pub job: SweepJob,
    /// The cell's flat grid index (`workload * num_predictors + predictor`).
    pub index: usize,
    /// Label of the predictor that was being simulated.
    pub predictor: String,
    /// Name of the workload that was being simulated.
    pub workload: String,
    /// How many attempts were made (1 = failed without retrying).
    pub attempts: u32,
    /// The final attempt's error.
    pub error: SimError,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} ({} on {}) failed after {} attempt{}: {}",
            self.index,
            self.predictor,
            self.workload,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.error
        )
    }
}

/// Campaign-level provenance summary, aggregated from the streams on
/// disk after the run loop (so memo-served *and* freshly simulated cells
/// contribute — a fully warm campaign regenerates this without
/// simulating anything).
#[derive(Debug, Clone, Default)]
pub struct ProvSummary {
    /// Cells whose provenance stream was loadable.
    pub streams: u64,
    /// Measured conditional branches recorded across all streams.
    pub branches: u64,
    /// Mispredictions recorded across all streams (full-rate exact).
    pub mispredicts: u64,
    /// Sampled events captured across all streams.
    pub sampled: u64,
    /// The campaign's hottest mispredicting branch (ties break toward
    /// the lower pc, so the summary is deterministic).
    pub hottest_pc: Option<u64>,
    /// Mispredictions of [`ProvSummary::hottest_pc`].
    pub hottest_mispredicts: u64,
    /// Directory holding the streams (`prov_tool`'s input).
    pub dir: String,
}

/// Everything a sweep produced, in deterministic grid order
/// (workload-major: all predictors of workload 0, then workload 1, …).
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Completed jobs, indexed `workload * num_predictors + predictor`.
    pub jobs: Vec<JobRecord>,
    /// Number of predictors per workload (the grid's minor dimension).
    pub num_predictors: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall time of the whole sweep, including trace generation.
    pub wall: Duration,
    /// Trace-cache requests served from memory without generating.
    pub cache_hits: u64,
    /// Traces generated.
    pub cache_misses: u64,
    /// Trace-cache requests served from the persistent store.
    pub trace_disk_hits: u64,
    /// Grid cells whose result was served from the persistent store.
    pub memo_hits: u64,
    /// Grid cells simulated (and written back, when a store is attached).
    pub memo_misses: u64,
    /// Peak heap bytes held by cached traces, column views included
    /// ([`TraceCache::peak_footprint`]): the largest footprint sampled
    /// just before each trace was released and at the end of the run. A
    /// run on a caller's cache releases nothing, so for it this is what
    /// the cache holds when the run ends.
    pub trace_bytes: usize,
    /// Grid cells that ultimately failed after exhausting retries. Their
    /// slot in [`SweepReport::jobs`] holds an all-zero placeholder result
    /// so dense grid indexing stays valid; consult this list (or
    /// [`SweepReport::is_complete`]) before trusting a cell.
    pub failed: Vec<JobError>,
    /// Cells skipped because a `--resume` run found them already
    /// completed in the campaign journal and memo store.
    pub resumed: u64,
    /// Journaled-complete cells a `--verify-resume` pass demoted to
    /// misses (missing, corrupt, or digest-mismatched memo cells); each
    /// was journaled `stale` and re-run from scratch.
    pub stale: u64,
    /// How long acquiring the campaign's journal lock blocked on a live
    /// holder (zero for storeless sweeps and uncontended locks).
    pub lock_wait: Duration,
    /// Dead-holder lock takeovers performed while opening the journal.
    pub lock_takeovers: u64,
    /// Label of the *resolved* execution backend that ran the simulated
    /// cells (`auto` never appears here — the concrete tier it picked
    /// does), so archived throughput records say what actually ran.
    pub backend: &'static str,
    /// Build of the TAGE-SC-L history and hash loops the predictors run
    /// (`"avx512"` or `"baseline"`, from [`Kernel::detect`]), so archived
    /// throughput records say which code path produced a number.
    pub kernel: &'static str,
    /// Where the memoized cells came from: `"local"` for a run with a
    /// store, `"none"` for a storeless sweep, `"serve"` for a report a
    /// sweep daemon streamed back.
    pub store_tier: &'static str,
    /// Provenance summary, `Some` only when the engine ran with
    /// [`SweepEngine::with_prov`] — absent means no recorder touched the
    /// run and every output byte matches a build without the subsystem.
    pub prov: Option<ProvSummary>,
}

impl SweepReport {
    /// `true` when every grid cell produced a real result.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// The result for `(workload index, predictor index)`. For a cell
    /// listed in [`SweepReport::failed`] this is the all-zero placeholder.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn get(&self, workload: usize, predictor: usize) -> &SimResult {
        assert!(predictor < self.num_predictors, "predictor index out of range");
        &self.jobs[workload * self.num_predictors + predictor].result
    }

    /// All results for one workload, in predictor order.
    #[must_use]
    pub fn row(&self, workload: usize) -> Vec<&SimResult> {
        (0..self.num_predictors).map(|p| self.get(workload, p)).collect()
    }

    /// Total branch records simulated across all jobs.
    #[must_use]
    pub fn total_branches(&self) -> u64 {
        self.jobs.iter().map(|j| j.stats.branches).sum()
    }

    /// Aggregate simulated branches per second of sweep wall time.
    #[must_use]
    pub fn branches_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_branches() as f64 / secs
        } else {
            0.0
        }
    }

    /// Exact cell-wall percentiles `(p50, p95, max)` in milliseconds over
    /// [`JobStats::wall`] of the cells that did not fail (all zero when
    /// none did). The rank rule is
    /// [`HistogramSnapshot::quantile`](llbp_obs::HistogramSnapshot::quantile)'s
    /// nearest rank: the `ceil(q * n)`-th smallest sample.
    fn wall_percentiles_ms(&self) -> (f64, f64, f64) {
        let mut walls: Vec<Duration> = (0..self.jobs.len())
            .filter(|&index| self.failed.iter().all(|err| err.index != index))
            .map(|index| self.jobs[index].stats.wall)
            .collect();
        walls.sort_unstable();
        let rank = |q: f64| {
            let n = walls.len();
            let target = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
            walls.get(target - 1).map_or(0.0, |wall| wall.as_secs_f64() * 1000.0)
        };
        (rank(0.5), rank(0.95), rank(1.0))
    }

    /// A single-line JSON record of the sweep's throughput, for harness
    /// scripts that archive perf numbers (`results/`). When any cell
    /// ultimately failed, a `"failed"` array of per-cell error records is
    /// appended so archived campaigns are honest about missing data.
    #[must_use]
    pub fn throughput_json(&self, label: &str) -> String {
        let sanitize = |s: &str| s.replace(['"', '\\'], "_");
        let (wall_p50, wall_p95, wall_max) = self.wall_percentiles_ms();
        let mut line = format!(
            concat!(
                "{{\"event\":\"sweep_throughput\",\"label\":\"{}\",",
                "\"backend\":\"{}\",\"kernel\":\"{}\",\"store\":\"{}\",",
                "\"jobs\":{},\"workers\":{},\"branches\":{},",
                "\"wall_s\":{:.3},\"branches_per_sec\":{:.0},",
                "\"cache_hits\":{},\"cache_misses\":{},",
                "\"trace_disk_hits\":{},\"memo_hits\":{},\"memo_misses\":{},",
                "\"resumed\":{},\"stale\":{},\"trace_mib\":{:.1},",
                "\"lock_wait_ms\":{:.1},\"lock_takeovers\":{},",
                "\"cell_wall_p50_ms\":{:.3},\"cell_wall_p95_ms\":{:.3},",
                "\"cell_wall_max_ms\":{:.3}"
            ),
            sanitize(label),
            self.backend,
            self.kernel,
            self.store_tier,
            self.jobs.len(),
            self.workers,
            self.total_branches(),
            self.wall.as_secs_f64(),
            self.branches_per_sec(),
            self.cache_hits,
            self.cache_misses,
            self.trace_disk_hits,
            self.memo_hits,
            self.memo_misses,
            self.resumed,
            self.stale,
            self.trace_bytes as f64 / (1024.0 * 1024.0),
            self.lock_wait.as_secs_f64() * 1000.0,
            self.lock_takeovers,
            wall_p50,
            wall_p95,
            wall_max,
        );
        if !self.failed.is_empty() {
            line.push_str(",\"failed\":[");
            for (i, err) in self.failed.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!(
                    concat!(
                        "{{\"cell\":{},\"workload\":\"{}\",\"predictor\":\"{}\",",
                        "\"attempts\":{},\"class\":\"{}\",\"error\":\"{}\"}}"
                    ),
                    err.index,
                    sanitize(&err.workload),
                    sanitize(&err.predictor),
                    err.attempts,
                    err.error.class(),
                    sanitize(&err.error.to_string()),
                ));
            }
            line.push(']');
        }
        if let Some(p) = &self.prov {
            let hottest =
                p.hottest_pc.map_or_else(|| "null".to_string(), |pc| format!("\"{pc:#x}\""));
            line.push_str(&format!(
                concat!(
                    ",\"prov\":{{\"streams\":{},\"branches\":{},",
                    "\"mispredicts\":{},\"sampled\":{},\"hottest_pc\":{},",
                    "\"hottest_mispredicts\":{},\"dir\":\"{}\"}}"
                ),
                p.streams,
                p.branches,
                p.mispredicts,
                p.sampled,
                hottest,
                p.hottest_mispredicts,
                sanitize(&p.dir),
            ));
        }
        line.push('}');
        line
    }
}

/// Schedules [`SweepSpec`] grids onto a worker pool, optionally memoizing
/// every cell in a persistent [`MemoStore`], with per-job panic
/// isolation, bounded retry, watchdog timeouts and campaign resume (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct SweepEngine {
    workers: usize,
    store: Option<Arc<MemoStore>>,
    cold: bool,
    max_retries: u32,
    job_timeout: Option<Duration>,
    faults: Option<Arc<FaultInjector>>,
    resume: bool,
    verify_resume: bool,
    prov: Option<ProvConfig>,
    telemetry: Telemetry,
    /// First malformed `LLBP_*` knob seen at construction. Constructors
    /// stay infallible, so the typed error is deferred to the first
    /// fallible entry point ([`SweepEngine::try_run_with_cache`]) where
    /// it fails the campaign with exit code 2 instead of silently
    /// running on defaults.
    env_error: Option<SimError>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine with one worker per available core (or `LLBP_WORKERS`)
    /// and no persistent store. The retry budget and watchdog timeout are
    /// read from `LLBP_MAX_RETRIES` / `LLBP_JOB_TIMEOUT_SECS`.
    #[must_use]
    pub fn new() -> Self {
        match workers_from_env() {
            Ok(workers) => Self::with_workers(workers.unwrap_or_else(available_cores)),
            Err(e) => {
                let mut engine = Self::with_workers(available_cores());
                engine.env_error.get_or_insert(e);
                engine
            }
        }
    }

    /// An engine with an explicit worker count (`0` is clamped to 1).
    /// Results are identical at any worker count; only throughput varies.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        let mut env_error = None;
        let max_retries = retries_from_env().unwrap_or_else(|e| {
            env_error = Some(e);
            DEFAULT_MAX_RETRIES
        });
        let job_timeout = timeout_from_env().unwrap_or_else(|e| {
            env_error.get_or_insert(e);
            None
        });
        Self {
            workers: workers.max(1),
            store: None,
            cold: false,
            max_retries,
            job_timeout,
            faults: None,
            resume: false,
            verify_resume: false,
            prov: None,
            telemetry: Telemetry::disabled(),
            env_error,
        }
    }

    /// Attaches a telemetry handle. Each job then records five stage
    /// spans — `queue_wait`, `memo_probe`, `generation`, `simulation`,
    /// `write_back` — plus marks for `retry`, `watchdog_kill`,
    /// `lock_takeover` and `stale_demotion`, and the hot simulation loop
    /// feeds a sampled `sim_records_total` counter. The default disabled
    /// handle costs nothing (see `llbp_obs`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a persistent store: each grid cell probes it for a
    /// memoized result before simulating and writes its result (plus the
    /// wall time, the scheduling cost model) back on a miss. A cell holds
    /// the store's slot for its fingerprint ([`MemoStore::claim_cell`])
    /// meanwhile, so engines sharing one store simulate a shared cell
    /// once. Results are bit-identical with or without a store — the
    /// parity tests pin it.
    #[must_use]
    pub fn with_store(mut self, store: Arc<MemoStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// With `cold` set, memoized results and traces are ignored (every
    /// cell re-simulates) but write-back still happens, so a cold run
    /// refreshes the store and records fresh per-cell wall times.
    #[must_use]
    pub fn cold(mut self, cold: bool) -> Self {
        self.cold = cold;
        self
    }

    /// Overrides the transient-failure retry budget (`0` disables
    /// retrying; the default comes from `LLBP_MAX_RETRIES`, else 2).
    #[must_use]
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the per-job watchdog timeout (`None` disables it; the
    /// default comes from `LLBP_JOB_TIMEOUT_SECS`, else disabled). Each
    /// *attempt* gets a fresh deadline, so a retried timeout is not
    /// charged for its predecessor's wasted wall time.
    #[must_use]
    pub fn timeout(mut self, job_timeout: Option<Duration>) -> Self {
        self.job_timeout = job_timeout;
        self
    }

    /// Attaches a deterministic fault injector: jobs consult it at each
    /// attempt start (panic / slow-down rules keyed by grid cell). IO
    /// rules are injected separately at the store via
    /// [`MemoStore::attach_faults`].
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// With `resume` set (and a store attached), cells recorded as
    /// completed in the campaign journal *and* still present in the memo
    /// store are served from disk without re-entering the fault/retry
    /// path, and the journal is appended to instead of truncated. Cells
    /// the journal records as failed are retried from scratch.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// With `verify_resume` set (implies nothing unless `resume` is also
    /// set), resumed cells are not trusted on the journal's word alone:
    /// each `ok`-journaled cell is re-read and checksummed, and its
    /// trailer digest compared against the digest the journal recorded at
    /// completion. Cells that fail — corrupted, replaced, or evicted
    /// since the journal was written — are journaled `stale` and re-run
    /// from scratch (bypassing even a still-decodable memo cell, which by
    /// definition is not the one the campaign completed with).
    #[must_use]
    pub fn verify_resume(mut self, verify: bool) -> Self {
        self.verify_resume = verify;
        self
    }

    /// Enables provenance recording: every simulated cell runs with a
    /// live [`ProvRecorder`], its stream is persisted next to the memo
    /// cell (keyed by the same result fingerprint), and the report gains
    /// a [`SweepReport::prov`] summary plus a `"prov"` section in
    /// [`SweepReport::throughput_json`]. Memo probes additionally require
    /// the stream to exist — a warm cell without one re-simulates once to
    /// backfill it. Requires a store; [`SweepEngine::try_run`] fails with
    /// a config error otherwise.
    #[must_use]
    pub fn with_prov(mut self, cfg: ProvConfig) -> Self {
        self.prov = Some(cfg);
        self
    }

    /// The worker count this engine schedules with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the full grid and returns the report. Job panics are caught
    /// and surface as [`SweepReport::failed`] entries, not unwinds.
    ///
    /// # Panics
    ///
    /// Panics when the campaign cannot *start* — another live campaign
    /// holds this grid's journal lock ([`SimError::CacheContention`]).
    /// Use [`SweepEngine::try_run`] to handle that case as a value.
    #[must_use]
    pub fn run(&self, spec: &SweepSpec) -> SweepReport {
        match self.try_run(spec) {
            Ok(report) => report,
            Err(e) => panic!("sweep campaign failed to start: {e}"),
        }
    }

    /// Runs the grid against a caller-provided trace cache, so harness
    /// code that needs the traces afterwards (e.g. for L1-I traffic
    /// analysis) shares one cache with the sweep instead of regenerating.
    /// The cache keeps every trace; a run on the engine's own cache
    /// ([`SweepEngine::run`]) drops each after its last cell. Job panics
    /// are caught and surface as [`SweepReport::failed`] entries, not
    /// unwinds.
    ///
    /// # Panics
    ///
    /// As [`SweepEngine::run`]; use [`SweepEngine::try_run_with_cache`]
    /// to handle campaign-level contention as a value.
    #[must_use]
    pub fn run_with_cache(&self, spec: &SweepSpec, cache: &TraceCache) -> SweepReport {
        match self.try_run_with_cache(spec, cache) {
            Ok(report) => report,
            Err(e) => panic!("sweep campaign failed to start: {e}"),
        }
    }

    /// Fallible [`SweepEngine::run`]: campaign-level failures (journal
    /// lock contention) surface as an error instead of a panic. Per-cell
    /// failures still surface as [`SweepReport::failed`] entries.
    ///
    /// # Errors
    ///
    /// [`SimError::CacheContention`] when another live campaign holds the
    /// journal lock for this grid on this cache root.
    pub fn try_run(&self, spec: &SweepSpec) -> Result<SweepReport, SimError> {
        self.run_grid(spec, &self.default_cache(), true, None)
    }

    /// [`SweepEngine::try_run`] that also reports each cell as it
    /// finishes: `observe(index, outcome)` runs once per grid cell, on
    /// the worker that ran it, right after the outcome is journaled, and
    /// `outcome` is what the journal records (failed cells included).
    /// The sweep daemon streams cells to its clients from here.
    ///
    /// # Errors
    ///
    /// As [`SweepEngine::try_run`], and [`SimError::Config`] when no
    /// store is attached (an outcome names the cell's stored result).
    pub fn try_run_observed(
        &self,
        spec: &SweepSpec,
        observe: CellObserver<'_>,
    ) -> Result<SweepReport, SimError> {
        if self.store.is_none() {
            return Err(SimError::Config {
                detail: "an observed sweep requires a persistent store".into(),
            });
        }
        self.run_grid(spec, &self.default_cache(), true, Some(observe))
    }

    /// Fallible [`SweepEngine::run_with_cache`] (see
    /// [`SweepEngine::try_run`]).
    ///
    /// # Errors
    ///
    /// [`SimError::CacheContention`] when another live campaign holds the
    /// journal lock for this grid on this cache root.
    pub fn try_run_with_cache(
        &self,
        spec: &SweepSpec,
        cache: &TraceCache,
    ) -> Result<SweepReport, SimError> {
        self.run_grid(spec, cache, false, None)
    }

    /// The trace cache a run without a caller-provided one uses: backed
    /// by the store when one is attached.
    fn default_cache(&self) -> TraceCache {
        match &self.store {
            Some(store) => TraceCache::with_store(Arc::clone(store), self.cold),
            None => TraceCache::new(),
        }
        .with_telemetry(self.telemetry.clone())
    }

    /// Runs every cell of `spec` on `cache`. With `own_cache` set the
    /// cache is the run's own, and each trace is released from it as soon
    /// as its last cell finishes; a caller's cache keeps every trace.
    fn run_grid(
        &self,
        spec: &SweepSpec,
        cache: &TraceCache,
        own_cache: bool,
        observe: Option<CellObserver<'_>>,
    ) -> Result<SweepReport, SimError> {
        if let Some(e) = &self.env_error {
            return Err(e.clone());
        }
        if self.prov.is_some() && self.store.is_none() {
            return Err(SimError::Config {
                detail: "provenance recording requires a persistent store \
                         (streams are persisted next to memo cells)"
                    .into(),
            });
        }
        let started = Instant::now();
        let n = spec.num_jobs();
        let mut traces = TraceKeys::new(spec);
        let fingerprints = self
            .store
            .as_ref()
            .map_or_else(Vec::new, |store| cell_fingerprints(spec, store, &traces));
        let journal = self.open_journal(&fingerprints)?;
        // On resume, cells the journal marks completed (and whose result
        // is still memoized under the recorded fingerprint) are trusted;
        // anything else — failed, stale, unrecorded, or evicted — re-runs.
        // With verify-resume, "trusted" additionally requires the memo
        // cell to decode and match its journaled digest right now.
        let mut stale_count = 0u64;
        let mut force_fresh: HashSet<usize> = HashSet::new();
        let done_before: FastHashMap<usize, Fingerprint> = match (&journal, self.resume) {
            (Some(journal), true) => {
                let mut done = FastHashMap::default();
                for (cell, outcome) in journal.load() {
                    let CellOutcome::Ok { fingerprint, digest } = outcome else { continue };
                    if cell >= n || fingerprints[cell] != fingerprint {
                        continue;
                    }
                    if self.verify_resume {
                        let injected = self.faults.as_ref().is_some_and(|f| f.check_stale(cell));
                        let verified = !injected
                            && self.store.as_ref().is_some_and(|store| {
                                // A transient read error counts as
                                // unverified: re-running the cell is
                                // always safe, trusting it is not.
                                store.verify_result(fingerprint, digest).unwrap_or(false)
                            });
                        if !verified {
                            journal.record(cell, &CellOutcome::Stale { fingerprint });
                            self.telemetry.mark("stale_demotion", cell as i64);
                            stale_count += 1;
                            force_fresh.insert(cell);
                            continue;
                        }
                    }
                    done.insert(cell, fingerprint);
                }
                done
            }
            _ => FastHashMap::default(),
        };
        let (order, memoized) = self.schedule(n, &fingerprints);
        traces.count_simulations(spec.predictors.len(), &memoized);
        let memo_hits = AtomicU64::new(0);
        let memo_misses = AtomicU64::new(0);
        let resumed = AtomicU64::new(0);
        // Each predictor resolved once: its cells borrow their configuration.
        let kinds: Vec<_> = spec.predictors.iter().map(PredictorKind::resolve_preset).collect();
        let (cells, items) = self.plan_units(spec, &kinds, &order, &fingerprints, |index| {
            !memoized[index] && !done_before.contains_key(&index) && !force_fresh.contains(&index)
        });
        let outcomes: Vec<OnceLock<CellResult>> = (0..n).map(|_| OnceLock::new()).collect();
        // Everything a finished cell does, whether it ran alone or in a unit.
        let finish = |index: usize, outcome: CellResult| {
            let workload = spec.job(index).workload;
            if own_cache && traces.finish(workload, !memoized[index]) {
                cache.release(traces.key(workload));
            }
            if journal.is_some() || observe.is_some() {
                let recorded = match &outcome {
                    Ok((_, digest)) => {
                        CellOutcome::Ok { fingerprint: fingerprints[index], digest: *digest }
                    }
                    Err(err) => CellOutcome::Failed { class: err.error.class().to_string() },
                };
                if let Some(journal) = &journal {
                    journal.record(index, &recorded);
                }
                if let Some(observe) = observe {
                    observe(index, &recorded);
                }
            }
            let _ = outcomes[index].set(outcome);
        };
        let counters = (&memo_hits, &memo_misses, &resumed);
        run_indexed_with(self.workers, items.len(), TablePool::new, |pool, slot| {
            let members = &cells[items[slot].clone()];
            // Queue wait: campaign start until a worker claims the cell.
            if self.telemetry.is_enabled() {
                let now = Instant::now();
                for &index in members {
                    self.telemetry.record_span("queue_wait", started, now, index as i64);
                }
            }
            let workload = spec.job(members[0]).workload;
            let trace = (cache, traces.key(workload));
            if let [index] = *members {
                let outcome = self.run_cell(
                    spec,
                    index,
                    trace,
                    fingerprints.get(index).copied(),
                    done_before.contains_key(&index),
                    force_fresh.contains(&index),
                    counters,
                    (&kinds, pool),
                );
                finish(index, outcome);
            } else {
                self.run_unit(
                    spec,
                    members,
                    trace,
                    &fingerprints,
                    counters,
                    (&kinds, pool),
                    &finish,
                );
            }
        });
        let mut jobs = Vec::with_capacity(n);
        let mut failed = Vec::new();
        for (index, outcome) in outcomes.into_iter().enumerate() {
            match outcome.into_inner().expect("every cell finishes") {
                Ok((record, _digest)) => jobs.push(record),
                Err(err) => {
                    // A placeholder keeps dense grid indexing valid;
                    // `failed` is the authoritative record of the gap.
                    jobs.push(Self::placeholder_record(spec, index));
                    failed.push(*err);
                }
            }
        }
        let (lock_wait, lock_takeovers) =
            journal.as_ref().map_or((Duration::ZERO, 0), CampaignJournal::lock_stats);
        let report = SweepReport {
            jobs,
            num_predictors: spec.predictors.len(),
            workers: self.workers.clamp(1, n.max(1)),
            wall: started.elapsed(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            trace_disk_hits: cache.disk_hits(),
            memo_hits: memo_hits.into_inner(),
            memo_misses: memo_misses.into_inner(),
            trace_bytes: cache.peak_footprint(),
            failed,
            resumed: resumed.into_inner(),
            stale: stale_count,
            lock_wait,
            lock_takeovers,
            backend: spec.sim.backend.resolve().label(),
            kernel: Kernel::detect().name(),
            store_tier: if self.store.is_some() { "local" } else { "none" },
            prov: self.prov_summary(&fingerprints),
        };
        // Mirror the campaign summary into the metrics registry so a
        // Prometheus snapshot is self-contained without the report.
        if self.telemetry.is_enabled() {
            self.telemetry.counter("sweep_jobs").add(report.jobs.len() as u64);
            self.telemetry.counter("sweep_failed").add(report.failed.len() as u64);
            self.telemetry.counter("cache_hits").add(report.cache_hits);
            self.telemetry.counter("cache_misses").add(report.cache_misses);
            self.telemetry.counter("trace_disk_hits").add(report.trace_disk_hits);
            self.telemetry.counter("memo_hits").add(report.memo_hits);
            self.telemetry.counter("memo_misses").add(report.memo_misses);
            self.telemetry.counter("resumed").add(report.resumed);
            self.telemetry.counter("stale").add(report.stale);
        }
        Ok(report)
    }

    /// Opens the campaign journal when a persistent store is attached,
    /// acquiring the campaign's exclusive cross-process lock. The
    /// campaign identity is a fold of the grid's cell fingerprints, so
    /// two different sweeps never share a journal (or contend on one
    /// another's lock).
    ///
    /// Contention is a hard error — running anyway would interleave two
    /// writers in one journal. Any *other* open failure degrades to
    /// running without a journal: the journal is an optimization, not a
    /// correctness requirement.
    fn open_journal(
        &self,
        fingerprints: &[Fingerprint],
    ) -> Result<Option<CampaignJournal>, SimError> {
        let Some(store) = self.store.as_ref() else {
            return Ok(None);
        };
        if fingerprints.is_empty() {
            return Ok(None);
        }
        if let Some(faults) = &self.faults {
            faults.check_lock()?;
        }
        match CampaignJournal::open_observed(
            store.root(),
            campaign_fingerprint(fingerprints),
            self.resume,
            crate::lock::lock_wait_from_env()?,
            &self.telemetry,
        ) {
            Ok(journal) => Ok(Some(journal)),
            Err(e @ SimError::CacheContention { .. }) => Err(e),
            Err(_) => Ok(None),
        }
    }

    /// Runs one grid cell to completion: retry loop around
    /// [`SweepEngine::attempt_cell`] with deterministic backoff between
    /// transient failures, mapping the final error into a [`JobError`]
    /// (boxed: the error path is cold and the `Ok` path shouldn't pay
    /// its footprint).
    #[allow(clippy::too_many_arguments)]
    fn run_cell(
        &self,
        spec: &SweepSpec,
        index: usize,
        trace: (&TraceCache, &Arc<str>),
        fingerprint: Option<Fingerprint>,
        resumable: bool,
        force_fresh: bool,
        counters: Counters<'_>,
        (kinds, pool): (&[Cow<'_, PredictorKind>], &mut TablePool),
    ) -> CellResult {
        // Held across every attempt: another campaign on this store that
        // reaches the same cell waits here, then memo-hits.
        let _slot = self.store.as_ref().zip(fingerprint).map(|(store, fp)| store.claim_cell(fp));
        let cell = (index, fingerprint, resumable, force_fresh);
        let first = self.attempt_cell(spec, cell, trace, counters, 0, (kinds, &mut *pool));
        self.settle_cell(spec, cell, trace, counters, first, (kinds, pool))
    }

    /// The retry loop of [`SweepEngine::run_cell`] from `first`, the
    /// outcome of attempt 0, on. The caller holds the cell's claim.
    fn settle_cell(
        &self,
        spec: &SweepSpec,
        cell: CellRef,
        trace: (&TraceCache, &Arc<str>),
        counters: Counters<'_>,
        first: Result<(JobRecord, Option<Fingerprint>), SimError>,
        (kinds, pool): (&[Cow<'_, PredictorKind>], &mut TablePool),
    ) -> CellResult {
        let index = cell.0;
        let mut attempt = 0u32;
        let mut outcome = first;
        loop {
            match outcome {
                Ok(record) => return Ok(record),
                Err(error) if error.is_transient() && attempt < self.max_retries => {
                    if matches!(error, SimError::Timeout { .. }) {
                        self.telemetry.mark("watchdog_kill", index as i64);
                    }
                    self.telemetry.mark("retry", index as i64);
                    std::thread::sleep(backoff_delay(attempt));
                    attempt += 1;
                    outcome = self.attempt_cell(
                        spec,
                        cell,
                        trace,
                        counters,
                        attempt,
                        (kinds, &mut *pool),
                    );
                }
                Err(error) => {
                    if matches!(error, SimError::Timeout { .. }) {
                        self.telemetry.mark("watchdog_kill", index as i64);
                    }
                    let job = spec.job(index);
                    return Err(Box::new(JobError {
                        job,
                        index,
                        predictor: spec.predictors[job.predictor].label(),
                        workload: spec.workloads[job.workload].name().to_string(),
                        attempts: attempt + 1,
                        error,
                    }));
                }
            }
        }
    }

    /// One attempt at one grid cell, fully isolated: injected faults,
    /// trace generation and the simulation itself each run under
    /// `catch_unwind`, and every failure maps to a typed [`SimError`].
    /// The simulation builds its predictor, `kinds` resolved for the run
    /// ([`PredictorKind::resolve_preset`]), on the worker's `pool`; a
    /// panic drops the predictor's tables with it. On success, also
    /// returns the memoized cell's content digest (when a store is
    /// attached and the write-back landed) for the journal.
    fn attempt_cell(
        &self,
        spec: &SweepSpec,
        cell: CellRef,
        (cache, key): (&TraceCache, &Arc<str>),
        counters: Counters<'_>,
        attempt: u32,
        (kinds, pool): (&[Cow<'_, PredictorKind>], &mut TablePool),
    ) -> Result<(JobRecord, Option<Fingerprint>), SimError> {
        let (index, fingerprint, ..) = cell;
        let token = self.attempt_token();
        if let Some(served) = self.open_attempt(cell, counters, attempt, spec)? {
            return Ok(served);
        }
        let gen_delay = self.gen_delay(index, attempt);
        let trace = self.trace_for(spec, index, (cache, key), &token, gen_delay)?;
        let kind = &*kinds[spec.job(index).predictor];
        let sim_records = self.telemetry.counter("sim_records_total");
        let mut recorder = self.recorder();
        let sim_started = Instant::now();
        let result = {
            let _span = self.telemetry.span("simulation").with_cell(index as i64);
            catch_unwind(AssertUnwindSafe(|| {
                spec.sim.run_pooled(kind, &trace, &token, &sim_records, &mut recorder, pool)
            }))
            .map_err(|payload| SimError::PredictorPanic {
                label: kind.label(),
                detail: panic_message(payload.as_ref()),
            })??
        };
        let wall = sim_started.elapsed();
        Ok(self.publish(spec, index, fingerprint, counters, recorder, result, wall, trace.len()))
    }

    /// A fresh watchdog token for one attempt. Its deadline starts before
    /// fault injection so that an injected-slow attempt is charged for
    /// its sleep: the simulation loop's first poll then observes the
    /// expired deadline.
    fn attempt_token(&self) -> CancelToken {
        match self.job_timeout {
            Some(limit) => CancelToken::with_timeout(limit),
            None => CancelToken::none(),
        }
    }

    /// The injected trace-generation delay of one attempt, if any.
    fn gen_delay(&self, index: usize, attempt: u32) -> Option<Duration> {
        self.faults.as_ref().and_then(|f| f.generation_delay(index, attempt))
    }

    /// A recorder for one simulated cell: live when provenance is on.
    fn recorder(&self) -> ProvRecorder {
        match self.prov {
            Some(cfg) => ProvRecorder::enabled(cfg),
            None => ProvRecorder::disabled(),
        }
    }

    /// The start of an attempt, up to the simulation: the injected
    /// faults, then the memo probe. `Some` is the cell served from the
    /// store; `None` means the cell must simulate.
    fn open_attempt(
        &self,
        (index, fingerprint, resumable, force_fresh): CellRef,
        (memo_hits, _, resumed): Counters<'_>,
        attempt: u32,
        spec: &SweepSpec,
    ) -> Result<Option<(JobRecord, Option<Fingerprint>)>, SimError> {
        if let Some(faults) = &self.faults {
            catch_unwind(AssertUnwindSafe(|| faults.on_job_start(index, attempt))).map_err(
                |payload| SimError::Injected { detail: panic_message(payload.as_ref()) },
            )?;
        }
        if let (Some(store), Some(fp)) = (&self.store, fingerprint) {
            // A cell demoted by verify-resume must not be served from the
            // memo probe: the on-disk bytes are exactly what failed
            // verification (`force_fresh` bypasses straight to re-run).
            // With provenance on, a warm cell whose stream is missing (a
            // campaign memoized before `--prov`) also falls through, so
            // one re-simulation backfills the stream.
            let prov_ok = self.prov.is_none() || store.has_prov(fp);
            if ((!self.cold && !force_fresh) || resumable) && prov_ok {
                let probe_started = Instant::now();
                let probed = {
                    let _span = self.telemetry.span("memo_probe").with_cell(index as i64);
                    store.load_result(fp)?
                };
                if let Some(cell) = probed {
                    memo_hits.fetch_add(1, Ordering::Relaxed);
                    if resumable {
                        resumed.fetch_add(1, Ordering::Relaxed);
                    }
                    let stats =
                        JobStats { wall: probe_started.elapsed(), branches: cell.trace_len };
                    let job = spec.job(index);
                    return Ok(Some((
                        JobRecord { job, result: cell.result, stats },
                        Some(cell.digest),
                    )));
                }
            }
        }
        Ok(None)
    }

    /// The trace of cell `index`'s workload, generated (under
    /// `catch_unwind`) when the cache misses.
    fn trace_for(
        &self,
        spec: &SweepSpec,
        index: usize,
        (cache, key): (&TraceCache, &Arc<str>),
        token: &CancelToken,
        gen_delay: Option<Duration>,
    ) -> Result<Arc<llbp_trace::Trace>, SimError> {
        let wspec = &spec.workloads[spec.job(index).workload];
        let _span = self.telemetry.span("generation").with_cell(index as i64);
        catch_unwind(AssertUnwindSafe(|| cache.get_or_generate_keyed(key, wspec, token, gen_delay)))
            .map_err(|payload| SimError::TraceGen {
                workload: wspec.name().to_string(),
                detail: panic_message(payload.as_ref()),
            })?
    }

    /// Counts a simulated cell and writes it back: its provenance stream,
    /// then its result.
    #[allow(clippy::too_many_arguments)]
    fn publish(
        &self,
        spec: &SweepSpec,
        index: usize,
        fingerprint: Option<Fingerprint>,
        (_, memo_misses, _): Counters<'_>,
        recorder: ProvRecorder,
        result: SimResult,
        wall: Duration,
        trace_len: usize,
    ) -> (JobRecord, Option<Fingerprint>) {
        // Counted on successful simulation (not per probe attempt), so
        // the counter still reads "cells simulated" under retries.
        memo_misses.fetch_add(1, Ordering::Relaxed);
        let digest = if let (Some(store), Some(fp)) = (&self.store, fingerprint) {
            // Publish the stream first: the memo probe treats the cell as
            // warm only when both objects exist, so this order means a
            // crash between the two writes re-simulates rather than
            // serving a cell whose stream never landed.
            if let Some(stream) = recorder.finish(&result.label, &result.workload) {
                let _span = self.telemetry.span("write_back").with_cell(index as i64);
                // Best-effort, like the trace store: a failed stream
                // write degrades the next warm run to one re-simulation.
                let _ = store.store_prov(fp, &stream);
            }
            let _span = self.telemetry.span("write_back").with_cell(index as i64);
            self.write_back(store, fp, &result, wall, trace_len as u64)
        } else {
            None
        };
        let stats = JobStats { wall, branches: trace_len as u64 };
        (JobRecord { job: spec.job(index), result, stats }, digest)
    }

    /// Runs the cells `members` of one trace as one unit
    /// ([`crate::backend::run_unit`]), calling `finish` once per member
    /// with its outcome. The unit claims its members' fingerprints in
    /// fingerprint order, each distinct one once, and holds them until
    /// every member is settled. Each member then makes its own first
    /// attempt up to the simulation (faults and memo probe); the members
    /// left simulate together under one watchdog deadline. A member whose
    /// attempt fails, or every member when the unit times out, continues
    /// alone on [`SweepEngine::settle_cell`]'s retry loop; when the unit
    /// panics, every member starts over alone.
    #[allow(clippy::too_many_arguments)]
    fn run_unit(
        &self,
        spec: &SweepSpec,
        members: &[usize],
        trace: (&TraceCache, &Arc<str>),
        fingerprints: &[Fingerprint],
        counters: Counters<'_>,
        (kinds, pool): (&[Cow<'_, PredictorKind>], &mut TablePool),
        finish: &(dyn Fn(usize, CellResult) + Sync),
    ) {
        self.claim_in_order(members, fingerprints, None, || {
            let mut scratch = pool.take_state::<UnitScratch>().unwrap_or_default();
            self.run_unit_claimed(
                spec,
                members,
                trace,
                fingerprints,
                counters,
                (kinds, &mut *pool),
                finish,
                &mut scratch,
            );
            scratch.pending.clear();
            pool.put_state(scratch);
        });
    }

    /// Claims the distinct fingerprints of `members` above `after` in
    /// ascending order, then runs `f` holding every claim. Ordered claims
    /// cannot deadlock against another unit or cell claiming the same
    /// fingerprints; each is claimed once, so a grid that lists one
    /// predictor twice cannot deadlock against itself either.
    fn claim_in_order<R>(
        &self,
        members: &[usize],
        fingerprints: &[Fingerprint],
        after: Option<Fingerprint>,
        f: impl FnOnce() -> R,
    ) -> R {
        let next = members
            .iter()
            .filter_map(|&index| fingerprints.get(index).copied())
            .filter(|&fp| after.is_none_or(|after| fp > after))
            .min();
        match (next, &self.store) {
            (Some(fp), Some(store)) => {
                let _slot = store.claim_cell(fp);
                self.claim_in_order(members, fingerprints, Some(fp), f)
            }
            _ => f(),
        }
    }

    /// [`SweepEngine::run_unit`] once the unit holds its claims.
    #[allow(clippy::too_many_arguments)]
    fn run_unit_claimed(
        &self,
        spec: &SweepSpec,
        members: &[usize],
        trace: (&TraceCache, &Arc<str>),
        fingerprints: &[Fingerprint],
        counters: Counters<'_>,
        (kinds, pool): (&[Cow<'_, PredictorKind>], &mut TablePool),
        finish: &(dyn Fn(usize, CellResult) + Sync),
        scratch: &mut UnitScratch,
    ) {
        let cell = |index: usize| (index, fingerprints.get(index).copied(), false, false);
        let pending = &mut scratch.pending;
        for &index in members {
            let token = self.attempt_token();
            // A member that must simulate after an injected-slow start
            // times out here, as its own loop's first poll would.
            let opened = self.open_attempt(cell(index), counters, 0, spec).and_then(|served| {
                if served.is_none() && token.is_cancelled() {
                    return Err(token.cancellation_error());
                }
                Ok(served)
            });
            match opened {
                Ok(None) => pending.push(index),
                Ok(Some(served)) => finish(index, Ok(served)),
                Err(error) => {
                    let first = Err(error);
                    let outcome = self.settle_cell(
                        spec,
                        cell(index),
                        trace,
                        counters,
                        first,
                        (kinds, &mut *pool),
                    );
                    finish(index, outcome);
                }
            }
        }
        let pending = &scratch.pending;
        if pending.is_empty() {
            return;
        }
        let token = self.attempt_token();
        // A member's injected generation delay stalls the unit's one
        // generation, as it would stall the member's own.
        let gen_delay = pending.iter().find_map(|&index| self.gen_delay(index, 0));
        let trace_data = match self.trace_for(spec, pending[0], trace, &token, gen_delay) {
            Ok(data) => data,
            Err(error) => {
                for &index in pending {
                    let first = Err(error.clone());
                    let outcome = self.settle_cell(
                        spec,
                        cell(index),
                        trace,
                        counters,
                        first,
                        (kinds, &mut *pool),
                    );
                    finish(index, outcome);
                }
                return;
            }
        };
        scratch.recorders.extend(pending.iter().map(|_| self.recorder()));
        let sim_records = self.telemetry.counter("sim_records_total");
        let sim_started = Instant::now();
        let pass = catch_unwind(AssertUnwindSafe(|| {
            crate::backend::run_unit(
                &spec.sim,
                pending.iter().map(|&index| &*kinds[spec.job(index).predictor]),
                &trace_data,
                &token,
                &sim_records,
                &mut scratch.recorders,
                pool,
                &mut scratch.results,
            )
        }));
        if self.telemetry.is_enabled() {
            let now = Instant::now();
            for &index in pending {
                self.telemetry.record_span("simulation", sim_started, now, index as i64);
            }
        }
        match pass {
            Ok(Ok(())) => {
                let done =
                    pending.iter().zip(scratch.results.drain(..)).zip(scratch.recorders.drain(..));
                for ((&index, (result, wall)), recorder) in done {
                    let fp = fingerprints.get(index).copied();
                    let record = self.publish(
                        spec,
                        index,
                        fp,
                        counters,
                        recorder,
                        result,
                        wall,
                        trace_data.len(),
                    );
                    finish(index, Ok(record));
                }
            }
            Ok(Err(error)) => {
                scratch.recorders.clear();
                for &index in pending {
                    let first = Err(error.clone());
                    let outcome = self.settle_cell(
                        spec,
                        cell(index),
                        trace,
                        counters,
                        first,
                        (kinds, &mut *pool),
                    );
                    finish(index, outcome);
                }
            }
            Err(_) => {
                scratch.recorders.clear();
                scratch.results.clear();
                for &index in pending {
                    let first = self.attempt_cell(
                        spec,
                        cell(index),
                        trace,
                        counters,
                        0,
                        (kinds, &mut *pool),
                    );
                    let outcome = self.settle_cell(
                        spec,
                        cell(index),
                        trace,
                        counters,
                        first,
                        (kinds, &mut *pool),
                    );
                    finish(index, outcome);
                }
            }
        }
    }

    /// The run's work items in claim order, as ranges of the returned
    /// cell list: one cell, or a unit of cells of one trace that share a
    /// stage ([`crate::backend::shares_stage`]). Only the batch tier forms
    /// units, and only of cells that `simulate` says must simulate; a unit
    /// holds no two cells of one fingerprint, and its members' tables
    /// ([`crate::backend::table_bytes`]) stay within
    /// [`crate::backend::UNIT_TABLE_BUDGET`]. While there are fewer items
    /// than workers, the largest unit splits in two. A unit takes the
    /// place in `order` of its first member.
    fn plan_units(
        &self,
        spec: &SweepSpec,
        kinds: &[Cow<'_, PredictorKind>],
        order: &[usize],
        fingerprints: &[Fingerprint],
        simulate: impl Fn(usize) -> bool,
    ) -> (Vec<usize>, Vec<Range<usize>>) {
        let n = order.len();
        // Each cell's unit, and per unit its first cell in `order`, its
        // member count and the bytes its members hold: one list for the
        // whole plan, so planning allocates nothing per unit.
        let mut unit_of = vec![usize::MAX; n];
        let mut units: Vec<(usize, usize, usize)> = Vec::with_capacity(n);
        if spec.sim.backend.resolve() == BackendKind::Batch {
            let kind = |index: usize| &*kinds[spec.job(index).predictor];
            for &index in order.iter().filter(|&&index| simulate(index)) {
                let bytes = crate::backend::table_bytes(kind(index));
                let joins = (0..units.len()).find(|&u| {
                    let (first, _, held) = units[u];
                    spec.job(first).workload == spec.job(index).workload
                        && crate::backend::shares_stage(kind(first), kind(index))
                        && held + bytes <= crate::backend::UNIT_TABLE_BUDGET
                        && (fingerprints.is_empty()
                            || unit_members(order, &unit_of, u)
                                .all(|c| fingerprints[c] != fingerprints[index]))
                });
                let u = joins.unwrap_or_else(|| {
                    units.push((index, 0, 0));
                    units.len() - 1
                });
                unit_of[index] = u;
                units[u].1 += 1;
                units[u].2 += bytes;
            }
            // While there are fewer items than workers, the largest unit
            // hands its later half to a unit of its own.
            let items = |units: &[(usize, usize, usize)]| {
                n - units.iter().map(|&(_, count, _)| count).sum::<usize>() + units.len()
            };
            while items(&units) < self.workers {
                let Some(u) = (0..units.len()).max_by_key(|&u| units[u].1) else { break };
                let count = units[u].1;
                if count < 2 {
                    break;
                }
                let (half, new) = (count / 2, units.len());
                let mut seen = 0;
                let mut tail = usize::MAX;
                for &index in order {
                    if unit_of[index] == u {
                        if seen >= half {
                            unit_of[index] = new;
                            if tail == usize::MAX {
                                tail = index;
                            }
                        }
                        seen += 1;
                    }
                }
                units.push((tail, count - half, 0));
                units[u].1 = half;
            }
        }
        let mut cells = Vec::with_capacity(n);
        let mut items = Vec::with_capacity(n);
        for &index in order {
            let start = cells.len();
            match unit_of[index] {
                u if u == usize::MAX || units[u].1 == 1 => cells.push(index),
                u if units[u].0 == index => {
                    cells.extend(order.iter().copied().filter(|&c| unit_of[c] == u));
                }
                _ => continue,
            }
            items.push(start..cells.len());
        }
        (cells, items)
    }

    /// Persists a freshly simulated cell with its own bounded retry,
    /// returning the published cell's content digest on success.
    /// Ultimately best-effort: the in-memory result stands even if the
    /// store never accepts the write (the journal then records the cell
    /// without a digest, and verify-resume will re-run it).
    fn write_back(
        &self,
        store: &MemoStore,
        fp: Fingerprint,
        result: &SimResult,
        wall: Duration,
        trace_len: u64,
    ) -> Option<Fingerprint> {
        let mut attempt = 0u32;
        loop {
            match store.store_result(fp, result, wall, trace_len) {
                Ok(digest) => return Some(digest),
                Err(_) if attempt < self.max_retries => {
                    std::thread::sleep(backoff_delay(attempt));
                    attempt += 1;
                }
                Err(_) => return None,
            }
        }
    }

    /// Aggregates the campaign's provenance streams from disk into a
    /// [`ProvSummary`] (`None` when provenance is off). Reading back
    /// from the store — rather than from this run's recorders — is what
    /// lets a fully warm campaign rebuild the summary without simulating.
    fn prov_summary(&self, fingerprints: &[Fingerprint]) -> Option<ProvSummary> {
        self.prov?;
        let store = self.store.as_ref()?;
        let mut summary = ProvSummary {
            dir: store.root().join(crate::store::ObjectKind::Prov.dir()).display().to_string(),
            ..ProvSummary::default()
        };
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        for &fp in fingerprints {
            if !seen.insert(fp) {
                continue;
            }
            let Ok(Some(stream)) = store.load_prov(fp) else { continue };
            summary.streams += 1;
            summary.branches += stream.branches;
            summary.mispredicts += stream.mispredicts;
            summary.sampled += stream.sampled;
            for p in &stream.profiles {
                let hotter = p.mispredicts > summary.hottest_mispredicts
                    || (p.mispredicts == summary.hottest_mispredicts
                        && p.mispredicts > 0
                        && summary.hottest_pc.is_none_or(|h| p.pc < h));
                if hotter {
                    summary.hottest_pc = Some(p.pc);
                    summary.hottest_mispredicts = p.mispredicts;
                }
            }
        }
        Some(summary)
    }

    /// An all-zero stand-in result for a failed cell, carrying the
    /// correct labels so report tables still render the grid shape.
    /// `pub(crate)` because the serve client rebuilds reports from
    /// streamed cells and needs the identical placeholder shape.
    pub(crate) fn placeholder_record(spec: &SweepSpec, index: usize) -> JobRecord {
        let job = spec.job(index);
        JobRecord {
            job,
            result: SimResult {
                label: spec.predictors[job.predictor].label(),
                workload: spec.workloads[job.workload].name().to_string(),
                instructions: 0,
                conditional_branches: 0,
                mispredictions: 0,
                provider_counts: FastHashMap::default(),
                per_branch_mispredicts: None,
                per_branch_executions: None,
                llbp: None,
            },
            stats: JobStats { wall: Duration::ZERO, branches: 0 },
        }
    }

    /// The order in which workers claim grid cells, and which cells the
    /// run expects the store to serve (`memoized[index]`).
    ///
    /// The order is longest-job-first. Memoized cells are near-free and
    /// scheduled last. Every other cell of a warm run is assumed expensive
    /// and scheduled first. A `--cold` run, which simulates every cell,
    /// orders its cells by the store's recorded wall times instead; cells
    /// never simulated under this format version count as expensive. Each
    /// cell thus costs one store probe. Ties keep grid order, so a
    /// store-less engine degrades to exactly the workload-major order
    /// (which maximizes trace-cache locality). Recorded walls interleave
    /// workloads instead (a `--cold` run over a store that has run the
    /// grid before), and then each trace stays in the run's cache until
    /// its last cell in this order, not its workload's last grid cell.
    fn schedule(&self, n: usize, fingerprints: &[Fingerprint]) -> (Vec<usize>, Vec<bool>) {
        let Some(store) = &self.store else {
            return ((0..n).collect(), vec![false; n]);
        };
        let memoized: Vec<bool> =
            fingerprints.iter().map(|&fp| !self.cold && store.has_result(fp)).collect();
        let mut keyed: Vec<(std::cmp::Reverse<u64>, usize)> = (0..n)
            .map(|i| {
                let cost = if memoized[i] {
                    0
                } else if self.cold {
                    store
                        .recorded_cost(fingerprints[i])
                        .map_or(u64::MAX, |wall| u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX))
                } else {
                    u64::MAX
                };
                (std::cmp::Reverse(cost), i)
            })
            .collect();
        keyed.sort_unstable();
        (keyed.into_iter().map(|(_, i)| i).collect(), memoized)
    }
}

/// A run's trace-cache keys, formatted once per workload, and the count
/// of each distinct key's cells that the run expects to simulate and that
/// have not finished yet. Counting by key rather than by workload index
/// means a spec listed twice in one grid is generated once and released
/// once. Memoized cells do not count: a memo hit never reads the trace,
/// so a partially warm run releases each trace after its last simulated
/// cell instead of holding it for the memo hits claimed after it.
struct TraceKeys {
    /// Each workload's index into `keys`.
    slot: Vec<usize>,
    /// One key per distinct spec.
    keys: Vec<Arc<str>>,
    /// Unfinished cells expected to simulate, per key.
    unfinished: Vec<AtomicUsize>,
}

impl TraceKeys {
    /// The keys of `spec`'s workloads, no cell counted yet. Every key is
    /// formatted into one buffer, and each distinct one copied out once.
    fn new(spec: &SweepSpec) -> Self {
        let mut keys: Vec<Arc<str>> = Vec::with_capacity(spec.workloads.len());
        let mut text = String::new();
        let slot = spec
            .workloads
            .iter()
            .map(|workload| {
                TraceCache::format_key(workload, &mut text);
                keys.iter().position(|k| **k == *text).unwrap_or_else(|| {
                    keys.push(text.as_str().into());
                    keys.len() - 1
                })
            })
            .collect();
        Self { slot, keys, unfinished: Vec::new() }
    }

    /// Counts the cells of a grid with `predictors` predictors per
    /// workload that the schedule expects to simulate: those not
    /// `memoized`.
    fn count_simulations(&mut self, predictors: usize, memoized: &[bool]) {
        let mut counts = vec![0; self.keys.len()];
        for (index, &hit) in memoized.iter().enumerate() {
            if !hit {
                counts[self.slot[index / predictors]] += 1;
            }
        }
        self.unfinished = counts.into_iter().map(AtomicUsize::new).collect();
    }

    /// The cache key of `workload`'s trace.
    fn key(&self, workload: usize) -> &Arc<str> {
        &self.keys[self.slot[workload]]
    }

    /// Notes one finished cell of `workload`, whatever its outcome,
    /// counting it when it was `expected` to simulate; `true` when no
    /// expected cell of its key is left. A memoized cell whose probe
    /// missed loaded the trace itself, so its caller releases the trace
    /// after it on the same rule.
    fn finish(&self, workload: usize, expected: bool) -> bool {
        // Release publishes this cell's use of the trace; the acquire half
        // lets the cell that reaches zero see every other cell's before it
        // drops the trace.
        let unfinished = &self.unfinished[self.slot[workload]];
        if expected {
            unfinished.fetch_sub(1, Ordering::AcqRel) == 1
        } else {
            unfinished.load(Ordering::Acquire) == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::Workload;

    fn small_spec() -> SweepSpec {
        SweepSpec::new(
            vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(2)],
            vec![
                WorkloadSpec::named(Workload::Http).with_branches(2_000),
                WorkloadSpec::named(Workload::Kafka).with_branches(2_000),
                WorkloadSpec::named(Workload::Tpcc).with_branches(2_000),
            ],
            SimConfig::default(),
        )
    }

    /// The work items `engine` plans for `spec` in grid order, each as
    /// its cells; cells `simulate` rejects run alone.
    fn plan(
        engine: &SweepEngine,
        spec: &SweepSpec,
        simulate: fn(usize) -> bool,
    ) -> Vec<Vec<usize>> {
        let kinds: Vec<_> = spec.predictors.iter().map(PredictorKind::resolve_preset).collect();
        let order: Vec<usize> = (0..spec.num_jobs()).collect();
        let (cells, items) = engine.plan_units(spec, &kinds, &order, &[], simulate);
        items.into_iter().map(|range| cells[range].to_vec()).collect()
    }

    #[test]
    fn units_group_a_traces_cells_by_history_geometry() {
        use llbp_core::LlbpParams;
        let one = SweepEngine::with_workers(1);
        let workloads = vec![
            WorkloadSpec::named(Workload::Http).with_branches(2_000),
            WorkloadSpec::named(Workload::Kafka).with_branches(2_000),
        ];
        let fig09 = SweepSpec::new(
            vec![
                PredictorKind::Tsl64K,
                PredictorKind::Llbp(LlbpParams::default()),
                PredictorKind::Llbp(LlbpParams::zero_latency()),
                PredictorKind::TslScaled(8),
            ],
            workloads.clone(),
            SimConfig::default(),
        );
        let all = |_| true;
        assert_eq!(plan(&one, &fig09, all), [vec![0, 1, 2], vec![3], vec![4, 5, 6], vec![7]]);
        // Cells that need not simulate (memo hits, resumed cells) run alone.
        assert_eq!(
            plan(&one, &fig09, |index| index != 1),
            [vec![0, 2], vec![1], vec![3], vec![4, 5, 6], vec![7]]
        );
        // The reference tier forms no units.
        let reference = SweepSpec {
            sim: SimConfig { backend: BackendKind::Reference, ..SimConfig::default() },
            ..fig09.clone()
        };
        assert!(plan(&one, &reference, all).iter().all(|cells| cells.len() == 1));
        // With fewer items than workers, the largest unit splits.
        let single = SweepSpec { workloads: workloads[..1].to_vec(), ..fig09 };
        assert_eq!(
            plan(&SweepEngine::with_workers(3), &single, all),
            [vec![0], vec![1, 2], vec![3]]
        );
        assert_eq!(plan(&SweepEngine::with_workers(8), &single, all).len(), 4);

        let fig02 = SweepSpec::new(
            vec![PredictorKind::Tsl64K, PredictorKind::InfTage, PredictorKind::InfTsl],
            workloads.clone(),
            SimConfig::default(),
        );
        assert_eq!(plan(&one, &fig02, all), [vec![0, 1], vec![2], vec![3, 4], vec![5]]);

        // A unit's tables stay within the budget: fig14's largest study
        // design (32 MiB of patterns) runs alone.
        let study = SweepSpec::new(
            vec![
                PredictorKind::Tsl64K,
                PredictorKind::Llbp(LlbpParams::study_full_assoc(131_072, 64)),
                PredictorKind::Llbp(LlbpParams::study_full_assoc(1_024, 64)),
            ],
            workloads[..1].to_vec(),
            SimConfig::default(),
        );
        assert!(
            crate::backend::table_bytes(&study.predictors[1]) > crate::backend::UNIT_TABLE_BUDGET
        );
        assert_eq!(plan(&one, &study, all), [vec![0, 2], vec![1]]);
    }

    #[test]
    fn run_indexed_preserves_index_order() {
        for workers in [1, 2, 5, 64] {
            let out = run_indexed(workers, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn run_indexed_handles_empty_input() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn grid_fingerprints_hash_what_result_fingerprint_hashes() {
        let dir = std::env::temp_dir().join(format!("llbp-engine-gridfp-{}", std::process::id()));
        let store = MemoStore::open(&dir).expect("scratch store");
        // The first workload listed again: its cells share one key.
        let mut spec = small_spec();
        spec.workloads.push(spec.workloads[0].clone());
        for sim in
            [SimConfig::default(), SimConfig { track_per_branch: true, ..SimConfig::default() }]
        {
            spec.sim = sim;
            let fps = grid_fingerprints(&spec, &store);
            assert_eq!(fps.len(), spec.num_jobs());
            for (index, fp) in fps.iter().enumerate() {
                let job = spec.job(index);
                let want = store.result_fingerprint(
                    &spec.predictors[job.predictor],
                    &spec.workloads[job.workload],
                    &spec.sim,
                );
                assert_eq!(*fp, want, "cell {index}");
            }
            let p = spec.predictors.len();
            assert_eq!(fps[..p], fps[fps.len() - p..], "a repeated spec addresses the same cells");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn grid_order_is_workload_major() {
        let spec = small_spec();
        let report = SweepEngine::with_workers(1).run(&spec);
        assert_eq!(report.jobs.len(), 6);
        for (i, rec) in report.jobs.iter().enumerate() {
            assert_eq!(rec.job.workload, i / 2);
            assert_eq!(rec.job.predictor, i % 2);
            assert_eq!(rec.result.workload, spec.workloads[rec.job.workload].name());
            assert_eq!(rec.result.label, spec.predictors[rec.job.predictor].label());
        }
    }

    #[test]
    fn traces_are_generated_once_per_workload() {
        let spec = small_spec();
        let report = SweepEngine::with_workers(2).run(&spec);
        assert_eq!(report.cache_misses, 3);
        assert_eq!(report.cache_hits, 3);
        assert!(report.trace_bytes > 0);
    }

    #[test]
    fn job_stats_are_populated() {
        let spec = small_spec();
        let report = SweepEngine::with_workers(1).run(&spec);
        for rec in &report.jobs {
            assert_eq!(rec.stats.branches, 2_000);
            assert!(rec.stats.branches_per_sec() > 0.0);
        }
        assert_eq!(report.total_branches(), 12_000);
        assert!(report.branches_per_sec() > 0.0);
    }

    #[test]
    fn throughput_json_is_wellformed() {
        let spec = small_spec();
        let report = SweepEngine::with_workers(1).run(&spec);
        let line = report.throughput_json("unit \"test\"");
        assert!(line.starts_with("{\"event\":\"sweep_throughput\""));
        assert!(line.ends_with('}'));
        assert!(line.contains("\"jobs\":6"));
        let kernel = format!("\"kernel\":\"{}\",", Kernel::detect().name());
        assert!(line.contains(&kernel), "{line}");
        // Quotes in the label must not break the JSON.
        assert!(!line.contains("unit \"test\""));
        // Provenance off: no trace of the subsystem in the record.
        assert!(report.prov.is_none());
        assert!(!line.contains("\"prov\""));
    }

    #[test]
    fn cell_wall_percentiles_are_exact_nearest_rank() {
        let spec = small_spec();
        let mut report = SweepEngine::with_workers(1).run(&spec);
        // Walls 20..=1 ms: grid order is the reverse of rank order.
        report.jobs = (1..=20u64)
            .rev()
            .map(|ms| JobRecord {
                stats: JobStats { wall: Duration::from_millis(ms), branches: 1 },
                ..SweepEngine::placeholder_record(&spec, 0)
            })
            .collect();
        let line = report.throughput_json("walls");
        assert!(line.contains("\"cell_wall_p50_ms\":10.000,"), "{line}");
        assert!(line.contains("\"cell_wall_p95_ms\":19.000,"), "{line}");
        assert!(line.contains("\"cell_wall_max_ms\":20.000"), "{line}");
        // A failed cell's placeholder never counts, however long its wall.
        report.jobs[0].stats.wall = Duration::from_secs(60);
        report.failed.push(JobError {
            job: report.jobs[0].job,
            index: 0,
            predictor: "p".into(),
            workload: "w".into(),
            attempts: 1,
            error: SimError::Injected { detail: "test".into() },
        });
        let line = report.throughput_json("walls");
        assert!(line.contains("\"cell_wall_max_ms\":19.000"), "{line}");
        // No surviving cell: every percentile reads zero.
        report.jobs.truncate(1);
        assert!(report.throughput_json("walls").contains("\"cell_wall_max_ms\":0.000"));
    }

    #[test]
    fn observed_runs_report_each_cell_once_as_the_journal_records_it() {
        let dir = std::env::temp_dir().join(format!("llbp-engine-observe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(MemoStore::open(&dir).expect("scratch store"));
        let spec = small_spec();
        let faults = Arc::new(FaultInjector::parse("panic:cell=1").expect("spec parses"));
        let engine = SweepEngine::with_workers(2)
            .retries(0)
            .with_store(Arc::clone(&store))
            .with_faults(faults);
        let seen = Mutex::new(Vec::new());
        let report = engine
            .try_run_observed(&spec, &|index, outcome| {
                seen.lock().expect("observer lock").push((index, outcome.clone()));
            })
            .expect("campaign runs");
        assert_eq!(report.failed.len(), 1, "cell 1 fails without retries");

        let mut seen = seen.into_inner().expect("observer lock");
        seen.sort_by_key(|&(index, _)| index);
        let indices: Vec<usize> = seen.iter().map(|&(index, _)| index).collect();
        assert_eq!(indices, (0..spec.num_jobs()).collect::<Vec<_>>(), "each cell exactly once");
        let campaign = campaign_fingerprint(&grid_fingerprints(&spec, &store));
        let journal = crate::journal::read_outcomes(&dir.join(format!("{campaign}.journal")));
        for (index, outcome) in &seen {
            assert_eq!(journal.get(index), Some(outcome), "cell {index} as journaled");
        }
        assert_eq!(seen[1].1, CellOutcome::Failed { class: "injected".into() });
        assert!(matches!(seen[0].1, CellOutcome::Ok { digest: Some(_), .. }));

        // Without a store an outcome has no stored result to name.
        let err = SweepEngine::with_workers(1)
            .try_run_observed(&spec, &|_, _| {})
            .expect_err("storeless observed runs are rejected");
        assert_eq!(err.class(), "config");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prov_config_from_env_validates_knobs() {
        // Unset knobs: crate defaults.
        std::env::remove_var(PROV_SAMPLE_ENV);
        std::env::remove_var(PROV_RING_ENV);
        assert_eq!(prov_config_from_env().expect("defaults"), ProvConfig::default());
        // Set knobs parse; garbage is a typed config error (exit 2), not
        // a silent fallback.
        std::env::set_var(PROV_SAMPLE_ENV, "16");
        std::env::set_var(PROV_RING_ENV, "512");
        assert_eq!(prov_config_from_env().expect("parses"), ProvConfig { sample: 16, ring: 512 });
        std::env::set_var(PROV_SAMPLE_ENV, "every-other");
        let err = prov_config_from_env().expect_err("garbage must fail");
        assert_eq!(err.class(), "config");
        assert_eq!(err.exit_code(), 2);
        std::env::remove_var(PROV_SAMPLE_ENV);
        std::env::remove_var(PROV_RING_ENV);
    }

    #[test]
    fn prov_requires_a_store() {
        let err = SweepEngine::with_workers(1)
            .with_prov(ProvConfig::default())
            .try_run(&small_spec())
            .expect_err("storeless prov must be rejected");
        assert_eq!(err.class(), "config");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn prov_campaign_persists_streams_and_summarizes_warm_runs() {
        let dir = std::env::temp_dir().join(format!("llbp-engine-prov-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(crate::memo::MemoStore::open(&dir).expect("scratch store"));
        let spec = small_spec();
        let engine = SweepEngine::with_workers(2)
            .with_store(Arc::clone(&store))
            .with_prov(ProvConfig { sample: 8, ring: 1024 });

        let cold = engine.run(&spec);
        assert!(cold.is_complete());
        assert_eq!(cold.memo_misses, 6, "every cell simulates on a cold store");
        let summary = cold.prov.as_ref().expect("prov summary present");
        assert_eq!(summary.streams, 6, "one stream per distinct cell");
        assert!(summary.branches > 0);
        assert!(summary.mispredicts > 0, "synthetic workloads always mispredict somewhere");
        let hottest = summary.hottest_pc.expect("a hottest branch exists");
        assert!(summary.hottest_mispredicts > 0);
        let line = cold.throughput_json("prov unit");
        assert!(line.contains("\"prov\":{\"streams\":6"));

        // Warm: every cell (and its stream) is served from disk; the
        // summary regenerates from the persisted streams byte-for-byte.
        let warm = engine.run(&spec);
        assert_eq!(warm.memo_hits, 6, "warm prov campaign must not re-simulate");
        assert_eq!(warm.memo_misses, 0);
        let warm_summary = warm.prov.as_ref().expect("warm summary present");
        assert_eq!(warm_summary.streams, 6);
        assert_eq!(warm_summary.branches, summary.branches);
        assert_eq!(warm_summary.mispredicts, summary.mispredicts);
        assert_eq!(warm_summary.sampled, summary.sampled);
        assert_eq!(warm_summary.hottest_pc, Some(hottest));

        // A memoized cell whose stream vanished re-simulates to backfill
        // it instead of reporting a hole.
        let fp = store.result_fingerprint(&spec.predictors[0], &spec.workloads[0], &spec.sim);
        std::fs::remove_file(store.prov_path(fp)).expect("stream exists on disk");
        let backfill = engine.run(&spec);
        assert_eq!(backfill.memo_misses, 1, "only the streamless cell re-simulates");
        assert_eq!(backfill.prov.as_ref().expect("summary").streams, 6);
        assert!(store.has_prov(fp), "stream backfilled");

        // The same engine without prov serves every cell warm and emits
        // nothing prov-shaped.
        let off = SweepEngine::with_workers(2).with_store(Arc::clone(&store)).run(&spec);
        assert_eq!(off.memo_hits, 6);
        assert!(off.prov.is_none());
        let _ = std::fs::remove_dir_all(dir);
    }
}
