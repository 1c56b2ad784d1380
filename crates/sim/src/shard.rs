//! Sharded execution for the sweep daemon: lease-claimed cells,
//! per-worker shard journals, and the merged campaign journal.
//!
//! The `llbp-serve` daemon (DESIGN.md §12) runs each campaign on several
//! worker threads over one [`SweepSpec`] grid. There is no work queue:
//! coordination is files under the cache root. Each worker walks the
//! grid in order and, per cell, tries to claim the cell's lease (see
//! [`crate::lease`]); a claimed cell is probed against the memo store,
//! simulated on a miss, published, and journaled to the worker's own
//! shard journal `<campaign>.w<id>.journal`. Cells someone else holds
//! are skipped — the lease *is* the shard assignment, so the split
//! adapts to worker speed instead of being fixed up front.
//!
//! # Crash recovery
//!
//! A daemon that dies mid-cell leaves a lease stamped with a dead
//! process (or, eventually, an expired deadline). The daemon's reconcile
//! loop runs [`run_shard`] again until every cell is published or
//! deterministically failed: stale leases are stolen via the same
//! PID-reuse-hardened takeover as the campaign lock, and unpublished
//! cells re-run. A restarted daemon on the same root does the same for
//! its predecessor's leases. The memo store is the source of truth
//! throughout — a journal entry is a claim about the store, never a
//! substitute for it (the same philosophy as single-process resume).
//!
//! # Determinism
//!
//! Cells are pure functions of `(predictor, workload spec, sim config)`
//! and results roundtrip the store bit-exactly, so a sharded campaign —
//! journals folded with [`merge_outcomes`](crate::journal::merge_outcomes),
//! cells read back in grid order — is byte-identical to a
//! single-process run of the same grid, regardless of how the workers
//! raced. The daemon chaos smoke in `scripts/tier1.sh` diffs exactly
//! that.

use crate::cache::TraceCache;
use crate::engine::SweepSpec;
use crate::error::{backoff_delay, panic_message, CancelToken, SimError};
use crate::faultinject::FaultInjector;
use crate::journal::{campaign_fingerprint, outcome_line, read_outcomes, CellOutcome};
use crate::lease::{lease_ttl_from_env, LeaseSet};
use crate::memo::MemoStore;
use llbp_trace::fingerprint::Fingerprint;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Environment variable injecting a worker crash: `"<worker>:<nth>"`
/// aborts worker `<worker>` after it claims its `<nth>` lease (1-based),
/// while still holding it — the chaos smoke's dead-holder scenario. In
/// the daemon, worker ids are thread indices and the abort takes down the
/// whole process.
pub const WORKER_ABORT_ENV: &str = "LLBP_WORKER_ABORT";

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> SimError {
    move |e| SimError::MemoIo { op, detail: e.to_string() }
}

/// The shard journal path for `worker` — `<campaign>.w<worker>.journal`,
/// next to the single-process journal `<campaign>.journal` it feeds.
#[must_use]
pub fn worker_journal_path(root: &Path, campaign: Fingerprint, worker: u32) -> PathBuf {
    root.join(format!("{campaign}.w{worker}.journal"))
}

/// Reads every shard journal of `campaign` under `root` (any worker id),
/// in deterministic path order. Missing directories read as empty.
#[must_use]
pub fn read_worker_journals(
    root: &Path,
    campaign: Fingerprint,
) -> Vec<HashMap<usize, CellOutcome>> {
    let prefix = format!("{campaign}.w");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.extension().is_some_and(|ext| ext == "journal")
                && path.file_name().is_some_and(|name| name.to_string_lossy().starts_with(&prefix))
        })
        .collect();
    paths.sort();
    paths.iter().map(|path| read_outcomes(path)).collect()
}

/// Writes the merged campaign journal (`<campaign>.journal`) from folded
/// shard outcomes, entries sorted by cell index — the canonical artifact
/// a later single-process `--resume` run picks up. Durable:
/// write-to-temp, fsync, rename, fsync the directory. Without the final
/// directory sync the rename itself is not durable — a crash right
/// after it could resurface the *old* journal (safe) or, on some
/// filesystems, a zero-length one (torn), violating the fsynced-journal
/// guarantee. The `crash:merge` fault rule aborts the process between
/// the temp-file fsync and the rename, which is exactly the window the
/// recipe protects: recovery must find either the old journal or none,
/// never a partial one.
///
/// # Errors
///
/// [`SimError::MemoIo`] on filesystem failures.
pub fn write_merged_journal(
    root: &Path,
    campaign: Fingerprint,
    outcomes: &HashMap<usize, CellOutcome>,
    faults: Option<&FaultInjector>,
) -> Result<PathBuf, SimError> {
    let path = root.join(format!("{campaign}.journal"));
    let mut cells: Vec<&usize> = outcomes.keys().collect();
    cells.sort_unstable();
    let mut text = String::new();
    for &cell in cells {
        text.push_str(&outcome_line(cell, &outcomes[&cell]));
    }
    let tmp = path.with_extension("journal.merge-tmp");
    let err = io_err("merge_journal");
    let mut file = File::create(&tmp).map_err(&err)?;
    file.write_all(text.as_bytes()).and_then(|()| file.sync_all()).map_err(&err)?;
    drop(file);
    if faults.is_some_and(|f| f.check_crash(crate::faultinject::CrashSite::MergePublish)) {
        eprintln!("llbp-serve: aborting before merged-journal rename (injected crash:merge)");
        std::process::abort();
    }
    std::fs::rename(&tmp, &path).map_err(&err)?;
    File::open(root).and_then(|dir| dir.sync_all()).map_err(&err)?;
    Ok(path)
}

/// One worker's shard journal: append-only and fsynced like the campaign
/// journal, but lock-free — the worker id in the filename is the
/// exclusion (each worker appends only to its own shard).
#[derive(Debug)]
pub struct WorkerJournal {
    file: File,
}

impl WorkerJournal {
    /// Opens (appending) the shard journal for `worker`.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] when the file cannot be opened.
    pub fn open(root: &Path, campaign: Fingerprint, worker: u32) -> Result<Self, SimError> {
        std::fs::create_dir_all(root).map_err(io_err("open_shard_journal"))?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(worker_journal_path(root, campaign, worker))
            .map_err(io_err("open_shard_journal"))?;
        Ok(Self { file })
    }

    /// Appends one outcome (best-effort, like the campaign journal: a
    /// journal IO failure never fails the cell it describes).
    pub fn record(&mut self, cell: usize, outcome: &CellOutcome) {
        let _ = self.file.write_all(outcome_line(cell, outcome).as_bytes());
        let _ = self.file.sync_all();
    }
}

/// How one shard pass should run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// This worker's id (names the shard journal; the daemon's reconcile
    /// loop uses the next id after the workers).
    pub worker: u32,
    /// Abort the process after claiming this many leases (1-based count;
    /// `None` = never). Set from [`WORKER_ABORT_ENV`] to stage a crash
    /// while holding a lease.
    pub abort_after_claims: Option<u32>,
    /// Per-cell transient-failure retry budget.
    pub max_retries: u32,
}

impl ShardConfig {
    /// The config for `worker`: retries from `LLBP_MAX_RETRIES` and the
    /// staged crash (if any) from [`WORKER_ABORT_ENV`].
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when `LLBP_MAX_RETRIES` is set but
    /// unparsable.
    pub fn from_env(worker: u32) -> Result<Self, SimError> {
        let max_retries = crate::engine::retries_from_env()?;
        Ok(Self { worker, abort_after_claims: Self::abort_from_env(worker), max_retries })
    }

    /// Parses [`WORKER_ABORT_ENV`] (`"<worker>:<nth>"`) for this worker.
    fn abort_from_env(worker: u32) -> Option<u32> {
        let spec = std::env::var(WORKER_ABORT_ENV).ok()?;
        let (id, nth) = spec.trim().split_once(':')?;
        (id.trim().parse::<u32>().ok()? == worker).then(|| nth.trim().parse().ok())?
    }
}

/// What one shard pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSummary {
    /// Leases claimed (including memo-served and failed cells).
    pub claimed: u64,
    /// Cells simulated and published.
    pub completed: u64,
    /// Claimed cells already present in the memo store.
    pub memo_served: u64,
    /// Cells that exhausted retries (journaled `failed`).
    pub failed: u64,
    /// Cells whose lease was lost mid-run (result discarded; the new
    /// holder re-runs them).
    pub lost: u64,
    /// Cells skipped because another live worker held the lease.
    pub skipped: u64,
    /// Stale leases stolen (dead or wedged holders taken over).
    pub takeovers: u64,
}

/// Daemon-global exactly-once gate over *cell fingerprints*, the
/// cross-campaign complement to leases (which are namespaced per
/// campaign and so cannot see that two different grids share a cell).
///
/// The serve scheduler holds the cell's slot from just before the memo
/// probe until just after publish: when two concurrent campaigns reach
/// a shared cell, the second blocks here, and by the time it gets the
/// slot the first has published — its probe turns into a memo hit. One
/// simulation, two campaigns served.
#[derive(Debug, Default)]
pub struct CellInterlock {
    running: std::sync::Mutex<std::collections::HashSet<u128>>,
    freed: std::sync::Condvar,
}

impl CellInterlock {
    /// An empty interlock (no cells in flight).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until no other holder is computing `fp`, then claims it.
    /// The returned guard releases the slot (and wakes waiters) on drop.
    pub fn acquire(&self, fp: Fingerprint) -> InterlockGuard<'_> {
        let mut running = self.running.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut contended = false;
        while running.contains(&fp.0) {
            contended = true;
            running = self.freed.wait(running).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        running.insert(fp.0);
        InterlockGuard { lock: self, fp: fp.0, contended }
    }
}

/// Slot held by [`CellInterlock::acquire`]; releases on drop.
#[derive(Debug)]
pub struct InterlockGuard<'a> {
    lock: &'a CellInterlock,
    fp: u128,
    contended: bool,
}

impl InterlockGuard<'_> {
    /// Whether acquiring had to wait for another holder — i.e. another
    /// campaign was computing this very cell.
    #[must_use]
    pub fn contended(&self) -> bool {
        self.contended
    }
}

impl Drop for InterlockGuard<'_> {
    fn drop(&mut self) {
        let mut running =
            self.lock.running.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        running.remove(&self.fp);
        self.lock.freed.notify_all();
    }
}

/// A per-cell completion callback (see [`ShardHooks::observer`]).
pub type CellObserver<'a> = &'a (dyn Fn(usize, &CellOutcome) + Sync);

/// Optional instrumentation for a shard pass ([`run_shard`]).
#[derive(Default)]
pub struct ShardHooks<'a> {
    /// Cross-campaign exactly-once gate; see [`CellInterlock`].
    pub interlock: Option<&'a CellInterlock>,
    /// Called after each cell outcome is journaled — the serve daemon
    /// streams cells to waiting clients as they complete instead of
    /// making them poll the journal files.
    pub observer: Option<CellObserver<'a>>,
}

impl std::fmt::Debug for ShardHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHooks")
            .field("interlock", &self.interlock.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// Runs one shard pass over the whole grid: claim, probe, simulate,
/// publish, journal. Returns what happened; cells other workers hold
/// are skipped, not waited for. The hooks add an optional
/// cross-campaign [`CellInterlock`] and an optional per-cell completion
/// observer; `ShardHooks::default()` runs a plain pass.
///
/// # Errors
///
/// [`SimError::MemoIo`] when the lease directory or shard journal
/// cannot be set up. Per-cell failures are journaled and counted, never
/// returned.
pub fn run_shard(
    spec: &SweepSpec,
    store: &Arc<MemoStore>,
    faults: Option<&Arc<FaultInjector>>,
    cfg: &ShardConfig,
    hooks: &ShardHooks<'_>,
) -> Result<ShardSummary, SimError> {
    let fps = grid_fingerprints(spec, store);
    let campaign = campaign_fingerprint(&fps);
    let leases = LeaseSet::open(store.root(), campaign, lease_ttl_from_env()?)?;
    let mut journal = WorkerJournal::open(store.root(), campaign, cfg.worker)?;
    let cache = TraceCache::with_store(Arc::clone(store), false);
    let mut summary = ShardSummary::default();
    let note = |journal: &mut WorkerJournal, index: usize, outcome: &CellOutcome| {
        journal.record(index, outcome);
        if let Some(observe) = hooks.observer {
            observe(index, outcome);
        }
    };
    for (index, &fp) in fps.iter().enumerate() {
        let Some(lease) = leases.try_claim(index)? else {
            summary.skipped += 1;
            continue;
        };
        summary.claimed += 1;
        if cfg.abort_after_claims == Some(u32::try_from(summary.claimed).unwrap_or(u32::MAX)) {
            // Staged crash: die holding the lease, exactly like a real
            // kill. A restarted daemon's takeover path cleans up.
            eprintln!(
                "llbp-serve: worker {} aborting on claim {} (injected)",
                cfg.worker, summary.claimed
            );
            std::process::abort();
        }
        // Held across probe + simulate + publish so a concurrent
        // campaign sharing this cell waits here and then memo-hits.
        let _slot = hooks.interlock.map(|interlock| interlock.acquire(fp));
        if let Ok(Some(cell)) = store.load_result(fp) {
            note(
                &mut journal,
                index,
                &CellOutcome::Ok { fingerprint: fp, digest: Some(cell.digest) },
            );
            summary.memo_served += 1;
            continue;
        }
        match simulate_cell(spec, index, &cache, cfg.max_retries) {
            Ok((result, wall, branches)) => match lease.check(faults.map(Arc::as_ref)) {
                Ok(()) => {
                    let digest = publish(store, fp, &result, wall, branches, cfg.max_retries);
                    note(&mut journal, index, &CellOutcome::Ok { fingerprint: fp, digest });
                    summary.completed += 1;
                }
                Err(SimError::LeaseLost { .. }) => summary.lost += 1,
                Err(e) => return Err(e),
            },
            Err(error) => {
                note(
                    &mut journal,
                    index,
                    &CellOutcome::Failed { class: error.class().to_string() },
                );
                summary.failed += 1;
            }
        }
    }
    summary.takeovers = leases.takeovers();
    Ok(summary)
}

/// Cell fingerprints in grid order (workload-major, matching
/// [`SweepSpec`]'s job numbering).
#[must_use]
pub fn grid_fingerprints(spec: &SweepSpec, store: &MemoStore) -> Vec<Fingerprint> {
    (0..spec.num_jobs())
        .map(|index| {
            let (workload, predictor) =
                (index / spec.predictors.len(), index % spec.predictors.len());
            store.result_fingerprint(
                &spec.predictors[predictor],
                &spec.workloads[workload],
                &spec.sim,
            )
        })
        .collect()
}

/// Simulates one cell with the engine's isolation semantics: trace
/// generation and the simulation run under `catch_unwind`, transient
/// failures retry with deterministic backoff, deterministic failures
/// fail fast.
fn simulate_cell(
    spec: &SweepSpec,
    index: usize,
    cache: &TraceCache,
    max_retries: u32,
) -> Result<(crate::driver::SimResult, std::time::Duration, u64), SimError> {
    let (workload, predictor) = (index / spec.predictors.len(), index % spec.predictors.len());
    let wspec = &spec.workloads[workload];
    let mut attempt = 0u32;
    loop {
        let outcome: Result<_, SimError> = (|| {
            let token = CancelToken::none();
            let trace = catch_unwind(AssertUnwindSafe(|| {
                cache.get_or_generate_cancellable(wspec, &token, None)
            }))
            .map_err(|payload| SimError::TraceGen {
                workload: wspec.name().to_string(),
                detail: panic_message(payload.as_ref()),
            })??;
            let kind = spec.predictors[predictor].clone();
            let label = kind.label();
            let started = Instant::now();
            let result =
                catch_unwind(AssertUnwindSafe(|| spec.sim.run_cancellable(kind, &trace, &token)))
                    .map_err(|payload| SimError::PredictorPanic {
                        label,
                        detail: panic_message(payload.as_ref()),
                    })??;
            Ok((result, started.elapsed(), trace.len() as u64))
        })();
        match outcome {
            Ok(done) => return Ok(done),
            Err(error) if error.is_transient() && attempt < max_retries => {
                std::thread::sleep(backoff_delay(attempt));
                attempt += 1;
            }
            Err(error) => return Err(error),
        }
    }
}

/// Publishes a cell with bounded retry; best-effort like the engine's
/// write-back (a journal entry without a digest marks the gap).
fn publish(
    store: &MemoStore,
    fp: Fingerprint,
    result: &crate::driver::SimResult,
    wall: std::time::Duration,
    trace_len: u64,
    max_retries: u32,
) -> Option<Fingerprint> {
    let mut attempt = 0u32;
    loop {
        match store.store_result(fp, result, wall, trace_len) {
            Ok(digest) => return Some(digest),
            Err(_) if attempt < max_retries => {
                std::thread::sleep(backoff_delay(attempt));
                attempt += 1;
            }
            Err(_) => return None,
        }
    }
}
