//! Shared harness utilities for the experiment binaries.
//!
//! Every `fig*`/`table*` binary regenerates one table or figure of the
//! paper. All of them accept:
//!
//! * `--quick` — a much shorter trace, for CI smoke runs;
//! * `--branches N` — explicit trace length in branch records;
//! * `--workloads a,b,c` — restrict to a subset of workload names;
//! * `--cold` — bypass the persistent cache (re-simulate everything,
//!   refreshing the stored entries);
//! * `--resume` — skip grid cells the campaign journal records as
//!   completed (picking an interrupted campaign back up);
//! * `--verify-resume` — as `--resume`, but re-hash each journaled-ok
//!   memo cell against its recorded digest first, demoting silently
//!   corrupted cells back to misses;
//! * `--strict` — exit nonzero if any grid cell ultimately failed;
//! * `--backend auto|reference|batch` — which execution backend runs
//!   the hot loop (default: the `LLBP_BACKEND` environment variable,
//!   then `auto` = fastest). Backends are parity-pinned, so this changes
//!   throughput only, never the figures.
//!
//! Results print as markdown tables so they can be pasted straight into
//! `EXPERIMENTS.md`. Traces and per-cell simulation results are memoized
//! under `target/llbp-cache/` (override with `LLBP_CACHE_DIR`), so a
//! re-run of any figure — or a figure sharing grid cells with a previous
//! one — skips generation and simulation for everything already stored.
//! `--server tcp://host:port` runs the whole sweep on an `llbp_serve`
//! daemon instead (DESIGN.md §12).

pub mod figures;

use llbp_obs::{Telemetry, TelemetrySettings};
use llbp_sim::{
    BackendKind, FaultInjector, MemoStore, SimConfig, SweepEngine, SweepReport, TraceCache,
};
use llbp_trace::{Trace, Workload, WorkloadSpec};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Default branch records per workload for full experiment runs.
pub const FULL_BRANCHES: usize = 1_000_000;
/// Branch records per workload under `--quick`.
pub const QUICK_BRANCHES: usize = 150_000;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// Branch records per generated trace.
    pub branches: usize,
    /// The workloads to run.
    pub workloads: Vec<Workload>,
    /// Whether `--quick` was requested.
    pub quick: bool,
    /// Whether `--cold` was requested (ignore persisted cache entries).
    pub cold: bool,
    /// Whether `--resume` was requested (trust the campaign journal and
    /// skip cells it records as completed).
    pub resume: bool,
    /// Whether `--verify-resume` was requested (resume, but re-hash each
    /// journaled-ok memo cell against its recorded digest first, re-running
    /// any that fail verification). Implies `resume`.
    pub verify_resume: bool,
    /// Whether `--strict` was requested (exit nonzero if any grid cell
    /// ultimately failed).
    pub strict: bool,
    /// Where to write the Chrome trace-event JSON (`--trace-events`).
    /// Setting it enables telemetry collection.
    pub trace_events: Option<String>,
    /// Where to write the Prometheus metrics snapshot (`--metrics-out`).
    /// Setting it enables telemetry collection.
    pub metrics_out: Option<String>,
    /// Execution backend for the simulation hot loop (`--backend`,
    /// falling back to `LLBP_BACKEND`, then `auto`). Parity-pinned: a
    /// pure throughput choice that never changes figure output.
    pub backend: BackendKind,
    /// Route sweeps to a resident `llbp-serve` daemon
    /// (`--server tcp://host:port`) instead of simulating in-process.
    /// Stdout is byte-identical either way — the daemon streams back
    /// the exact cells a local run would compute (DESIGN.md §12).
    pub server: Option<String>,
    /// Whether `--prov` was requested: record per-branch prediction
    /// provenance for every simulated cell, persist the streams next to
    /// the memo cells (for `prov_tool`), and append a `"prov"` section
    /// to the throughput record. Off by default; off leaves every output
    /// byte identical to a build without the subsystem (DESIGN.md §13).
    pub prov: bool,
}

impl Opts {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments (these are
    /// developer-facing binaries).
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = Self {
            branches: FULL_BRANCHES,
            workloads: Workload::ALL.to_vec(),
            quick: false,
            cold: false,
            resume: false,
            verify_resume: false,
            strict: false,
            trace_events: None,
            metrics_out: None,
            backend: BackendKind::from_env().unwrap_or_else(|msg| usage(&msg)),
            server: None,
            prov: false,
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => {
                    opts.quick = true;
                    opts.branches = QUICK_BRANCHES;
                }
                "--cold" => opts.cold = true,
                "--resume" => opts.resume = true,
                "--verify-resume" => {
                    opts.resume = true;
                    opts.verify_resume = true;
                }
                "--strict" => opts.strict = true,
                "--branches" => {
                    let v = iter.next().unwrap_or_else(|| usage("missing value for --branches"));
                    opts.branches =
                        v.parse().unwrap_or_else(|_| usage(&format!("bad --branches: {v}")));
                }
                "--workloads" => {
                    let v = iter.next().unwrap_or_else(|| usage("missing value for --workloads"));
                    opts.workloads = v
                        .split(',')
                        .map(|s| s.trim().parse::<Workload>().unwrap_or_else(|e| usage(&e)))
                        .collect();
                }
                "--trace-events" => {
                    let v =
                        iter.next().unwrap_or_else(|| usage("missing value for --trace-events"));
                    opts.trace_events = Some(v);
                }
                "--metrics-out" => {
                    let v = iter.next().unwrap_or_else(|| usage("missing value for --metrics-out"));
                    opts.metrics_out = Some(v);
                }
                "--backend" => {
                    let v = iter.next().unwrap_or_else(|| usage("missing value for --backend"));
                    opts.backend = v.parse::<BackendKind>().unwrap_or_else(|e| usage(&e));
                }
                "--server" => {
                    let v = iter.next().unwrap_or_else(|| usage("missing value for --server"));
                    opts.server = Some(v);
                }
                "--prov" => opts.prov = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument: {other}")),
            }
        }
        if opts.prov && opts.server.is_some() {
            // The serve protocol streams result cells only; provenance
            // streams stay on the daemon's disk where prov_tool can't
            // see them from here. Refuse rather than silently record
            // nothing.
            usage("--prov cannot be combined with --server (run the sweep locally to record)");
        }
        opts
    }

    /// Generates the trace for one workload at the configured length.
    #[must_use]
    pub fn trace(&self, workload: Workload) -> Trace {
        WorkloadSpec::named(workload).with_branches(self.branches).generate()
    }
}

/// The default [`SimConfig`] for these options: everything standard except
/// the execution backend, which honors `--backend` / `LLBP_BACKEND`.
/// Binaries that need probes layer them on with functional update:
/// `SimConfig { track_per_branch: true, ..sim_config(&opts) }`.
#[must_use]
pub fn sim_config(opts: &Opts) -> SimConfig {
    SimConfig::default().with_backend(opts.backend)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--quick] [--cold] [--resume] [--verify-resume] [--strict] [--branches N] \
         [--workloads A,B,C] [--trace-events PATH] [--metrics-out PATH] \
         [--backend auto|reference|batch] [--server tcp://HOST:PORT] [--prov]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// The process-wide fault injector parsed from `LLBP_FAULT_SPEC`, shared
/// by the engine (panic/slow rules) and the memo store (IO rules). A
/// malformed spec is a configuration error and exits with status 2 —
/// silently running fault-free would invalidate a resilience campaign.
pub fn fault_injector() -> Option<Arc<FaultInjector>> {
    static INJECTOR: OnceLock<Option<Arc<FaultInjector>>> = OnceLock::new();
    INJECTOR
        .get_or_init(|| match FaultInjector::from_env() {
            Ok(injector) => injector.map(Arc::new),
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(err.exit_code());
            }
        })
        .clone()
}

/// Resolves the telemetry configuration: `LLBP_TELEMETRY` first, then the
/// CLI flags layered on top (a flag both sets its path and force-enables
/// collection). A malformed env spec exits with status 2, like a bad
/// fault spec: silently dropping telemetry would invalidate an observed
/// campaign.
fn telemetry_settings(opts: &Opts) -> TelemetrySettings {
    let mut settings = match std::env::var(llbp_obs::TELEMETRY_ENV) {
        Ok(spec) => TelemetrySettings::parse(&spec).unwrap_or_else(|msg| {
            eprintln!("error: bad {}: {msg}", llbp_obs::TELEMETRY_ENV);
            std::process::exit(2);
        }),
        Err(_) => TelemetrySettings::default(),
    };
    if let Some(path) = &opts.trace_events {
        settings.trace_events = Some(PathBuf::from(path));
        settings.enabled = true;
    }
    if let Some(path) = &opts.metrics_out {
        settings.metrics_out = Some(PathBuf::from(path));
        settings.enabled = true;
    }
    settings
}

fn telemetry_state(opts: &Opts) -> &'static (Telemetry, TelemetrySettings) {
    static STATE: OnceLock<(Telemetry, TelemetrySettings)> = OnceLock::new();
    STATE.get_or_init(|| {
        let settings = telemetry_settings(opts);
        let tel = if settings.enabled { Telemetry::enabled() } else { Telemetry::disabled() };
        (tel, settings)
    })
}

/// The process-wide telemetry handle, enabled iff `--trace-events` /
/// `--metrics-out` / `LLBP_TELEMETRY` asked for collection. Disabled it
/// is free: every recording call is a null branch.
#[must_use]
pub fn telemetry(opts: &Opts) -> Telemetry {
    telemetry_state(opts).0.clone()
}

/// Writes the trace-event and metrics files the resolved settings ask
/// for. Called by [`emit`]; binaries that never sweep can call it
/// directly. Export failures warn rather than abort — losing a telemetry
/// artifact must not turn a completed campaign red — but drained events
/// are gone either way, so a second call exports only newer events.
pub fn export_telemetry(opts: &Opts) {
    let (tel, settings) = telemetry_state(opts);
    if !tel.is_enabled() {
        return;
    }
    if let Some(path) = &settings.trace_events {
        let events = tel.drain_events();
        if let Err(e) = std::fs::write(path, llbp_obs::export::chrome_trace(&events)) {
            eprintln!("warning: cannot write trace events to {}: {e}", path.display());
        }
    }
    if let Some(path) = &settings.metrics_out {
        if let Err(e) = std::fs::write(path, llbp_obs::export::prometheus(&tel.metrics())) {
            eprintln!("warning: cannot write metrics to {}: {e}", path.display());
        }
    }
}

/// Opens the shared persistent memo store, rooted at `LLBP_CACHE_DIR`
/// (defaulting to `target/llbp-cache/`). Returns `None` — and the
/// binaries degrade to uncached operation — if the directory cannot be
/// created.
#[must_use]
pub fn memo_store(opts: &Opts) -> Option<Arc<MemoStore>> {
    let mut store = MemoStore::open_default().ok()?;
    if let Some(faults) = fault_injector() {
        store.attach_faults(faults);
    }
    store.attach_telemetry(telemetry(opts));
    Some(Arc::new(store))
}

/// The `--server` route the first [`engine`] call latched, if any. A
/// process global (like the injector and telemetry) because the sweep
/// entry points take only `(engine, spec)` and must not change
/// signature for every experiment binary to gain the flag.
fn server_route() -> &'static OnceLock<Option<String>> {
    static ROUTE: OnceLock<Option<String>> = OnceLock::new();
    &ROUTE
}

/// A [`SweepEngine`] wired to the persistent store and the
/// `LLBP_FAULT_SPEC` injector, honoring `--cold` and `--resume`.
/// Also latches the `--server` route for [`run_sweep`].
#[must_use]
pub fn engine(opts: &Opts) -> SweepEngine {
    let _ = server_route().set(opts.server.clone());
    let mut engine = SweepEngine::new().with_telemetry(telemetry(opts));
    if let Some(store) = memo_store(opts) {
        engine = engine.with_store(store);
    }
    if let Some(faults) = fault_injector() {
        engine = engine.with_faults(faults);
    }
    if opts.prov {
        let cfg = llbp_sim::engine::prov_config_from_env().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        });
        engine = engine.with_prov(cfg);
    }
    engine.cold(opts.cold).resume(opts.resume).verify_resume(opts.verify_resume)
}

/// Runs the sweep through the fallible engine entry point, mapping
/// campaign-level contention (another live process holds this grid's
/// journal lock) to a clean diagnostic and exit status 3 — distinct from
/// both argument errors (2) and `--strict` incomplete-grid failures (1),
/// so campaign scripts can retry contended runs specifically.
#[must_use]
pub fn run_sweep(engine: &SweepEngine, spec: &llbp_sim::SweepSpec) -> SweepReport {
    if let Some(addr) = server_route().get().and_then(|route| route.as_deref()) {
        return llbp_sim::serve::client::run_remote_with(addr, spec, fault_injector())
            .unwrap_or_else(|e| campaign_exit(&e));
    }
    engine.try_run(spec).unwrap_or_else(|e| campaign_exit(&e))
}

/// [`run_sweep`] against a caller-provided trace cache (for binaries that
/// reuse the sweep's traces afterwards).
#[must_use]
pub fn run_sweep_with_cache(
    engine: &SweepEngine,
    spec: &llbp_sim::SweepSpec,
    cache: &TraceCache,
) -> SweepReport {
    if let Some(addr) = server_route().get().and_then(|route| route.as_deref()) {
        // The daemon owns its own trace cache; the caller's stays cold
        // and any post-sweep trace reuse regenerates locally.
        return llbp_sim::serve::client::run_remote_with(addr, spec, fault_injector())
            .unwrap_or_else(|e| campaign_exit(&e));
    }
    engine.try_run_with_cache(spec, cache).unwrap_or_else(|e| campaign_exit(&e))
}

/// Maps a campaign-fatal error to its diagnostic and distinct exit
/// status: config errors exit 2, journal contention 3, network failures
/// 4, everything else 1 — so campaign scripts can react to each class
/// specifically (e.g. retry contended runs).
fn campaign_exit(e: &llbp_sim::SimError) -> ! {
    eprintln!("error: {e}");
    if matches!(e, llbp_sim::SimError::CacheContention { .. }) {
        eprintln!("hint: another campaign holds this grid's journal lock; retry when it finishes");
    }
    std::process::exit(e.exit_code());
}

/// Standard epilogue for every sweep binary: archives the throughput
/// record on stderr, reports any ultimately-failed cells, and — under
/// `--strict` — exits nonzero so campaign scripts notice incomplete
/// grids. Call it after printing the figure's tables.
pub fn emit(report: &SweepReport, label: &str, opts: &Opts) {
    eprintln!("{}", report.throughput_json(label));
    for err in &report.failed {
        eprintln!("warning: {err}");
    }
    export_telemetry(opts);
    if opts.strict && !report.is_complete() {
        eprintln!(
            "error: {} of {} cells failed; rerun with --resume to retry only the gaps",
            report.failed.len(),
            report.jobs.len()
        );
        std::process::exit(1);
    }
}

/// A [`TraceCache`] wired to the persistent store, honoring `--cold`.
/// For binaries that analyse traces directly instead of sweeping.
#[must_use]
pub fn trace_cache(opts: &Opts) -> TraceCache {
    match memo_store(opts) {
        Some(store) => TraceCache::with_store(store, opts.cold).with_telemetry(telemetry(opts)),
        None => TraceCache::new(),
    }
}

/// The workload grid of an [`Opts`] as [`WorkloadSpec`]s, for sweeps that
/// go through the engine (`SweepSpec`).
#[must_use]
pub fn workload_specs(opts: &Opts) -> Vec<WorkloadSpec> {
    opts.workloads.iter().map(|&w| WorkloadSpec::named(w).with_branches(opts.branches)).collect()
}

/// Geometric-mean helper over positive percentage reductions expressed as
/// ratios; falls back to the arithmetic mean when any value is
/// non-positive (reductions can legitimately be negative).
#[must_use]
pub fn mean_reduction(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let o = Opts::parse(Vec::<String>::new());
        assert_eq!(o.branches, FULL_BRANCHES);
        assert_eq!(o.workloads.len(), 14);
        assert!(!o.quick);
    }

    #[test]
    fn parse_quick_and_filters() {
        let o =
            Opts::parse(["--quick", "--workloads", "Tomcat,HTTP"].iter().map(ToString::to_string));
        assert!(o.quick);
        assert_eq!(o.branches, QUICK_BRANCHES);
        assert_eq!(o.workloads, vec![Workload::Tomcat, Workload::Http]);
    }

    #[test]
    fn verify_resume_implies_resume() {
        let o = Opts::parse(["--verify-resume"].iter().map(ToString::to_string));
        assert!(o.resume && o.verify_resume);
        let o = Opts::parse(["--resume"].iter().map(ToString::to_string));
        assert!(o.resume && !o.verify_resume);
    }

    #[test]
    fn parse_explicit_branches() {
        let o = Opts::parse(["--branches", "1234"].iter().map(ToString::to_string));
        assert_eq!(o.branches, 1234);
    }

    #[test]
    fn parse_telemetry_flags() {
        let o = Opts::parse(
            ["--trace-events", "/tmp/t.json", "--metrics-out", "/tmp/m.prom"]
                .iter()
                .map(ToString::to_string),
        );
        assert_eq!(o.trace_events.as_deref(), Some("/tmp/t.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("/tmp/m.prom"));
        let o = Opts::parse(Vec::<String>::new());
        assert_eq!(o.trace_events, None);
        assert_eq!(o.metrics_out, None);
    }

    #[test]
    fn telemetry_flags_force_enable_settings() {
        let mut o = Opts::parse(Vec::<String>::new());
        o.trace_events = Some("t.json".into());
        let s = telemetry_settings(&o);
        assert!(s.enabled);
        assert_eq!(s.trace_events.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!(s.metrics_out, None);
    }

    #[test]
    fn parse_backend_flag() {
        let o = Opts::parse(["--backend", "reference"].iter().map(ToString::to_string));
        assert_eq!(o.backend, BackendKind::Reference);
        assert_eq!(sim_config(&o).backend, BackendKind::Reference);
        // Without the flag (and with the env untouched) the default is auto.
        if std::env::var(llbp_sim::BACKEND_ENV).is_err() {
            let o = Opts::parse(Vec::<String>::new());
            assert_eq!(o.backend, BackendKind::Auto);
        }
    }

    #[test]
    fn parse_server_flag() {
        let o = Opts::parse(["--server", "tcp://127.0.0.1:9"].iter().map(ToString::to_string));
        assert_eq!(o.server.as_deref(), Some("tcp://127.0.0.1:9"));
        let o = Opts::parse(Vec::<String>::new());
        assert_eq!(o.server, None);
    }

    #[test]
    fn parse_prov_flag() {
        let o = Opts::parse(["--prov"].iter().map(ToString::to_string));
        assert!(o.prov);
        let o = Opts::parse(Vec::<String>::new());
        assert!(!o.prov);
    }

    #[test]
    fn mean_reduction_averages() {
        assert!((mean_reduction(&[10.0, 20.0]) - 15.0).abs() < 1e-12);
        assert_eq!(mean_reduction(&[]), 0.0);
    }
}
