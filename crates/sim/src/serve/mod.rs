//! `llbp-serve`: the resident sweep daemon (DESIGN.md §12), and the one
//! way to share a campaign's in-flight cells with other campaigns.
//!
//! The memo probe only dedups cells that already finished, so two
//! researchers sweeping overlapping grids in separate processes would
//! each pay for the shared cells while both are in flight. The daemon
//! closes that gap by being the one process where every campaign runs:
//!
//! * Clients submit a [`SweepSpec`] over a length-prefixed TCP framing
//!   ([`proto`], ops `SubmitSweep`/`PollSweep`/`StreamCells`), encoded
//!   field-exactly by [`wire`] so cell fingerprints match a local run
//!   bit-for-bit.
//! * Each campaign is one [`SweepEngine`] run over the daemon's store,
//!   with workers, retries and the watchdog from the same `LLBP_*` knobs
//!   as any local run. It takes the grid's journal lock and resumes from
//!   the journal, which is what makes a daemon restart resumable: a dead
//!   predecessor's lock is taken over and its published cells memo-hit.
//! * The store's cell gate ([`MemoStore::claim_cell`]) spans campaigns:
//!   a cell two in-flight grids share is simulated by whichever reached
//!   it first, and the second waits, then memo-hits. One simulation,
//!   every campaign served.
//! * Results stream back incrementally: `StreamCells` returns raw
//!   published cell bytes in grid order as they complete, so a client
//!   reconstructs the exact [`SweepReport`] a local run would have
//!   produced (the `--server` byte-identity guarantee), without waiting
//!   for the whole grid.
//! * The `Metrics` op serves the live Prometheus rendering of the
//!   daemon's [`Telemetry`] registry on the same listener.
//!
//! Submitting an identical grid while it runs, or after it completed,
//! returns the *same* ticket (the campaign fingerprint is
//! content-addressed), so whole-campaign dedup is free and poll/stream
//! are idempotent reads. A campaign that failed is replaced by a fresh
//! run on resubmission.

pub mod client;
pub mod proto;
pub mod wire;

use crate::engine::{grid_fingerprints, SweepEngine, SweepReport, SweepSpec};
use crate::error::SimError;
use crate::faultinject::FaultInjector;
use crate::journal::{campaign_fingerprint, CellOutcome};
use crate::memo::MemoStore;
use llbp_obs::Telemetry;
use llbp_trace::fingerprint::Fingerprint;
use proto::{Op, Request, Response};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Per-connection idle timeout: a client that goes silent this long has
/// its connection reaped (it reconnects on its next request).
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Soft cap on one `StreamCells` response: half the frame bound, so a
/// response of maximum-entropy cells still encodes comfortably.
const STREAM_BUDGET: usize = (proto::MAX_FRAME / 2) as usize;

/// Stream-entry tag: the entry payload is raw published cell bytes.
pub(crate) const TAG_OK: u8 = 1;

/// Stream-entry tag: the entry payload is the failure class string.
pub(crate) const TAG_FAILED: u8 = 2;

// ---------------------------------------------------------------------
// Campaign status (PollSweep payload)
// ---------------------------------------------------------------------

/// A campaign's progress as reported by `PollSweep`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Grid cells in the campaign.
    pub total: u64,
    /// Cells with a published result so far.
    pub done: u64,
    /// Cells that deterministically failed.
    pub failed: u64,
    /// Cells this campaign simulated itself.
    pub completed: u64,
    /// Cells served from the memo store (including cells another
    /// concurrent campaign computed).
    pub memo_served: u64,
    /// Journal-lock takeovers from dead holders (a crashed predecessor).
    pub takeovers: u64,
    /// Worker threads driving the campaign.
    pub workers: u64,
    /// Whether the campaign finished (every cell journaled, or the error
    /// below set).
    pub finished: bool,
    /// Campaign-fatal error text, when the run died.
    pub error: Option<String>,
}

impl CampaignStatus {
    /// Renders the `key value` line format `PollSweep` responds with.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "total {}\ndone {}\nfailed {}\ncompleted {}\nmemo_served {}\n\
             takeovers {}\nworkers {}\nfinished {}\n",
            self.total,
            self.done,
            self.failed,
            self.completed,
            self.memo_served,
            self.takeovers,
            self.workers,
            u8::from(self.finished),
        );
        if let Some(error) = &self.error {
            text.push_str("error ");
            text.push_str(&error.replace('\n', "; "));
            text.push('\n');
        }
        text
    }

    /// Parses [`CampaignStatus::to_text`].
    ///
    /// # Errors
    ///
    /// [`SimError::Network`] on malformed status text (a daemon/client
    /// version skew, surfaced as a protocol failure).
    pub fn from_text(text: &str) -> Result<Self, SimError> {
        let bad = |detail: String| SimError::Network { op: "poll", detail };
        let mut status = Self::default();
        for line in text.lines() {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("malformed status line `{line}`")))?;
            let parse = |value: &str| {
                value.parse::<u64>().map_err(|e| bad(format!("bad status {key} `{value}`: {e}")))
            };
            match key {
                "total" => status.total = parse(value)?,
                "done" => status.done = parse(value)?,
                "failed" => status.failed = parse(value)?,
                "completed" => status.completed = parse(value)?,
                "memo_served" => status.memo_served = parse(value)?,
                "takeovers" => status.takeovers = parse(value)?,
                "workers" => status.workers = parse(value)?,
                "finished" => status.finished = parse(value)? != 0,
                "error" => status.error = Some(value.to_string()),
                // Unknown keys are future extensions, not errors.
                _ => {}
            }
        }
        Ok(status)
    }
}

// ---------------------------------------------------------------------
// Stream-entry codec (StreamCells payload)
// ---------------------------------------------------------------------

/// One streamed grid cell: published bytes, or the failure class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamedCell {
    /// Raw cell bytes exactly as published to the store (decode with
    /// the memo layer's cell codec).
    Ok(Vec<u8>),
    /// The cell deterministically failed with this error class.
    Failed(String),
}

pub(crate) fn push_entry(buf: &mut Vec<u8>, index: u32, tag: u8, bytes: &[u8]) {
    buf.extend_from_slice(&index.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Parses a `StreamCells` response payload into `(index, cell)` pairs.
///
/// # Errors
///
/// [`SimError::Network`] on a torn or mistagged entry.
pub(crate) fn parse_entries(payload: &[u8]) -> Result<Vec<(usize, StreamedCell)>, SimError> {
    let bad = |detail: String| SimError::Network { op: "stream", detail };
    let mut entries = Vec::new();
    let mut at = 0usize;
    while at < payload.len() {
        let header = payload
            .get(at..at + 9)
            .ok_or_else(|| bad(format!("torn stream entry header at byte {at}")))?;
        let index = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let tag = header[4];
        let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
        at += 9;
        let body = payload
            .get(at..at + len)
            .ok_or_else(|| bad(format!("torn stream entry body at byte {at}")))?;
        at += len;
        let cell = match tag {
            TAG_OK => StreamedCell::Ok(body.to_vec()),
            TAG_FAILED => StreamedCell::Failed(String::from_utf8_lossy(body).into_owned()),
            other => return Err(bad(format!("unknown stream entry tag {other}"))),
        };
        entries.push((index, cell));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// Daemon state
// ---------------------------------------------------------------------

/// Progress of one resident campaign, updated by the engine's observer
/// and read by poll/stream handlers.
#[derive(Debug, Default)]
struct Progress {
    outcomes: HashMap<usize, CellOutcome>,
    completed: u64,
    memo_served: u64,
    takeovers: u64,
    finished: bool,
    error: Option<String>,
}

/// One campaign resident in the daemon.
#[derive(Debug)]
struct CampaignState {
    spec: SweepSpec,
    workers: usize,
    progress: Mutex<Progress>,
}

impl CampaignState {
    fn lock(&self) -> std::sync::MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Observer entry: the engine journaled this outcome.
    fn note(&self, index: usize, outcome: &CellOutcome) {
        self.lock().outcomes.insert(index, outcome.clone());
    }

    /// Records how the run ended: the report's counters, or the error.
    fn finish(&self, run: Result<SweepReport, SimError>) {
        let mut progress = self.lock();
        match run {
            Ok(report) => {
                progress.completed = report.memo_misses;
                progress.memo_served = report.memo_hits;
                progress.takeovers = report.lock_takeovers;
            }
            Err(e) => progress.error = Some(e.to_string()),
        }
        progress.finished = true;
    }

    fn status(&self) -> CampaignStatus {
        let progress = self.lock();
        let (mut done, mut failed) = (0u64, 0u64);
        for outcome in progress.outcomes.values() {
            match outcome {
                CellOutcome::Ok { .. } | CellOutcome::Stale { .. } => done += 1,
                CellOutcome::Failed { .. } => failed += 1,
            }
        }
        CampaignStatus {
            total: self.spec.num_jobs() as u64,
            done,
            failed,
            completed: progress.completed,
            memo_served: progress.memo_served,
            takeovers: progress.takeovers,
            workers: self.workers as u64,
            finished: progress.finished,
            error: progress.error.clone(),
        }
    }

    /// The contiguous run of resolved outcomes starting at `cursor`,
    /// plus whether the campaign already finished (copied out so stream
    /// IO happens outside the lock).
    fn resolved_from(&self, cursor: usize) -> (Vec<(usize, CellOutcome)>, bool) {
        let progress = self.lock();
        let mut run = Vec::new();
        for index in cursor..self.spec.num_jobs() {
            match progress.outcomes.get(&index) {
                Some(outcome) => run.push((index, outcome.clone())),
                None => break,
            }
        }
        (run, progress.finished)
    }
}

/// Shared state behind every connection and campaign thread.
struct DaemonState {
    store: Arc<MemoStore>,
    faults: Option<Arc<FaultInjector>>,
    telemetry: Telemetry,
    campaigns: Mutex<HashMap<u128, Arc<CampaignState>>>,
    stop: AtomicBool,
    addr: SocketAddr,
}

impl std::fmt::Debug for DaemonState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonState")
            .field("addr", &self.addr)
            .field("root", &self.store.root())
            .finish_non_exhaustive()
    }
}

/// A bound-and-ready sweep daemon.
#[derive(Debug)]
pub struct ServeDaemon {
    listener: TcpListener,
    state: Arc<DaemonState>,
}

/// Handle for stopping a daemon from another thread.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    state: Arc<DaemonState>,
}

impl ServeHandle {
    /// Asks the accept loop to exit and pokes it awake.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.state.addr, Duration::from_millis(200));
    }

    /// The daemon's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }
}

impl ServeDaemon {
    /// Binds `addr` and serves campaigns against `store`. The injector
    /// (usually from `LLBP_FAULT_SPEC`) drives the engine's cell rules
    /// (`panic`, `slow`, `lock`, `stale`) in every campaign, so fault
    /// campaigns exercise the daemon's recovery paths; the store's `io`
    /// rules are attached to `store` by the caller.
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Arc<MemoStore>,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let state = Arc::new(DaemonState {
            store,
            faults,
            telemetry: Telemetry::enabled(),
            campaigns: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            addr: bound,
        });
        Ok(Self { listener, state })
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle that can stop [`ServeDaemon::run`] from another thread.
    #[must_use]
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { state: Arc::clone(&self.state) }
    }

    /// Serves connections until a `Shutdown` request or
    /// [`ServeHandle::shutdown`]. Thread-per-connection; campaigns
    /// already running keep running to completion even as the accept
    /// loop exits (their journals and published cells are the durable
    /// record either way).
    pub fn run(self) {
        for conn in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || serve_connection(&stream, &state));
        }
    }
}

fn serve_connection(stream: &TcpStream, state: &Arc<DaemonState>) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        let Ok(request) = proto::read_request(&mut reader) else {
            return;
        };
        state.telemetry.counter("serve_requests_total").inc();
        let shutdown = request.op == Op::Shutdown;
        let response = answer(state, &request);
        if proto::write_response(&mut writer, &response).is_err() {
            return;
        }
        if shutdown {
            // Stop *after* acknowledging, so the client's clean-shutdown
            // check sees the Ok frame.
            state.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect_timeout(&state.addr, Duration::from_millis(200));
            return;
        }
    }
}

fn answer(state: &Arc<DaemonState>, request: &Request) -> Response {
    match request.op {
        Op::SubmitSweep => match submit(state, &request.payload) {
            Ok(ticket) => Response::ok(ticket.0.to_le_bytes().to_vec()),
            Err(e) => Response::err(&e.to_string()),
        },
        Op::PollSweep => match lookup(state, request.fp) {
            Some(campaign) => Response::ok(campaign.status().to_text().into_bytes()),
            None => Response::miss(),
        },
        Op::StreamCells => match lookup(state, request.fp) {
            Some(campaign) => Response::ok(stream_cells(state, &campaign, request.aux as usize)),
            None => Response::miss(),
        },
        Op::Metrics => {
            Response::ok(llbp_obs::export::prometheus(&state.telemetry.metrics()).into_bytes())
        }
        Op::Shutdown => Response::ok(Vec::new()),
    }
}

fn lookup(state: &DaemonState, ticket: Fingerprint) -> Option<Arc<CampaignState>> {
    state.campaigns.lock().unwrap_or_else(PoisonError::into_inner).get(&ticket.0).cloned()
}

/// Registers a submitted grid and starts its runner thread — or, for a
/// grid already running or completed, returns the existing ticket:
/// campaign fingerprints are content-addressed, so resubmission is
/// idempotent. A failed campaign (say, on a journal lock another process
/// held) is replaced by a fresh run.
fn submit(state: &Arc<DaemonState>, payload: &[u8]) -> Result<Fingerprint, SimError> {
    let spec = wire::decode_spec(payload)?;
    let campaign = campaign_fingerprint(&grid_fingerprints(&spec, &state.store));
    let mut campaigns = state.campaigns.lock().unwrap_or_else(PoisonError::into_inner);
    if campaigns.get(&campaign.0).is_some_and(|resident| resident.lock().error.is_none()) {
        state.telemetry.counter("serve_campaigns_deduped_total").inc();
        return Ok(campaign);
    }
    let mut engine = SweepEngine::new().with_store(Arc::clone(&state.store)).resume(true);
    if let Some(faults) = &state.faults {
        engine = engine.with_faults(Arc::clone(faults));
    }
    let workers = engine.workers().clamp(1, spec.num_jobs().max(1));
    let resident = Arc::new(CampaignState { spec, workers, progress: Mutex::default() });
    campaigns.insert(campaign.0, Arc::clone(&resident));
    state.telemetry.counter("serve_campaigns_total").inc();
    let daemon = Arc::clone(state);
    std::thread::Builder::new()
        .name(format!("campaign-{campaign}"))
        .spawn(move || {
            let run = drive_campaign(&daemon, &engine, &resident);
            if let Err(e) = &run {
                daemon.telemetry.counter("serve_campaigns_failed_total").inc();
                eprintln!("llbp-serve: campaign {campaign} failed: {e}");
            }
            resident.finish(run);
        })
        .map_err(|e| SimError::MemoIo {
            op: "serve_submit",
            detail: format!("cannot spawn campaign runner: {e}"),
        })?;
    Ok(campaign)
}

/// Runs one campaign on the engine, publishing each cell's outcome to
/// pollers and streams as soon as the engine journals it.
fn drive_campaign(
    daemon: &DaemonState,
    engine: &SweepEngine,
    campaign: &CampaignState,
) -> Result<SweepReport, SimError> {
    let report = engine.try_run_observed(&campaign.spec, &|index, outcome| {
        campaign.note(index, outcome);
        if matches!(outcome, CellOutcome::Failed { .. }) {
            daemon.telemetry.counter("serve_cells_failed_total").inc();
        }
    })?;
    daemon.telemetry.counter("serve_cells_simulated_total").add(report.memo_misses);
    daemon.telemetry.counter("serve_cells_memo_total").add(report.memo_hits);
    Ok(report)
}

/// Builds a `StreamCells` response: contiguous resolved cells from
/// `cursor`, stopping at the first unresolved index or the frame
/// budget. Published cells stream as their raw store bytes (the client
/// decodes with the same cell codec the store uses, digest check
/// included).
fn stream_cells(state: &DaemonState, campaign: &CampaignState, cursor: usize) -> Vec<u8> {
    let (resolved, finished) = campaign.resolved_from(cursor);
    let mut buf = Vec::new();
    for (index, outcome) in resolved {
        let wire_index = u32::try_from(index).unwrap_or(u32::MAX);
        match outcome {
            CellOutcome::Ok { fingerprint, .. } | CellOutcome::Stale { fingerprint } => {
                match state.store.result_bytes(fingerprint) {
                    Ok(Some(bytes)) => push_entry(&mut buf, wire_index, TAG_OK, &bytes),
                    // Journaled-ok but unreadable: transient unless the
                    // campaign is over, in which case the gap is real.
                    _ if finished => push_entry(&mut buf, wire_index, TAG_FAILED, b"memo_io"),
                    _ => break,
                }
            }
            CellOutcome::Failed { class } => {
                push_entry(&mut buf, wire_index, TAG_FAILED, class.as_bytes());
            }
        }
        if buf.len() >= STREAM_BUDGET {
            break;
        }
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_text_roundtrips() {
        let status = CampaignStatus {
            total: 42,
            done: 17,
            failed: 2,
            completed: 10,
            memo_served: 7,
            takeovers: 1,
            workers: 4,
            finished: true,
            error: Some("boom: multi\nline".into()),
        };
        let back = CampaignStatus::from_text(&status.to_text()).expect("parses");
        assert_eq!(back.error.as_deref(), Some("boom: multi; line"));
        assert_eq!(CampaignStatus { error: back.error.clone(), ..status }, back);
        assert!(CampaignStatus::from_text("garbage-without-space").is_err());
        assert!(CampaignStatus::from_text("total x\n").is_err());
    }

    #[test]
    fn stream_entries_roundtrip_and_reject_torn_payloads() {
        let mut buf = Vec::new();
        push_entry(&mut buf, 0, TAG_OK, b"cell bytes");
        push_entry(&mut buf, 1, TAG_FAILED, b"timeout");
        push_entry(&mut buf, 2, TAG_OK, b"");
        let entries = parse_entries(&buf).expect("parses");
        assert_eq!(
            entries,
            vec![
                (0, StreamedCell::Ok(b"cell bytes".to_vec())),
                (1, StreamedCell::Failed("timeout".into())),
                (2, StreamedCell::Ok(Vec::new())),
            ]
        );
        assert!(parse_entries(&buf[..buf.len() - 1]).is_err(), "torn body");
        assert!(parse_entries(&buf[..5]).is_err(), "torn header");
        let mut mistagged = Vec::new();
        push_entry(&mut mistagged, 0, 9, b"x");
        assert!(parse_entries(&mistagged).is_err(), "unknown tag");
        assert!(parse_entries(&[]).expect("empty ok").is_empty());
    }
}
