//! Client side of the sweep daemon: submit, poll, stream, and the
//! [`run_remote`] entry the bench binaries route `--server` through.
//!
//! The report reconstructed here must be *figure-identical* to a local
//! run: every rendered number comes from `SweepReport::jobs`, and each
//! job is decoded from the exact cell bytes the store published
//! (digest-checked by the cell codec), so the `--server` stdout
//! byte-identity guarantee holds by construction. Throughput-side
//! fields that only exist client-side (trace-cache counters, peak trace
//! bytes) report zero — the daemon did that work, not this process —
//! and the archived JSON says `"store":"serve"` so the records are
//! honest about the execution tier.

use super::proto::{self, Op, Request, Response, Status};
use super::wire;
use super::{CampaignStatus, StreamedCell};
use crate::engine::{JobError, JobRecord, JobStats, SweepEngine, SweepJob, SweepReport, SweepSpec};
use crate::error::{backoff_delay, SimError};
use crate::faultinject::{FaultInjector, NetFaultKind};
use llbp_trace::fingerprint::Fingerprint;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client poll/stream cadence in milliseconds (`LLBP_SERVE_POLL_MS`).
pub const SERVE_POLL_MS_ENV: &str = "LLBP_SERVE_POLL_MS";

/// Default for [`SERVE_POLL_MS_ENV`]: fast enough that quick grids
/// stream promptly, slow enough to stay invisible next to simulation.
pub const DEFAULT_POLL_MS: u64 = 25;

fn poll_interval() -> Result<Duration, SimError> {
    Ok(Duration::from_millis(
        crate::envknob::parse_env::<u64>(SERVE_POLL_MS_ENV)?
            .map_or(DEFAULT_POLL_MS, |ms| ms.max(1)),
    ))
}

fn net(op: &'static str) -> impl Fn(std::io::Error) -> SimError {
    move |e| SimError::Network { op, detail: e.to_string() }
}

/// A connection to a sweep daemon. Reconnects lazily: a failed request
/// drops the socket and the next call dials again, so a transient
/// disconnect (real or injected via the `net:*` fault family) costs one
/// errored call, not the session.
#[derive(Debug)]
pub struct ServeClient {
    addr: String,
    conn: Option<TcpStream>,
    faults: Option<Arc<FaultInjector>>,
}

impl ServeClient {
    /// Connects to `addr` (a bare `host:port`, or with the `tcp://`
    /// scheme the `--server` flag uses).
    ///
    /// # Errors
    ///
    /// [`SimError::Network`] when the dial fails.
    pub fn connect(addr: &str) -> Result<Self, SimError> {
        Self::connect_with(addr, None)
    }

    /// [`ServeClient::connect`] with a fault injector armed: the `net:*`
    /// rules fire once per request, so fault campaigns exercise the
    /// daemon protocol.
    ///
    /// # Errors
    ///
    /// [`SimError::Network`] when the dial fails.
    pub fn connect_with(addr: &str, faults: Option<Arc<FaultInjector>>) -> Result<Self, SimError> {
        let addr = addr.strip_prefix("tcp://").unwrap_or(addr).trim().to_string();
        let mut client = Self { addr, conn: None, faults };
        client.ensure_conn()?;
        Ok(client)
    }

    fn ensure_conn(&mut self) -> Result<&mut TcpStream, SimError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(net("connect"))?;
            let _ = stream.set_nodelay(true);
            self.conn = Some(stream);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Simulates the next armed network fault, each kind one way a real
    /// TCP peer can misbehave (see [`NetFaultKind`]).
    fn inject_fault(&mut self, op: &'static str, request: &Request) -> Result<(), SimError> {
        let Some(kind) = self.faults.as_ref().and_then(|faults| faults.next_net_fault()) else {
            return Ok(());
        };
        let bad = |detail: &str| SimError::Network { op, detail: detail.into() };
        match kind {
            NetFaultKind::Disconnect => {
                self.conn = None;
                Err(bad("injected disconnect before request"))
            }
            NetFaultKind::Drop => {
                if let Some(stream) = self.conn.as_mut() {
                    let _ = proto::write_request(stream, request);
                    let _ = stream.flush();
                }
                self.conn = None;
                Err(bad("injected connection drop mid-request"))
            }
            NetFaultKind::TornWrite => {
                if let Some(stream) = self.conn.as_mut() {
                    let wire = proto::encode_request(request);
                    let _ = stream.write_all(&wire[..wire.len() / 2]);
                    let _ = stream.flush();
                }
                self.conn = None;
                Err(bad("injected torn write"))
            }
            NetFaultKind::Timeout => {
                self.conn = None;
                Err(bad("injected request timeout"))
            }
        }
    }

    fn call(
        &mut self,
        op: Op,
        opname: &'static str,
        fp: Fingerprint,
        aux: u32,
        payload: Vec<u8>,
    ) -> Result<Response, SimError> {
        let request = Request { op, fp, aux, payload };
        self.inject_fault(opname, &request)?;
        let stream = self.ensure_conn()?;
        let result =
            proto::write_request(stream, &request).and_then(|()| proto::read_response(stream));
        result.map_err(|e| {
            // A dead socket never heals; force a fresh dial next call.
            self.conn = None;
            net(opname)(e)
        })
    }

    fn expect_ok(opname: &'static str, response: Response) -> Result<Vec<u8>, SimError> {
        match response.status {
            Status::Ok => Ok(response.payload),
            Status::Miss => Err(SimError::Network {
                op: opname,
                detail: "unknown campaign ticket (daemon restarted? resubmit)".into(),
            }),
            Status::Err => Err(SimError::Network {
                op: opname,
                detail: String::from_utf8_lossy(&response.payload).into_owned(),
            }),
        }
    }

    /// Submits a sweep; returns the campaign ticket (content-addressed,
    /// so resubmitting the same grid returns the same ticket).
    ///
    /// # Errors
    ///
    /// [`SimError::Network`] on IO or a daemon-side refusal.
    pub fn submit(&mut self, spec: &SweepSpec) -> Result<Fingerprint, SimError> {
        let response =
            self.call(Op::SubmitSweep, "submit", Fingerprint(0), 0, wire::encode_spec(spec))?;
        let payload = Self::expect_ok("submit", response)?;
        let bytes: [u8; 16] = payload.as_slice().try_into().map_err(|_| SimError::Network {
            op: "submit",
            detail: format!("ticket should be 16 bytes, got {}", payload.len()),
        })?;
        Ok(Fingerprint(u128::from_le_bytes(bytes)))
    }

    /// Polls a campaign's progress.
    ///
    /// # Errors
    ///
    /// [`SimError::Network`] on IO, an unknown ticket, or malformed
    /// status text.
    pub fn poll(&mut self, ticket: Fingerprint) -> Result<CampaignStatus, SimError> {
        let response = self.call(Op::PollSweep, "poll", ticket, 0, Vec::new())?;
        let payload = Self::expect_ok("poll", response)?;
        CampaignStatus::from_text(&String::from_utf8_lossy(&payload))
    }

    /// Fetches resolved cells from `cursor` onward (contiguous; an
    /// empty result means the cursor cell is still in flight).
    ///
    /// # Errors
    ///
    /// [`SimError::Network`] on IO, an unknown ticket, or a torn entry.
    pub fn stream_cells(
        &mut self,
        ticket: Fingerprint,
        cursor: usize,
    ) -> Result<Vec<(usize, StreamedCell)>, SimError> {
        let cursor = u32::try_from(cursor).map_err(|_| SimError::Network {
            op: "stream",
            detail: "grid too large for a u32 cursor".into(),
        })?;
        let response = self.call(Op::StreamCells, "stream", ticket, cursor, Vec::new())?;
        super::parse_entries(&Self::expect_ok("stream", response)?)
    }

    /// Fetches the daemon's live Prometheus metrics rendering.
    ///
    /// # Errors
    ///
    /// [`SimError::Network`] on IO.
    pub fn metrics(&mut self) -> Result<String, SimError> {
        let response = self.call(Op::Metrics, "metrics", Fingerprint(0), 0, Vec::new())?;
        Ok(String::from_utf8_lossy(&Self::expect_ok("metrics", response)?).into_owned())
    }

    /// Asks the daemon to stop accepting connections (acknowledged
    /// before it stops, so success means the daemon heard it).
    ///
    /// # Errors
    ///
    /// [`SimError::Network`] on IO.
    pub fn shutdown_daemon(&mut self) -> Result<(), SimError> {
        let response = self.call(Op::Shutdown, "shutdown", Fingerprint(0), 0, Vec::new())?;
        Self::expect_ok("shutdown", response).map(|_| ())
    }
}

/// Consecutive failed protocol ticks tolerated before a remote run
/// gives up (each tick reconnects and idempotently resubmits first, so
/// this bounds sustained outage, not single blips).
const MAX_STRIKES: u32 = 5;

/// One protocol tick: (re)attach to the campaign if needed, drain the
/// contiguous stream into `cells`, and poll. Resubmitting after an
/// error is free — the ticket is content-addressed, so the daemon
/// returns the resident campaign (or, after a daemon restart, starts a
/// resumed one that memo-hits everything already published).
fn campaign_tick(
    client: &mut ServeClient,
    spec: &SweepSpec,
    ticket: &mut Option<Fingerprint>,
    cells: &mut [Option<StreamedCell>],
    cursor: &mut usize,
) -> Result<CampaignStatus, SimError> {
    let attached = match *ticket {
        Some(attached) => attached,
        None => {
            let fresh = client.submit(spec)?;
            *ticket = Some(fresh);
            fresh
        }
    };
    for (index, cell) in client.stream_cells(attached, *cursor)? {
        if index == *cursor && *cursor < cells.len() {
            cells[*cursor] = Some(cell);
            *cursor += 1;
        }
    }
    client.poll(attached)
}

/// Runs a sweep on the daemon at `addr` and reconstructs the
/// [`SweepReport`] a local run of the same grid would produce (see the
/// module docs for which throughput fields differ). Blocks until the
/// campaign finishes, streaming cells as they complete.
///
/// # Errors
///
/// [`SimError::Network`] for persistent connection failures, protocol
/// errors, and campaign-fatal daemon errors (exit code 4 via the bench
/// harness).
pub fn run_remote(addr: &str, spec: &SweepSpec) -> Result<SweepReport, SimError> {
    run_remote_with(addr, spec, None)
}

/// [`run_remote`] with a fault injector armed on the client side (the
/// `net:*` family fires once per request). Transient failures —
/// injected or real — cost one backoff tick: the client reconnects and
/// resubmits, and the daemon-resident campaign never noticed.
///
/// # Errors
///
/// As [`run_remote`].
pub fn run_remote_with(
    addr: &str,
    spec: &SweepSpec,
    faults: Option<Arc<FaultInjector>>,
) -> Result<SweepReport, SimError> {
    let started = Instant::now();
    let interval = poll_interval()?;
    let mut client = ServeClient::connect_with(addr, faults)?;
    let total = spec.num_jobs();
    let mut cells: Vec<Option<StreamedCell>> = vec![None; total];
    let mut cursor = 0usize;
    let mut ticket: Option<Fingerprint> = None;
    let mut strikes = 0u32;
    let status = loop {
        match campaign_tick(&mut client, spec, &mut ticket, &mut cells, &mut cursor) {
            Ok(status) => {
                strikes = 0;
                if let Some(detail) = status.error {
                    return Err(SimError::Network { op: "campaign", detail });
                }
                if status.finished && cursor >= total {
                    break status;
                }
                std::thread::sleep(interval);
            }
            Err(e) => {
                strikes += 1;
                if strikes >= MAX_STRIKES {
                    return Err(e);
                }
                // Reattach from scratch next tick: covers both a stale
                // socket and a daemon restart (where the old ticket is
                // gone but resubmission resumes from the store).
                ticket = None;
                std::thread::sleep(backoff_delay(strikes));
            }
        }
    };

    let mut jobs = Vec::with_capacity(total);
    let mut failed = Vec::new();
    for (index, cell) in cells.into_iter().enumerate() {
        let job = SweepJob {
            workload: index / spec.predictors.len(),
            predictor: index % spec.predictors.len(),
        };
        match cell.expect("stream loop filled the grid contiguously") {
            StreamedCell::Ok(bytes) => {
                let cell = crate::memo::decode_cell(&bytes).ok_or_else(|| SimError::Network {
                    op: "stream",
                    detail: format!("cell {index}: daemon streamed an undecodable cell payload"),
                })?;
                jobs.push(JobRecord {
                    job,
                    result: cell.result,
                    stats: JobStats { wall: cell.wall, branches: cell.trace_len },
                });
            }
            StreamedCell::Failed(class) => {
                let predictor = spec.predictors[job.predictor].label();
                let workload = spec.workloads[job.workload].name().to_string();
                let error = error_for_class(&class, &predictor, &workload);
                jobs.push(SweepEngine::placeholder_record(spec, index));
                failed.push(JobError { job, index, predictor, workload, attempts: 1, error });
            }
        }
    }
    Ok(SweepReport {
        jobs,
        num_predictors: spec.predictors.len(),
        workers: usize::try_from(status.workers).unwrap_or(usize::MAX),
        wall: started.elapsed(),
        cache_hits: 0,
        cache_misses: 0,
        trace_disk_hits: 0,
        memo_hits: status.memo_served,
        memo_misses: status.completed,
        trace_bytes: 0,
        failed,
        resumed: 0,
        stale: 0,
        lock_wait: Duration::ZERO,
        lock_takeovers: status.takeovers,
        backend: spec.sim.backend.resolve().label(),
        // The build this host runs; the protocol does not carry the
        // daemon's, which is the same when the daemon runs on this host.
        kernel: bputil::kernel::Kernel::detect().name(),
        store_tier: "serve",
        // The serve protocol streams result cells only; provenance runs
        // locally (bench rejects `--prov --server` up front).
        prov: None,
    })
}

/// Rehydrates a streamed failure class into a representative
/// [`SimError`] so report epilogues (`throughput_json`'s `"class"`
/// field, `--strict` warnings) keep their class taxonomy across the
/// wire. Attempt counts and error detail stay daemon-side; the detail
/// here says where to look.
fn error_for_class(class: &str, predictor: &str, workload: &str) -> SimError {
    let detail = format!("reported by llbp-serve (class `{class}`; see the daemon's stderr)");
    match class {
        "trace_gen" => SimError::TraceGen { workload: workload.to_string(), detail },
        "panic" => SimError::PredictorPanic { label: predictor.to_string(), detail },
        "timeout" => SimError::Timeout { limit: None },
        "injected" => SimError::Injected { detail },
        "network" => SimError::Network { op: "serve_cell", detail },
        "config" => SimError::Config { detail },
        _ => SimError::MemoIo { op: "serve_cell", detail },
    }
}
