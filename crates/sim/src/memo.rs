//! Persistent, content-addressed memoization of traces and simulation
//! results.
//!
//! The experiment harness re-runs the same `(predictor, workload, sim
//! config)` grid cells constantly: every figure regenerates its traces
//! from scratch, and recurring cells (the 64K TSL baseline alone appears
//! in five figures) are re-simulated per binary. This module keeps both
//! on disk, keyed by a stable 128-bit fingerprint of everything that
//! influences the content:
//!
//! * **traces** (`<root>/traces/<fp>.llbt`) — serialized through the
//!   `LLBT` binary format of `llbp_trace::io`, fingerprinted by the full
//!   [`WorkloadSpec`] plus the trace-format version and the store salt;
//! * **result cells** (`<root>/results/<fp>.llbr`) — serialized
//!   [`SimResult`]s plus the simulation wall time and trace length,
//!   fingerprinted by `(PredictorKind, WorkloadSpec, SimConfig)` plus the
//!   format version and salt.
//!
//! The store root defaults to `target/llbp-cache/` and can be moved with
//! the `LLBP_CACHE_DIR` environment variable; deleting the directory (or
//! any file in it) is always safe. Every read validates a trailing
//! checksum and parses defensively, so truncated or corrupt files degrade
//! to cache misses rather than wrong results. Writes go through a
//! temp-file + rename so concurrent processes never observe partial
//! entries.
//!
//! Bumping [`MEMO_FORMAT_VERSION`] (or constructing the store with a
//! different salt) changes every fingerprint and thereby invalidates the
//! whole store cleanly — stale files are simply never addressed again.

use crate::config::{PredictorKind, SimConfig};
use crate::driver::{LlbpCellStats, SimResult};
use crate::error::SimError;
use crate::faultinject::FaultInjector;
use crate::store::local::LocalDir;
use crate::store::ObjectKind;
use bputil::hash::FastHashMap;
use llbp_core::LlbpStats;
use llbp_tage::FrontEndStats;
use llbp_trace::fingerprint::{Fingerprint, StableHasher};
use llbp_trace::{read_trace_into, write_trace, BranchRecord, Trace, TraceIoError, WorkloadSpec};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Version salt mixed into every fingerprint. Bump whenever the cell
/// serialization layout, the set of serialized fields, or the semantics
/// of the simulator change in a way old entries must not survive.
pub const MEMO_FORMAT_VERSION: u32 = 1;

/// Magic bytes of a result-cell file.
const CELL_MAGIC: [u8; 4] = *b"LLBR";

/// Environment variable overriding the store directory.
pub const CACHE_DIR_ENV: &str = "LLBP_CACHE_DIR";

/// Default store directory, relative to the working directory (the repo
/// root when binaries run via `cargo run`).
pub const DEFAULT_CACHE_DIR: &str = "target/llbp-cache";

/// A cached simulation cell: the result plus the bookkeeping the engine
/// needs to schedule and report without touching the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell {
    /// The memoized simulation result, bit-identical to a fresh run.
    pub result: SimResult,
    /// Wall time of the original simulation (the scheduling cost model).
    pub wall: Duration,
    /// Branch records in the simulated trace.
    pub trace_len: u64,
    /// The payload checksum stored in the cell's trailer. Journals record
    /// it alongside `ok` entries so `--verify-resume` can prove a
    /// memoized cell is byte-for-byte the one the campaign completed
    /// with, not merely *a* valid cell under the same address.
    pub digest: Fingerprint,
}

/// The persistent content-addressed store.
#[derive(Debug)]
pub struct MemoStore {
    dir: LocalDir,
    salt: u64,
    trace_loads: AtomicU64,
    trace_stores: AtomicU64,
    result_loads: AtomicU64,
    result_stores: AtomicU64,
    prov_loads: AtomicU64,
    prov_stores: AtomicU64,
    faults: Option<Arc<FaultInjector>>,
    telemetry: llbp_obs::Telemetry,
    /// Result fingerprints some caller is computing right now (see
    /// [`MemoStore::claim_cell`]), and the signal that one was released.
    in_flight: Mutex<HashSet<u128>>,
    released: Condvar,
}

/// A claim on one result fingerprint, from [`MemoStore::claim_cell`];
/// dropping it releases the fingerprint and wakes its waiters.
#[derive(Debug)]
pub struct CellSlot<'a> {
    store: &'a MemoStore,
    fp: u128,
}

impl Drop for CellSlot<'_> {
    fn drop(&mut self) {
        let mut in_flight = self.store.in_flight.lock().unwrap_or_else(PoisonError::into_inner);
        in_flight.remove(&self.fp);
        self.store.released.notify_all();
    }
}

impl MemoStore {
    /// Opens (creating if necessary) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory tree cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with_salt(dir, 0)
    }

    /// Opens the store at `dir` with an explicit extra salt (tests use
    /// this to simulate a format-version bump).
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory tree cannot be
    /// created.
    pub fn open_with_salt(dir: impl Into<PathBuf>, salt: u64) -> std::io::Result<Self> {
        Ok(Self {
            dir: LocalDir::open(dir)?,
            salt,
            trace_loads: AtomicU64::new(0),
            trace_stores: AtomicU64::new(0),
            result_loads: AtomicU64::new(0),
            result_stores: AtomicU64::new(0),
            prov_loads: AtomicU64::new(0),
            prov_stores: AtomicU64::new(0),
            faults: None,
            telemetry: llbp_obs::Telemetry::disabled(),
            in_flight: Mutex::new(HashSet::new()),
            released: Condvar::new(),
        })
    }

    /// Attaches a [`FaultInjector`]: its `io` rules fire on every
    /// load/store operation (the fault-injection harness; production
    /// stores have none attached).
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// Attaches a telemetry handle: successful loads and stores mirror
    /// the store's own counters into `memo_trace_loads` /
    /// `memo_trace_stores` / `memo_result_loads` / `memo_result_stores`.
    /// A disabled handle (the default) costs nothing.
    pub fn attach_telemetry(&mut self, telemetry: llbp_obs::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Consults the attached injector, if any, before an IO operation.
    fn check_faults(&self, op: &'static str) -> Result<(), SimError> {
        match &self.faults {
            Some(faults) => faults.check_io(op),
            None => Ok(()),
        }
    }

    /// Opens the default store, rooted at `$LLBP_CACHE_DIR` (else
    /// [`DEFAULT_CACHE_DIR`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory tree cannot be
    /// created.
    pub fn open_default() -> std::io::Result<Self> {
        match std::env::var(CACHE_DIR_ENV) {
            Ok(dir) if !dir.trim().is_empty() => Self::open(dir),
            _ => Self::open(DEFAULT_CACHE_DIR),
        }
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        self.dir.root()
    }

    /// Traces successfully loaded from disk.
    #[must_use]
    pub fn trace_loads(&self) -> u64 {
        self.trace_loads.load(Ordering::Relaxed)
    }

    /// Result cells successfully loaded from disk.
    #[must_use]
    pub fn result_loads(&self) -> u64 {
        self.result_loads.load(Ordering::Relaxed)
    }

    /// Traces written to disk.
    #[must_use]
    pub fn trace_stores(&self) -> u64 {
        self.trace_stores.load(Ordering::Relaxed)
    }

    /// Result cells written to disk.
    #[must_use]
    pub fn result_stores(&self) -> u64 {
        self.result_stores.load(Ordering::Relaxed)
    }

    /// Provenance streams successfully loaded from disk.
    #[must_use]
    pub fn prov_loads(&self) -> u64 {
        self.prov_loads.load(Ordering::Relaxed)
    }

    /// Provenance streams written to disk.
    #[must_use]
    pub fn prov_stores(&self) -> u64 {
        self.prov_stores.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Fingerprints
    // ------------------------------------------------------------------

    fn base_hasher(&self, domain: &str) -> StableHasher {
        let mut h = StableHasher::new();
        h.write_str(domain);
        h.write_u64(u64::from(MEMO_FORMAT_VERSION));
        h.write_u64(self.salt);
        h
    }

    /// Fingerprint addressing the generated trace of `spec`.
    #[must_use]
    pub fn trace_fingerprint(&self, spec: &WorkloadSpec) -> Fingerprint {
        // `WorkloadSpec`'s `Debug` form covers every generation parameter
        // (preset fields, branch count, seed) and is deterministic; f64
        // tuning fields keep the spec from implementing `Hash` directly.
        self.trace_fingerprint_of(&format!("{spec:?}"))
    }

    /// [`MemoStore::trace_fingerprint`] of the spec whose `Debug` text is
    /// `spec_text`. That text is also the spec's trace-cache key, which
    /// the sweep engine formats once per run.
    pub(crate) fn trace_fingerprint_of(&self, spec_text: &str) -> Fingerprint {
        let mut h = self.base_hasher("llbp-trace");
        h.write_u64(u64::from(llbp_trace::io::VERSION));
        h.write_str(spec_text);
        h.finish()
    }

    /// Fingerprint addressing the simulation result of one grid cell.
    #[must_use]
    pub fn result_fingerprint(
        &self,
        kind: &PredictorKind,
        workload: &WorkloadSpec,
        sim: &SimConfig,
    ) -> Fingerprint {
        // `fingerprint_text`, not `{sim:?}`: the execution backend is a
        // parity-pinned throughput choice, so cells must be shared across
        // backends (and stores written before backends existed stay warm).
        self.result_fingerprint_of(
            &kind.fingerprint_text(),
            &format!("{workload:?}"),
            &sim.fingerprint_text(),
        )
    }

    /// [`MemoStore::result_fingerprint`] of the texts it hashes: the
    /// predictor's [`PredictorKind::fingerprint_text`], the workload's
    /// `Debug` form and [`SimConfig::fingerprint_text`]. A grid has few
    /// distinct parts, so the sweep engine formats each once per run.
    pub(crate) fn result_fingerprint_of(
        &self,
        kind_text: &str,
        workload_text: &str,
        sim_text: &str,
    ) -> Fingerprint {
        let mut h = self.base_hasher("llbp-result");
        h.write_str(kind_text);
        h.write_str(workload_text);
        h.write_str(sim_text);
        h.finish()
    }

    // ------------------------------------------------------------------
    // Traces
    // ------------------------------------------------------------------

    /// The path of a result cell (tests and the tier-1 smoke tamper
    /// with cells through it).
    #[must_use]
    pub fn result_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir.object_path(ObjectKind::Result, fp)
    }

    /// Loads the trace addressed by `fp`. `Ok(None)` is a miss — no
    /// such object, or an object that is corrupt (bad magic,
    /// truncation, checksum mismatch) and must be regenerated. The file
    /// is decoded as it is read, through a small buffer, so the object's
    /// bytes are never held whole.
    ///
    /// # Errors
    ///
    /// Returns a *transient* [`SimError`] when the store could not
    /// answer (local IO trouble, or an injected IO fault). Callers may
    /// retry or degrade to regeneration.
    pub fn load_trace(&self, fp: Fingerprint) -> Result<Option<Trace>, SimError> {
        self.load_trace_into(fp, Vec::new())
    }

    /// [`MemoStore::load_trace`] decoding into `records`
    /// ([`read_trace_into`]): a released trace's buffer serves the next
    /// decode. The buffer is dropped on a miss or an error.
    ///
    /// # Errors
    ///
    /// As [`MemoStore::load_trace`].
    pub fn load_trace_into(
        &self,
        fp: Fingerprint,
        records: Vec<BranchRecord>,
    ) -> Result<Option<Trace>, SimError> {
        self.check_faults("load_trace")?;
        match self.dir.stream(ObjectKind::Trace, fp, |reader| read_trace_into(reader, records))? {
            Some(Ok(trace)) => {
                self.trace_loads.fetch_add(1, Ordering::Relaxed);
                self.telemetry.counter("memo_trace_loads").inc();
                Ok(Some(trace))
            }
            // A read that fails before the object ends is the disk's
            // trouble, not the entry's.
            Some(Err(TraceIoError::Io(e))) if e.kind() != std::io::ErrorKind::UnexpectedEof => {
                Err(SimError::MemoIo { op: "load_trace", detail: e.to_string() })
            }
            // No object, or a corrupt one (a parse failure or a short
            // object) rather than an IO fault: the cell degrades to a miss
            // and the regenerated trace overwrites it.
            _ => Ok(None),
        }
    }

    /// Persists `trace` under `fp` (best-effort; callers typically ignore
    /// the error since the cache is an optimization, not a correctness
    /// requirement).
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error when the write or rename fails.
    pub fn store_trace(&self, fp: Fingerprint, trace: &Trace) -> std::io::Result<()> {
        self.check_faults("store_trace").map_err(std::io::Error::other)?;
        let mut buf = Vec::with_capacity(trace.len() * 20 + 64);
        write_trace(&mut buf, trace).map_err(|e| match e {
            TraceIoError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        })?;
        self.dir.put(ObjectKind::Trace, fp, &buf).map_err(std::io::Error::other)?;
        self.trace_stores.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("memo_trace_stores").inc();
        self.telemetry.counter("memo_bytes_written").add(buf.len() as u64);
        Ok(())
    }

    /// Whether a result cell exists for `fp` (no validation; a corrupt
    /// cell will still be rejected by [`MemoStore::load_result`]).
    #[must_use]
    pub fn has_result(&self, fp: Fingerprint) -> bool {
        self.dir.contains(ObjectKind::Result, fp)
    }

    /// Claims the cell addressed by `fp` for this process, blocking while
    /// another caller holds it. The sweep engine holds the slot from its
    /// memo probe until the cell is published, so two campaigns sharing
    /// this store and a cell simulate it once: the second waits here,
    /// then its probe hits.
    #[must_use = "the cell is released as soon as the slot drops"]
    pub fn claim_cell(&self, fp: Fingerprint) -> CellSlot<'_> {
        let mut in_flight = self.in_flight.lock().unwrap_or_else(PoisonError::into_inner);
        while !in_flight.insert(fp.0) {
            in_flight = self.released.wait(in_flight).unwrap_or_else(PoisonError::into_inner);
        }
        CellSlot { store: self, fp: fp.0 }
    }

    /// The recorded simulation wall time of the cell addressed by `fp`,
    /// used by the engine as the longest-job-first cost model.
    #[must_use]
    pub fn recorded_cost(&self, fp: Fingerprint) -> Option<Duration> {
        // The wall time sits at a fixed offset right after magic+version;
        // a 16-byte head read avoids shipping (and validating) the whole
        // cell just to schedule it.
        let head = self.dir.head(ObjectKind::Result, fp, 16).ok()??;
        if head.len() < 16 || head[0..4] != CELL_MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(head[4..8].try_into().expect("slice length"));
        if version != MEMO_FORMAT_VERSION {
            return None;
        }
        let nanos = u64::from_le_bytes(head[8..16].try_into().expect("slice length"));
        Some(Duration::from_nanos(nanos))
    }

    /// Loads the result cell addressed by `fp`. `Ok(None)` is a miss —
    /// no cell on disk, or a cell that fails validation (corruption
    /// degrades to re-simulation, never to a wrong result).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoIo`] on a *transient* failure: the file
    /// exists but could not be read (or an injected IO fault fired).
    /// The sweep engine retries these with backoff.
    pub fn load_result(&self, fp: Fingerprint) -> Result<Option<CachedCell>, SimError> {
        self.check_faults("load_result")?;
        let Some(bytes) = self.dir.get(ObjectKind::Result, fp)? else {
            return Ok(None);
        };
        let Some(cell) = decode_cell(&bytes) else {
            return Ok(None);
        };
        self.result_loads.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("memo_result_loads").inc();
        Ok(Some(cell))
    }

    /// The raw encoded bytes of the result cell addressed by `fp`, with
    /// only the cheap structural checks (magic, version, trailer
    /// checksum) applied — the serve daemon streams these to clients
    /// verbatim, and the client decodes with the same
    /// corruption-degrades-to-miss rules as a local load.
    ///
    /// # Errors
    ///
    /// As [`MemoStore::load_result`]; `Ok(None)` is a miss or a cell
    /// that fails validation.
    pub fn result_bytes(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, SimError> {
        self.check_faults("result_bytes")?;
        let Some(bytes) = self.dir.get(ObjectKind::Result, fp)? else {
            return Ok(None);
        };
        if decode_cell(&bytes).is_none() {
            return Ok(None);
        }
        Ok(Some(bytes))
    }

    /// Persists a result cell, returning the payload digest written into
    /// the cell's trailer (journaled with the cell's `ok` entry so a
    /// later `--verify-resume` can re-check it).
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error when the write or rename fails.
    pub fn store_result(
        &self,
        fp: Fingerprint,
        result: &SimResult,
        wall: Duration,
        trace_len: u64,
    ) -> std::io::Result<Fingerprint> {
        self.check_faults("store_result").map_err(std::io::Error::other)?;
        let (bytes, digest) = encode_cell(result, wall, trace_len);
        self.dir.put(ObjectKind::Result, fp, &bytes).map_err(std::io::Error::other)?;
        self.result_stores.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("memo_result_stores").inc();
        self.telemetry.counter("memo_bytes_written").add(bytes.len() as u64);
        Ok(digest)
    }

    /// Re-validates the cell addressed by `fp` for a verified resume:
    /// decodes it (checksum included) and, when a journaled `expected`
    /// digest is available, compares the cell's trailer digest against
    /// it. `Ok(false)` means the cell is missing, corrupt, or not the
    /// cell the journal's `ok` entry described — the caller demotes it to
    /// a miss and re-runs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoIo`] on a *transient* read failure (the
    /// file exists but could not be read, or an injected IO fault fired),
    /// exactly as [`MemoStore::load_result`].
    pub fn verify_result(
        &self,
        fp: Fingerprint,
        expected: Option<Fingerprint>,
    ) -> Result<bool, SimError> {
        self.check_faults("verify_result")?;
        let Some(bytes) = self.dir.get(ObjectKind::Result, fp)? else {
            return Ok(false);
        };
        let Some(cell) = decode_cell(&bytes) else {
            return Ok(false);
        };
        Ok(expected.is_none_or(|want| cell.digest == want))
    }

    // ------------------------------------------------------------------
    // Provenance streams
    // ------------------------------------------------------------------

    /// The path of a provenance stream. Streams are keyed by the
    /// *result* fingerprint of the cell they annotate, so `prov_tool`
    /// can walk from a campaign cell to its stream without re-hashing.
    #[must_use]
    pub fn prov_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir.object_path(ObjectKind::Prov, fp)
    }

    /// Whether a provenance stream exists for the result cell `fp` (no
    /// validation; a corrupt stream is rejected by
    /// [`MemoStore::load_prov`]).
    #[must_use]
    pub fn has_prov(&self, fp: Fingerprint) -> bool {
        self.dir.contains(ObjectKind::Prov, fp)
    }

    /// Loads the provenance stream of the result cell `fp`. `Ok(None)`
    /// is a miss — no stream, or one that fails validation (corruption
    /// degrades to re-simulation, never to a wrong report).
    ///
    /// # Errors
    ///
    /// Returns a *transient* [`SimError`] when the store could not
    /// answer, as [`MemoStore::load_result`].
    pub fn load_prov(&self, fp: Fingerprint) -> Result<Option<llbp_prov::ProvStream>, SimError> {
        self.check_faults("load_prov")?;
        let Some(bytes) = self.dir.get(ObjectKind::Prov, fp)? else {
            return Ok(None);
        };
        let Ok(stream) = llbp_prov::decode_stream(&bytes) else {
            return Ok(None);
        };
        self.prov_loads.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("memo_prov_loads").inc();
        Ok(Some(stream))
    }

    /// Persists the provenance stream of the result cell `fp`
    /// (best-effort, like [`MemoStore::store_trace`]: the stream is a
    /// report input, not a correctness requirement).
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error when the write or rename fails.
    pub fn store_prov(
        &self,
        fp: Fingerprint,
        stream: &llbp_prov::ProvStream,
    ) -> std::io::Result<()> {
        self.check_faults("store_prov").map_err(std::io::Error::other)?;
        let bytes = llbp_prov::encode_stream(stream);
        self.dir.put(ObjectKind::Prov, fp, &bytes).map_err(std::io::Error::other)?;
        self.prov_stores.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("memo_prov_stores").inc();
        self.telemetry.counter("memo_bytes_written").add(bytes.len() as u64);
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Result-cell serialization
//
// Layout (little-endian):
//   magic   [u8;4] = "LLBR"
//   version u32    = MEMO_FORMAT_VERSION
//   payload        (see encode_cell; starts with wall_nanos for the
//                   fixed-offset recorded_cost read)
//   digest  u128   StableHasher (FNV-1a 128) over the payload
// ----------------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_llbp_stats(buf: &mut Vec<u8>, s: &LlbpCellStats) {
    let l = &s.llbp;
    for v in [
        l.predictions,
        l.llbp_matches,
        l.no_override,
        l.good_override,
        l.bad_override,
        l.both_correct,
        l.both_wrong,
        l.storage_reads,
        l.storage_writes,
        l.cd_lookups,
        l.cd_hits,
        l.pb_hits,
        l.late_prefetches,
        l.pipeline_resets,
        l.contexts_created,
        l.pattern_allocs,
        l.instructions,
        l.cycles,
    ] {
        put_u64(buf, v);
    }
    let f = &s.frontend;
    for v in [f.branches, f.btb_resets, f.ras_resets, f.indirect_resets] {
        put_u64(buf, v);
    }
}

fn put_branch_map(buf: &mut Vec<u8>, map: Option<&FastHashMap<u64, u64>>) {
    match map {
        None => buf.push(0),
        Some(map) => {
            buf.push(1);
            let mut entries: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
            entries.sort_unstable();
            put_u64(buf, entries.len() as u64);
            for (k, v) in entries {
                put_u64(buf, k);
                put_u64(buf, v);
            }
        }
    }
}

/// Serializes a cell, returning the bytes and the payload digest written
/// into the trailer.
fn encode_cell(result: &SimResult, wall: Duration, trace_len: u64) -> (Vec<u8>, Fingerprint) {
    let mut payload = Vec::with_capacity(256);
    put_u64(&mut payload, u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
    put_u64(&mut payload, trace_len);
    put_str(&mut payload, &result.label);
    put_str(&mut payload, &result.workload);
    put_u64(&mut payload, result.instructions);
    put_u64(&mut payload, result.conditional_branches);
    put_u64(&mut payload, result.mispredictions);
    let mut providers: Vec<(&str, u64)> =
        result.provider_counts.iter().map(|(&k, &v)| (k, v)).collect();
    providers.sort_unstable();
    put_u64(&mut payload, providers.len() as u64);
    for (k, v) in providers {
        put_str(&mut payload, k);
        put_u64(&mut payload, v);
    }
    put_branch_map(&mut payload, result.per_branch_mispredicts.as_ref());
    put_branch_map(&mut payload, result.per_branch_executions.as_ref());
    match &result.llbp {
        None => payload.push(0),
        Some(s) => {
            payload.push(1);
            put_llbp_stats(&mut payload, s);
        }
    }

    let mut hasher = StableHasher::new();
    hasher.write(&payload);
    let digest = hasher.finish();

    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&CELL_MAGIC);
    out.extend_from_slice(&MEMO_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&digest.0.to_le_bytes());
    (out, digest)
}

/// A bounds-checked little-endian reader over a cell payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = usize::try_from(self.u64()?).ok()?;
        if len > self.bytes.len() {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn branch_map(&mut self) -> Option<Option<FastHashMap<u64, u64>>> {
        match self.u8()? {
            0 => Some(None),
            1 => {
                let n = usize::try_from(self.u64()?).ok()?;
                if n > self.bytes.len() / 16 {
                    return None;
                }
                let mut map = FastHashMap::default();
                map.reserve(n);
                for _ in 0..n {
                    let k = self.u64()?;
                    let v = self.u64()?;
                    map.insert(k, v);
                }
                Some(Some(map))
            }
            _ => None,
        }
    }

    fn llbp_stats(&mut self) -> Option<LlbpCellStats> {
        let mut l = LlbpStats::default();
        for field in [
            &mut l.predictions,
            &mut l.llbp_matches,
            &mut l.no_override,
            &mut l.good_override,
            &mut l.bad_override,
            &mut l.both_correct,
            &mut l.both_wrong,
            &mut l.storage_reads,
            &mut l.storage_writes,
            &mut l.cd_lookups,
            &mut l.cd_hits,
            &mut l.pb_hits,
            &mut l.late_prefetches,
            &mut l.pipeline_resets,
            &mut l.contexts_created,
            &mut l.pattern_allocs,
            &mut l.instructions,
            &mut l.cycles,
        ] {
            *field = self.u64()?;
        }
        let mut f = FrontEndStats::default();
        for field in [&mut f.branches, &mut f.btb_resets, &mut f.ras_resets, &mut f.indirect_resets]
        {
            *field = self.u64()?;
        }
        Some(LlbpCellStats { llbp: l, frontend: f })
    }
}

pub(crate) fn decode_cell(bytes: &[u8]) -> Option<CachedCell> {
    // magic + version + digest are the fixed overhead around the payload.
    if bytes.len() < 4 + 4 + 16 || bytes[0..4] != CELL_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != MEMO_FORMAT_VERSION {
        return None;
    }
    let payload = &bytes[8..bytes.len() - 16];
    let stored = u128::from_le_bytes(bytes[bytes.len() - 16..].try_into().ok()?);
    let mut hasher = StableHasher::new();
    hasher.write(payload);
    if hasher.finish().0 != stored {
        return None;
    }
    let digest = Fingerprint(stored);

    let mut c = Cursor { bytes: payload, pos: 0 };
    let wall = Duration::from_nanos(c.u64()?);
    let trace_len = c.u64()?;
    let label = c.str()?;
    let workload = c.str()?;
    let instructions = c.u64()?;
    let conditional_branches = c.u64()?;
    let mispredictions = c.u64()?;
    let n_providers = usize::try_from(c.u64()?).ok()?;
    if n_providers > 64 {
        return None;
    }
    let mut provider_counts: FastHashMap<&'static str, u64> = FastHashMap::default();
    for _ in 0..n_providers {
        let key = c.str()?;
        let count = c.u64()?;
        provider_counts.insert(llbp_tage::ProviderKind::intern_label(&key)?, count);
    }
    let per_branch_mispredicts = c.branch_map()?;
    let per_branch_executions = c.branch_map()?;
    let llbp = match c.u8()? {
        0 => None,
        1 => Some(c.llbp_stats()?),
        _ => return None,
    };
    if c.pos != payload.len() {
        return None; // trailing garbage inside a checksummed payload
    }
    Some(CachedCell {
        result: SimResult {
            label,
            workload,
            instructions,
            conditional_branches,
            mispredictions,
            provider_counts,
            per_branch_mispredicts,
            per_branch_executions,
            llbp,
        },
        wall,
        trace_len,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::Workload;
    use std::fs;
    use std::sync::atomic::AtomicU32;

    /// A unique throwaway store rooted under the system temp dir.
    fn scratch_store() -> (MemoStore, PathBuf) {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "llbp-memo-unit-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        (MemoStore::open(&dir).expect("temp store"), dir)
    }

    fn sample_result(with_maps: bool, with_llbp: bool) -> SimResult {
        let mut provider_counts: FastHashMap<&'static str, u64> = FastHashMap::default();
        provider_counts.insert("tage", 900);
        provider_counts.insert("bim", 100);
        let mk_map = || {
            let mut m: FastHashMap<u64, u64> = FastHashMap::default();
            m.insert(0x4000, 17);
            m.insert(0x4abc, 3);
            m
        };
        SimResult {
            label: "64K TSL".into(),
            workload: "HTTP".into(),
            instructions: 123_456,
            conditional_branches: 1_000,
            mispredictions: 42,
            provider_counts,
            per_branch_mispredicts: with_maps.then(mk_map),
            per_branch_executions: with_maps.then(mk_map),
            llbp: with_llbp.then(|| {
                let mut s = LlbpCellStats::default();
                s.llbp.predictions = 1_000;
                s.llbp.llbp_matches = 140;
                s.frontend.btb_resets = 7;
                s
            }),
        }
    }

    #[test]
    fn result_cell_roundtrips_exactly() {
        for (maps, llbp) in [(false, false), (true, false), (false, true), (true, true)] {
            let r = sample_result(maps, llbp);
            let (bytes, digest) = encode_cell(&r, Duration::from_millis(250), 5_000);
            let cell = decode_cell(&bytes).expect("roundtrip");
            assert_eq!(cell.result, r);
            assert_eq!(cell.wall, Duration::from_millis(250));
            assert_eq!(cell.trace_len, 5_000);
            assert_eq!(cell.digest, digest, "decoded digest matches the one encode reported");
        }
    }

    #[test]
    fn corrupt_cells_are_rejected() {
        let (bytes, _) = encode_cell(&sample_result(true, true), Duration::from_secs(1), 100);
        // Truncation anywhere → None.
        for cut in [1, 8, 20, bytes.len() - 1] {
            assert!(decode_cell(&bytes[..cut]).is_none(), "cut={cut}");
        }
        // Any flipped payload bit → checksum mismatch → None.
        for i in [9, 20, bytes.len() / 2, bytes.len() - 17] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_cell(&bad).is_none(), "flip at {i}");
        }
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_cell(&bad).is_none());
    }

    #[test]
    fn store_roundtrips_results_and_costs() {
        let (store, dir) = scratch_store();
        let fp = Fingerprint(0xfeed);
        assert!(store.load_result(fp).expect("clean store").is_none());
        assert!(!store.has_result(fp));
        assert!(store.recorded_cost(fp).is_none());

        let r = sample_result(false, false);
        store.store_result(fp, &r, Duration::from_micros(1234), 777).expect("store");
        assert!(store.has_result(fp));
        assert_eq!(store.recorded_cost(fp), Some(Duration::from_micros(1234)));
        let cell = store.load_result(fp).expect("no io fault").expect("load");
        assert_eq!(cell.result, r);
        assert_eq!(cell.trace_len, 777);
        assert_eq!(store.result_loads(), 1);
        assert_eq!(store.result_stores(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn store_roundtrips_traces() {
        let (store, dir) = scratch_store();
        let spec = WorkloadSpec::named(Workload::Http).with_branches(800);
        let fp = store.trace_fingerprint(&spec);
        assert!(store.load_trace(fp).expect("clean store").is_none());
        let trace = spec.generate();
        store.store_trace(fp, &trace).expect("store trace");
        let back = store.load_trace(fp).expect("no io fault").expect("load trace");
        assert_eq!(back.records(), trace.records());
        assert_eq!(back.name(), trace.name());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn streamed_trace_loads_keep_the_miss_and_error_classes() {
        let (store, dir) = scratch_store();
        let spec = WorkloadSpec::named(Workload::Http).with_branches(5_000);
        let fp = store.trace_fingerprint(&spec);
        store.store_trace(fp, &spec.generate()).expect("store trace");
        let path = dir.join(ObjectKind::Trace.dir()).join(format!("{fp}.llbt"));
        let bytes = fs::read(&path).expect("trace object");
        // A short object and a flipped bit are corrupt entries: misses.
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(store.load_trace(fp).expect("truncation is no IO fault").is_none());
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x04;
        fs::write(&path, &flipped).expect("flip");
        assert!(store.load_trace(fp).expect("corruption is no IO fault").is_none());
        // A read the disk refuses is transient, as a failed whole-object
        // read was: here the object's path is a directory.
        fs::remove_file(&path).expect("remove");
        fs::create_dir(&path).expect("directory in the object's place");
        let err = store.load_trace(fp).expect_err("unreadable object");
        assert_eq!(err.class(), "memo_io");
        assert!(err.is_transient());
        assert_eq!(store.trace_loads(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn version_one_trace_object_is_a_miss() {
        // A store written before the 20-byte record layout holds version-1
        // objects: 22-byte records (pc, target, kind byte, taken byte,
        // instructions) and an FNV-1a sum over the records. Such an object
        // decodes as a miss, so the trace regenerates.
        let (store, dir) = scratch_store();
        let spec = WorkloadSpec::named(Workload::Http).with_branches(64);
        let trace = spec.generate();
        let mut v1 = b"LLBT".to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&(trace.name().len() as u16).to_le_bytes());
        v1.extend_from_slice(trace.name().as_bytes());
        v1.extend_from_slice(&(trace.len() as u64).to_le_bytes());
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for r in &trace {
            let mut raw = Vec::with_capacity(22);
            raw.extend_from_slice(&r.pc().to_le_bytes());
            raw.extend_from_slice(&r.target().to_le_bytes());
            raw.extend_from_slice(&[r.kind().as_u8(), u8::from(r.taken())]);
            raw.extend_from_slice(&r.non_branch_insts().to_le_bytes());
            for &b in &raw {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            v1.extend_from_slice(&raw);
        }
        v1.extend_from_slice(&fnv.to_le_bytes());
        let fp = store.trace_fingerprint(&spec);
        store.dir.put(ObjectKind::Trace, fp, &v1).expect("put v1 object");
        assert!(store.load_trace(fp).expect("no io fault").is_none());
        assert_eq!(store.trace_loads(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn store_roundtrips_prov_streams() {
        let (store, dir) = scratch_store();
        let fp = Fingerprint(0xbeef);
        assert!(!store.has_prov(fp));
        assert!(store.load_prov(fp).expect("clean store").is_none());

        let mut recorder = llbp_prov::ProvRecorder::enabled(llbp_prov::ProvConfig::default());
        let info = llbp_tage::PredictionInfo::from_provider(true, llbp_tage::ProviderKind::Bimodal);
        recorder.record(0x4000, false, &info);
        let stream = recorder.finish("64K TSL", "http").expect("enabled");
        store.store_prov(fp, &stream).expect("store prov");
        assert!(store.has_prov(fp));
        let back = store.load_prov(fp).expect("no io fault").expect("load prov");
        assert_eq!(back, stream);
        assert_eq!(store.prov_loads(), 1);
        assert_eq!(store.prov_stores(), 1);

        // A tampered stream degrades to a miss, exactly like a cell.
        let path = store.prov_path(fp);
        let mut bytes = fs::read(&path).expect("stream bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).expect("rewrite");
        assert!(store.load_prov(fp).expect("readable").is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn fingerprints_separate_every_input() {
        let (store, dir) = scratch_store();
        let spec = WorkloadSpec::named(Workload::Http).with_branches(1_000);
        let sim = SimConfig::default();
        let base = store.result_fingerprint(&PredictorKind::Tsl64K, &spec, &sim);
        assert_ne!(
            base,
            store.result_fingerprint(&PredictorKind::TslScaled(2), &spec, &sim),
            "predictor must be keyed"
        );
        assert_ne!(
            base,
            store.result_fingerprint(
                &PredictorKind::Tsl64K,
                &spec.clone().with_branches(2_000),
                &sim
            ),
            "workload must be keyed"
        );
        assert_ne!(
            base,
            store.result_fingerprint(
                &PredictorKind::Tsl64K,
                &spec,
                &SimConfig { track_per_branch: true, ..sim }
            ),
            "sim config must be keyed"
        );
        assert_ne!(store.trace_fingerprint(&spec), base, "domains must not collide");
        for backend in crate::backend::BackendKind::CONCRETE {
            assert_eq!(
                base,
                store.result_fingerprint(&PredictorKind::Tsl64K, &spec, &sim.with_backend(backend)),
                "backend must NOT be keyed: parity-pinned tiers share memo cells"
            );
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn salt_changes_every_fingerprint() {
        let (a, dir_a) = scratch_store();
        let dir_b = std::env::temp_dir().join(format!("llbp-memo-salt-{}", std::process::id()));
        let b = MemoStore::open_with_salt(&dir_b, 1).expect("salted store");
        let spec = WorkloadSpec::named(Workload::Kafka).with_branches(500);
        assert_ne!(a.trace_fingerprint(&spec), b.trace_fingerprint(&spec));
        assert_ne!(
            a.result_fingerprint(&PredictorKind::Tsl64K, &spec, &SimConfig::default()),
            b.result_fingerprint(&PredictorKind::Tsl64K, &spec, &SimConfig::default())
        );
        let _ = fs::remove_dir_all(dir_a);
        let _ = fs::remove_dir_all(dir_b);
    }

    #[test]
    fn injected_io_faults_surface_as_transient_memo_errors() {
        let (mut store, dir) = scratch_store();
        store.attach_faults(std::sync::Arc::new(
            FaultInjector::parse("io:rate=1/1").expect("spec parses"),
        ));
        let fp = Fingerprint(0xdead);
        let err = store.load_result(fp).expect_err("1/1 rate always fires");
        assert!(err.is_transient());
        assert_eq!(err.class(), "memo_io");
        assert!(store.load_trace(fp).is_err());
        let r = sample_result(false, false);
        assert!(store.store_result(fp, &r, Duration::ZERO, 1).is_err());
        assert!(!store.has_result(fp), "a failed store must not publish a cell");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn verify_result_accepts_good_cells_and_rejects_tampering() {
        let (store, dir) = scratch_store();
        let fp = Fingerprint(0xcafe);
        assert!(!store.verify_result(fp, None).expect("missing is not an error"));

        let r = sample_result(true, true);
        let digest = store.store_result(fp, &r, Duration::from_millis(5), 42).expect("store");
        assert!(store.verify_result(fp, None).expect("readable"), "checksum-only pass");
        assert!(store.verify_result(fp, Some(digest)).expect("readable"), "digest pass");
        assert!(
            !store.verify_result(fp, Some(Fingerprint(digest.0 ^ 1))).expect("readable"),
            "a valid cell that is not the journaled one must fail digest verification"
        );

        // Flip one payload byte in place: the checksum no longer matches,
        // so even a digest-less verification demotes the cell.
        let path = store.result_path(fp);
        let mut bytes = fs::read(&path).expect("cell bytes");
        bytes[10] ^= 0x04;
        fs::write(&path, &bytes).expect("rewrite");
        assert!(!store.verify_result(fp, None).expect("readable"));
        assert!(!store.verify_result(fp, Some(digest)).expect("readable"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_provider_label_invalidates_cell() {
        // Simulate a cell written by a future simulator with a new
        // provider kind: today's reader must treat it as a miss.
        let r = sample_result(false, false);
        let (mut bytes, _) = encode_cell(&r, Duration::ZERO, 1);
        // Corrupting the interned label text breaks the checksum first,
        // which is already a rejection; rebuild a cell whose payload is
        // valid but carries an unknown label.
        let pos = bytes.windows(3).position(|w| w == b"bim").expect("label present in encoding");
        bytes[pos..pos + 3].copy_from_slice(b"xyz");
        // Fix up the digest so only the label is "wrong".
        let payload_end = bytes.len() - 16;
        let mut hasher = StableHasher::new();
        hasher.write(&bytes[8..payload_end]);
        let digest = hasher.finish().0.to_le_bytes();
        bytes[payload_end..].copy_from_slice(&digest);
        assert!(decode_cell(&bytes).is_none());
    }
}
