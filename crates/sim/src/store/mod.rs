//! Pluggable storage tiers behind the content-addressed memo store.
//!
//! [`MemoStore`](crate::memo::MemoStore) owns *what* is stored — cell
//! encoding, fingerprints, checksums — while a [`StorageBackend`] owns
//! *where* the bytes live. The split mirrors the paper's own
//! architecture: a small fast tier (the local directory every campaign
//! already has) backed by a large shared tier (a remote store served
//! over TCP), with the consumer oblivious to which tier answered.
//!
//! Two backends exist:
//!
//! * [`LocalDir`](local::LocalDir) — the original directory layout
//!   (`traces/`, `results/`, `tmp/` + atomic rename publishes); the
//!   default, and also the *overlay* the remote backend degrades to.
//! * [`RemoteBackend`](remote::RemoteBackend) — a length-prefixed TCP
//!   object protocol (see [`proto`]) against an
//!   [`llbp-store` server](server::StoreServer), with bounded
//!   retry/backoff, per-request timeouts, and graceful degradation: when
//!   the remote is unreachable the backend falls back to its local
//!   overlay and re-publishes overlay writes on reconnect, so a store
//!   outage never fails a campaign.
//!
//! The `LLBP_STORE` environment variable selects the tier:
//! unset/`local` keeps the local directory, `tcp://host:port` routes
//! object IO through the shared server (journals and their locks stay
//! local — only content-addressed objects cross the network).

pub mod local;
pub mod proto;
pub mod remote;
pub mod server;

use crate::error::SimError;
use crate::faultinject::FaultInjector;
use llbp_trace::fingerprint::Fingerprint;
use std::sync::Arc;

/// Environment variable selecting the storage backend
/// (`local` or `tcp://host:port`).
pub const STORE_ENV: &str = "LLBP_STORE";

/// Environment variable overriding the remote backend's per-request
/// timeout in milliseconds (default
/// [`remote::DEFAULT_REQUEST_TIMEOUT`]).
pub const STORE_TIMEOUT_ENV: &str = "LLBP_STORE_TIMEOUT_MS";

/// The content-addressed object families a backend stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Serialized workload traces (`.llbt`).
    Trace,
    /// Serialized result cells (`.llbr`).
    Result,
    /// Serialized provenance streams (`.llpv`), keyed by the same
    /// fingerprint as the result cell they annotate.
    Prov,
}

impl ObjectKind {
    /// Subdirectory holding this family in the local layout.
    #[must_use]
    pub fn dir(self) -> &'static str {
        match self {
            ObjectKind::Trace => "traces",
            ObjectKind::Result => "results",
            ObjectKind::Prov => "prov",
        }
    }

    /// File extension of this family in the local layout.
    #[must_use]
    pub fn ext(self) -> &'static str {
        match self {
            ObjectKind::Trace => "llbt",
            ObjectKind::Result => "llbr",
            ObjectKind::Prov => "llpv",
        }
    }

    /// Protocol wire tag ([`ObjectKind::from_wire`] inverts it).
    #[must_use]
    pub fn wire(self) -> u8 {
        match self {
            ObjectKind::Trace => 0,
            ObjectKind::Result => 1,
            ObjectKind::Prov => 2,
        }
    }

    /// Decodes a protocol wire tag.
    #[must_use]
    pub fn from_wire(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ObjectKind::Trace),
            1 => Some(ObjectKind::Result),
            2 => Some(ObjectKind::Prov),
            _ => None,
        }
    }
}

/// Where content-addressed object bytes live.
///
/// Implementations move opaque byte blobs; all interpretation (cell
/// decoding, checksum validation, corruption-degrades-to-miss) stays in
/// `MemoStore`, so every backend inherits the same defensive reads.
///
/// # Errors
///
/// Methods return `Ok(None)`/`Ok(false)` for a clean miss and
/// [`SimError`] only for *transient* faults (local IO trouble, network
/// trouble) that a caller may retry or degrade around.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Short tier name for logs and throughput records
    /// (`"local"` / `"remote"`).
    fn tier(&self) -> &'static str;

    /// Fetches the full object, `Ok(None)` on miss.
    fn get(&self, kind: ObjectKind, fp: Fingerprint) -> Result<Option<Vec<u8>>, SimError>;

    /// Hands the object to `consume` as a reader; on a miss `consume` is
    /// not called. The default reads the whole object with
    /// [`StorageBackend::get`]; the local tier streams its file through a
    /// small buffer instead. An IO error `consume` meets while reading is
    /// its own to classify.
    fn stream(
        &self,
        kind: ObjectKind,
        fp: Fingerprint,
        consume: &mut dyn FnMut(&mut dyn std::io::Read),
    ) -> Result<(), SimError> {
        if let Some(bytes) = self.get(kind, fp)? {
            consume(&mut bytes.as_slice());
        }
        Ok(())
    }

    /// Publishes an object atomically: readers (local or remote) never
    /// observe a partial write.
    fn put(&self, kind: ObjectKind, fp: Fingerprint, bytes: &[u8]) -> Result<(), SimError>;

    /// Fetches the object's first `len` bytes (the whole object when
    /// shorter), `Ok(None)` on miss. Backends may use this to avoid
    /// shipping a full cell when only its header is needed.
    fn head(
        &self,
        kind: ObjectKind,
        fp: Fingerprint,
        len: usize,
    ) -> Result<Option<Vec<u8>>, SimError>;

    /// Whether the object exists (no validation).
    fn contains(&self, kind: ObjectKind, fp: Fingerprint) -> Result<bool, SimError>;

    /// Attaches a fault injector whose `net:*` rules fire at this
    /// backend's framing layer. The default (local) backend has no
    /// framing layer and ignores it.
    fn attach_faults(&self, _faults: Arc<FaultInjector>) {}
}

/// The backend selected by [`STORE_ENV`], rooted (for the local tier —
/// and the remote tier's degradation overlay) at `local_root`.
///
/// # Errors
///
/// [`SimError::Config`] when the spec is malformed, [`SimError::MemoIo`]
/// when the local directory tree cannot be created. An *unreachable*
/// remote is not an error here: connections are lazy and the remote
/// backend degrades to its overlay until the server appears.
pub fn backend_from_env(local_root: &std::path::Path) -> Result<Arc<dyn StorageBackend>, SimError> {
    match std::env::var(STORE_ENV) {
        Ok(spec) if !spec.trim().is_empty() => backend_from_spec(spec.trim(), local_root),
        _ => Ok(Arc::new(
            local::LocalDir::open(local_root)
                .map_err(|e| SimError::MemoIo { op: "open_store", detail: e.to_string() })?,
        )),
    }
}

/// [`backend_from_env`] for an explicit spec string.
///
/// # Errors
///
/// As [`backend_from_env`].
pub fn backend_from_spec(
    spec: &str,
    local_root: &std::path::Path,
) -> Result<Arc<dyn StorageBackend>, SimError> {
    if spec == "local" {
        return Ok(Arc::new(
            local::LocalDir::open(local_root)
                .map_err(|e| SimError::MemoIo { op: "open_store", detail: e.to_string() })?,
        ));
    }
    if let Some(addr) = spec.strip_prefix("tcp://") {
        if addr
            .rsplit_once(':')
            .is_none_or(|(host, port)| host.is_empty() || port.parse::<u16>().is_err())
        {
            return Err(SimError::Config {
                detail: format!("{STORE_ENV} `{spec}`: expected tcp://host:port"),
            });
        }
        let backend = remote::RemoteBackend::open(addr.to_string(), local_root)?;
        return Ok(Arc::new(backend));
    }
    Err(SimError::Config {
        detail: format!("{STORE_ENV} `{spec}`: expected `local` or `tcp://host:port`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_kind_wire_tags_roundtrip() {
        for kind in [ObjectKind::Trace, ObjectKind::Result, ObjectKind::Prov] {
            assert_eq!(ObjectKind::from_wire(kind.wire()), Some(kind));
        }
        assert_eq!(ObjectKind::from_wire(7), None);
    }

    #[test]
    fn malformed_store_specs_are_config_errors() {
        let root = std::env::temp_dir().join(format!("llbp-store-spec-{}", std::process::id()));
        for bad in ["tcp://", "tcp://host", "tcp://:99", "tcp://host:notaport", "s3://x"] {
            let err = backend_from_spec(bad, &root).expect_err("spec `{bad}` must fail");
            assert_eq!(err.class(), "config", "spec `{bad}`");
            assert_eq!(err.exit_code(), 2);
        }
        let local = backend_from_spec("local", &root).expect("local spec");
        assert_eq!(local.tier(), "local");
        let remote = backend_from_spec("tcp://127.0.0.1:1", &root).expect("remote spec is lazy");
        assert_eq!(remote.tier(), "remote");
        let _ = std::fs::remove_dir_all(root);
    }
}
