//! Where the content-addressed memo store's object bytes live.
//!
//! [`MemoStore`](crate::memo::MemoStore) owns *what* is stored — cell
//! encoding, fingerprints, checksums — while a
//! [`LocalDir`](local::LocalDir) owns *where* the bytes live: the
//! directory layout (`traces/`, `results/`, `prov/`, `tmp/`) and its
//! atomic temp-file-and-rename publishes.

pub mod local;

/// The content-addressed object families the store holds.
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
}
