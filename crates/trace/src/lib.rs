//! Branch traces: record types, binary IO, statistics, and synthetic
//! server-workload generation.
//!
//! The LLBP paper evaluates on instruction traces collected with gem5 from
//! server applications plus Google production traces. Neither is available
//! here, so this crate provides a *synthetic workload generator*
//! ([`synth`]) that reproduces the statistical structure those traces
//! exhibit — large static branch working sets, context-dependent
//! hard-to-predict branches reached through many distinct call chains, and
//! an ≈3.9:1 conditional-to-unconditional branch ratio — so the predictors
//! under study exercise the same code paths. See `DESIGN.md` §3 for the
//! substitution rationale.
//!
//! # Example
//!
//! ```
//! use llbp_trace::{Workload, WorkloadSpec};
//!
//! let trace = WorkloadSpec::named(Workload::Tomcat)
//!     .with_branches(5_000)
//!     .generate();
//! assert_eq!(trace.len(), 5_000);
//! let stats = trace.stats();
//! assert!(stats.conditional > 0 && stats.unconditional > 0);
//! ```

pub mod fingerprint;
pub mod io;
pub mod record;
pub mod stats;
pub mod synth;

pub use fingerprint::{Fingerprint, StableHasher};
pub use io::{read_trace, read_trace_into, write_trace, TraceIoError};
pub use record::{BranchKind, BranchRecord, Trace, TraceSoa};
pub use stats::{BranchCharacter, Characterization, TraceStats};
pub use synth::{NoSink, ProgressSink, Workload, WorkloadParams, WorkloadSpec, GEN_POLL_INTERVAL};
