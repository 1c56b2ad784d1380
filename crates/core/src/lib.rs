//! The Last-Level Branch Predictor (LLBP) — the paper's contribution.
//!
//! LLBP backs an unmodified TAGE-SC-L with a large, slow pattern-set store
//! organised around *program contexts*: hashes of the most recent
//! unconditional branches (function-call chains). Each context owns a
//! small **pattern set** (16 patterns in 4 history-length buckets); a
//! **context directory** (CD) locates sets; a 64-entry **pattern buffer**
//! (PB) caches the sets for current and upcoming contexts; and a
//! storage-free prefetcher — the **rolling context register** (RCR) —
//! hides the access latency by fetching the set for a context `D`
//! unconditional branches before it becomes current (§V).
//!
//! # Example
//!
//! ```
//! use llbp_core::{LlbpParams, LlbpPredictor};
//! use llbp_tage::Predictor;
//! use llbp_trace::{BranchKind, Workload, WorkloadSpec};
//!
//! let mut p = LlbpPredictor::new(LlbpParams::default());
//! let trace = WorkloadSpec::named(Workload::NodeApp).with_branches(5_000).generate();
//! for r in &trace {
//!     if r.kind() == BranchKind::Conditional {
//!         let pred = p.predict(r.pc());
//!         let _ = pred;
//!         p.train(r.pc(), r.taken());
//!     }
//!     p.update_history(r);
//! }
//! assert!(p.stats().predictions > 0);
//! ```

pub mod params;
pub mod pattern;
pub mod predictor;
pub mod prefetch;
pub mod rcr;
pub mod stats;

pub use params::{CancelPolicy, CdReplacement, ContextHistoryKind, LlbpParams};
pub use pattern::{Pattern, PatternArena, SetGeometry};
pub use predictor::{LlbpCheckpoint, LlbpPredictor};
pub use prefetch::PrefetchQueue;
pub use rcr::{ContextIds, RollingContextRegister};
pub use stats::{LlbpStats, OverrideKind};
