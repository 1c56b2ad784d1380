//! TAGE-SC-L: the state-of-the-art branch predictor the LLBP paper builds
//! on, reimplemented from scratch.
//!
//! The crate provides:
//!
//! * [`Tage`] — the core TAgged GEometric history length predictor
//!   ([Seznec & Michaud '06], CBP-5 '16 configuration): a bimodal base
//!   table plus tagged tables indexed by geometrically increasing folded
//!   global history, with usefulness-guided allocation.
//! * [`StatisticalCorrector`] — a GEHL-style corrector that revises
//!   statistically biased TAGE predictions.
//! * [`LoopPredictor`] — a confidence-gated loop-exit predictor.
//! * [`TageScl`] — the full TAGE-SC-L composition, configurable from 64 KiB
//!   ([`TslConfig::cbp64k`]) up to 1 MiB and beyond by table scaling, plus
//!   the paper's *infinite* variants (`Inf TAGE`, `Inf TSL`) which give the
//!   tagged tables unbounded associativity while keeping the hash
//!   functions unchanged (§VI).
//! * [`Predictor`] — the driving trait shared with LLBP and the simulator.
//! * [`TablePool`] — the large tables one predictor hands to the next, so a
//!   sweep worker builds them once per run instead of once per cell.
//!
//! # Example
//!
//! ```
//! use llbp_tage::{Predictor, TageScl, TslConfig};
//! use llbp_trace::{Workload, WorkloadSpec};
//!
//! let mut tsl = TageScl::new(TslConfig::cbp64k());
//! let trace = WorkloadSpec::named(Workload::Http).with_branches(2_000).generate();
//! let mut mispredicts = 0u64;
//! for r in &trace {
//!     if r.kind() == llbp_trace::BranchKind::Conditional {
//!         let pred = tsl.predict(r.pc());
//!         mispredicts += u64::from(pred != r.taken());
//!         tsl.train(r.pc(), r.taken());
//!     }
//!     tsl.update_history(r);
//! }
//! assert!(mispredicts < 2_000);
//! ```

// Every `unsafe` block states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod btb;
pub mod classic;
pub mod config;
pub mod frontend;
pub mod history;
pub mod ittage;
pub mod loop_pred;
pub mod pool;
pub mod predictor;
pub mod ras;
pub mod sc;
pub mod tage;
pub mod useful;

pub use btb::Btb;
pub use config::{StorageKind, TageConfig, TslConfig};
pub use frontend::{FrontEnd, FrontEndStats, ResetReason};
pub use history::TageHistory;
pub use ittage::Ittage;
pub use loop_pred::LoopPredictor;
pub use pool::TablePool;
pub use predictor::{PredictionInfo, Predictor, ProviderKind};
pub use ras::ReturnAddressStack;
pub use sc::StatisticalCorrector;
pub use tage::{Tage, TageLookup};
pub use useful::UsefulPatternTracker;

mod tsl;
pub use tsl::{TageScl, TslCheckpoint, TslLookup};
