//! Trace-driven branch-prediction simulation: the driver, predictor
//! factory, and the analytic models (timing, energy, L1-I traffic) the
//! paper's evaluation relies on.
//!
//! # Example
//!
//! ```
//! use llbp_sim::{PredictorKind, SimConfig};
//! use llbp_trace::{Workload, WorkloadSpec};
//!
//! let trace = WorkloadSpec::named(Workload::Http).with_branches(20_000).generate();
//! let cfg = SimConfig::default();
//! let base = cfg.run(PredictorKind::Tsl64K, &trace);
//! let big = cfg.run(PredictorKind::TslScaled(8), &trace);
//! assert!(big.mpki() <= base.mpki() * 1.2);
//! ```

pub mod backend;
pub mod cache;
pub mod config;
pub mod driver;
pub mod energy;
pub mod engine;
pub mod envknob;
pub mod error;
pub mod faultinject;
pub mod journal;
pub mod l1i;
pub mod lock;
pub mod memo;
pub mod patterns;
pub mod report;
pub mod serve;
pub mod store;
pub mod timing;

pub use backend::{BackendKind, BACKEND_ENV, BATCH_BLOCK};
pub use cache::TraceCache;
pub use config::{PredictorKind, SimConfig};
pub use driver::{LlbpCellStats, SimResult, Simulator};
pub use energy::EnergyModel;
pub use engine::{JobError, ProvSummary, SweepEngine, SweepReport, SweepSpec};
pub use error::{CancelToken, SimError};
pub use faultinject::{FaultInjector, FAULT_SPEC_ENV};
pub use journal::{campaign_fingerprint, CampaignJournal, CellOutcome};
pub use l1i::L1iCache;
pub use lock::{LockFile, LOCK_WAIT_ENV};
pub use memo::{CachedCell, MemoStore, MEMO_FORMAT_VERSION};
pub use store::ObjectKind;
pub use timing::TimingModel;

/// The observability crate, re-exported so downstream harnesses can build
/// [`llbp_obs::Telemetry`] handles without naming a second dependency.
pub use llbp_obs as obs;

/// The provenance crate, re-exported so harnesses can configure
/// [`llbp_prov::ProvRecorder`] recording without naming a second
/// dependency.
pub use llbp_prov as prov;
pub use llbp_prov::{ProvConfig, ProvRecorder};
