//! Generic building blocks for table-based branch predictors.
//!
//! This crate collects the low-level machinery shared by the TAGE-SC-L
//! baseline (`llbp-tage`) and the Last-Level Branch Predictor
//! (`llbp-core`):
//!
//! * [`counter`] — saturating up/down counters with configurable width.
//! * [`history`] — a long global history register plus incrementally
//!   maintained *folded* (compressed) histories, as used by TAGE to hash
//!   thousands of history bits in O(1) per branch.
//! * [`table`] — direct-mapped and set-associative tables with pluggable
//!   victim selection (LRU or custom policies).
//! * [`hash`] — small integer mixing functions used to build table indices
//!   and tags.
//! * [`kernel`] — every folded register of a predictor in one bank, and the
//!   per-lookup index/tag hashes as one loop, each built for the baseline
//!   target and for AVX-512.
//! * [`rng`] — a tiny deterministic PRNG for allocation tie-breaking, so
//!   predictors are reproducible without depending on external crates.
//! * [`stats`] — percentiles, means and histograms for experiment reporting.
//!
//! # Example
//!
//! ```
//! use bputil::counter::SatCounter;
//!
//! let mut ctr = SatCounter::new_signed(3); // 3-bit counter in [-4, 3]
//! for _ in 0..10 {
//!     ctr.update(true);
//! }
//! assert!(ctr.taken());
//! assert!(ctr.is_saturated());
//! ```

// Every `unsafe` block states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod counter;
pub mod hash;
pub mod history;
pub mod kernel;
pub mod rng;
pub mod stats;
pub mod table;

pub use counter::{CounterWidth, SatCounter, UnsignedCounter};
pub use history::{FoldedHistory, HistoryBuffer, PathHistory};
pub use rng::SplitMix64;
pub use table::{DirectMapped, SetAssoc};
