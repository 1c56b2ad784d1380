//! Execution backends for the simulation hot loop.
//!
//! Every figure funnels through one loop shape — predict/train/
//! update-history per trace record — but how that loop executes is a pure
//! throughput choice. Two tiers implement it:
//!
//! * **reference** — the original scalar loop in
//!   [`crate::driver::Simulator`], driving the predictor through
//!   `&mut dyn Predictor`. Always correct, never removed; the batch tier
//!   is parity-pinned against it byte for byte.
//! * **batch** — monomorphized per [`PredictorKind`]: one generic loop
//!   instantiated through a match at cell start, so the fused
//!   `predict_train` and `update_history_fast` inline into the loop body.
//!   The loop runs over the trace's 20-byte records in
//!   [`BATCH_BLOCK`]-sized blocks, split into warmup and measure phases:
//!   cancellation polls and progress accounting hoist to block
//!   boundaries, and instruction accounting is a branchless sum over the
//!   block's packed-meta words. It reads each record's `pc` and packed
//!   meta from the record it hands to `update_history_fast`, so a cell
//!   builds no column copy of the trace ([`llbp_trace::TraceSoa`]).
//!   Per-branch tracking and provenance recording are compile-time
//!   splits, so the common loop carries neither.
//!
//! Selection threads through [`crate::SimConfig::backend`]: `auto` (the
//! default) resolves to the fastest tier, the `LLBP_BACKEND` environment
//! variable and the experiment binaries' `--backend` flag override it.
//! Results never depend on the choice — `crates/sim/tests/backend_parity.rs`
//! pins the batch tier against the reference for every predictor kind —
//! and memo fingerprints exclude it, so cells cached under one backend
//! are served to the other.

use crate::config::{PredictorKind, SimConfig};
use crate::driver::{finish_provider_counts, warmup_len, LlbpCellStats, SimResult};
use crate::error::{CancelToken, SimError};
use bputil::hash::FastHashMap;
use llbp_core::LlbpPredictor;
use llbp_prov::ProvRecorder;
use llbp_tage::classic::{Gshare, HashedPerceptron, TwoLevelLocal};
use llbp_tage::{Predictor, ProviderKind, TablePool, TageScl};
use llbp_trace::Trace;

/// Environment variable selecting the execution backend for harness
/// binaries (`reference` | `batch` | `auto`). The
/// `--backend` flag overrides it; library callers set
/// [`SimConfig::backend`] directly.
pub const BACKEND_ENV: &str = "LLBP_BACKEND";

/// Records per block in the batch tier: cancellation polls, progress
/// accounting and instruction sums all hoist to this granularity, so a
/// watchdog deadline is honored within one block.
pub const BATCH_BLOCK: usize = 4096;

/// Which execution tier runs the simulation hot loop.
///
/// The choice affects throughput only — every tier is parity-pinned to
/// produce the identical [`SimResult`] — so it is deliberately *excluded*
/// from memo-store fingerprints ([`SimConfig::fingerprint_text`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Resolve to the fastest tier at run time ([`BackendKind::fastest`]).
    #[default]
    Auto,
    /// The original scalar `dyn Predictor` loop — the correctness anchor.
    Reference,
    /// Monomorphized block loop over the trace's records.
    Batch,
}

impl BackendKind {
    /// The concrete tiers, in documentation order (excludes `Auto`).
    pub const CONCRETE: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Batch];

    /// The tier `auto` resolves to: the fastest implementation. Batch
    /// measured 1.69× the reference throughput on the 2M-record Tomcat
    /// trace (DESIGN.md §10); perfbench's `sim.ns_per_record` times it.
    #[must_use]
    pub const fn fastest() -> Self {
        BackendKind::Batch
    }

    /// Stable lowercase name, as accepted by [`BackendKind::parse`].
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Reference => "reference",
            BackendKind::Batch => "batch",
        }
    }

    /// Parses a backend name.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(BackendKind::Auto),
            "reference" => Ok(BackendKind::Reference),
            "batch" => Ok(BackendKind::Batch),
            other => Err(format!("unknown backend `{other}` (want auto|reference|batch)")),
        }
    }

    /// Reads [`BACKEND_ENV`]; `Auto` when unset or empty.
    ///
    /// # Errors
    ///
    /// Returns the parse diagnostic for a set-but-invalid value (callers
    /// should treat that as a configuration error, not fall back
    /// silently — running the wrong tier would invalidate a benchmark).
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(BACKEND_ENV) {
            Ok(v) if !v.trim().is_empty() => Self::parse(&v),
            _ => Ok(BackendKind::Auto),
        }
    }

    /// The concrete tier this selection executes as (`Auto` resolves to
    /// [`BackendKind::fastest`]; concrete tiers resolve to themselves).
    #[must_use]
    pub fn resolve(self) -> Self {
        match self {
            BackendKind::Auto => Self::fastest(),
            concrete => concrete,
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs one cell on the **batch** tier. The per-cell `match` turns
/// the dynamic [`PredictorKind`] into a statically typed predictor, so
/// each arm instantiates [`batch_loop`] for its concrete type and the
/// per-record `predict_train`/`update_history_fast` calls devirtualize and
/// inline. TAGE-SC-L predictors, LLBP's baseline included, are built on
/// `pool`'s tables and hand them back when the loop returns. The LLBP arm
/// also collects the LLBP-internal statistics.
///
/// # Errors
///
/// Returns [`SimError::Timeout`] when the token fires mid-run.
pub(crate) fn run_batch(
    cfg: &SimConfig,
    kind: &PredictorKind,
    trace: &Trace,
    token: &CancelToken,
    progress: &llbp_obs::Counter,
    prov: &mut ProvRecorder,
    pool: &mut TablePool,
) -> Result<SimResult, SimError> {
    macro_rules! drive {
        ($predictor:expr) => {
            batch_loop(cfg, &mut $predictor, trace, token, progress, prov)
        };
    }
    match kind {
        PredictorKind::Gshare { index_bits, history_bits } => {
            drive!(Gshare::new(*index_bits, *history_bits))
        }
        PredictorKind::TwoLevelLocal { bht_bits, local_bits } => {
            drive!(TwoLevelLocal::new(*bht_bits, *local_bits))
        }
        PredictorKind::HashedPerceptron { tables, index_bits, segment_bits } => {
            drive!(HashedPerceptron::new(*tables, *index_bits, *segment_bits))
        }
        PredictorKind::Llbp(params) => {
            let mut predictor = LlbpPredictor::with_pool(params, pool);
            let result = drive!(predictor)
                .map(|r| SimResult { llbp: Some(LlbpCellStats::of(&predictor)), ..r });
            predictor.into_pool(pool);
            result
        }
        tsl => {
            let cfg = tsl.tsl_config().expect("the other kinds are TSLs");
            let mut predictor = TageScl::with_pool(&cfg, pool);
            let result = drive!(predictor);
            predictor.into_pool(pool);
            result
        }
    }
}

/// Measurement accumulators of the batch tier. Provider attribution
/// counts into a dense ordinal array (string hashing stays out of the
/// loop); the per-branch maps are only touched by the `TRACK = true`
/// loop instantiations.
#[derive(Default)]
struct Tally {
    instructions: u64,
    conditional_branches: u64,
    mispredictions: u64,
    providers: [u64; ProviderKind::COUNT],
    per_branch_mispredicts: FastHashMap<u64, u64>,
    per_branch_executions: FastHashMap<u64, u64>,
}

impl Tally {
    /// Assembles the [`SimResult`], matching the reference tier's shape
    /// exactly (empty-but-present maps when tracking is on, pruned
    /// zero-count providers).
    fn finish(self, label: &str, workload: &str, track: bool) -> SimResult {
        SimResult {
            label: label.to_string(),
            workload: workload.to_string(),
            instructions: self.instructions,
            conditional_branches: self.conditional_branches,
            mispredictions: self.mispredictions,
            provider_counts: finish_provider_counts(&self.providers),
            per_branch_mispredicts: track.then_some(self.per_branch_mispredicts),
            per_branch_executions: track.then_some(self.per_branch_executions),
            llbp: None,
        }
    }
}

fn batch_loop<P: Predictor>(
    cfg: &SimConfig,
    predictor: &mut P,
    trace: &Trace,
    token: &CancelToken,
    progress: &llbp_obs::Counter,
    prov: &mut ProvRecorder,
) -> Result<SimResult, SimError> {
    match (cfg.track_per_branch, prov.is_enabled()) {
        (false, false) => {
            batch_loop_inner::<P, false, false>(cfg, predictor, trace, token, progress, prov)
        }
        (false, true) => {
            batch_loop_inner::<P, false, true>(cfg, predictor, trace, token, progress, prov)
        }
        (true, false) => {
            batch_loop_inner::<P, true, false>(cfg, predictor, trace, token, progress, prov)
        }
        (true, true) => {
            batch_loop_inner::<P, true, true>(cfg, predictor, trace, token, progress, prov)
        }
    }
}

/// Packed-meta decode masks (see [`llbp_trace::BranchRecord::packed_meta`]).
const META_KIND_MASK: u32 = 0x7;
const META_COND: u32 = 0; // BranchKind::Conditional encoding
const META_TAKEN_BIT: u32 = 0x8;

fn batch_loop_inner<P: Predictor, const TRACK: bool, const PROV: bool>(
    cfg: &SimConfig,
    predictor: &mut P,
    trace: &Trace,
    token: &CancelToken,
    progress: &llbp_obs::Counter,
    prov: &mut ProvRecorder,
) -> Result<SimResult, SimError> {
    let warmup = warmup_len(cfg, trace);
    let records = trace.records();
    let mut tally = Tally::default();
    let mut i = 0usize;
    // Warmup blocks: direction/kind decode from each record's meta word.
    while i < warmup {
        if token.is_cancelled() {
            return Err(token.cancellation_error());
        }
        let end = (i + BATCH_BLOCK).min(warmup);
        for record in &records[i..end] {
            let meta = record.packed_meta();
            if meta & META_KIND_MASK == META_COND {
                let _ = predictor.predict_train(record.pc(), meta & META_TAKEN_BIT != 0);
            }
            predictor.update_history_fast(record);
        }
        progress.add((end - i) as u64);
        i = end;
    }
    // Measure blocks: instruction accounting is software-pipelined ahead
    // of the predictor stage — a branchless sum over the block's meta
    // words — so the predictor stage below touches only the
    // branch-prediction work itself.
    while i < records.len() {
        if token.is_cancelled() {
            return Err(token.cancellation_error());
        }
        let end = (i + BATCH_BLOCK).min(records.len());
        let block = &records[i..end];
        tally.instructions +=
            block.iter().map(|record| u64::from(record.packed_meta() >> 4) + 1).sum::<u64>();
        for record in block {
            let meta = record.packed_meta();
            if meta & META_KIND_MASK == META_COND {
                let pc = record.pc();
                let taken = meta & META_TAKEN_BIT != 0;
                let (pred, ordinal) = if PROV {
                    let (pred, info) = predictor.predict_train_info(pc, taken);
                    prov.record(pc, taken, &info);
                    (pred, info.provider.ordinal())
                } else {
                    let (pred, provider) = predictor.predict_train(pc, taken);
                    (pred, provider.ordinal())
                };
                let wrong = pred != taken;
                tally.conditional_branches += 1;
                tally.mispredictions += u64::from(wrong);
                tally.providers[ordinal] += 1;
                if TRACK {
                    *tally.per_branch_executions.entry(pc).or_default() += 1;
                    if wrong {
                        *tally.per_branch_mispredicts.entry(pc).or_default() += 1;
                    }
                }
            }
            predictor.update_history_fast(record);
        }
        progress.add((end - i) as u64);
        i = end;
    }
    Ok(tally.finish(predictor.label(), trace.name(), cfg.track_per_branch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_kind() {
        for kind in [BackendKind::Auto, BackendKind::Reference, BackendKind::Batch] {
            assert_eq!(BackendKind::parse(kind.label()), Ok(kind));
            assert_eq!(kind.label().parse::<BackendKind>(), Ok(kind));
        }
        assert!(BackendKind::parse("jit").is_err());
        assert!(BackendKind::parse("specialized").is_err(), "deleted tier");
        assert_eq!(BackendKind::parse(" BATCH "), Ok(BackendKind::Batch));
    }

    #[test]
    fn auto_resolves_to_a_concrete_tier() {
        let resolved = BackendKind::Auto.resolve();
        assert_ne!(resolved, BackendKind::Auto);
        assert!(BackendKind::CONCRETE.contains(&resolved));
        for concrete in BackendKind::CONCRETE {
            assert_eq!(concrete.resolve(), concrete, "concrete tiers resolve to themselves");
        }
    }

    #[test]
    fn meta_masks_match_record_encoding() {
        use llbp_trace::{BranchKind, BranchRecord};
        let cond = BranchRecord::conditional(0x40, 0x80, true, 5);
        assert_eq!(cond.packed_meta() & META_KIND_MASK, META_COND);
        assert_eq!(cond.packed_meta() & META_TAKEN_BIT != 0, cond.taken());
        let ret = BranchRecord::unconditional(0x40, 0x80, BranchKind::Return, 5);
        assert_ne!(ret.packed_meta() & META_KIND_MASK, META_COND);
    }
}
