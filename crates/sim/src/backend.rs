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
//! On the batch tier the sweep engine also runs a trace's cells that
//! share a TAGE-SC-L history geometry as one *unit* ([`run_unit`]): a
//! shared stage advances the histories, hashes every lane (LLBP's pattern
//! tags included) and tracks the front end and the RCRs once per
//! [`UNIT_BLOCK`] records, and each member then runs the block from the
//! staged values through its own monomorphized loop, training only its
//! own tables. Every member's result equals its lone run's.
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
use llbp_core::predictor::{frontend_with_pool, rcr_with_pool, register_pattern_lanes};
use llbp_core::{ContextIds, LlbpParams, LlbpPredictor, Pattern, RollingContextRegister};
use llbp_prov::ProvRecorder;
use llbp_tage::classic::{Gshare, HashedPerceptron, TwoLevelLocal};
use llbp_tage::{
    FrontEnd, PredictionInfo, Predictor, ProviderKind, TablePool, TageHistory, TageScl, TslConfig,
};
use llbp_trace::{BranchRecord, Trace};
use std::time::{Duration, Instant};

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

/// Records per block of a unit's staged pass: the stage hashes a block's
/// conditionals into one buffer of rows, which stays in cache while each
/// member runs the block.
pub const UNIT_BLOCK: usize = 1024;

/// Most bytes of tables the members of one unit may hold together
/// ([`table_bytes`]); a unit of one is always allowed. The members of a
/// unit are resident at once, so this bounds what running a trace's cells
/// together adds to a worker's memory over running them one by one.
pub const UNIT_TABLE_BUDGET: usize = 2 << 20;

/// The TAGE-SC-L whose histories a predictor of `kind` runs on: its own
/// configuration or an LLBP's baseline. `None` for the kinds a unit does
/// not take (the classic predictors, and TSL presets not resolved to
/// [`PredictorKind::CustomTsl`]).
fn staged_tsl(kind: &PredictorKind) -> Option<&TslConfig> {
    match kind {
        PredictorKind::Llbp(params) => Some(&params.tsl),
        PredictorKind::CustomTsl(cfg) => Some(cfg),
        _ => None,
    }
}

/// Whether cells of `a` and `b` on one trace can run as one unit: both
/// run on TAGE-SC-L histories of one geometry
/// ([`TslConfig::same_history`]), and two LLBPs also hash equal pattern
/// tags (equal pattern lengths and tag width).
pub(crate) fn shares_stage(a: &PredictorKind, b: &PredictorKind) -> bool {
    let (Some(ta), Some(tb)) = (staged_tsl(a), staged_tsl(b)) else { return false };
    ta.same_history(tb)
        && match (a, b) {
            (PredictorKind::Llbp(pa), PredictorKind::Llbp(pb)) => {
                (&pa.history_lengths, pa.tag_bits) == (&pb.history_lengths, pb.tag_bits)
            }
            _ => true,
        }
}

/// The bytes of the tables a predictor of `kind` trains, as
/// [`UNIT_TABLE_BUDGET`] counts them: an LLBP's pattern storage at
/// [`Pattern`]'s packed size plus its baseline's storage, a TAGE-SC-L's
/// storage ([`TslConfig::storage_bits`], the finite-equivalent geometry
/// for infinite TAGE).
pub(crate) fn table_bytes(kind: &PredictorKind) -> usize {
    let tsl = staged_tsl(kind).map_or(0, |cfg| (cfg.storage_bits() / 8) as usize);
    match kind {
        PredictorKind::Llbp(p) => {
            tsl + p.num_contexts() * p.patterns_per_set * std::mem::size_of::<Pattern>()
        }
        _ => tsl,
    }
}

/// A member of a unit: a predictor that runs from the stage's values.
/// Members live in the pooled [`StageBuffers::members`], so the larger
/// variant costs no allocation; boxing it would cost one per member.
#[allow(clippy::large_enum_variant)]
enum Member {
    Tsl(TageScl),
    /// An LLBP and the stage's RCR for its context configuration.
    Llbp(LlbpPredictor, usize),
}

/// The per-block values a unit's stage computes once for all members,
/// kept in the worker's [`TablePool`] between units.
#[derive(Default)]
struct StageBuffers {
    /// One row of [`TageHistory::hash`] per conditional of the block.
    hashes: Vec<u32>,
    /// Per record of the block: whether the front end reset the pipeline.
    resets: Vec<bool>,
    /// Per stage RCR: the context IDs after each push in the block.
    cids: Vec<Vec<ContextIds>>,
    /// The stage's RCRs, one per context configuration in `contexts`.
    rcrs: Vec<RollingContextRegister>,
    contexts: Vec<ContextKey>,
    members: Vec<(Member, Tally, Duration)>,
}

/// The context configuration of an LLBP's RCR: window, distance, CID
/// width and history kind.
type ContextKey = (usize, usize, u32, llbp_core::ContextHistoryKind);

/// The context configuration of an LLBP's RCR.
fn context_key(p: &LlbpParams) -> ContextKey {
    (p.window, p.prefetch_distance, p.cid_bits, p.history_kind)
}

/// Runs the cells of `kinds` (at least one, every pair passing
/// [`shares_stage`]) on `trace` as one unit on the batch tier: one shared
/// stage and one monomorphized block loop per member. `provs[i]` records
/// member `i`. Appends each member's result, equal to its lone
/// [`run_batch`], to `results` with its wall: its own block time plus an
/// equal share of the stage's. Every table and buffer comes from `pool`
/// and goes back to it, also when the token fires, so a worker's units
/// allocate only on their first build.
///
/// # Errors
///
/// Returns [`SimError::Timeout`] for the whole unit when the token fires
/// mid-run; `results` then gains nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_unit<'k>(
    cfg: &SimConfig,
    kinds: impl ExactSizeIterator<Item = &'k PredictorKind>,
    trace: &Trace,
    token: &CancelToken,
    progress: &llbp_obs::Counter,
    provs: &mut [ProvRecorder],
    pool: &mut TablePool,
    results: &mut Vec<(SimResult, Duration)>,
) -> Result<(), SimError> {
    let mut buffers = pool.take_state::<StageBuffers>().unwrap_or_default();
    let count = u32::try_from(kinds.len()).expect("a unit's member count fits in u32");
    let mut history: Option<TageHistory> = None;
    let mut frontend: Option<FrontEnd> = None;
    for kind in kinds {
        let history = history.get_or_insert_with(|| {
            TageHistory::for_tsl(staged_tsl(kind).expect("a TAGE-SC-L geometry"), pool)
        });
        let member = match kind {
            PredictorKind::Llbp(params) => {
                if frontend.is_none() {
                    register_pattern_lanes(params, history);
                    frontend = Some(frontend_with_pool(pool));
                }
                let key = context_key(params);
                let rcr = buffers.contexts.iter().position(|k| *k == key).unwrap_or_else(|| {
                    buffers.contexts.push(key);
                    buffers.rcrs.push(rcr_with_pool(params, pool));
                    buffers.contexts.len() - 1
                });
                Member::Llbp(LlbpPredictor::unit_member(params, pool), rcr)
            }
            tsl => Member::Tsl(TageScl::with_pool(staged_tsl(tsl).expect("a TSL"), pool)),
        };
        buffers.members.push((member, Tally::default(), Duration::ZERO));
    }
    let mut history = history.expect("a unit has a member");
    // Room for a push per record: a block grows no buffer.
    buffers.cids.resize_with(buffers.rcrs.len(), Vec::new);
    for cids in &mut buffers.cids {
        cids.reserve(UNIT_BLOCK);
    }
    let stride = history.lanes().stride();
    buffers.hashes.resize(UNIT_BLOCK * stride, 0);
    buffers.resets.resize(UNIT_BLOCK, false);

    let outcome = unit_loop(
        cfg,
        trace,
        token,
        progress,
        provs,
        &mut history,
        frontend.as_mut(),
        &mut buffers,
    );
    let stage_share = outcome.as_ref().map_or(Duration::ZERO, |stage| *stage / count);
    for (member, tally, wall) in buffers.members.drain(..) {
        let ok = outcome.is_ok();
        match member {
            Member::Tsl(predictor) => {
                if ok {
                    let result =
                        tally.finish(predictor.label(), trace.name(), cfg.track_per_branch);
                    results.push((result, wall + stage_share));
                }
                predictor.into_pool(pool);
            }
            Member::Llbp(predictor, _) => {
                if ok {
                    let llbp = LlbpCellStats {
                        llbp: predictor.stats().clone(),
                        frontend: *frontend
                            .as_ref()
                            .expect("an LLBP's unit has a front end")
                            .stats(),
                    };
                    let result =
                        tally.finish(predictor.label(), trace.name(), cfg.track_per_branch);
                    results.push((SimResult { llbp: Some(llbp), ..result }, wall + stage_share));
                }
                predictor.into_pool(pool);
            }
        }
    }
    for rcr in buffers.rcrs.drain(..) {
        pool.put_state(rcr);
    }
    buffers.contexts.clear();
    for cids in &mut buffers.cids {
        cids.clear();
    }
    if let Some(frontend) = frontend {
        pool.put_state(frontend);
    }
    history.into_pool(pool);
    pool.put_state(buffers);
    outcome.map(|_| ())
}

/// The block loop of [`run_unit`]: per block, the stage, then each
/// member. Returns the stage's total time.
#[allow(clippy::too_many_arguments)]
fn unit_loop(
    cfg: &SimConfig,
    trace: &Trace,
    token: &CancelToken,
    progress: &llbp_obs::Counter,
    provs: &mut [ProvRecorder],
    history: &mut TageHistory,
    mut frontend: Option<&mut FrontEnd>,
    buffers: &mut StageBuffers,
) -> Result<Duration, SimError> {
    let warmup = warmup_len(cfg, trace);
    let records = trace.records();
    let stride = history.lanes().stride();
    let mut stage_time = Duration::ZERO;
    let mut i = 0usize;
    while i < records.len() {
        if token.is_cancelled() {
            return Err(token.cancellation_error());
        }
        let limit = if i < warmup { warmup } else { records.len() };
        let end = (i + UNIT_BLOCK).min(limit);
        let block = &records[i..end];
        let measure = i >= warmup;

        let started = Instant::now();
        let StageBuffers { hashes, resets, cids, rcrs, members, .. } = &mut *buffers;
        let mut row = 0;
        for (k, record) in block.iter().enumerate() {
            if record.packed_meta() & META_KIND_MASK == META_COND {
                history.hash(record.pc(), &mut hashes[row * stride..(row + 1) * stride]);
                row += 1;
            }
            if let Some(frontend) = frontend.as_deref_mut() {
                resets[k] = frontend.observe(record).is_some();
            }
            for (rcr, pushed) in rcrs.iter_mut().zip(cids.iter_mut()) {
                if rcr.observes(record) {
                    rcr.push(record.pc());
                    pushed.push(rcr.cids());
                }
            }
            history.advance(record);
        }
        let instructions = if measure {
            block.iter().map(|record| u64::from(record.packed_meta() >> 4) + 1).sum::<u64>()
        } else {
            0
        };
        let staged =
            Staged { block, hashes: &hashes[..], stride, resets: &resets[..], cids: &cids[..] };
        stage_time += started.elapsed();

        for ((member, tally, wall), prov) in members.iter_mut().zip(provs.iter_mut()) {
            let started = Instant::now();
            tally.instructions += instructions;
            match member {
                Member::Tsl(p) => member_block(cfg, p, &staged, None, tally, prov, measure),
                Member::Llbp(p, rcr) => {
                    member_block(cfg, p, &staged, Some(*rcr), tally, prov, measure);
                }
            }
            progress.add(block.len() as u64);
            *wall += started.elapsed();
        }
        for pushed in cids.iter_mut() {
            pushed.clear();
        }
        i = end;
    }
    Ok(stage_time)
}

/// One block's staged values, as the members read them.
struct Staged<'a> {
    block: &'a [BranchRecord],
    hashes: &'a [u32],
    stride: usize,
    resets: &'a [bool],
    cids: &'a [Vec<ContextIds>],
}

/// A predictor that runs a block from staged values.
trait StagedPredictor {
    fn predict_train_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, ProviderKind);
    fn predict_train_info_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, PredictionInfo);
    /// Retires record `k` of the block; `cids` is the member's RCR's
    /// pushes and `next` the first of them not yet taken.
    fn retire_staged(
        &mut self,
        staged: &Staged<'_>,
        k: usize,
        cids: Option<usize>,
        next: &mut usize,
    );
}

impl StagedPredictor for TageScl {
    #[inline]
    fn predict_train_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, ProviderKind) {
        TageScl::predict_train_staged(self, pc, taken, hashes)
    }

    #[inline]
    fn predict_train_info_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, PredictionInfo) {
        TageScl::predict_train_info_staged(self, pc, taken, hashes)
    }

    #[inline]
    fn retire_staged(&mut self, _: &Staged<'_>, _: usize, _: Option<usize>, _: &mut usize) {}
}

impl StagedPredictor for LlbpPredictor {
    #[inline]
    fn predict_train_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, ProviderKind) {
        LlbpPredictor::predict_train_staged(self, pc, taken, hashes)
    }

    #[inline]
    fn predict_train_info_staged(
        &mut self,
        pc: u64,
        taken: bool,
        hashes: &[u32],
    ) -> (bool, PredictionInfo) {
        LlbpPredictor::predict_train_info_staged(self, pc, taken, hashes)
    }

    #[inline]
    fn retire_staged(
        &mut self,
        staged: &Staged<'_>,
        k: usize,
        rcr: Option<usize>,
        next: &mut usize,
    ) {
        let record = &staged.block[k];
        let pushed = self.observes(record).then(|| {
            let cids = staged.cids[rcr.expect("an LLBP member has a stage RCR")][*next];
            *next += 1;
            cids
        });
        LlbpPredictor::retire_staged(self, record, staged.resets[k], pushed);
    }
}

/// One block of one member, through the loop instantiated for its type
/// and the run's tracking and provenance switches.
fn member_block<P: StagedPredictor + Predictor>(
    cfg: &SimConfig,
    predictor: &mut P,
    staged: &Staged<'_>,
    rcr: Option<usize>,
    tally: &mut Tally,
    prov: &mut ProvRecorder,
    measure: bool,
) {
    if !measure {
        return member_block_inner::<P, false, false, false>(predictor, staged, rcr, tally, prov);
    }
    match (cfg.track_per_branch, prov.is_enabled()) {
        (false, false) => {
            member_block_inner::<P, true, false, false>(predictor, staged, rcr, tally, prov)
        }
        (false, true) => {
            member_block_inner::<P, true, false, true>(predictor, staged, rcr, tally, prov)
        }
        (true, false) => {
            member_block_inner::<P, true, true, false>(predictor, staged, rcr, tally, prov)
        }
        (true, true) => {
            member_block_inner::<P, true, true, true>(predictor, staged, rcr, tally, prov)
        }
    }
}

/// [`batch_loop_inner`]'s record body over one staged block: the
/// predictions read the stage's hash rows, and an LLBP retires each record
/// with the stage's reset and context IDs.
#[inline]
fn member_block_inner<
    P: StagedPredictor + Predictor,
    const MEASURE: bool,
    const TRACK: bool,
    const PROV: bool,
>(
    predictor: &mut P,
    staged: &Staged<'_>,
    rcr: Option<usize>,
    tally: &mut Tally,
    prov: &mut ProvRecorder,
) {
    let (mut row, mut next) = (0, 0);
    for (k, record) in staged.block.iter().enumerate() {
        let meta = record.packed_meta();
        if meta & META_KIND_MASK == META_COND {
            let pc = record.pc();
            let taken = meta & META_TAKEN_BIT != 0;
            let hashes = &staged.hashes[row * staged.stride..(row + 1) * staged.stride];
            row += 1;
            if MEASURE {
                let (pred, ordinal) = if PROV {
                    let (pred, info) = predictor.predict_train_info_staged(pc, taken, hashes);
                    prov.record(pc, taken, &info);
                    (pred, info.provider.ordinal())
                } else {
                    let (pred, provider) = predictor.predict_train_staged(pc, taken, hashes);
                    (pred, provider.ordinal())
                };
                tally.count::<TRACK>(pc, pred != taken, ordinal);
            } else {
                let _ = predictor.predict_train_staged(pc, taken, hashes);
            }
        }
        predictor.retire_staged(staged, k, rcr, &mut next);
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
    /// Counts one measured conditional branch at `pc`, mispredicted when
    /// `wrong`, whose final direction came from provider `ordinal`.
    #[inline]
    fn count<const TRACK: bool>(&mut self, pc: u64, wrong: bool, ordinal: usize) {
        self.conditional_branches += 1;
        self.mispredictions += u64::from(wrong);
        self.providers[ordinal] += 1;
        if TRACK {
            *self.per_branch_executions.entry(pc).or_default() += 1;
            if wrong {
                *self.per_branch_mispredicts.entry(pc).or_default() += 1;
            }
        }
    }

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
                tally.count::<TRACK>(pc, pred != taken, ordinal);
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
