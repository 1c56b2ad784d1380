//! The trace-only half of a TAGE-SC-L: its histories and every hash a
//! lookup computes from them.
//!
//! A [`TageHistory`] holds the global history, the path history, the
//! [`FoldBank`] of every folded register and the [`HashLanes`] plan of
//! every per-lookup hash: TAGE's table indices and tags first, then the
//! side lanes composed predictors add (the statistical corrector's
//! component indices, LLBP's pattern tags). All of it is a pure function
//! of the trace, so predictors that share a history geometry compute the
//! same values from it. A [`crate::Tage`] owns one; the sweep engine's
//! shared stage owns one for several predictors and hands each lookup's
//! hashes to all of them (`TageScl::predict_train_staged`).

use crate::config::{TageConfig, TslConfig};
use crate::pool::TablePool;
use crate::sc::StatisticalCorrector;
use bputil::hash::tage_index_base;
use bputil::history::{HistoryBuffer, PathHistory};
use bputil::kernel::{FoldBank, FoldId, HashLanes, Kernel, Lane};
use llbp_trace::{BranchKind, BranchRecord};

/// Global, path and folded histories plus the per-lookup hash plan of
/// one TAGE-SC-L geometry.
#[derive(Debug, Clone)]
pub struct TageHistory {
    ghr: HistoryBuffer,
    path: PathHistory,
    /// Every folded register: TAGE's index and two tag folds per table,
    /// plus those composed predictors registered.
    bank: FoldBank,
    /// Index lanes of tables `0..n`, tag lanes of tables `0..n`, then the
    /// side lanes.
    lanes: HashLanes,
    /// The build of the bank and hash loops, chosen at construction.
    kernel: Kernel,
    /// TAGE's tagged tables: the side lanes start at lane `2 * tables`.
    tables: usize,
    index_bits: u32,
}

impl TageHistory {
    /// The histories of a TAGE configured by `cfg`, with its index and
    /// tag lanes, on `pool`'s history buffer, fold bank and lane plan.
    pub(crate) fn with_pool(cfg: &TageConfig, pool: &mut TablePool) -> Self {
        let (mut bank, mut lanes) = pool.bank_and_lanes();
        for (t, &l) in cfg.history_lengths.iter().enumerate() {
            let fold = bank.register(l, cfg.index_bits);
            lanes.push(Lane::tage_index(t as u32, fold, cfg.index_bits));
        }
        for (t, (&l, &bits)) in cfg.history_lengths.iter().zip(&cfg.tag_bits).enumerate() {
            let (tag0, tag1) = (bank.register(l, bits), bank.register(l, (bits - 1).max(1)));
            lanes.push(Lane::tage_tag(t as u32, tag0, tag1, bits));
        }
        Self {
            ghr: pool.history(cfg.max_history() + 64),
            path: PathHistory::new(cfg.path_bits),
            bank,
            lanes,
            kernel: Kernel::detect(),
            tables: cfg.num_tables(),
            index_bits: cfg.index_bits,
        }
    }

    /// The histories a [`crate::TageScl`] of `cfg` keeps, with the same
    /// folds and lanes in the same order: TAGE's, then the statistical
    /// corrector's. Predictors of configurations with the same history
    /// geometry compute the same hashes from it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TslConfig::validate`].
    #[must_use]
    pub fn for_tsl(cfg: &TslConfig, pool: &mut TablePool) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid TSL config: {e}"));
        let mut history = Self::with_pool(&cfg.tage, pool);
        if cfg.sc_enabled {
            StatisticalCorrector::register(
                cfg.sc_index_bits,
                &cfg.sc_history_lengths,
                &mut history,
            );
        }
        history
    }

    /// Hands the history buffer, bank and lane plan to `pool`.
    pub fn into_pool(self, pool: &mut TablePool) {
        pool.put_history(self.ghr, self.bank, self.lanes);
    }

    /// A folded history of `length` bits at `width` bits: an existing
    /// register when one folds the same pair.
    ///
    /// # Panics
    ///
    /// Panics as [`FoldBank::register`] does.
    pub fn register_fold(&mut self, length: usize, width: u32) -> FoldId {
        self.bank.register(length, width)
    }

    /// Adds `lane` to the per-lookup hash loop, returning its position
    /// among the side lanes (after TAGE's index and tag lanes).
    ///
    /// # Panics
    ///
    /// Panics as [`HashLanes::push`] does.
    pub fn push_side_lane(&mut self, lane: Lane) -> usize {
        self.lanes.push(lane) - 2 * self.tables
    }

    /// The registers of every folded history.
    #[must_use]
    pub fn bank(&self) -> &FoldBank {
        &self.bank
    }

    /// The per-lookup hash lanes.
    #[must_use]
    pub fn lanes(&self) -> &HashLanes {
        &self.lanes
    }

    /// The global history buffer.
    #[must_use]
    pub fn ghr(&self) -> &HistoryBuffer {
        &self.ghr
    }

    /// Every lane's hash for the conditional branch at `pc` under the
    /// current history, into `out` (at least [`HashLanes::stride`] long).
    #[inline]
    pub fn hash(&self, pc: u64, out: &mut [u32]) {
        let base = tage_index_base(pc, self.path.value(), self.index_bits);
        self.lanes.hash(self.kernel, &self.bank, pc, base, out);
    }

    /// The bit a retired branch inserts into global history: conditionals
    /// insert their outcome; unconditional branches insert a
    /// PC/target-derived path bit, which lets long histories encode
    /// calling context.
    fn history_bit(record: &BranchRecord) -> bool {
        if record.kind() == BranchKind::Conditional {
            record.taken()
        } else {
            ((record.pc() >> 2) ^ (record.target() >> 3)) & 1 == 1
        }
    }

    /// Advances global, folded and path histories for a retired branch of
    /// any kind, every register by its own
    /// `FoldedHistory::update_before_push`: the reference rule.
    pub fn advance_reference(&mut self, record: &BranchRecord) {
        let bit = Self::history_bit(record);
        self.bank.advance_reference(&self.ghr, bit);
        self.ghr.push(bit);
        self.path.push(record.pc() >> 2);
    }

    /// [`TageHistory::advance_reference`] through the bank's branch-free
    /// loop ([`FoldBank::advance`]). Bit-identical.
    #[inline]
    pub fn advance(&mut self, record: &BranchRecord) {
        let bit = Self::history_bit(record);
        self.bank.advance(self.kernel, &self.ghr, bit);
        self.ghr.push(bit);
        self.path.push(record.pc() >> 2);
    }

    /// Captures the global and path histories and every folded register.
    pub(crate) fn checkpoint(&self) -> crate::tage::TageCheckpoint {
        crate::tage::TageCheckpoint {
            ghr: self.ghr.checkpoint(),
            path: self.path.value(),
            folds: self.bank.values().to_vec(),
        }
    }

    /// Restores a capture of [`TageHistory::checkpoint`].
    pub(crate) fn restore(&mut self, checkpoint: &crate::tage::TageCheckpoint) {
        self.bank.restore(&checkpoint.folds);
        self.ghr.restore(&checkpoint.ghr);
        self.path.restore(checkpoint.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Predictor, TageScl};
    use llbp_trace::{Workload, WorkloadSpec};

    #[test]
    fn a_tsl_history_hashes_what_the_predictors_own_history_hashes() {
        let trace = WorkloadSpec::named(Workload::Kafka).with_branches(3_000).generate();
        for cfg in [TslConfig::cbp64k(), TslConfig::infinite_tsl()] {
            let mut pool = TablePool::new();
            let mut history = TageHistory::for_tsl(&cfg, &mut pool);
            let mut tsl = TageScl::with_pool(&cfg, &mut pool);
            let own = tsl.tage().history();
            assert_eq!(history.lanes(), own.lanes(), "{}: the same lanes", cfg.label);
            let stride = history.lanes().stride();
            let (mut staged, mut in_place) = (vec![0; stride], vec![0; stride]);
            for r in &trace {
                if r.kind() == BranchKind::Conditional {
                    history.hash(r.pc(), &mut staged);
                    tsl.tage().history().hash(r.pc(), &mut in_place);
                    assert_eq!(staged, in_place, "{}", cfg.label);
                    let _ = tsl.predict_train(r.pc(), r.taken());
                }
                history.advance(r);
                tsl.update_history_fast(r);
            }
            assert_eq!(history.checkpoint(), tsl.tage().history().checkpoint());
        }
    }
}
