//! Predictor tables that outlive the predictor built on them.
//!
//! A sweep worker simulates many cells one after another, and every
//! TAGE-SC-L it builds needs the same few large tables: the statistical
//! corrector's component tables (16 MiB in `Inf TSL`) and, for the
//! infinite variants, the slot arena and its run map. Allocating them
//! afresh for each cell pays their page faults and allocations again
//! every time. A [`TablePool`] keeps them between cells instead: a
//! predictor built with a pool (`TageScl::with_pool`) takes its tables
//! out of it and hands them back when the cell ends (`TageScl::into_pool`).
//!
//! Two rules keep a pooled build identical to a fresh one and the pool
//! small:
//!
//! * **Exact length.** A statistical-corrector table is reused only for a
//!   table of exactly its own length, re-zeroed with one `fill(0)`. A
//!   small table never runs on the front of a large one (eight hot 1 KiB
//!   tables 2 MiB apart would share cache sets), and a pool that serves
//!   one cell at a time holds at most one cell's tables of each length.
//! * **Cleared infinite storage.** The arena and the run map come back
//!   empty, with their capacity kept, so a cell grows them only past the
//!   largest trace the pool has seen.
//!
//! A predictor that is dropped instead of handed back (a panicking cell)
//! takes its tables with it; the next build allocates new ones.
//!
//! # Example
//!
//! ```
//! use llbp_tage::{Predictor, TablePool, TageScl, TslConfig};
//!
//! let mut pool = TablePool::new();
//! let mut first = TageScl::with_pool(TslConfig::infinite_tage(), &mut pool);
//! let _ = first.predict_train(0x40, true);
//! first.into_pool(&mut pool);
//! // Built on the first one's tables, re-zeroed and cleared.
//! let second = TageScl::with_pool(TslConfig::infinite_tage(), &mut pool);
//! assert_eq!(second.tage().infinite_entries(), 0);
//! ```

use crate::tage::{InfSlot, Run};
use bputil::hash::FastHashMap;

/// Tables handed from one predictor to the next; see the [module
/// docs](self).
#[derive(Debug, Default)]
pub struct TablePool {
    /// Statistical-corrector tables handed back, of any length.
    sc_tables: Vec<Vec<i8>>,
    /// The infinite-storage run map and arena, empty, capacity kept.
    infinite_runs: FastHashMap<u64, Run>,
    infinite_arena: Vec<InfSlot>,
}

impl TablePool {
    /// An empty pool; building from it allocates every table afresh.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed table of `len` counters: a pooled table of exactly that
    /// length, re-zeroed, or else a new zeroed allocation.
    pub(crate) fn sc_table(&mut self, len: usize) -> Vec<i8> {
        match self.sc_tables.iter().position(|t| t.len() == len) {
            Some(at) => {
                let mut table = self.sc_tables.swap_remove(at);
                table.fill(0);
                table
            }
            None => vec![0; len],
        }
    }

    /// Keeps `table` for a later [`TablePool::sc_table`] of its length.
    pub(crate) fn put_sc_table(&mut self, table: Vec<i8>) {
        self.sc_tables.push(table);
    }

    /// The pooled infinite storage (empty), leaving the pool without any.
    pub(crate) fn take_infinite(&mut self) -> (FastHashMap<u64, Run>, Vec<InfSlot>) {
        (std::mem::take(&mut self.infinite_runs), std::mem::take(&mut self.infinite_arena))
    }

    /// Keeps a predictor's infinite storage, cleared, for the next
    /// [`TablePool::take_infinite`].
    pub(crate) fn put_infinite(
        &mut self,
        mut runs: FastHashMap<u64, Run>,
        mut arena: Vec<InfSlot>,
    ) {
        runs.clear();
        arena.clear();
        self.infinite_runs = runs;
        self.infinite_arena = arena;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Predictor, TageScl, TslConfig};
    use llbp_trace::{BranchKind, Workload, WorkloadSpec};

    /// Drives a fresh build of `cfg` and a build from `pool` over one
    /// trace in lockstep, requiring the same prediction and provider at
    /// every branch and the same infinite storage at the end; then hands
    /// the pooled build's tables back.
    fn run_beside_a_fresh_build(cfg: TslConfig, workload: Workload, pool: &mut TablePool) {
        let trace = WorkloadSpec::named(workload).with_branches(4_000).generate();
        let mut fresh = TageScl::new(cfg.clone());
        let mut pooled = TageScl::with_pool(cfg, pool);
        let label = pooled.label().to_string();
        for (i, r) in trace.iter().enumerate() {
            if r.kind() == BranchKind::Conditional {
                let want = fresh.predict_train(r.pc(), r.taken());
                let got = pooled.predict_train(r.pc(), r.taken());
                assert_eq!(got, want, "{label} on {workload:?} diverged at record {i}");
            }
            fresh.update_history_fast(r);
            pooled.update_history_fast(r);
        }
        let entries = fresh.tage().infinite_entries();
        assert_eq!(pooled.tage().infinite_entries(), entries, "{label} on {workload:?}");
        pooled.into_pool(pool);
    }

    /// The pool's corrector tables of length `len`, by address.
    fn tables_of(pool: &TablePool, len: usize) -> Vec<*const i8> {
        let mut tables: Vec<_> =
            pool.sc_tables.iter().filter(|t| t.len() == len).map(|t| t.as_ptr()).collect();
        tables.sort_unstable();
        tables
    }

    #[test]
    fn a_pool_cycled_through_the_presets_predicts_as_fresh_builds() {
        let (big, small) = (1 << 21, 1 << 10);
        let mut pool = TablePool::new();
        run_beside_a_fresh_build(TslConfig::infinite_tsl(), Workload::Http, &mut pool);
        let inf_tsl_tables = tables_of(&pool, big);
        assert_eq!(inf_tsl_tables.len(), 8, "Inf TSL hands back its eight tables");
        let arena = pool.infinite_arena.capacity();
        assert!(arena > 0 && pool.infinite_arena.is_empty() && pool.infinite_runs.is_empty());
        run_beside_a_fresh_build(TslConfig::cbp64k(), Workload::Tpcc, &mut pool);
        assert_eq!(tables_of(&pool, small).len(), 8);
        assert_eq!(tables_of(&pool, big), inf_tsl_tables, "64K TSL leaves the 2 MiB tables");
        run_beside_a_fresh_build(TslConfig::infinite_tage(), Workload::NodeApp, &mut pool);
        run_beside_a_fresh_build(TslConfig::scaled(8), Workload::Kafka, &mut pool);
        run_beside_a_fresh_build(TslConfig::infinite_tsl(), Workload::Tomcat, &mut pool);
        assert_eq!(tables_of(&pool, big), inf_tsl_tables, "the second Inf TSL reused them");
        assert_eq!(pool.sc_tables.len(), 16, "at most one cell's tables of each length");
        assert!(pool.infinite_arena.capacity() >= arena, "the arena keeps its capacity");
    }
}
