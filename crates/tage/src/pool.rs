//! Predictor tables that outlive the predictor built on them.
//!
//! A sweep worker simulates many cells one after another, and every
//! predictor it builds needs the same large tables: TAGE's table block and
//! bimodal tables, its history buffer, fold bank and hash lanes, the loop
//! predictor, the statistical corrector's component tables (16 MiB in
//! `Inf TSL`), the infinite variants' slot arena and run map, and a
//! composed predictor's own state (LLBP's pattern arenas, directories and
//! front end). Allocating them afresh for each cell pays their page faults
//! and allocations again every time. A [`TablePool`] keeps them between
//! cells instead: a predictor built with a pool (`TageScl::with_pool`)
//! takes its tables out of it and hands them back when the cell ends
//! (`TageScl::into_pool`).
//!
//! Three rules keep a pooled build identical to a fresh one and the pool
//! small:
//!
//! * **Exact shape.** A table is reused only for a table of exactly its
//!   own length (a loop predictor, a history buffer: its own size), reset
//!   to the state a fresh build starts in: counters, LRU ticks and
//!   statistics included. A small table never runs on the front of a
//!   large one (eight hot 1 KiB tables 2 MiB apart would share cache
//!   sets), and a pool that serves one cell at a time holds at most one
//!   cell's tables of each length.
//! * **Cleared infinite storage.** The arena and the run map come back
//!   empty, with their capacity kept, so a cell grows them only past the
//!   largest trace the pool has seen.
//! * **Composed states by type.** The pool keeps every composed
//!   predictor's state handed back ([`TablePool::put_state`]), and a
//!   build takes one of its type; the predictor reuses each part of it of
//!   its own shape and replaces the others. A pool that serves one cell
//!   at a time holds one state per type; one that serves a unit of cells
//!   (the sweep engine's shared-history units) holds as many as the unit
//!   built at once.
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
//! let cfg = TslConfig::infinite_tage();
//! let mut first = TageScl::with_pool(&cfg, &mut pool);
//! let _ = first.predict_train(0x40, true);
//! first.into_pool(&mut pool);
//! // Built on the first one's tables, re-zeroed and cleared.
//! let second = TageScl::with_pool(&cfg, &mut pool);
//! assert_eq!(second.tage().infinite_entries(), 0);
//! ```

use crate::loop_pred::LoopPredictor;
use crate::tage::{Entry, InfSlot, Run};
use bputil::hash::FastHashMap;
use bputil::history::HistoryBuffer;
use bputil::kernel::{FoldBank, HashLanes};
use std::any::Any;

/// Pooled items of one kind, each taken only by a build it fits.
#[derive(Debug)]
struct Shelf<T>(Vec<T>);

impl<T> Default for Shelf<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> Shelf<T> {
    /// An item `fits` accepts, leaving the shelf without it.
    fn take(&mut self, fits: impl Fn(&T) -> bool) -> Option<T> {
        let at = self.0.iter().position(fits)?;
        Some(self.0.swap_remove(at))
    }

    fn put(&mut self, item: T) {
        self.0.push(item);
    }
}

impl<T: Clone> Shelf<Vec<T>> {
    /// `len` copies of `fill`: a pooled table of exactly that length,
    /// refilled, or else a new allocation (zeroed pages for a zero fill).
    fn table(&mut self, len: usize, fill: T) -> Vec<T> {
        match self.take(|t| t.len() == len) {
            Some(mut table) => {
                table.fill(fill);
                table
            }
            None => vec![fill; len],
        }
    }
}

/// Tables handed from one predictor to the next; see the [module
/// docs](self).
#[derive(Debug, Default)]
pub struct TablePool {
    /// Statistical-corrector tables handed back, of any length.
    sc_tables: Shelf<Vec<i8>>,
    /// Finite TAGE table blocks.
    tage_tables: Shelf<Vec<Entry>>,
    /// Bimodal direction and hysteresis tables.
    bimodal: Shelf<Vec<bool>>,
    histories: Shelf<HistoryBuffer>,
    loops: Shelf<LoopPredictor>,
    /// Banks and lane plans hold fixed-size arrays: any build takes one.
    banks: Shelf<FoldBank>,
    lanes: Shelf<HashLanes>,
    /// The infinite-storage run map and arena, empty, capacity kept.
    infinite_runs: FastHashMap<u64, Run>,
    infinite_arena: Vec<InfSlot>,
    /// Composed predictors' own states: each an `Option<T>` for the
    /// state's type `T`, so a box outlives the state it carries and a
    /// state handed back fills an emptied box of its type.
    states: Vec<Box<dyn Any + Send>>,
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
        self.sc_tables.table(len, 0)
    }

    /// Keeps `table` for a later [`TablePool::sc_table`] of its length.
    pub(crate) fn put_sc_table(&mut self, table: Vec<i8>) {
        self.sc_tables.put(table);
    }

    /// A TAGE table block of `len` empty entries.
    pub(crate) fn tage_table(&mut self, len: usize) -> Vec<Entry> {
        self.tage_tables.table(len, Entry::EMPTY)
    }

    /// A bimodal table of `len` entries, each `fill`.
    pub(crate) fn bimodal_table(&mut self, len: usize, fill: bool) -> Vec<bool> {
        self.bimodal.table(len, fill)
    }

    /// An empty history buffer of `capacity` bits (rounded up to whole
    /// words, as [`HistoryBuffer::new`] does).
    pub(crate) fn history(&mut self, capacity: usize) -> HistoryBuffer {
        let words = capacity.div_ceil(64) * 64;
        match self.histories.take(|h| h.capacity() == words) {
            Some(mut history) => {
                history.reset();
                history
            }
            None => HistoryBuffer::new(capacity),
        }
    }

    /// A fresh loop predictor of `2^index_bits` sets.
    pub(crate) fn loop_predictor(&mut self, index_bits: u32) -> LoopPredictor {
        match self.loops.take(|l| l.num_sets() == 1 << index_bits) {
            Some(mut lp) => {
                lp.reset();
                lp
            }
            None => LoopPredictor::new(index_bits),
        }
    }

    /// An empty fold bank and an empty lane plan.
    pub(crate) fn bank_and_lanes(&mut self) -> (FoldBank, HashLanes) {
        let mut bank = self.banks.take(|_| true).unwrap_or_default();
        let mut lanes = self.lanes.take(|_| true).unwrap_or_default();
        bank.clear();
        lanes.clear();
        (bank, lanes)
    }

    /// Keeps a TAGE's tables for the next builds. `tables` may be empty
    /// (infinite storage), and is then not kept.
    pub(crate) fn put_tage(&mut self, tables: Vec<Entry>, bimodal: [Vec<bool>; 2]) {
        if !tables.is_empty() {
            self.tage_tables.put(tables);
        }
        for table in bimodal {
            self.bimodal.put(table);
        }
    }

    /// Keeps a history buffer, fold bank and lane plan for the next
    /// builds.
    pub(crate) fn put_history(&mut self, history: HistoryBuffer, bank: FoldBank, lanes: HashLanes) {
        self.histories.put(history);
        self.banks.put(bank);
        self.lanes.put(lanes);
    }

    /// Keeps `lp` for a later [`TablePool::loop_predictor`] of its size.
    pub(crate) fn put_loop_predictor(&mut self, lp: LoopPredictor) {
        self.loops.put(lp);
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

    /// Keeps a composed predictor's own state for the next build of that
    /// predictor. Allocates only when every box of this type the pool
    /// holds is full, so a pool serving the same builds again allocates
    /// nothing.
    pub fn put_state<T: Any + Send>(&mut self, state: T) {
        let empty = self
            .states
            .iter_mut()
            .find_map(|kept| kept.downcast_mut::<Option<T>>().filter(|slot| slot.is_none()));
        match empty {
            Some(slot) => *slot = Some(state),
            None => self.states.push(Box::new(Some(state))),
        }
    }

    /// A state [`TablePool::put_state`] kept of type `T`, if any, leaving
    /// the pool without it.
    pub fn take_state<T: Any + Send>(&mut self) -> Option<T> {
        self.states.iter_mut().find_map(|kept| kept.downcast_mut::<Option<T>>()?.take())
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
        let mut pooled = TageScl::with_pool(&cfg, pool);
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
            pool.sc_tables.0.iter().filter(|t| t.len() == len).map(|t| t.as_ptr()).collect();
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
        assert_eq!(pool.sc_tables.0.len(), 16, "at most one cell's tables of each length");
        assert!(pool.infinite_arena.capacity() >= arena, "the arena keeps its capacity");
    }
}
