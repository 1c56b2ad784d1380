//! A keyed, deduplicating cache of generated traces.
//!
//! A sweep runs many `(predictor, workload)` jobs and most of them share a
//! workload: generating the trace once and handing every job an
//! [`Arc<Trace>`] removes the dominant redundant work from multi-predictor
//! sweeps. A cache keeps every trace it has produced until it is dropped,
//! unless its owner releases one: the sweep engine releases a trace from
//! the cache it builds for a run once the trace's last cell has finished,
//! so a one-worker campaign holds one trace at a time (see
//! [`TraceCache::peak_footprint`]). A released trace that no caller still
//! holds leaves its record buffer to the cache, and the next trace loaded
//! from the persistent store is decoded into it, so a run's decodes
//! reuse one buffer instead of faulting a new one in per trace.
//!
//! The cache is safe to share across the sweep engine's worker threads.
//! When two workers request the same trace concurrently, exactly one
//! generates it while the other blocks until the trace is ready — the
//! generate-once guarantee holds under any scheduling.

use crate::error::{CancelToken, SimError};
use crate::memo::MemoStore;
use bputil::hash::FastHashMap;
use llbp_obs::Telemetry;
use llbp_trace::{BranchRecord, ProgressSink, Trace, WorkloadSpec};
use std::cell::Cell;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How often a waiter blocked on another worker's in-flight generation
/// rechecks its own cancel token. A waiter must not sleep uninterruptibly
/// on the condvar: the producer it waits for may itself be stuck (that is
/// exactly what the watchdog exists to catch).
const WAIT_POLL: Duration = Duration::from_millis(10);

/// State of one cache key: being generated by some worker, or ready.
enum Slot {
    Pending,
    Ready(Arc<Trace>),
}

/// Spec-keyed trace cache with generate-once semantics.
///
/// Keys are derived from the full [`WorkloadSpec`] (workload parameters,
/// branch count, seed), so two specs that would generate different traces
/// never alias.
///
/// # Example
///
/// ```
/// use llbp_sim::cache::TraceCache;
/// use llbp_trace::{Workload, WorkloadSpec};
///
/// let cache = TraceCache::new();
/// let spec = WorkloadSpec::named(Workload::Http).with_branches(1_000);
/// let a = cache.get_or_generate(&spec);
/// let b = cache.get_or_generate(&spec);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Default)]
pub struct TraceCache {
    slots: Mutex<FastHashMap<Arc<str>, Slot>>,
    /// The record buffer of the last released trace, for the next decode.
    spare: Mutex<Vec<BranchRecord>>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    /// Largest footprint sampled just before a release.
    peak: AtomicUsize,
    store: Option<Arc<MemoStore>>,
    cold: bool,
    telemetry: Telemetry,
}

impl TraceCache {
    /// Creates an empty, memory-only cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache backed by a persistent [`MemoStore`]: a memory
    /// miss probes the store for a serialized trace before generating,
    /// and freshly generated traces are written back. With `cold` set,
    /// existing entries are ignored (every request regenerates) but
    /// write-back still happens, so a cold run refreshes the store.
    #[must_use]
    pub fn with_store(store: Arc<MemoStore>, cold: bool) -> Self {
        Self { store: Some(store), cold, ..Self::default() }
    }

    /// Attaches a telemetry handle: trace generation and disk loads get
    /// `trace_gen` / `trace_disk_load` counters, and generated records
    /// feed a `gen_records_total` counter via the generation sink. A
    /// disabled handle (the default) costs nothing.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The cache key for a spec: every field that influences generation.
    /// The sweep engine formats each workload's key once per run
    /// ([`TraceCache::format_key`]) and passes it to
    /// [`TraceCache::get_or_generate_keyed`] and [`TraceCache::release`],
    /// so its cells format none. The key is the spec's `Debug` text, the
    /// text [`MemoStore::trace_fingerprint`] and
    /// [`MemoStore::result_fingerprint`] hash, so the engine's result
    /// fingerprints and a store load share it too.
    pub(crate) fn key(spec: &WorkloadSpec) -> Arc<str> {
        let mut text = String::new();
        Self::format_key(spec, &mut text);
        text.as_str().into()
    }

    /// Replaces `text` with `spec`'s [`TraceCache::key`] text, so that one
    /// buffer serves a run's keys.
    pub(crate) fn format_key(spec: &WorkloadSpec, text: &mut String) {
        // `WorkloadSpec` carries f64 tuning parameters, so it cannot
        // implement `Eq`/`Hash`; its `Debug` form includes every field and
        // is deterministic, which is all a cache key needs.
        text.clear();
        write!(text, "{spec:?}").expect("formatting into a String cannot fail");
    }

    /// Locks the slot map, recovering the data from a poisoned lock.
    ///
    /// The map is only ever mutated with the lock held and every
    /// individual mutation (insert/remove) leaves it consistent, so a
    /// thread that panicked while holding the lock cannot have left a
    /// torn state behind — recovering is strictly better than cascading
    /// the panic into every other worker of the sweep.
    fn lock_slots(&self) -> MutexGuard<'_, FastHashMap<Arc<str>, Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the trace for `spec`, generating it on first request.
    ///
    /// Concurrent requests for the same spec generate the trace exactly
    /// once; the losers of the race block until it is ready. If the
    /// generating thread panics (a trace-gen bug, or an injected fault
    /// unwinding through the sweep engine's isolation boundary), its
    /// pending reservation is rolled back on unwind and one of the
    /// blocked waiters takes over generation — a panic never strands the
    /// other workers on the condvar.
    #[must_use]
    pub fn get_or_generate(&self, spec: &WorkloadSpec) -> Arc<Trace> {
        match self.get_or_generate_cancellable(spec, &CancelToken::none(), None) {
            Ok(trace) => trace,
            Err(_) => unreachable!("a never-firing token cannot cancel generation"),
        }
    }

    /// [`TraceCache::get_or_generate`] with a cancellation hook: the
    /// generator polls `token` every few thousand emitted records (see
    /// [`llbp_trace::GEN_POLL_INTERVAL`]) and a waiter blocked on another
    /// worker's in-flight generation rechecks it every [`WAIT_POLL`] —
    /// so a watchdog deadline interrupts a cell stuck in trace
    /// *generation*, not just in the simulation loop.
    ///
    /// `injected_delay` is the fault harness's hook (`slow:…,at=gen`): it
    /// is slept inside the generator's first poll point, exactly where a
    /// genuinely stuck generator would stall.
    ///
    /// An aborted generation rolls its `Pending` reservation back and
    /// wakes the waiters, so a timed-out producer never strands other
    /// workers; a retry (or another worker) simply generates afresh. The
    /// miss counter may count such aborted generations — reports track
    /// work attempted, and aborted work was attempted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when `token` fires before the trace
    /// is ready.
    pub fn get_or_generate_cancellable(
        &self,
        spec: &WorkloadSpec,
        token: &CancelToken,
        injected_delay: Option<Duration>,
    ) -> Result<Arc<Trace>, SimError> {
        self.get_or_generate_keyed(&Self::key(spec), spec, token, injected_delay)
    }

    /// [`TraceCache::get_or_generate_cancellable`] with the spec's key
    /// already formatted ([`TraceCache::key`]).
    pub(crate) fn get_or_generate_keyed(
        &self,
        key: &Arc<str>,
        spec: &WorkloadSpec,
        token: &CancelToken,
        injected_delay: Option<Duration>,
    ) -> Result<Arc<Trace>, SimError> {
        {
            let mut slots = self.lock_slots();
            loop {
                if token.is_cancelled() {
                    return Err(token.cancellation_error());
                }
                match slots.get(&**key) {
                    Some(Slot::Ready(trace)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(trace));
                    }
                    Some(Slot::Pending) => {
                        slots = self
                            .ready
                            .wait_timeout(slots, WAIT_POLL)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                    None => {
                        slots.insert(Arc::clone(key), Slot::Pending);
                        break;
                    }
                }
            }
        }
        // Produce outside the lock so other keys proceed in parallel:
        // first from the persistent store if one is attached (and the
        // cache is not cold), generating and writing back otherwise. The
        // guard rolls the Pending reservation back if produce() unwinds
        // *or* returns a cancellation error.
        let mut guard = PendingGuard { cache: self, key, armed: true };
        let trace = Arc::new(self.produce(key, spec, token, injected_delay)?);
        guard.armed = false;
        drop(guard);
        let mut slots = self.lock_slots();
        slots.insert(Arc::clone(key), Slot::Ready(Arc::clone(&trace)));
        self.ready.notify_all();
        Ok(trace)
    }

    /// Drops the trace of `key` once no caller will ask for it again,
    /// after adding the cache's footprint at that moment to the samples
    /// [`TraceCache::peak_footprint`] takes the largest of. A key that
    /// is absent or still being generated is left alone. When the cache
    /// decodes from a store and no caller still holds the trace, its
    /// record buffer becomes the buffer the next decode fills (the larger
    /// of it and the one kept before); a cache that only generates frees
    /// it.
    pub(crate) fn release(&self, key: &str) {
        let mut slots = self.lock_slots();
        if !matches!(slots.get(key), Some(Slot::Ready(_))) {
            return;
        }
        self.peak.fetch_max(footprint(&slots), Ordering::Relaxed);
        let released = slots.remove(key);
        drop(slots);
        // Outside the lock: the trace is freed, or its buffer kept,
        // unless a caller still holds it.
        let decodes = self.store.is_some() && !self.cold;
        if let (Some(Slot::Ready(trace)), true) = (released, decodes) {
            if let Ok(trace) = Arc::try_unwrap(trace) {
                let records = trace.into_records();
                let mut spare = self.spare.lock().unwrap_or_else(PoisonError::into_inner);
                if records.capacity() > spare.capacity() {
                    *spare = records;
                }
            }
        }
    }

    /// The record buffer a release left, leaving the cache without one.
    fn take_spare(&self) -> Vec<BranchRecord> {
        std::mem::take(&mut *self.spare.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Loads the trace from the persistent store or generates it, writing
    /// freshly generated traces back (best-effort). Store read *errors*
    /// (as opposed to misses) also degrade to regeneration: a trace can
    /// always be rebuilt from its spec, so retrying the disk is never
    /// worth blocking a worker for. `key` is the spec's [`TraceCache::key`],
    /// the text its store fingerprint hashes.
    fn produce(
        &self,
        key: &str,
        spec: &WorkloadSpec,
        token: &CancelToken,
        injected_delay: Option<Duration>,
    ) -> Result<Trace, SimError> {
        let sink = TokenSink {
            token,
            delay: Cell::new(injected_delay),
            records: self.telemetry.counter("gen_records_total"),
        };
        if let Some(store) = &self.store {
            let fp = store.trace_fingerprint_of(key);
            if !self.cold {
                if let Ok(Some(trace)) = store.load_trace_into(fp, self.take_spare()) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.counter("trace_disk_load").inc();
                    return Ok(trace);
                }
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("trace_gen").inc();
            let trace = spec.generate_with_sink(&sink).ok_or_else(|| token.cancellation_error())?;
            let _ = store.store_trace(fp, &trace);
            Ok(trace)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("trace_gen").inc();
            spec.generate_with_sink(&sink).ok_or_else(|| token.cancellation_error())
        }
    }

    /// Number of requests served from memory.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that generated a new trace.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of requests served by deserializing a persisted trace.
    #[must_use]
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Number of distinct traces currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_slots().len()
    }

    /// `true` when no trace has been requested yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes held by the cached traces now, column views
    /// included. The buffer a release keeps for the next decode is not
    /// counted between that release, whose sample counts it, and the
    /// decode, after which its trace counts it.
    #[must_use]
    pub fn memory_footprint(&self) -> usize {
        footprint(&self.lock_slots())
    }

    /// The most heap the cached traces have held: the larger of
    /// [`TraceCache::memory_footprint`] now and the footprints sampled
    /// just before each release. Traces only join the cache between
    /// releases, so with one worker this is exact; with several, a trace
    /// whose column view another worker is still building when a release
    /// samples is counted without it. A cache that never releases
    /// reports what it holds.
    #[must_use]
    pub fn peak_footprint(&self) -> usize {
        self.peak.load(Ordering::Relaxed).max(self.memory_footprint())
    }
}

/// Heap bytes held by the ready traces of a locked slot map.
fn footprint(slots: &FastHashMap<Arc<str>, Slot>) -> usize {
    slots
        .values()
        .map(|slot| match slot {
            Slot::Ready(trace) => trace.memory_footprint(),
            Slot::Pending => 0,
        })
        .sum()
}

/// Adapts a [`CancelToken`] (plus an optional injected pre-generation
/// delay from the fault harness) into the generator's [`ProgressSink`].
struct TokenSink<'a> {
    token: &'a CancelToken,
    /// Injected delay, slept inside the first poll and then cleared — the
    /// `Cell` is fine because a sink is only polled from the generating
    /// thread.
    delay: Cell<Option<Duration>>,
    /// Telemetry counter fed the emitted-record total of each completed
    /// generation (a no-op counter when telemetry is off).
    records: llbp_obs::Counter,
}

impl ProgressSink for TokenSink<'_> {
    fn on_progress(&self, _emitted: usize) -> bool {
        if let Some(delay) = self.delay.take() {
            std::thread::sleep(delay);
        }
        !self.token.is_cancelled()
    }

    fn on_complete(&self, emitted: usize) {
        self.records.add(emitted as u64);
    }
}

/// Rolls back a `Pending` reservation if trace production unwinds, and
/// wakes the waiters so one of them can claim generation instead of
/// blocking forever on a slot that will never become `Ready`.
struct PendingGuard<'a> {
    cache: &'a TraceCache,
    key: &'a str,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut slots = self.cache.lock_slots();
        slots.remove(self.key);
        self.cache.ready.notify_all();
    }
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::Workload;

    #[test]
    fn distinct_specs_do_not_alias() {
        let cache = TraceCache::new();
        let a = cache.get_or_generate(&WorkloadSpec::named(Workload::Http).with_branches(500));
        let b = cache.get_or_generate(&WorkloadSpec::named(Workload::Http).with_branches(600));
        let c = cache.get_or_generate(&WorkloadSpec::named(Workload::Kafka).with_branches(500));
        assert_eq!(a.len(), 500);
        assert_eq!(b.len(), 600);
        assert_eq!(c.name(), "Kafka");
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn seed_is_part_of_the_key() {
        let cache = TraceCache::new();
        let spec = WorkloadSpec::named(Workload::Tpcc).with_branches(400);
        let a = cache.get_or_generate(&spec.clone().with_seed(1));
        let b = cache.get_or_generate(&spec.with_seed(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.records(), b.records());
    }

    #[test]
    fn footprint_counts_ready_traces() {
        let cache = TraceCache::new();
        assert_eq!(cache.memory_footprint(), 0);
        let t = cache.get_or_generate(&WorkloadSpec::named(Workload::Http).with_branches(300));
        assert_eq!(cache.memory_footprint(), t.memory_footprint());
    }

    #[test]
    fn release_drops_a_ready_trace_and_keeps_its_footprint_as_the_peak() {
        let cache = TraceCache::new();
        let spec = WorkloadSpec::named(Workload::Http).with_branches(300);
        let key = TraceCache::key(&spec);
        let trace = cache
            .get_or_generate_keyed(&key, &spec, &CancelToken::none(), None)
            .expect("no deadline to trip");
        let _view = trace.soa();
        let held = cache.memory_footprint();
        assert_eq!(held, trace.memory_footprint(), "the column view counts");
        cache.release(&key);
        assert!(cache.is_empty());
        assert_eq!(cache.memory_footprint(), 0);
        assert_eq!(cache.peak_footprint(), held);
        // An absent key is a no-op, and a released key regenerates.
        cache.release(&key);
        assert_eq!(cache.get_or_generate(&spec).records(), trace.records());
        assert_eq!(cache.misses(), 2);
        // A generation in flight is never dropped.
        cache.release(&key);
        cache.lock_slots().insert(Arc::clone(&key), Slot::Pending);
        cache.release(&key);
        assert!(matches!(cache.lock_slots().get(&*key), Some(Slot::Pending)));
    }

    #[test]
    fn the_second_decode_of_a_run_lands_in_the_first_traces_buffer() {
        let dir =
            std::env::temp_dir().join(format!("llbp-trace-cache-reuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(MemoStore::open(&dir).expect("temp store"));
        let first = WorkloadSpec::named(Workload::Http).with_branches(3_000);
        let second = WorkloadSpec::named(Workload::Tpcc).with_branches(2_000);
        for spec in [&first, &second] {
            store.store_trace(store.trace_fingerprint(spec), &spec.generate()).expect("store");
        }
        let cache = TraceCache::with_store(store, false);
        let load = |spec: &WorkloadSpec| {
            cache
                .get_or_generate_keyed(&TraceCache::key(spec), spec, &CancelToken::none(), None)
                .expect("no deadline to trip")
        };
        // The record buffer's address and capacity (the footprint less the
        // name, which a decode allocates exactly).
        let buffer = |t: &Trace| {
            let records = t.memory_footprint() - t.name().len();
            (t.records().as_ptr(), records / std::mem::size_of::<BranchRecord>())
        };
        let trace = load(&first);
        let held = buffer(&trace);
        drop(trace);
        cache.release(&TraceCache::key(&first));
        let next = load(&second);
        assert_eq!(buffer(&next), held, "decoded into the released buffer, not regrown");
        assert_eq!(next.records(), second.generate().records(), "and nothing of the first left");
        assert_eq!(cache.disk_hits(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_store_feeds_a_fresh_cache() {
        let dir =
            std::env::temp_dir().join(format!("llbp-trace-cache-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(MemoStore::open(&dir).expect("temp store"));
        let spec = WorkloadSpec::named(Workload::Http).with_branches(700);

        let first = TraceCache::with_store(Arc::clone(&store), false);
        let t1 = first.get_or_generate(&spec);
        assert_eq!((first.misses(), first.disk_hits()), (1, 0));

        // A fresh cache (new process, conceptually) deserializes instead
        // of regenerating, and the records are identical.
        let second = TraceCache::with_store(Arc::clone(&store), false);
        let t2 = second.get_or_generate(&spec);
        assert_eq!((second.misses(), second.disk_hits()), (0, 1));
        assert_eq!(t1.records(), t2.records());
        assert_eq!(t1.name(), t2.name());

        // Cold mode ignores the stored trace but still writes back.
        let cold = TraceCache::with_store(Arc::clone(&store), true);
        let t3 = cold.get_or_generate(&spec);
        assert_eq!((cold.misses(), cold.disk_hits()), (1, 0));
        assert_eq!(t1.records(), t3.records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_generator_releases_its_pending_reservation() {
        let cache = TraceCache::new();
        let key: Arc<str> = Arc::from("unit-test-key");
        cache.lock_slots().insert(Arc::clone(&key), Slot::Pending);
        // Simulate a generator thread unwinding mid-produce.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = PendingGuard { cache: &cache, key: &key, armed: true };
            panic!("generator died");
        }));
        assert!(caught.is_err());
        assert!(!cache.lock_slots().contains_key(&*key), "reservation must be rolled back");
        // And the cache still works afterwards — including for waiters
        // that would have been blocked on the dead reservation.
        let spec = WorkloadSpec::named(Workload::Http).with_branches(200);
        cache.lock_slots().insert(TraceCache::key(&spec), Slot::Pending);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.get_or_generate(&spec));
            std::thread::sleep(std::time::Duration::from_millis(20));
            // Roll back the stuck reservation as the unwinding thread would.
            drop(PendingGuard { cache: &cache, key: &TraceCache::key(&spec), armed: true });
            let trace = waiter.join().expect("waiter completes");
            assert_eq!(trace.len(), 200);
        });
    }

    #[test]
    fn cancelled_generation_rolls_back_and_regenerates() {
        let cache = TraceCache::new();
        let spec = WorkloadSpec::named(Workload::Http).with_branches(5_000);
        let token = CancelToken::with_timeout(Duration::ZERO);
        let err = cache
            .get_or_generate_cancellable(&spec, &token, None)
            .expect_err("expired deadline must cancel generation");
        assert_eq!(err.class(), "timeout");
        assert!(cache.is_empty(), "aborted reservation must be rolled back");
        // A later uncancelled request generates the full trace normally.
        let trace = cache.get_or_generate(&spec);
        assert_eq!(trace.len(), 5_000);
    }

    #[test]
    fn injected_generation_delay_trips_the_watchdog() {
        let cache = TraceCache::new();
        let spec = WorkloadSpec::named(Workload::Http).with_branches(300);
        // Delay longer than the deadline: the generator's first poll
        // sleeps through the budget and the next check cancels.
        let token = CancelToken::with_timeout(Duration::from_millis(20));
        let err = cache
            .get_or_generate_cancellable(&spec, &token, Some(Duration::from_millis(80)))
            .expect_err("delay outlasts the deadline");
        assert_eq!(err.class(), "timeout");
        // Without a deadline the injected delay is harmless.
        let trace = cache
            .get_or_generate_cancellable(
                &spec,
                &CancelToken::none(),
                Some(Duration::from_millis(1)),
            )
            .expect("no deadline to trip");
        assert_eq!(trace.len(), 300);
    }

    #[test]
    fn waiter_with_expired_token_gives_up_instead_of_blocking() {
        let cache = TraceCache::new();
        let spec = WorkloadSpec::named(Workload::Http).with_branches(200);
        // Plant a pending reservation that nobody will ever complete.
        cache.lock_slots().insert(TraceCache::key(&spec), Slot::Pending);
        let token = CancelToken::with_timeout(Duration::from_millis(30));
        let started = std::time::Instant::now();
        let err = cache
            .get_or_generate_cancellable(&spec, &token, None)
            .expect_err("waiter must time out");
        assert_eq!(err.class(), "timeout");
        assert!(started.elapsed() < Duration::from_secs(5), "waiter must not block forever");
        // Clean up the planted reservation.
        cache.lock_slots().remove(&TraceCache::key(&spec));
    }

    #[test]
    fn concurrent_requests_generate_once() {
        let cache = TraceCache::new();
        let spec = WorkloadSpec::named(Workload::Spring).with_branches(2_000);
        std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..4).map(|_| s.spawn(|| cache.get_or_generate(&spec))).collect();
            let traces: Vec<_> =
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();
            for t in &traces[1..] {
                assert!(Arc::ptr_eq(&traces[0], t));
            }
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }
}
