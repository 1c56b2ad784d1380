//! Atomic metrics: named counters, gauges, and log2-bucketed histograms.
//!
//! All handles are cheap `Option<Arc<...>>` wrappers: a handle minted from
//! a disabled [`crate::Telemetry`] is `None` and every operation on it is
//! a branch on a null pointer — no allocation, no atomics, no locks. Live
//! handles touch only relaxed atomics, so they are safe to pre-resolve
//! once and then hammer from the hot simulation loop.
//!
//! Snapshots are plain in-process data for the exporters in
//! [`crate::export`]; nothing ships them between processes or merges
//! them — the sweep daemon serves its one live registry directly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX` (bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter. Cloning shares the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that ignores every update (what a disabled
    /// [`crate::Telemetry`] hands out).
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    fn live(cell: Arc<AtomicU64>) -> Self {
        Self(Some(cell))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op counter).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-write-wins gauge. Cloning shares the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A gauge that ignores every update.
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    fn live(cell: Arc<AtomicU64>) -> Self {
        Self(Some(cell))
    }

    /// Overwrites the gauge value.
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op gauge).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Shared storage behind a [`Histogram`] handle.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[HistogramSnapshot::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A log2-bucketed histogram of `u64` samples. Cloning shares storage.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A histogram that ignores every sample.
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    fn live(core: Arc<HistogramCore>) -> Self {
        Self(Some(core))
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    /// Plain-data copy of the current state (empty for a no-op handle).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.as_ref().map_or_else(HistogramSnapshot::default, |core| core.snapshot())
    }
}

/// Plain-data histogram state: a point-in-time copy of a [`Histogram`],
/// queryable for quantiles and rendered by the exporters.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i >= 1` covers
    /// `[2^(i-1), 2^i - 1]`, bucket 0 holds exact zeros.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], sum: 0, max: 0 }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count())
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish()
    }
}

impl HistogramSnapshot {
    /// Bucket index holding `value`: 0 for zero, else `floor(log2) + 1`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (`2^index - 1`, saturating).
    #[must_use]
    pub fn bucket_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound on the `q`-quantile (`0.0 ..= 1.0`): the inclusive
    /// bound of the bucket containing the target sample, clamped to the
    /// recorded maximum. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }
}

/// Named registration for counters, gauges, and histograms. Handles for
/// the same name share storage; snapshots are point-in-time plain data.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistogramCore>>>,
}

impl MetricsRegistry {
    /// Returns the counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Counter::live(Arc::clone(map.entry(name).or_default()))
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut map = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        Gauge::live(Arc::clone(map.entry(name).or_default()))
    }

    /// Returns the histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut map = self.histograms.lock().unwrap_or_else(PoisonError::into_inner);
        Histogram::live(Arc::clone(
            map.entry(name).or_insert_with(|| Arc::new(HistogramCore::new())),
        ))
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        let gauges = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        let histograms = self.histograms.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            counters: counters
                .iter()
                .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
                .collect(),
            gauges: gauges
                .iter()
                .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
                .collect(),
            histograms: histograms
                .iter()
                .map(|(name, core)| (name.to_string(), core.snapshot()))
                .collect(),
        }
    }
}

/// Plain-data copy of a [`MetricsRegistry`] at one point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when nothing has been registered or recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}
