//! Zero-cost telemetry for the LLBP reproduction: a metrics registry
//! (atomic counters, gauges, log2-bucketed histograms), span-based event
//! tracing onto per-thread buffers, and exporters (JSONL, Chrome
//! `trace_event` JSON for Perfetto, Prometheus text).
//!
//! The whole crate hangs off one [`Telemetry`] handle. A disabled handle
//! (the default) holds no allocation and every operation on it is a
//! null-pointer branch — cheap enough to thread through the sweep
//! engine unconditionally. The hot simulation loop never records spans;
//! it uses pre-resolved sampled [`Counter`]s, and full spans exist only
//! at job granularity.
//!
//! ```
//! use llbp_obs::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! tel.counter("jobs").inc();
//! {
//!     let _span = tel.span("simulation").with_cell(3);
//!     // ... work ...
//! }
//! let events = tel.drain_events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "simulation");
//! assert_eq!(tel.metrics().counters["jobs"], 1);
//! ```

mod events;
pub mod export;
pub mod json;
mod metrics;

pub use events::{Event, EventKind};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};

use events::EventLog;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Environment variable holding a [`TelemetrySettings`] spec
/// (`trace=<path>,metrics=<path>`, or `1`/`on` to enable collection
/// without file output).
pub const TELEMETRY_ENV: &str = "LLBP_TELEMETRY";

#[derive(Debug)]
struct Inner {
    metrics: MetricsRegistry,
    events: EventLog,
    epoch: Instant,
}

/// The telemetry handle threaded through the sweep engine. Cloning is
/// cheap and all clones share the same registry and event log.
///
/// [`Telemetry::default`] is disabled: no allocation, and every method
/// is a no-op returning empty handles/snapshots.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A handle that records nothing and allocates nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live handle with an empty registry and event log. The creation
    /// instant becomes the epoch for event timestamps.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                metrics: MetricsRegistry::default(),
                events: EventLog::new(),
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves the counter named `name` ([`Counter::noop`] when
    /// disabled). Resolve once outside hot loops: the returned handle is
    /// a bare atomic.
    #[must_use]
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner.as_ref().map_or_else(Counter::noop, |inner| inner.metrics.counter(name))
    }

    /// Resolves the gauge named `name` ([`Gauge::noop`] when disabled).
    #[must_use]
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner.as_ref().map_or_else(Gauge::noop, |inner| inner.metrics.gauge(name))
    }

    /// Resolves the histogram named `name` ([`Histogram::noop`] when
    /// disabled).
    #[must_use]
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner.as_ref().map_or_else(Histogram::noop, |inner| inner.metrics.histogram(name))
    }

    /// Opens an RAII span: the event is recorded when the guard drops.
    /// Attach a sweep-cell index with [`SpanGuard::with_cell`]. On a
    /// disabled handle the guard is inert and records nothing.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            tel: self.clone(),
            name,
            cell: -1,
            start: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// Records a completed span from explicit instants (for intervals
    /// measured before a guard could exist, e.g. queue wait). Also feeds
    /// the duration into the histogram of the same name, so per-stage
    /// totals in the metrics snapshot match the event log exactly.
    pub fn record_span(&self, name: &'static str, start: Instant, end: Instant, cell: i64) {
        let Some(inner) = &self.inner else { return };
        let start_us = saturating_us(inner.epoch, start);
        let dur_us = end.saturating_duration_since(start).as_micros() as u64;
        inner.metrics.histogram(name).record(dur_us);
        inner.events.push(Event { name, kind: EventKind::Span, cell, start_us, dur_us, thread: 0 });
    }

    /// Records an instantaneous mark and bumps the counter of the same
    /// name (so mark tallies appear in both the event log and the
    /// metrics snapshot).
    pub fn mark(&self, name: &'static str, cell: i64) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.counter(name).inc();
        inner.events.push(Event {
            name,
            kind: EventKind::Mark,
            cell,
            start_us: saturating_us(inner.epoch, Instant::now()),
            dur_us: 0,
            thread: 0,
        });
    }

    /// Removes and returns all buffered events sorted by start time.
    /// Empty (and allocation-free) on a disabled handle.
    #[must_use]
    pub fn drain_events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| inner.events.drain())
    }

    /// Point-in-time snapshot of every registered metric. Empty on a
    /// disabled handle.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.as_ref().map_or_else(MetricsSnapshot::default, |inner| inner.metrics.snapshot())
    }
}

fn saturating_us(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_micros() as u64
}

/// RAII guard returned by [`Telemetry::span`]; records a span event (and
/// the matching duration histogram sample) when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    tel: Telemetry,
    name: &'static str,
    cell: i64,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Tags the span with a sweep-cell index.
    #[must_use]
    pub fn with_cell(mut self, cell: i64) -> Self {
        self.cell = cell;
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.tel.record_span(self.name, start, Instant::now(), self.cell);
        }
    }
}

/// Parsed `LLBP_TELEMETRY` / CLI telemetry configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySettings {
    /// Whether to collect telemetry at all.
    pub enabled: bool,
    /// Where to write the Chrome trace-event JSON, if anywhere.
    pub trace_events: Option<PathBuf>,
    /// Where to write the Prometheus metrics snapshot, if anywhere.
    pub metrics_out: Option<PathBuf>,
}

impl TelemetrySettings {
    /// Parses the `LLBP_TELEMETRY` grammar: a comma-separated list of
    /// `trace=<path>` / `metrics=<path>` pairs, or a bare `1`/`on`/
    /// `true` (collect without writing files) or `0`/`off`/`false`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut settings = Self::default();
        let trimmed = spec.trim();
        if trimmed.is_empty() {
            return Ok(settings);
        }
        match trimmed {
            "1" | "on" | "true" => {
                settings.enabled = true;
                return Ok(settings);
            }
            "0" | "off" | "false" => return Ok(settings),
            _ => {}
        }
        for clause in trimmed.split(',') {
            let clause = clause.trim();
            let Some((key, value)) = clause.split_once('=') else {
                return Err(format!("telemetry clause `{clause}` is not key=value"));
            };
            if value.is_empty() {
                return Err(format!("telemetry clause `{clause}` has an empty path"));
            }
            match key.trim() {
                "trace" => settings.trace_events = Some(PathBuf::from(value)),
                "metrics" => settings.metrics_out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown telemetry key `{other}`")),
            }
        }
        settings.enabled = true;
        Ok(settings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64, inlined so the tests stay std-only and seeded.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(HistogramSnapshot::bucket_index(0), 0);
        assert_eq!(HistogramSnapshot::bucket_index(1), 1);
        assert_eq!(HistogramSnapshot::bucket_index(2), 2);
        assert_eq!(HistogramSnapshot::bucket_index(3), 2);
        assert_eq!(HistogramSnapshot::bucket_index(4), 3);
        assert_eq!(HistogramSnapshot::bucket_index(u64::MAX), 64);
        // Every nonzero value lands in a bucket whose bound is >= the
        // value and < 2x the value (the log2 guarantee).
        let mut rng = Rng(0xbeef);
        for _ in 0..10_000 {
            let v = rng.next() >> (rng.next() % 64);
            if v == 0 {
                continue;
            }
            let bound = HistogramSnapshot::bucket_bound(HistogramSnapshot::bucket_index(v));
            assert!(bound >= v, "bound {bound} < value {v}");
            assert!(bound / 2 < v, "bound {bound} not within 2x of {v}");
        }
        // Bucket bounds are the last value of each bucket: bound+1 must
        // index into the next bucket.
        for i in 1..63 {
            let bound = HistogramSnapshot::bucket_bound(i);
            assert_eq!(HistogramSnapshot::bucket_index(bound), i);
            assert_eq!(HistogramSnapshot::bucket_index(bound + 1), i + 1);
        }
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = HistogramSnapshot::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max, 1000);
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        // Log2 buckets: the quantile is an upper bound within 2x.
        assert!((500..1000).contains(&p50), "p50 = {p50}");
        assert!((950..=1023).contains(&p95), "p95 = {p95}");
        assert_eq!(h.quantile(1.0), 1000); // clamped to max
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("x").add(10);
        tel.gauge("g").set(5);
        tel.histogram("h").record(7);
        tel.mark("m", 1);
        {
            let _span = tel.span("s").with_cell(2);
        }
        assert_eq!(tel.counter("x").get(), 0);
        assert!(tel.drain_events().is_empty());
        assert!(tel.metrics().is_empty());
    }

    #[test]
    fn spans_and_marks_share_names_with_metrics() {
        let tel = Telemetry::enabled();
        {
            let _span = tel.span("simulation").with_cell(7);
        }
        tel.mark("retry", 7);
        let events = tel.drain_events();
        assert_eq!(events.len(), 2);
        let span = events.iter().find(|e| e.kind == EventKind::Span).unwrap();
        assert_eq!(span.name, "simulation");
        assert_eq!(span.cell, 7);
        let snap = tel.metrics();
        assert_eq!(snap.counters["retry"], 1);
        assert_eq!(snap.histograms["simulation"].count(), 1);
        // A second drain sees nothing new.
        assert!(tel.drain_events().is_empty());
    }

    #[test]
    fn settings_grammar() {
        assert_eq!(TelemetrySettings::parse("").unwrap(), TelemetrySettings::default());
        assert!(TelemetrySettings::parse("1").unwrap().enabled);
        assert!(TelemetrySettings::parse("on").unwrap().enabled);
        assert!(!TelemetrySettings::parse("off").unwrap().enabled);
        let s = TelemetrySettings::parse("trace=/tmp/a.json,metrics=/tmp/b.prom").unwrap();
        assert!(s.enabled);
        assert_eq!(s.trace_events.as_deref(), Some(std::path::Path::new("/tmp/a.json")));
        assert_eq!(s.metrics_out.as_deref(), Some(std::path::Path::new("/tmp/b.prom")));
        assert!(TelemetrySettings::parse("bogus").is_err());
        assert!(TelemetrySettings::parse("trace=").is_err());
        assert!(TelemetrySettings::parse("color=red").is_err());
    }
}
