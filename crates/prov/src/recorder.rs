//! The hot-path recorder: a sampling ring buffer plus full-rate
//! per-branch profiles, behind a zero-cost disabled state.

use crate::record::{BranchProfile, ProvEvent};
use crate::stream::ProvStream;
use bputil::hash::FastHashMap;
use llbp_tage::PredictionInfo;

/// Recorder tuning, normally read from `LLBP_PROV_SAMPLE` /
/// `LLBP_PROV_RING` (validated through the simulator's `envknob`
/// layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvConfig {
    /// Keep every `sample`-th event in the ring (1 = keep all).
    pub sample: u64,
    /// Ring capacity in events; once full, the oldest events are
    /// overwritten (the profiles stay exact).
    pub ring: usize,
}

impl ProvConfig {
    /// Default sampling period.
    pub const DEFAULT_SAMPLE: u64 = 64;
    /// Default ring capacity.
    pub const DEFAULT_RING: usize = 65_536;
}

impl Default for ProvConfig {
    fn default() -> Self {
        ProvConfig { sample: Self::DEFAULT_SAMPLE, ring: Self::DEFAULT_RING }
    }
}

/// State behind an enabled recorder. Boxed so the disabled variant is a
/// single tag word on the simulator's stack.
#[derive(Debug)]
pub struct RecorderState {
    sample: u64,
    /// Measured branches left before the next sampled one; the branch that
    /// finds it at 0 is sampled and reloads it to `sample - 1`.
    countdown: u64,
    capacity: usize,
    ring: Vec<ProvEvent>,
    /// Next ring slot to overwrite once the ring is full.
    head: usize,
    /// Total events pushed into the ring (including since-overwritten).
    sampled: u64,
    /// Measured conditional branches observed (the `seq` counter).
    seq: u64,
    profiles: FastHashMap<u64, BranchProfile>,
}

/// Per-branch provenance recorder for one simulation run.
///
/// Zero-cost discipline (as `crates/obs`): the [`ProvRecorder::Disabled`]
/// variant makes [`ProvRecorder::record`] a single predictable branch
/// and allocates nothing, so a disabled run's behaviour and output are
/// byte-identical to a build without the recorder. The enabled variant
/// preallocates its ring up front; the per-event path allocates only on
/// the first misprediction (or LLBP override) of a previously clean
/// branch, when its profile entry is created.
#[derive(Debug)]
pub enum ProvRecorder {
    /// Record nothing.
    Disabled,
    /// Record into the boxed state.
    Enabled(Box<RecorderState>),
}

impl ProvRecorder {
    /// The no-op recorder.
    #[must_use]
    pub fn disabled() -> Self {
        ProvRecorder::Disabled
    }

    /// A live recorder with the ring preallocated (degenerate values are
    /// clamped: sampling period and capacity are at least 1).
    #[must_use]
    pub fn enabled(cfg: ProvConfig) -> Self {
        let capacity = cfg.ring.max(1);
        ProvRecorder::Enabled(Box::new(RecorderState {
            sample: cfg.sample.max(1),
            countdown: 0,
            capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            sampled: 0,
            seq: 0,
            profiles: FastHashMap::default(),
        }))
    }

    /// Whether events are being captured.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, ProvRecorder::Enabled(_))
    }

    /// Observes one measured conditional branch: `info` as the predictor
    /// reported it, `taken` the resolved direction. No-op when disabled.
    #[inline]
    pub fn record(&mut self, pc: u64, taken: bool, info: &PredictionInfo) {
        if let ProvRecorder::Enabled(state) = self {
            state.record(pc, taken, info);
        }
    }

    /// Consumes the recorder into a persistable stream; `None` when
    /// disabled.
    #[must_use]
    pub fn finish(self, label: &str, workload: &str) -> Option<ProvStream> {
        let ProvRecorder::Enabled(state) = self else { return None };
        Some(state.into_stream(label, workload))
    }
}

impl RecorderState {
    fn record(&mut self, pc: u64, taken: bool, info: &PredictionInfo) {
        let seq = self.seq;
        self.seq += 1;
        // Profiles are exact: every misprediction and every LLBP override
        // is counted, at any sampling rate. Correctly predicted,
        // non-overridden branches (the overwhelming majority) skip the
        // map entirely.
        if info.pred != taken || info.llbp_override {
            self.profiles.entry(pc).or_insert_with(|| BranchProfile::new(pc)).observe(taken, info);
        }
        // Count down to the next sampled branch: no division per branch.
        if self.countdown > 0 {
            self.countdown -= 1;
            return;
        }
        self.countdown = self.sample - 1;
        let event = ProvEvent::from_info(seq, pc, taken, info);
        if self.ring.len() < self.capacity {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.sampled += 1;
    }

    fn into_stream(self, label: &str, workload: &str) -> ProvStream {
        // Restore chronological order: once the ring has wrapped, `head`
        // points at the oldest surviving event.
        let mut events = self.ring;
        let oldest = self.head.min(events.len());
        events.rotate_left(oldest);
        let mut profiles: Vec<BranchProfile> = self.profiles.into_values().collect();
        profiles.sort_unstable_by_key(|p| p.pc);
        let mispredicts = profiles.iter().map(|p| p.mispredicts).sum();
        ProvStream {
            label: label.to_string(),
            workload: workload.to_string(),
            sample: self.sample,
            ring: self.capacity as u64,
            branches: self.seq,
            mispredicts,
            sampled: self.sampled,
            profiles,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_tage::ProviderKind;

    fn info(pred: bool) -> PredictionInfo {
        PredictionInfo::from_provider(pred, ProviderKind::Bimodal)
    }

    #[test]
    fn disabled_recorder_produces_nothing() {
        let mut r = ProvRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(0x10, true, &info(false));
        assert!(r.finish("l", "w").is_none());
    }

    #[test]
    fn sampled_events_are_every_nth_of_the_full_stream() {
        // The parity contract the sampling policy is pinned to: at period
        // k, the recorded events are exactly every k-th event of a
        // period-1 reference run, and the profiles are identical.
        let drive = |sample: u64| {
            let mut r =
                ProvRecorder::enabled(ProvConfig { sample, ring: ProvConfig::DEFAULT_RING });
            for i in 0..1000u64 {
                let pc = 0x400 + (i % 7) * 4;
                let taken = i % 3 == 0;
                let pred = i % 5 != 0;
                r.record(pc, taken, &info(pred));
            }
            r.finish("64K TSL", "tomcat").expect("enabled")
        };
        let full = drive(1);
        let sampled = drive(4);
        assert_eq!(full.branches, 1000);
        assert_eq!(full.events.len(), 1000);
        assert_eq!(sampled.events.len(), 250);
        let every_4th: Vec<_> = full.events.iter().copied().step_by(4).collect();
        assert_eq!(sampled.events, every_4th);
        assert_eq!(sampled.profiles, full.profiles, "profiles are full-rate at any period");
        assert_eq!(sampled.mispredicts, full.mispredicts);
    }

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        let mut r = ProvRecorder::enabled(ProvConfig { sample: 1, ring: 8 });
        for i in 0..20u64 {
            r.record(i, true, &info(true));
        }
        let s = r.finish("l", "w").unwrap();
        assert_eq!(s.sampled, 20);
        assert_eq!(s.events.len(), 8);
        let seqs: Vec<u64> = s.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "oldest-first after wrap");
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let mut r = ProvRecorder::enabled(ProvConfig { sample: 0, ring: 0 });
        r.record(1, true, &info(true));
        r.record(2, true, &info(true));
        let s = r.finish("l", "w").unwrap();
        assert_eq!(s.sample, 1);
        assert_eq!(s.ring, 1);
        assert_eq!(s.events.len(), 1);
    }

    #[test]
    fn profiles_only_track_interesting_branches() {
        let mut r = ProvRecorder::enabled(ProvConfig::default());
        r.record(0x10, true, &info(true)); // correct, no override: no profile
        r.record(0x20, false, &info(true)); // wrong: profiled
        let s = r.finish("l", "w").unwrap();
        assert_eq!(s.profiles.len(), 1);
        assert_eq!(s.profiles[0].pc, 0x20);
        assert_eq!(s.mispredicts, 1);
    }
}
