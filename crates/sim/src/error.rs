//! The simulation-layer error taxonomy and cooperative cancellation.
//!
//! Before this module existed, every failure inside a sweep was a panic:
//! a bug in one predictor, a bad byte in one memo cell, or a hung cell
//! took down the whole campaign and threw away every in-flight result.
//! The resilience layer (engine retry/isolation, the campaign journal)
//! instead classifies failures into [`SimError`] and decides per class
//! whether a retry can help:
//!
//! * **transient** — memo-store IO errors, injected faults, timeouts.
//!   The inputs that produced the failure can change on a re-run (the
//!   disk recovers, the injection rate misses, the machine un-stalls), so
//!   the engine retries these with bounded deterministic backoff.
//! * **deterministic** — trace-generation or predictor panics. The same
//!   inputs will fail the same way, so retrying burns time for nothing;
//!   the cell is reported failed immediately.
//!
//! [`CancelToken`] is the cooperative half of the watchdog: jobs carry a
//! token with an optional deadline, and the simulation loop polls it
//! every few thousand branch records. A hung or injected-slow cell
//! therefore cancels itself at the next poll instead of requiring the
//! engine to kill a thread (which `std` cannot do safely).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every way a sweep cell can fail, classified for retry decisions and
/// campaign reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Trace generation panicked for a workload spec.
    TraceGen {
        /// Workload name whose generation failed.
        workload: String,
        /// Panic payload text.
        detail: String,
    },
    /// The predictor (or the simulation loop around it) panicked.
    PredictorPanic {
        /// Label of the predictor that panicked.
        label: String,
        /// Panic payload text.
        detail: String,
    },
    /// The persistent memo store failed an IO operation (reads only;
    /// write-back failures are non-fatal and merely skip persistence).
    MemoIo {
        /// Which store operation failed (`"load_result"`, …).
        op: &'static str,
        /// Underlying error text.
        detail: String,
    },
    /// The job's cancellation token fired: the watchdog deadline passed
    /// while the cell was still running.
    Timeout {
        /// The configured per-job limit, when one was set.
        limit: Option<Duration>,
    },
    /// A deliberately injected fault from the [`crate::faultinject`]
    /// harness (always transient: injection is keyed on the attempt
    /// number or an IO-operation rate, so retries converge).
    Injected {
        /// Description of the injected fault.
        detail: String,
    },
    /// Another live campaign holds the journal lock for the same grid on
    /// the same cache root. The campaign fails fast *before* running any
    /// cell — two writers interleaving one journal is exactly the
    /// corruption the lock exists to prevent — so this error is
    /// campaign-level, never retried per cell.
    CacheContention {
        /// The contended lock file.
        path: String,
        /// PID recorded in the lock file, when it was readable.
        holder: Option<u32>,
    },
    /// A request to the sweep daemon failed: connect refused, the
    /// connection dropped mid-frame, the daemon refused the request, or
    /// an injected `net:*` fault fired. Transient: `run_remote`
    /// reconnects and resubmits up to `MAX_STRIKES` times before it
    /// surfaces one. A campaign the daemon reports failed (`op:
    /// "campaign"`) surfaces at once.
    Network {
        /// Which protocol operation failed (`"connect"`, `"submit"`, …).
        op: &'static str,
        /// Underlying error text.
        detail: String,
    },
    /// Invalid configuration: a malformed `LLBP_FAULT_SPEC` rule, an
    /// unparsable `LLBP_*` knob, or any other operator input the process
    /// must reject rather than silently reinterpret. Never retried — the same
    /// input will fail the same way — and mapped to exit status 2 by the
    /// experiment binaries.
    Config {
        /// What was malformed and why.
        detail: String,
    },
}

impl SimError {
    /// Whether a bounded retry may succeed where this attempt failed.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::MemoIo { .. }
                | SimError::Timeout { .. }
                | SimError::Injected { .. }
                | SimError::Network { .. }
        )
    }

    /// A short stable class name for journals and JSON reports.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            SimError::TraceGen { .. } => "trace_gen",
            SimError::PredictorPanic { .. } => "panic",
            SimError::MemoIo { .. } => "memo_io",
            SimError::Timeout { .. } => "timeout",
            SimError::Injected { .. } => "injected",
            SimError::CacheContention { .. } => "contention",
            SimError::Network { .. } => "network",
            SimError::Config { .. } => "config",
        }
    }

    /// The process exit status campaign binaries map this error to when
    /// it is campaign-fatal. Distinct codes let scripts react per class:
    /// `2` config (do not retry), `3` contention (retry when the holder
    /// finishes), `4` network (check the sweep daemon). Everything else
    /// is a generic `1`.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            SimError::Config { .. } => 2,
            SimError::CacheContention { .. } => 3,
            SimError::Network { .. } => 4,
            _ => 1,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TraceGen { workload, detail } => {
                write!(f, "trace generation failed for {workload}: {detail}")
            }
            SimError::PredictorPanic { label, detail } => {
                write!(f, "predictor {label} panicked: {detail}")
            }
            SimError::MemoIo { op, detail } => write!(f, "memo store {op} failed: {detail}"),
            SimError::Timeout { limit: Some(limit) } => {
                write!(f, "job exceeded the {:.3}s watchdog timeout", limit.as_secs_f64())
            }
            SimError::Timeout { limit: None } => write!(f, "job was cancelled"),
            SimError::Injected { detail } => write!(f, "injected fault: {detail}"),
            SimError::CacheContention { path, holder: Some(pid) } => {
                write!(f, "campaign journal {path} is locked by live process {pid}")
            }
            SimError::CacheContention { path, holder: None } => {
                write!(f, "campaign journal {path} is locked by another campaign")
            }
            SimError::Network { op, detail } => {
                write!(f, "sweep daemon {op} failed: {detail}")
            }
            SimError::Config { detail } => write!(f, "invalid configuration: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Extracts a human-readable message from a `catch_unwind` payload.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A cooperative cancellation token shared between a job's watchdog
/// deadline and the simulation loop.
///
/// Cancellation is *cooperative*: the simulation loop polls
/// [`CancelToken::is_cancelled`] every few thousand branch records and
/// returns [`SimError::Timeout`] when it fires. Nothing is forcibly
/// killed, so no lock is ever abandoned in an unknown state.
///
/// # Example
///
/// ```
/// use llbp_sim::error::CancelToken;
///
/// let token = CancelToken::none();
/// assert!(!token.is_cancelled());
///
/// let token = CancelToken::manual();
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    limit: Option<Duration>,
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A token that never cancels (serial/compatibility paths).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A token that fires once `timeout` has elapsed from now.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            deadline: Instant::now().checked_add(timeout),
            limit: Some(timeout),
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// A token with no deadline that only fires when
    /// [`CancelToken::cancel`] is called.
    #[must_use]
    pub fn manual() -> Self {
        Self { deadline: None, limit: None, flag: Some(Arc::new(AtomicBool::new(false))) }
    }

    /// Cancels the token (no-op for [`CancelToken::none`]).
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the deadline has passed or [`CancelToken::cancel`] was
    /// called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// The configured timeout, when this token carries a deadline.
    #[must_use]
    pub fn limit(&self) -> Option<Duration> {
        self.limit
    }

    /// The [`SimError`] describing why this token fired.
    #[must_use]
    pub fn cancellation_error(&self) -> SimError {
        SimError::Timeout { limit: self.limit }
    }
}

/// Deterministic exponential backoff before retry `attempt` (0-based):
/// 10 ms, 20 ms, 40 ms, … capped at one second. No jitter — two runs of
/// the same campaign retry on the same schedule.
#[must_use]
pub fn backoff_delay(attempt: u32) -> Duration {
    let ms = 10u64.saturating_mul(1u64 << attempt.min(16));
    Duration::from_millis(ms.min(1_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_follows_the_taxonomy() {
        assert!(SimError::MemoIo { op: "load_result", detail: "x".into() }.is_transient());
        assert!(SimError::Timeout { limit: None }.is_transient());
        assert!(SimError::Injected { detail: "x".into() }.is_transient());
        assert!(!SimError::TraceGen { workload: "HTTP".into(), detail: "x".into() }.is_transient());
        assert!(!SimError::PredictorPanic { label: "64K TSL".into(), detail: "x".into() }
            .is_transient());
        assert!(
            !SimError::CacheContention { path: "j".into(), holder: Some(1) }.is_transient(),
            "contention fails the campaign fast, never the per-cell retry loop"
        );
        assert!(SimError::Network { op: "poll", detail: "x".into() }.is_transient());
        assert!(
            !SimError::Config { detail: "x".into() }.is_transient(),
            "the same malformed input fails the same way every time"
        );
    }

    #[test]
    fn exit_codes_are_distinct_per_campaign_fatal_class() {
        assert_eq!(SimError::Config { detail: String::new() }.exit_code(), 2);
        assert_eq!(SimError::CacheContention { path: String::new(), holder: None }.exit_code(), 3);
        assert_eq!(SimError::Network { op: "connect", detail: String::new() }.exit_code(), 4);
        assert_eq!(SimError::Timeout { limit: None }.exit_code(), 1);
    }

    #[test]
    fn classes_are_stable() {
        assert_eq!(SimError::Timeout { limit: None }.class(), "timeout");
        assert_eq!(SimError::Injected { detail: String::new() }.class(), "injected");
        assert_eq!(
            SimError::PredictorPanic { label: String::new(), detail: String::new() }.class(),
            "panic"
        );
        assert_eq!(
            SimError::CacheContention { path: String::new(), holder: None }.class(),
            "contention"
        );
    }

    #[test]
    fn display_mentions_the_limit() {
        let e = SimError::Timeout { limit: Some(Duration::from_millis(1500)) };
        assert!(e.to_string().contains("1.500s"));
    }

    #[test]
    fn deadline_token_fires_after_timeout() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        assert!(token.is_cancelled());
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.limit(), Some(Duration::from_secs(3600)));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(backoff_delay(0), Duration::from_millis(10));
        assert_eq!(backoff_delay(1), Duration::from_millis(20));
        assert_eq!(backoff_delay(2), Duration::from_millis(40));
        assert_eq!(backoff_delay(30), Duration::from_millis(1_000));
    }

    #[test]
    fn panic_messages_unwrap_common_payloads() {
        let static_payload: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(static_payload.as_ref()), "static");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(owned.as_ref()), "owned");
        let opaque: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(opaque.as_ref()), "opaque panic payload");
    }
}
