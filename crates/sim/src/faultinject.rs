//! Deterministic fault injection for exercising the resilience layer.
//!
//! Production sweeps run for hours; the failure modes they must survive
//! (a predictor bug in one cell, a flaky disk under the memo store, a
//! cell that stalls) are rare and hard to reproduce on demand. This
//! module turns each of them into a switch: a [`FaultInjector`] parsed
//! from a compact spec string injects panics, memo-store IO errors and
//! artificial slowness at precisely chosen points, so the tests (and the
//! tier-1 smoke gate) can prove that injected faults never change a
//! campaign's final report.
//!
//! # Spec grammar
//!
//! Rules are `;`-separated, each `kind:key=value,key=value`:
//!
//! ```text
//! panic:cell=3              panic on cell 3's first attempt
//! panic:cell=3,count=2      …on its first two attempts
//! io:rate=1/7               fail 1 in 7 memo-store IO operations
//! slow:cell=5,ms=200        sleep 200ms at the start of cell 5's first attempt
//! slow:cell=5,ms=200,at=gen …inside cell 5's trace generation instead, so the
//!                           watchdog must interrupt the generator itself
//! lock:count=1              report journal contention on the first campaign open
//! stale:cell=2              demote cell 2's first verify-resume check to stale
//! net:drop                  sever the sweep-daemon connection mid-request
//! net:timeout               stall a sweep-daemon request past its deadline
//! net:torn-write            send a truncated request frame, then sever
//! net:disconnect:count=2    close the connection before the next 2 requests
//! ```
//!
//! The `LLBP_FAULT_SPEC` environment variable carries the spec into the
//! experiment binaries (e.g. `LLBP_FAULT_SPEC=panic:cell=0 cargo run
//! --release -p llbp-bench --bin fig02_mpki_limits -- --quick`).
//!
//! Injection is deterministic: `panic`/`slow` rules key on the grid cell
//! index and the attempt number (so a bounded retry always converges once
//! `count` attempts have been burned), and `io` rules draw from a
//! [`SplitMix64`](bputil::rng::SplitMix64) stream seeded with a fixed
//! constant, so a serial run injects the same faults every time.

use crate::error::SimError;
use bputil::rng::SplitMix64;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Environment variable carrying the fault spec into binaries.
pub const FAULT_SPEC_ENV: &str = "LLBP_FAULT_SPEC";

/// Panic-payload tag for injected panics, so the engine (and a human
/// reading stderr) can tell them apart from genuine predictor bugs.
pub const INJECTED_PANIC_TAG: &str = "llbp injected panic";

/// Fixed seed of the IO-fault random stream (reproducible by design).
const IO_FAULT_SEED: u64 = 0xFA17_FA17_FA17_FA17;

/// Network fault sub-kinds injected at the sweep-daemon client.
///
/// Each maps to one way a real TCP peer can misbehave; the client
/// ([`ServeClient`](crate::serve::client::ServeClient)) consults
/// [`FaultInjector::next_net_fault`] once per request and simulates the
/// returned kind, so every failure mode of the daemon protocol has a
/// deterministic reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Sever the connection after the request frame is written but
    /// before the response arrives (`net:drop`).
    Drop,
    /// Stall the request past the client's per-request deadline
    /// (`net:timeout`).
    Timeout,
    /// Write only part of the request frame, then sever the connection
    /// (`net:torn-write`) — the daemon must reject the torn frame
    /// without acting on it.
    TornWrite,
    /// Close the connection before the request is sent
    /// (`net:disconnect`); the next request must reconnect.
    Disconnect,
}

/// Where a `slow` rule injects its sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowPhase {
    /// At the start of the cell's attempt, before the memo probe (the
    /// default): exercises the simulation loop's watchdog polling.
    Start,
    /// Inside trace *generation* (`at=gen`): exercises the generator's
    /// own poll points, which is the only way the watchdog can interrupt
    /// a cell stuck producing its trace.
    Gen,
}

/// One parsed fault rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRule {
    /// Panic at the start of the given cell's first `count` attempts.
    Panic {
        /// Grid cell index (scheduling-independent: the workload-major
        /// grid index, not the claim order).
        cell: usize,
        /// Number of attempts that panic before the cell succeeds.
        count: u32,
    },
    /// Fail `num` out of every `den` memo-store IO operations.
    Io {
        /// Numerator of the failure rate.
        num: u64,
        /// Denominator of the failure rate.
        den: u64,
    },
    /// Sleep during the given cell's first `count` attempts.
    Slow {
        /// Grid cell index.
        cell: usize,
        /// Sleep length in milliseconds.
        ms: u64,
        /// Number of attempts that sleep.
        count: u32,
        /// Where the sleep happens (attempt start vs. trace generation).
        phase: SlowPhase,
    },
    /// Report journal contention ([`SimError::CacheContention`]) on the
    /// campaign's first `count` journal opens, as if another live
    /// campaign held the lock.
    Lock {
        /// Number of opens that fail before the lock "frees up".
        count: u32,
    },
    /// Demote the given cell's first `count` verify-resume checks to
    /// stale, as if the memoized cell no longer matched its journaled
    /// digest.
    Stale {
        /// Grid cell index.
        cell: usize,
        /// Number of checks that report stale.
        count: u32,
    },
    /// Inject a network fault into the first `count` sweep-daemon
    /// requests that consult this rule.
    Net {
        /// Which misbehavior to simulate.
        kind: NetFaultKind,
        /// Number of requests that fault.
        count: u32,
    },
}

/// A shared, thread-safe injector consulted by the sweep engine (cell
/// attempts, journal opens, verify-resume checks) and the memo store (IO
/// operations).
#[derive(Debug, Default)]
pub struct FaultInjector {
    rules: Vec<FaultRule>,
    /// Per-rule firing counters for the one-shot kinds (`lock`, `stale`),
    /// indexed parallel to `rules`.
    fired: Vec<AtomicU32>,
    io_rng: Mutex<SplitMix64>,
}

impl FaultInjector {
    /// Builds an injector from parsed rules.
    #[must_use]
    pub fn new(rules: Vec<FaultRule>) -> Self {
        let fired = rules.iter().map(|_| AtomicU32::new(0)).collect();
        Self { rules, fired, io_rng: Mutex::new(SplitMix64::new(IO_FAULT_SEED)) }
    }

    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] naming the first malformed rule —
    /// a bad spec must abort the campaign (exit 2), never degrade into
    /// silently running without the requested faults.
    pub fn parse(spec: &str) -> Result<Self, SimError> {
        let mut rules = Vec::new();
        for rule in spec.split(';') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            rules.push(parse_rule(rule).map_err(|detail| SimError::Config {
                detail: format!("{FAULT_SPEC_ENV} rule `{rule}`: {detail}"),
            })?);
        }
        Ok(Self::new(rules))
    }

    /// Parses `LLBP_FAULT_SPEC`, returning `Ok(None)` when unset/empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] naming the first malformed rule.
    pub fn from_env() -> Result<Option<Self>, SimError> {
        match std::env::var(FAULT_SPEC_ENV) {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// The parsed rules.
    #[must_use]
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Fires `panic`/`slow` rules for one attempt of one cell. Called by
    /// the engine inside its `catch_unwind` isolation boundary.
    ///
    /// # Panics
    ///
    /// Panics (with [`INJECTED_PANIC_TAG`] in the payload) when a `panic`
    /// rule matches — that is the injection.
    pub fn on_job_start(&self, cell: usize, attempt: u32) {
        for rule in &self.rules {
            match *rule {
                FaultRule::Slow { cell: c, ms, count, phase: SlowPhase::Start }
                    if c == cell && attempt < count =>
                {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                FaultRule::Panic { cell: c, count } if c == cell && attempt < count => {
                    panic!("{INJECTED_PANIC_TAG}: cell {cell} attempt {attempt}");
                }
                _ => {}
            }
        }
    }

    /// The injected delay, if any, for one attempt's *trace generation*
    /// (`slow` rules with `at=gen`). The engine threads it into the
    /// generator's first poll point, so the sleep happens where a real
    /// stuck generator would stall.
    #[must_use]
    pub fn generation_delay(&self, cell: usize, attempt: u32) -> Option<Duration> {
        let mut total = Duration::ZERO;
        let mut any = false;
        for rule in &self.rules {
            if let FaultRule::Slow { cell: c, ms, count, phase: SlowPhase::Gen } = *rule {
                if c == cell && attempt < count {
                    total += Duration::from_millis(ms);
                    any = true;
                }
            }
        }
        any.then_some(total)
    }

    /// Consults the `lock` rules before a campaign journal open.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CacheContention`] for the first `count`
    /// opens of each matching rule.
    pub fn check_lock(&self) -> Result<(), SimError> {
        for (i, rule) in self.rules.iter().enumerate() {
            if let FaultRule::Lock { count } = *rule {
                if self.fired[i].fetch_add(1, Ordering::Relaxed) < count {
                    return Err(SimError::CacheContention {
                        path: "<injected>".into(),
                        holder: None,
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether a `stale` rule demotes this cell's verify-resume check
    /// (each matching rule fires for its first `count` checks).
    #[must_use]
    pub fn check_stale(&self, cell: usize) -> bool {
        let mut stale = false;
        for (i, rule) in self.rules.iter().enumerate() {
            if let FaultRule::Stale { cell: c, count } = *rule {
                if c == cell && self.fired[i].fetch_add(1, Ordering::Relaxed) < count {
                    stale = true;
                }
            }
        }
        stale
    }

    /// The next injected network fault for a sweep-daemon request, if
    /// any. Each `net:*` rule fires for its first `count` consultations,
    /// in rule order, so `net:disconnect:count=1;net:drop` disconnects
    /// the first request and drops the second. Consulted once per
    /// request by the daemon client.
    #[must_use]
    pub fn next_net_fault(&self) -> Option<NetFaultKind> {
        for (i, rule) in self.rules.iter().enumerate() {
            if let FaultRule::Net { kind, count } = *rule {
                if self.fired[i].fetch_add(1, Ordering::Relaxed) < count {
                    return Some(kind);
                }
            }
        }
        None
    }

    /// Consults the `io` rules before a memo-store operation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoIo`] when an injected IO fault fires.
    pub fn check_io(&self, op: &'static str) -> Result<(), SimError> {
        for rule in &self.rules {
            if let FaultRule::Io { num, den } = *rule {
                let fire = self
                    .io_rng
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .chance(num, den);
                if fire {
                    return Err(SimError::MemoIo { op, detail: "injected IO fault".into() });
                }
            }
        }
        Ok(())
    }
}

/// Whether a `catch_unwind` payload came from an injected panic.
#[must_use]
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    crate::error::panic_message(payload).contains(INJECTED_PANIC_TAG)
}

fn parse_rule(rule: &str) -> Result<FaultRule, String> {
    // `lock` needs no arguments, so a bare kind (no `:`) is accepted and
    // validated per kind like any other rule. The `net` family spends a
    // second `:`-segment on its sub-kind (`net:drop:count=2`), so for it
    // the key=value arguments start after the sub-kind.
    let (mut kind, mut args) = rule.split_once(':').unwrap_or((rule, ""));
    let mut net_kind = None;
    if kind.trim() == "net" {
        let (sub, rest) = args.split_once(':').unwrap_or((args, ""));
        net_kind = Some(match sub.trim() {
            "drop" => NetFaultKind::Drop,
            "timeout" => NetFaultKind::Timeout,
            "torn-write" => NetFaultKind::TornWrite,
            "disconnect" => NetFaultKind::Disconnect,
            other => {
                return Err(format!(
                    "unknown net fault `{other}` (expected drop/timeout/torn-write/disconnect)"
                ));
            }
        });
        kind = "net";
        args = rest;
    }
    let mut cell = None;
    let mut count = None;
    let mut ms = None;
    let mut rate = None;
    let mut phase = SlowPhase::Start;
    for pair in args.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) =
            pair.split_once('=').ok_or_else(|| format!("`{pair}` is not `key=value`"))?;
        match key.trim() {
            "cell" => cell = Some(parse_num(value, "cell")?),
            "count" => count = Some(u32::try_from(parse_num(value, "count")?).unwrap_or(u32::MAX)),
            "ms" => ms = Some(parse_num(value, "ms")? as u64),
            "at" => {
                phase = match value.trim() {
                    "start" => SlowPhase::Start,
                    "gen" => SlowPhase::Gen,
                    other => return Err(format!("bad at `{other}` (expected start/gen)")),
                };
            }
            "rate" => {
                let (n, d) = value
                    .split_once('/')
                    .ok_or_else(|| format!("rate `{value}` is not `num/den`"))?;
                let num = parse_num(n, "rate numerator")? as u64;
                let den = parse_num(d, "rate denominator")? as u64;
                if den == 0 || num > den {
                    return Err(format!("rate `{value}` must satisfy 0 <= num <= den, den > 0"));
                }
                rate = Some((num, den));
            }
            other => return Err(format!("unknown key `{other}` in rule `{rule}`")),
        }
    }
    let cell_of =
        |rule_kind: &str| cell.ok_or_else(|| format!("`{rule_kind}` rule requires `cell=N`"));
    match kind.trim() {
        "panic" => Ok(FaultRule::Panic { cell: cell_of("panic")?, count: count.unwrap_or(1) }),
        "slow" => Ok(FaultRule::Slow {
            cell: cell_of("slow")?,
            ms: ms.ok_or_else(|| "`slow` rule requires `ms=N`".to_string())?,
            count: count.unwrap_or(1),
            phase,
        }),
        "io" => {
            let (num, den) = rate.ok_or_else(|| "`io` rule requires `rate=N/M`".to_string())?;
            Ok(FaultRule::Io { num, den })
        }
        "lock" => Ok(FaultRule::Lock { count: count.unwrap_or(1) }),
        "stale" => Ok(FaultRule::Stale { cell: cell_of("stale")?, count: count.unwrap_or(1) }),
        "net" => Ok(FaultRule::Net {
            kind: net_kind.expect("net rules parse their sub-kind above"),
            count: count.unwrap_or(1),
        }),
        other => {
            Err(format!("unknown fault kind `{other}` (expected panic/io/slow/lock/stale/net)"))
        }
    }
}

fn parse_num(value: &str, what: &str) -> Result<usize, String> {
    value.trim().parse().map_err(|e| format!("bad {what} `{value}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let inj = FaultInjector::parse("panic:cell=3;io:rate=1/7;slow:cell=5,ms=200")
            .expect("spec parses");
        assert_eq!(
            inj.rules(),
            &[
                FaultRule::Panic { cell: 3, count: 1 },
                FaultRule::Io { num: 1, den: 7 },
                FaultRule::Slow { cell: 5, ms: 200, count: 1, phase: SlowPhase::Start },
            ]
        );
    }

    #[test]
    fn parses_the_new_kinds() {
        let inj = FaultInjector::parse("slow:cell=1,ms=50,at=gen;lock;lock:count=3;stale:cell=2")
            .expect("spec parses");
        assert_eq!(
            inj.rules(),
            &[
                FaultRule::Slow { cell: 1, ms: 50, count: 1, phase: SlowPhase::Gen },
                FaultRule::Lock { count: 1 },
                FaultRule::Lock { count: 3 },
                FaultRule::Stale { cell: 2, count: 1 },
            ]
        );
        assert!(FaultInjector::parse("slow:cell=1,ms=5,at=warp").is_err());
        assert!(FaultInjector::parse("stale:count=2").is_err(), "stale requires a cell");
    }

    #[test]
    fn parses_the_network_family() {
        let inj = FaultInjector::parse(
            "net:drop;net:timeout:count=2;net:torn-write;net:disconnect:count=3",
        )
        .expect("spec parses");
        assert_eq!(
            inj.rules(),
            &[
                FaultRule::Net { kind: NetFaultKind::Drop, count: 1 },
                FaultRule::Net { kind: NetFaultKind::Timeout, count: 2 },
                FaultRule::Net { kind: NetFaultKind::TornWrite, count: 1 },
                FaultRule::Net { kind: NetFaultKind::Disconnect, count: 3 },
            ]
        );
    }

    #[test]
    fn net_rules_fire_in_order_then_exhaust() {
        let inj = FaultInjector::parse("net:disconnect:count=1;net:drop").expect("parse");
        assert_eq!(inj.next_net_fault(), Some(NetFaultKind::Disconnect));
        assert_eq!(inj.next_net_fault(), Some(NetFaultKind::Drop));
        assert_eq!(inj.next_net_fault(), None, "both rules exhausted");
    }

    #[test]
    fn malformed_specs_reject_with_typed_config_errors() {
        for bad in [
            "net",                   // missing sub-kind
            "net:warp",              // unknown sub-kind
            "net:drop:cell=x",       // non-numeric argument
            "net:disconnect:count:", // stray colon is not key=value
            "lease:expire",          // unknown kind
            "crash:merge",           // unknown kind
        ] {
            let err = FaultInjector::parse(bad).expect_err("spec `{bad}` should fail");
            assert_eq!(err.class(), "config", "spec `{bad}`");
            assert_eq!(err.exit_code(), 2, "spec `{bad}`");
            assert!(!err.is_transient(), "spec `{bad}` must never be retried");
            assert!(err.to_string().contains(FAULT_SPEC_ENV), "message names the env var");
        }
    }

    #[test]
    fn lock_rule_fires_count_times_then_clears() {
        let inj = FaultInjector::parse("lock:count=2").expect("parse");
        let err = inj.check_lock().expect_err("first open contends");
        assert_eq!(err.class(), "contention");
        assert!(!err.is_transient());
        assert!(inj.check_lock().is_err(), "second open contends");
        assert!(inj.check_lock().is_ok(), "third open goes through");
    }

    #[test]
    fn stale_rule_demotes_matching_cells_count_times() {
        let inj = FaultInjector::parse("stale:cell=4").expect("parse");
        assert!(!inj.check_stale(0), "other cells unaffected");
        assert!(inj.check_stale(4), "first check demotes");
        assert!(!inj.check_stale(4), "count exhausted");
    }

    #[test]
    fn gen_slow_rules_report_delays_instead_of_sleeping_inline() {
        let inj = FaultInjector::parse("slow:cell=3,ms=40,at=gen").expect("parse");
        let started = std::time::Instant::now();
        inj.on_job_start(3, 0); // gen-phase rules do not sleep at attempt start
        assert!(started.elapsed() < Duration::from_millis(40));
        assert_eq!(inj.generation_delay(3, 0), Some(Duration::from_millis(40)));
        assert_eq!(inj.generation_delay(3, 1), None, "count exhausted");
        assert_eq!(inj.generation_delay(0, 0), None, "other cells unaffected");
    }

    #[test]
    fn empty_and_whitespace_specs_are_no_rules() {
        assert!(FaultInjector::parse("").expect("empty ok").rules().is_empty());
        assert!(FaultInjector::parse(" ; ; ").expect("blanks ok").rules().is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected_with_a_reason() {
        for bad in [
            "panic",              // no args
            "panic:count=2",      // missing cell
            "slow:cell=1",        // missing ms
            "io:rate=7",          // not a fraction
            "io:rate=8/7",        // num > den
            "io:rate=0/0",        // zero denominator
            "warp:cell=1",        // unknown kind
            "panic:cell=x",       // non-numeric
            "panic:cell=1,foo=2", // unknown key
        ] {
            assert!(FaultInjector::parse(bad).is_err(), "spec `{bad}` should fail");
        }
    }

    #[test]
    fn panic_rule_fires_on_matching_attempts_only() {
        let inj = FaultInjector::parse("panic:cell=2,count=2").expect("parse");
        inj.on_job_start(1, 0); // wrong cell: no panic
        inj.on_job_start(2, 2); // attempt past count: no panic
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.on_job_start(2, 0);
        }));
        let payload = caught.expect_err("attempt 0 must panic");
        assert!(is_injected_panic(payload.as_ref()));
    }

    #[test]
    fn slow_rule_sleeps_on_matching_attempts() {
        let inj = FaultInjector::parse("slow:cell=0,ms=30").expect("parse");
        let started = std::time::Instant::now();
        inj.on_job_start(0, 0);
        assert!(started.elapsed() >= Duration::from_millis(30));
        let started = std::time::Instant::now();
        inj.on_job_start(0, 1); // past count: no sleep
        assert!(started.elapsed() < Duration::from_millis(30));
    }

    #[test]
    fn io_rule_fires_at_roughly_the_requested_rate() {
        let inj = FaultInjector::parse("io:rate=1/4").expect("parse");
        let failures = (0..10_000).filter(|_| inj.check_io("load_result").is_err()).count();
        assert!((2_000..3_000).contains(&failures), "failures={failures}");
        // Every failure is classified as transient memo IO.
        let inj = FaultInjector::parse("io:rate=1/1").expect("parse");
        let err = inj.check_io("store_result").expect_err("1/1 always fires");
        assert!(err.is_transient());
        assert_eq!(err.class(), "memo_io");
    }

    #[test]
    fn io_stream_is_reproducible() {
        let a = FaultInjector::parse("io:rate=1/3").expect("parse");
        let b = FaultInjector::parse("io:rate=1/3").expect("parse");
        let seq_a: Vec<bool> = (0..256).map(|_| a.check_io("x").is_err()).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.check_io("x").is_err()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn real_panics_are_not_mistaken_for_injections() {
        let caught = std::panic::catch_unwind(|| panic!("index out of bounds"));
        assert!(!is_injected_panic(caught.expect_err("panics").as_ref()));
    }
}
