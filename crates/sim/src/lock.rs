//! Std-only advisory file locks for cross-process campaign exclusion.
//!
//! Two campaigns running the same grid against one `LLBP_CACHE_DIR` used
//! to interleave (and mutually truncate) their shared journal. The fix is
//! an exclusive lock file next to the journal: whoever atomically creates
//! `<journal>.lock` (`O_CREAT|O_EXCL` via [`std::fs::OpenOptions::create_new`])
//! owns the campaign; everyone else waits briefly and then fails fast
//! with [`SimError::CacheContention`]. No `flock`/`fcntl` is used — the
//! protocol must work with nothing but `std` and survive NFS-style
//! filesystems where byte-range locks are unreliable.
//!
//! The lock file records the holder's PID *and process start time* (the
//! kernel's `starttime`, field 22 of `/proc/<pid>/stat`) so a lock
//! orphaned by a crash (the one case atomic-create cannot recover from
//! on its own) is detectable: an acquirer that finds a lock whose holder
//! is dead — or whose PID now names a *different* process, i.e. the PID
//! was recycled after the holder crashed — removes it and retries.
//! Liveness is probed through `/proc/<pid>`; where `/proc` does not
//! exist the holder is conservatively assumed alive, so takeover never
//! steals from a live campaign — it can only leave a stale lock for a
//! human to delete (`rm <journal>.lock` is always safe when no campaign
//! is running). Legacy PID-only stamps (written before start times were
//! recorded) still parse; they simply fall back to the PID-liveness
//! check alone.
//!
//! The takeover has a benign TOCTOU: two acquirers can both observe the
//! dead holder and both unlink, after which exactly one wins the
//! subsequent atomic create. The loser just observes the winner's fresh
//! lock on its next iteration. What the protocol cannot fully exclude is
//! an unlink racing a *third* process's just-created lock; with
//! cooperating processes this window is a few instructions wide and is
//! accepted in exchange for remaining std-only.

use crate::error::SimError;
use llbp_obs::Telemetry;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Environment variable overriding how long an acquirer waits for a held
/// lock before failing with `CacheContention` (milliseconds).
pub const LOCK_WAIT_ENV: &str = "LLBP_LOCK_WAIT_MS";

/// Default wait budget before a held lock turns into contention. Long
/// enough that back-to-back campaigns on a fast grid serialize instead of
/// failing; short enough that a genuinely concurrent duplicate campaign
/// fails fast rather than stalling for the whole sweep.
pub const DEFAULT_LOCK_WAIT: Duration = Duration::from_millis(200);

/// Poll interval while waiting for a held lock.
const RETRY_INTERVAL: Duration = Duration::from_millis(10);

/// The configured wait budget: [`LOCK_WAIT_ENV`] if set, else
/// [`DEFAULT_LOCK_WAIT`].
///
/// # Errors
///
/// [`SimError::Config`] when the variable is set but unparsable.
pub fn lock_wait_from_env() -> Result<Duration, SimError> {
    Ok(crate::envknob::parse_env::<u64>(LOCK_WAIT_ENV)?
        .map_or(DEFAULT_LOCK_WAIT, Duration::from_millis))
}

/// Whether `pid` refers to a live process, as far as this platform lets
/// us tell. Errs toward "alive": a false positive merely reports
/// contention, a false negative would steal a live campaign's lock.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if proc_root.is_dir() {
        proc_root.join(pid.to_string()).exists()
    } else {
        true
    }
}

/// The kernel start time (`starttime`, field 22 of `/proc/<pid>/stat`,
/// in clock ticks since boot) of the given process, or `None` where the
/// process is gone or `/proc` is unavailable.
///
/// PID + start time together name a process *incarnation*: a recycled
/// PID gets a fresh start time, so a holder stamp carrying both can
/// never be confused with the unrelated process that inherited its PID.
fn process_start_time(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) is parenthesized and may itself contain
    // spaces or parentheses; everything after the *last* `)` is
    // whitespace-separated, starting with field 3 (state). starttime is
    // field 22, i.e. index 19 of those tokens.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_ascii_whitespace().nth(19)?.parse().ok()
}

/// A `pid [start-time]` holder stamp, as written into a lock file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessStamp {
    /// The stamping process's PID.
    pub pid: u32,
    /// Its kernel start time; `None` for legacy PID-only stamps or
    /// platforms without `/proc`.
    pub start_time: Option<u64>,
}

impl ProcessStamp {
    /// The calling process's own stamp.
    #[must_use]
    pub fn current() -> Self {
        let pid = std::process::id();
        Self { pid, start_time: process_start_time(pid) }
    }

    /// Parses `"pid"` (legacy) or `"pid start-time"` stamp text.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let mut tokens = text.split_ascii_whitespace();
        let pid = tokens.next()?.parse().ok()?;
        let start_time = match tokens.next() {
            Some(token) => Some(token.parse().ok()?),
            None => None,
        };
        Some(Self { pid, start_time })
    }

    /// The stamp's wire form (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        match self.start_time {
            Some(start) => format!("{} {start}", self.pid),
            None => self.pid.to_string(),
        }
    }

    /// Whether the stamped process incarnation is still alive. Dead PID
    /// → dead. Live PID whose current start time differs from the
    /// stamped one → the PID was recycled, the holder itself is dead.
    /// Missing start-time information on either side falls back to the
    /// conservative PID-liveness answer.
    #[must_use]
    pub fn alive(&self) -> bool {
        if !pid_alive(self.pid) {
            return false;
        }
        match (self.start_time, process_start_time(self.pid)) {
            (Some(stamped), Some(current)) => stamped == current,
            _ => true,
        }
    }
}

/// An exclusive advisory lock, released (unlinked) on drop.
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
    /// How long acquisition blocked on a held lock (zero if uncontended).
    waited: Duration,
    /// Dead-holder takeovers performed while acquiring.
    takeovers: u64,
}

impl LockFile {
    /// Acquires the lock at `path`, waiting up to `wait` for a live
    /// holder to release it and taking over from dead holders.
    ///
    /// # Errors
    ///
    /// [`SimError::CacheContention`] when a live holder outlasts the wait
    /// budget; [`SimError::MemoIo`] when the lock file itself cannot be
    /// created for any other reason (unwritable root, etc.).
    pub fn acquire(path: PathBuf, wait: Duration) -> Result<Self, SimError> {
        Self::acquire_observed(path, wait, &Telemetry::disabled())
    }

    /// [`LockFile::acquire`] with telemetry: records a `lock_wait` span
    /// whenever acquisition did not succeed on the first try (including
    /// the failing contention path) and a `lock_takeover` mark per
    /// dead-holder takeover.
    ///
    /// # Errors
    ///
    /// As [`LockFile::acquire`].
    pub fn acquire_observed(
        path: PathBuf,
        wait: Duration,
        telemetry: &Telemetry,
    ) -> Result<Self, SimError> {
        let started = Instant::now();
        let deadline = started + wait;
        let mut takeovers = 0u64;
        let mut contended = false;
        let observe = |contended: bool, takeovers: u64| {
            if contended || takeovers > 0 {
                telemetry.record_span("lock_wait", started, Instant::now(), -1);
            }
            for _ in 0..takeovers {
                telemetry.mark("lock_takeover", -1);
            }
        };
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(file) => {
                    Self::stamp(file);
                    observe(contended, takeovers);
                    let waited = if contended { started.elapsed() } else { Duration::ZERO };
                    return Ok(Self { path, waited, takeovers });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    let holder = Self::read_holder(&path);
                    if let Some(stamp) = holder {
                        if !stamp.alive() {
                            // Dead holder (or its PID was recycled by an
                            // unrelated process): take over. Racing
                            // takeovers are fine — both unlink, one wins
                            // the create.
                            let _ = std::fs::remove_file(&path);
                            takeovers += 1;
                            continue;
                        }
                    }
                    if Instant::now() >= deadline {
                        observe(true, takeovers);
                        return Err(SimError::CacheContention {
                            path: path.display().to_string(),
                            holder: holder.map(|stamp| stamp.pid),
                        });
                    }
                    contended = true;
                    std::thread::sleep(RETRY_INTERVAL);
                }
                Err(e) => {
                    return Err(SimError::MemoIo { op: "acquire_lock", detail: e.to_string() });
                }
            }
        }
    }

    /// How long this acquisition blocked on a held lock.
    #[must_use]
    pub fn wait_duration(&self) -> Duration {
        self.waited
    }

    /// Dead-holder takeovers performed while acquiring.
    #[must_use]
    pub fn takeovers(&self) -> u64 {
        self.takeovers
    }

    /// Writes the holder's `pid start-time` stamp into a freshly created
    /// lock file (best-effort: an unstampable lock still excludes via
    /// existence, it just cannot be taken over until deleted by hand).
    fn stamp(mut file: File) {
        let _ = file.write_all(format!("{}\n", ProcessStamp::current().to_line()).as_bytes());
        let _ = file.sync_all();
    }

    /// The holder stamp recorded in an existing lock file, if readable
    /// and parsed (legacy PID-only stamps included). `None` covers both
    /// an unreadable file and a racer that created the lock but has not
    /// stamped it yet — treated as a live holder.
    fn read_holder(path: &Path) -> Option<ProcessStamp> {
        ProcessStamp::parse(&std::fs::read_to_string(path).ok()?)
    }

    /// The lock file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_lock(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "llbp-lock-unit-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join("campaign.lock")
    }

    /// A PID that is certainly not running (only meaningful where /proc
    /// exists; tests depending on this skip elsewhere).
    fn dead_pid() -> Option<u32> {
        if !Path::new("/proc").is_dir() {
            return None;
        }
        (400_000..500_000).find(|p| !Path::new("/proc").join(p.to_string()).exists())
    }

    #[test]
    fn acquire_creates_and_drop_releases() {
        let path = scratch_lock("basic");
        {
            let lock = LockFile::acquire(path.clone(), Duration::ZERO).expect("uncontended");
            assert!(lock.path().exists());
            let holder = std::fs::read_to_string(&path).expect("stamped");
            let stamp = ProcessStamp::parse(&holder).expect("stamp parses");
            assert_eq!(stamp.pid, std::process::id());
            assert_eq!(
                stamp.start_time,
                process_start_time(std::process::id()),
                "stamp must carry our own start time where /proc exists"
            );
        }
        assert!(!path.exists(), "drop must unlink the lock");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn live_holder_means_contention() {
        let path = scratch_lock("contended");
        let _held = LockFile::acquire(path.clone(), Duration::ZERO).expect("first");
        let err = LockFile::acquire(path.clone(), Duration::from_millis(30))
            .expect_err("second acquirer must fail");
        match err {
            SimError::CacheContention { holder, .. } => {
                assert_eq!(holder, Some(std::process::id()), "holder pid is reported");
            }
            other => panic!("expected contention, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn dead_holder_is_taken_over() {
        let path = scratch_lock("stale");
        let Some(dead) = dead_pid() else {
            return; // no /proc: liveness is unknowable, takeover disabled
        };
        std::fs::write(&path, format!("{dead}\n")).expect("plant stale lock");
        let telemetry = Telemetry::enabled();
        let lock =
            LockFile::acquire_observed(path.clone(), Duration::ZERO, &telemetry).expect("takeover");
        let holder = std::fs::read_to_string(&path).expect("restamped");
        assert_eq!(ProcessStamp::parse(&holder).expect("stamp").pid, std::process::id());
        assert_eq!(lock.takeovers(), 1, "takeover must be counted");
        let events = telemetry.drain_events();
        assert!(events.iter().any(|e| e.name == "lock_takeover"), "takeover must emit a mark");
        assert_eq!(telemetry.metrics().counters["lock_takeover"], 1);
        drop(lock);
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn recycled_pid_is_taken_over() {
        // A stamp whose PID names a *live* process but whose start time
        // disagrees with that process's models exactly the PID-reuse
        // hazard: the real holder died and the kernel handed its PID to
        // someone else. Our own PID with a perturbed start time is the
        // most convenient live process to stage this with.
        let path = scratch_lock("recycled");
        let Some(own_start) = process_start_time(std::process::id()) else {
            return; // no /proc: start times unknowable, hardening inert
        };
        std::fs::write(&path, format!("{} {}\n", std::process::id(), own_start + 1))
            .expect("plant recycled-pid lock");
        let lock = LockFile::acquire(path.clone(), Duration::ZERO)
            .expect("start-time mismatch must be stolen");
        assert_eq!(lock.takeovers(), 1);
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn matching_start_time_is_not_stolen() {
        let path = scratch_lock("incarnate");
        std::fs::write(&path, format!("{}\n", ProcessStamp::current().to_line()))
            .expect("plant own stamp");
        let err = LockFile::acquire(path.clone(), Duration::from_millis(30))
            .expect_err("own live incarnation must contend, not be stolen");
        assert!(matches!(err, SimError::CacheContention { .. }));
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn legacy_pid_only_stamps_still_parse() {
        let stamp = ProcessStamp::parse("12345\n").expect("legacy stamp parses");
        assert_eq!(stamp, ProcessStamp { pid: 12345, start_time: None });
        let full = ProcessStamp::parse("12345 678\n").expect("full stamp parses");
        assert_eq!(full, ProcessStamp { pid: 12345, start_time: Some(678) });
        assert_eq!(full.to_line(), "12345 678");
        assert!(ProcessStamp::parse("").is_none());
        assert!(ProcessStamp::parse("pid 5").is_none());
        assert!(ProcessStamp::parse("5 then").is_none(), "trailing garbage is not a stamp");
    }

    #[test]
    fn own_start_time_is_readable_and_stable() {
        if !Path::new("/proc").is_dir() {
            return;
        }
        let first = process_start_time(std::process::id()).expect("own stat readable");
        let second = process_start_time(std::process::id()).expect("still readable");
        assert_eq!(first, second, "start time never changes within one incarnation");
        assert!(ProcessStamp::current().alive(), "we are our own live incarnation");
    }

    #[test]
    fn unreadable_holder_is_treated_as_live() {
        let path = scratch_lock("garbage");
        std::fs::write(&path, "not-a-pid\n").expect("plant garbage lock");
        let err = LockFile::acquire(path.clone(), Duration::from_millis(30))
            .expect_err("garbage holder must not be stolen");
        assert!(matches!(err, SimError::CacheContention { holder: None, .. }));
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn waiting_acquirer_wins_after_release() {
        let path = scratch_lock("handoff");
        let held = LockFile::acquire(path.clone(), Duration::ZERO).expect("first");
        assert_eq!(held.wait_duration(), Duration::ZERO, "uncontended lock has no wait");
        let telemetry = Telemetry::enabled();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                LockFile::acquire_observed(path.clone(), Duration::from_secs(10), &telemetry)
            });
            std::thread::sleep(Duration::from_millis(30));
            drop(held);
            let lock = waiter.join().expect("no panic").expect("acquired after release");
            assert!(lock.path().exists());
            assert!(lock.wait_duration() > Duration::ZERO, "handoff wait must be measured");
        });
        let events = telemetry.drain_events();
        let wait = events.iter().find(|e| e.name == "lock_wait").expect("lock_wait span");
        assert!(wait.dur_us > 0, "lock_wait span must carry the blocked duration");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }
}
