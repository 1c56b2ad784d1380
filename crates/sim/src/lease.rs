//! Lease-based work claims for sharded campaigns.
//!
//! The sweep daemon shards one sweep grid across worker threads
//! ([`crate::shard`]), and a restarted daemon must pick up cells its
//! crashed predecessor held, so claims live on disk, not in memory.
//! Workers coordinate through per-cell *lease files* under
//! `<cache-root>/leases/`: claiming a cell atomically creates
//! `<campaign>.<cell>.lease`, stamped with the claimant's process
//! identity and a heartbeat deadline. A cell whose lease is held by a
//! live process within its deadline is someone else's work; everything
//! else — no lease, dead holder, expired deadline, unparsable stamp —
//! is claimable.
//!
//! # Takeover
//!
//! Lease theft mirrors the dead-holder lock takeover in [`crate::lock`],
//! including the PID-reuse hardening: the stamp carries the holder's
//! process *start time* (from `/proc/<pid>/stat`) alongside its PID via
//! [`ProcessStamp`], so a recycled PID belonging to an unrelated process
//! does not keep a crashed worker's cells hostage. The deadline adds a
//! second takeover trigger the lock does not need: a worker that is
//! alive but wedged (or partitioned from the filesystem view) loses its
//! claim once the deadline passes, bounded by `LLBP_LEASE_TTL_MS`.
//!
//! Claims are atomic *with their content*: the stamp is written to a
//! private temp file and hard-linked into place, so no observer ever
//! reads a half-written stamp (an empty lease would be judged torn and
//! stolen — the lock file can afford create-then-stamp because it
//! treats unreadable stamps as live, but leases must steal torn state
//! or a crashed claim would wedge its cell forever). Renewal likewise
//! replaces the file by rename. Theft is remove-then-relink: two
//! concurrent stealers both unlink (one wins, one no-ops), then race
//! the link — exactly one claims, the other observes the fresh live
//! lease and backs off; holders verify ownership before publishing
//! ([`CellLease::check`]), so the loser of any residual race discards
//! its work instead of double-publishing.
//!
//! # Fault injection
//!
//! `LLBP_FAULT_SPEC=lease:expire` simulates losing a lease mid-cell:
//! [`CellLease::check`] consults the injector, and an armed rule unlinks
//! the holder's own lease and surfaces [`SimError::LeaseLost`] — the
//! same observable outcome as a genuine steal, so recovery paths are
//! testable without real crashes.

use crate::error::SimError;
use crate::faultinject::FaultInjector;
use crate::lock::ProcessStamp;
use llbp_trace::fingerprint::Fingerprint;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Environment variable setting the lease heartbeat TTL in milliseconds.
pub const LEASE_TTL_ENV: &str = "LLBP_LEASE_TTL_MS";

/// Lease TTL when [`LEASE_TTL_ENV`] is unset or unparsable: long enough
/// that a healthy worker never loses a quick cell to clock skew, short
/// enough that a wedged worker's cells are re-run within one campaign.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(30);

/// The lease TTL from [`LEASE_TTL_ENV`], else [`DEFAULT_LEASE_TTL`]
/// (values are clamped to >= 1 ms so a zero TTL cannot make every claim
/// instantly stealable).
///
/// # Errors
///
/// [`SimError::Config`] when the variable is set but unparsable.
pub fn lease_ttl_from_env() -> Result<Duration, SimError> {
    Ok(crate::envknob::parse_env::<u64>(LEASE_TTL_ENV)?
        .map_or(DEFAULT_LEASE_TTL, |ms| Duration::from_millis(ms.max(1))))
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

fn io_err(detail: std::io::Error) -> SimError {
    SimError::MemoIo { op: "lease", detail: detail.to_string() }
}

/// One campaign's lease directory: claims cells, steals stale claims.
#[derive(Debug)]
pub struct LeaseSet {
    dir: PathBuf,
    campaign: Fingerprint,
    ttl: Duration,
    takeovers: AtomicU64,
}

impl LeaseSet {
    /// Opens (creating) the lease directory for `campaign` under the
    /// cache root shared by the campaign's journals.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] when the directory cannot be created.
    pub fn open(root: &Path, campaign: Fingerprint, ttl: Duration) -> Result<Self, SimError> {
        let dir = root.join("leases");
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        Ok(Self {
            dir,
            campaign,
            ttl: ttl.max(Duration::from_millis(1)),
            takeovers: AtomicU64::new(0),
        })
    }

    /// The lease file path for one grid cell.
    #[must_use]
    pub fn path_for(&self, cell: usize) -> PathBuf {
        self.dir.join(format!("{}.{cell}.lease", self.campaign))
    }

    /// Stale leases stolen by this set so far (dead holders and expired
    /// deadlines both count — each is one crashed-or-wedged worker's
    /// cell taken over).
    #[must_use]
    pub fn takeovers(&self) -> u64 {
        self.takeovers.load(Ordering::Relaxed)
    }

    /// Tries to claim `cell`. `Ok(None)` means a live holder within its
    /// deadline owns it — someone else's work, move on. Stale claims
    /// (dead holder, expired deadline, unparsable stamp) are stolen.
    ///
    /// The claim is atomic *with its stamp*: the stamp line is written
    /// to a private temp file and published with `hard_link`, so a
    /// concurrent claimant never reads an empty lease (it would be
    /// judged torn and a live claim stolen).
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] on filesystem failures.
    pub fn try_claim(&self, cell: usize) -> Result<Option<CellLease>, SimError> {
        let path = self.path_for(cell);
        let stamp = ProcessStamp::current();
        let tmp = self.claim_tmp_path(cell);
        write_stamp_file(&tmp, stamp, self.ttl).map_err(io_err)?;
        let claimed = self.link_claim(&tmp, &path);
        let _ = remove_ignoring_missing(&tmp);
        // The `CellLease` exists only once the claim is won: a losing
        // claimant must never hold one, or its release-on-drop would
        // delete the winner's lease whenever both share a process stamp
        // (same-process claimants are indistinguishable by stamp).
        claimed.map(|won| won.then(|| CellLease { path, cell, ttl: self.ttl, stamp }))
    }

    /// Publishes a pre-stamped claim by linking `tmp` to `path`;
    /// `Ok(false)` means a live holder owns the cell.
    fn link_claim(&self, tmp: &Path, path: &Path) -> Result<bool, SimError> {
        // Bounded: each iteration either claims, backs off, or removes a
        // stale file; a stealing race loses at most one iteration.
        for _ in 0..4 {
            match std::fs::hard_link(tmp, path) {
                Ok(()) => return Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match std::fs::read_to_string(path) {
                        Ok(text) if holder_is_live(&text) => return Ok(false),
                        // Stale (dead, expired, or torn): steal. A racing
                        // stealer may have unlinked first — that is fine.
                        Ok(_) => {
                            self.takeovers.fetch_add(1, Ordering::Relaxed);
                            remove_ignoring_missing(path).map_err(io_err)?;
                        }
                        // Unlinked between link and read: retry the link.
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => return Err(io_err(e)),
                    }
                }
                Err(e) => return Err(io_err(e)),
            }
        }
        // Lost every race in the loop: someone live holds it now.
        Ok(false)
    }

    /// A per-claim-attempt scratch path that no other claimant touches.
    fn claim_tmp_path(&self, cell: usize) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        self.dir.join(format!(
            ".{}.{cell}.{}-{}.tmp",
            self.campaign,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }
}

/// Whether a lease file's contents denote a live claim: the stamped
/// process is alive (PID *and* start time — see [`ProcessStamp::alive`])
/// and the heartbeat deadline has not passed. Unparsable text is not a
/// live claim (a torn write must not wedge the cell forever).
fn holder_is_live(text: &str) -> bool {
    let Some((stamp, deadline)) = parse_lease(text) else {
        return false;
    };
    stamp.alive() && deadline > now_unix_ms()
}

/// Parses `"<pid> <starttime> <deadline_ms>"` (the start time is optional
/// for stamps from hosts without `/proc`, mirroring the lock format).
fn parse_lease(text: &str) -> Option<(ProcessStamp, u64)> {
    let text = text.trim();
    let (identity, deadline) = text.rsplit_once(char::is_whitespace)?;
    Some((ProcessStamp::parse(identity)?, deadline.trim().parse().ok()?))
}

/// A claimed grid cell. Dropping releases the claim (the file is removed
/// only if it still carries this process's stamp, so a stolen lease is
/// never deleted out from under its new holder).
#[derive(Debug)]
pub struct CellLease {
    path: PathBuf,
    cell: usize,
    ttl: Duration,
    stamp: ProcessStamp,
}

impl CellLease {
    /// The grid cell this lease covers.
    #[must_use]
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// Heartbeat: pushes the deadline out by one TTL. Call between
    /// phases of long cells so a healthy worker is never mistaken for a
    /// wedged one.
    ///
    /// The new stamp replaces the file by rename — never a truncate in
    /// place, which would expose an empty (hence torn-looking, hence
    /// stealable) lease to concurrent claimants mid-renewal.
    ///
    /// # Errors
    ///
    /// [`SimError::LeaseLost`] when the lease file no longer carries this
    /// process's stamp (it was stolen); [`SimError::MemoIo`] on other
    /// filesystem failures.
    pub fn renew(&self) -> Result<(), SimError> {
        self.verify_ownership()?;
        let tmp = self.path.with_extension(format!("renew-{}", std::process::id()));
        write_stamp_file(&tmp, self.stamp, self.ttl).map_err(io_err)?;
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            let _ = remove_ignoring_missing(&tmp);
            io_err(e)
        })
    }

    /// Confirms this process still owns the cell, consulting the fault
    /// injector first: an armed `lease:expire` rule unlinks our own
    /// lease and reports it lost — the same observable outcome as a
    /// genuine steal. Call before publishing a result, so a cell whose
    /// lease was lost mid-run is discarded (its new holder re-runs it)
    /// instead of racing the new holder's write.
    ///
    /// # Errors
    ///
    /// [`SimError::LeaseLost`] when the claim is gone (stolen, expired
    /// and collected, or injected); [`SimError::MemoIo`] on other
    /// filesystem failures.
    pub fn check(&self, faults: Option<&FaultInjector>) -> Result<(), SimError> {
        if faults.is_some_and(FaultInjector::check_lease_expire) {
            let _ = remove_ignoring_missing(&self.path);
            return Err(SimError::LeaseLost { cell: self.cell });
        }
        self.verify_ownership()
    }

    /// Whether the on-disk lease still carries our stamp.
    fn verify_ownership(&self) -> Result<(), SimError> {
        match std::fs::read_to_string(&self.path) {
            Ok(text) => match parse_lease(&text) {
                Some((stamp, _)) if stamp == self.stamp => Ok(()),
                _ => Err(SimError::LeaseLost { cell: self.cell }),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(SimError::LeaseLost { cell: self.cell })
            }
            Err(e) => Err(io_err(e)),
        }
    }
}

impl Drop for CellLease {
    fn drop(&mut self) {
        // Release only our own claim: after a steal the file belongs to
        // the new holder and must survive this drop.
        if self.verify_ownership().is_ok() {
            let _ = remove_ignoring_missing(&self.path);
        }
    }
}

/// Writes a fresh stamp line (holder identity + deadline one TTL out) to
/// `path`, fully synced before return, so linking or renaming the file
/// into place publishes complete content.
fn write_stamp_file(path: &Path, stamp: ProcessStamp, ttl: Duration) -> std::io::Result<()> {
    use std::io::Write as _;
    let deadline = now_unix_ms().saturating_add(u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX));
    let mut file = std::fs::File::create(path)?;
    file.write_all(format!("{} {deadline}\n", stamp.to_line()).as_bytes())?;
    file.sync_all()
}

fn remove_ignoring_missing(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn scratch_root(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "llbp-lease-unit-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch root");
        dir
    }

    fn set(root: &Path, ttl: Duration) -> LeaseSet {
        LeaseSet::open(root, Fingerprint(0xfeed), ttl).expect("lease set opens")
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let root = scratch_root("exclusive");
        let leases = set(&root, Duration::from_secs(30));
        let held = leases.try_claim(3).expect("io").expect("first claim wins");
        assert_eq!(held.cell(), 3);
        assert!(leases.try_claim(3).expect("io").is_none(), "live lease must not be stolen");
        assert!(leases.try_claim(4).expect("io").is_some(), "other cells are free");
        drop(held);
        assert!(leases.try_claim(3).expect("io").is_some(), "released cell is claimable");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn dead_holder_leases_are_stolen_but_recycled_pids_are_not_trusted() {
        let root = scratch_root("dead");
        let leases = set(&root, Duration::from_secs(30));
        // A "crashed worker": our PID but a perturbed start time — the
        // PID-reuse shape, where the PID is alive but belongs to a
        // different process incarnation.
        let dead = ProcessStamp {
            pid: std::process::id(),
            start_time: Some(ProcessStamp::current().start_time.unwrap_or(7) + 1),
        };
        let deadline = now_unix_ms() + 60_000;
        std::fs::write(leases.path_for(0), format!("{} {deadline}\n", dead.to_line()))
            .expect("plant stale lease");
        let stolen = leases.try_claim(0).expect("io").expect("dead holder must be stolen");
        assert_eq!(leases.takeovers(), 1);
        drop(stolen);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn expired_deadlines_are_stolen_even_from_live_holders() {
        let root = scratch_root("expired");
        let leases = set(&root, Duration::from_secs(30));
        // Genuinely our own live process — but the deadline has passed,
        // which is the wedged-worker takeover trigger.
        let stale_deadline = now_unix_ms().saturating_sub(1);
        std::fs::write(
            leases.path_for(1),
            format!("{} {stale_deadline}\n", ProcessStamp::current().to_line()),
        )
        .expect("plant expired lease");
        assert!(leases.try_claim(1).expect("io").is_some(), "expired lease must be stolen");
        assert_eq!(leases.takeovers(), 1);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn torn_stamps_do_not_wedge_the_cell() {
        let root = scratch_root("torn");
        let leases = set(&root, Duration::from_secs(30));
        std::fs::write(leases.path_for(2), "gar bage not a lease").expect("plant torn lease");
        assert!(leases.try_claim(2).expect("io").is_some(), "torn lease must be claimable");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn renew_extends_and_stolen_leases_fail_ownership_checks() {
        let root = scratch_root("renew");
        let leases = set(&root, Duration::from_millis(5));
        let held = leases.try_claim(0).expect("io").expect("claim");
        held.renew().expect("renew while owned");
        held.check(None).expect("owned lease passes check");
        // Simulate a steal: another holder's stamp lands in the file.
        let thief = ProcessStamp {
            pid: std::process::id(),
            start_time: Some(ProcessStamp::current().start_time.unwrap_or(7) + 99),
        };
        std::fs::write(
            leases.path_for(0),
            format!("{} {}\n", thief.to_line(), now_unix_ms() + 60_000),
        )
        .expect("overwrite with thief stamp");
        let err = held.check(None).expect_err("stolen lease must fail");
        assert!(matches!(err, SimError::LeaseLost { cell: 0 }));
        assert_eq!(err.exit_code(), 5);
        assert!(held.renew().is_err(), "renew after steal must fail");
        drop(held);
        assert!(leases.path_for(0).exists(), "drop must not delete the thief's lease");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn injected_lease_expiry_surfaces_as_lease_lost() {
        let root = scratch_root("inject");
        let leases = set(&root, Duration::from_secs(30));
        let held = leases.try_claim(5).expect("io").expect("claim");
        let faults = FaultInjector::parse("lease:expire:count=1").expect("spec parses");
        let err = held.check(Some(&faults)).expect_err("armed rule must fire");
        assert!(matches!(err, SimError::LeaseLost { cell: 5 }));
        assert!(err.is_transient(), "a lost lease is retryable by a future holder");
        // The rule fired once; with it exhausted the loss is permanent
        // on disk (the file was unlinked), so the cell is re-claimable.
        assert!(leases.try_claim(5).expect("io").is_some());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn racing_claimants_never_mistake_a_fresh_claim_for_a_torn_lease() {
        // Regression: claims used to be create-then-stamp, so a racing
        // claimant could read the empty file in between, judge it torn,
        // and steal a live lease. With hard-link publication the file is
        // never observable without its stamp: every round has exactly
        // one winner and nothing is ever counted as a takeover.
        let root = scratch_root("race");
        let leases = set(&root, Duration::from_secs(30));
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = std::sync::Barrier::new(THREADS);
        let wins: Vec<AtomicU32> = (0..ROUNDS).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for (round, won) in wins.iter().enumerate() {
                        barrier.wait();
                        let claim = leases.try_claim(round).expect("io");
                        if claim.is_some() {
                            won.fetch_add(1, Ordering::Relaxed);
                        }
                        // Hold until every thread has attempted, so the
                        // winner's release cannot look like a free cell.
                        barrier.wait();
                        drop(claim);
                    }
                });
            }
        });
        for (round, count) in wins.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "round {round} must have one winner");
        }
        assert_eq!(leases.takeovers(), 0, "no live claim may be judged torn and stolen");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn ttl_env_parsing_clamps_and_defaults() {
        assert_eq!(DEFAULT_LEASE_TTL, Duration::from_secs(30));
        // `lease_ttl_from_env` reads the live environment; exercise the
        // clamp through `LeaseSet::open` instead of mutating env state.
        let root = scratch_root("ttl");
        let leases = set(&root, Duration::ZERO);
        assert_eq!(leases.ttl, Duration::from_millis(1), "zero TTL is clamped");
        let _ = std::fs::remove_dir_all(root);
    }
}
