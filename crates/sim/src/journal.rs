//! Append-only campaign journals for crash-safe, cross-process-safe
//! sweep resume.
//!
//! The memo store persists individual cell *results*; the journal
//! persists campaign *progress*: one line per finished grid cell, `ok`,
//! `failed` or `stale`, appended and fsynced as cells complete. Together
//! they make an interrupted campaign cheap to resume — on restart the
//! engine reconciles the journal against the memo store (the store is
//! the source of truth for result bytes; the journal only records which
//! cells were attempted and how they ended) and re-runs only cells that
//! are missing, previously failed, or demoted to stale.
//!
//! The journal lives next to the cells it describes:
//! `<cache-root>/<campaign-fingerprint>.journal`, where the campaign
//! fingerprint folds every cell fingerprint of the sweep in grid order —
//! two different grids never share a journal, and re-running the same
//! grid (even from a different binary) finds its own history.
//!
//! # Cross-process exclusion
//!
//! Two concurrent campaigns over the *same* grid would share one journal
//! file, and interleaved appends (or a fresh campaign truncating under a
//! running one) corrupt it. [`CampaignJournal::open`] therefore acquires
//! an exclusive advisory [`LockFile`] (`<journal>.lock`, atomic-create
//! with PID stamping and dead-holder takeover — see [`crate::lock`])
//! held for the journal's lifetime. A second campaign waits briefly for
//! the holder to finish, then fails fast with
//! [`SimError::CacheContention`] before touching a single cell.
//!
//! # Durability
//!
//! Each entry is one preformatted line written with a single `write_all`
//! and then `sync_all`, so a crash (or power loss) never interleaves two
//! entries, and an entry that was reported written has reached the disk.
//! The only partial state a kill can leave is one torn *final* line;
//! parsing rejects it (fingerprint fields must be exactly 32 hex
//! digits), and a resumed journal that ends without a newline is
//! repaired before the first fresh append so the torn tail cannot fuse
//! with a new entry.
//!
//! Format: plain text, one entry per line:
//!
//! ```text
//! ok 17 <fp:32hex> <digest:32hex|->  # cell 17 completed; cell address + result digest
//! failed 4 timeout                   # cell 4 ultimately failed; error class
//! stale 9 <fp:32hex>                 # cell 9's memoized result failed verification
//! ```
//!
//! The `ok` digest is the stored cell's payload checksum at completion
//! time; `--verify-resume` re-hashes the memoized cell against it, so a
//! cell silently replaced or corrupted between campaigns is demoted to a
//! miss instead of trusted. Legacy three-field `ok` lines (written before
//! digests existed) still parse, with no digest to verify against.
//! Reconciliation is last-entry-wins: a resumed run that re-ran a failed
//! cell appends a fresh `ok`, and a verify pass that demoted a cell
//! appends `stale` after the original `ok`.

use crate::error::SimError;
use crate::lock::{lock_wait_from_env, LockFile};
use llbp_trace::fingerprint::{Fingerprint, StableHasher};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// How a journaled cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell completed; its result was published under `fingerprint`.
    Ok {
        /// The cell's content-address fingerprint at completion time.
        fingerprint: Fingerprint,
        /// Checksum of the stored cell payload, when the write-back
        /// succeeded (`None` for legacy entries and unpersisted cells).
        digest: Option<Fingerprint>,
    },
    /// The cell ultimately failed with the given error class.
    Failed {
        /// Stable error class (`SimError::class`).
        class: String,
    },
    /// A verify pass found the memoized result missing, corrupt, or
    /// different from the digest recorded at completion; the cell must
    /// re-run from scratch.
    Stale {
        /// The cell's content-address fingerprint.
        fingerprint: Fingerprint,
    },
}

/// Fingerprint identifying one campaign: the sweep's cell fingerprints
/// folded in grid order.
#[must_use]
pub fn campaign_fingerprint(cells: &[Fingerprint]) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_str("llbp-campaign");
    h.write_u64(cells.len() as u64);
    for fp in cells {
        h.write(&fp.0.to_le_bytes());
    }
    h.finish()
}

/// The longest journal line without a `failed` entry's error class: an
/// `ok` entry with a digest, at a 20-digit cell number.
const LINE_MAX: usize = "ok ".len() + 20 + 1 + 32 + 1 + 32 + "\n".len();

/// Renders the journal line for one cell outcome, ending in `\n`, in one
/// allocation: the buffer is sized for the widest line of its kind.
fn outcome_line(cell: usize, outcome: &CellOutcome) -> String {
    use std::fmt::Write as _;
    let class_len = match outcome {
        CellOutcome::Failed { class } => class.len(),
        _ => 0,
    };
    let mut line = String::with_capacity(LINE_MAX + class_len);
    let written = match outcome {
        CellOutcome::Ok { fingerprint, digest: Some(digest) } => {
            writeln!(line, "ok {cell} {fingerprint} {digest}")
        }
        CellOutcome::Ok { fingerprint, digest: None } => {
            writeln!(line, "ok {cell} {fingerprint} -")
        }
        CellOutcome::Failed { class } => writeln!(line, "failed {cell} {class}"),
        CellOutcome::Stale { fingerprint } => writeln!(line, "stale {cell} {fingerprint}"),
    };
    written.expect("writing to a String cannot fail");
    line
}

/// Parses a journal file into per-cell outcomes without taking the
/// campaign lock: later lines win, malformed or torn lines are ignored,
/// and a missing file reads as empty. Read-only — safe on a journal
/// another process is appending to, because entries are single-write
/// lines.
#[must_use]
pub fn read_outcomes(path: &Path) -> HashMap<usize, CellOutcome> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return HashMap::new();
    };
    let mut outcomes = HashMap::new();
    for line in text.lines() {
        if let Some((cell, outcome)) = parse_line(line) {
            outcomes.insert(cell, outcome);
        }
    }
    outcomes
}

/// An open, append-only campaign journal holding its exclusive lock.
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    file: Mutex<File>,
    /// Held for the journal's lifetime; unlinked on drop.
    lock: LockFile,
}

impl CampaignJournal {
    /// Opens the journal for a campaign under `root`, acquiring the
    /// campaign's exclusive lock (waiting up to `LLBP_LOCK_WAIT_MS`,
    /// default 200 ms, for a live holder).
    ///
    /// With `resume` set, existing entries are kept (and returned via
    /// [`CampaignJournal::load`]); otherwise the journal is truncated —
    /// a fresh campaign starts a fresh history.
    ///
    /// # Errors
    ///
    /// [`SimError::CacheContention`] when another live campaign holds the
    /// lock past the wait budget; [`SimError::MemoIo`] when the journal
    /// file cannot be opened.
    pub fn open(root: &Path, campaign: Fingerprint, resume: bool) -> Result<Self, SimError> {
        Self::open_with_wait(root, campaign, resume, lock_wait_from_env()?)
    }

    /// [`CampaignJournal::open`] with an explicit lock-wait budget
    /// (tests use tiny budgets to exercise contention deterministically).
    ///
    /// # Errors
    ///
    /// As [`CampaignJournal::open`].
    pub fn open_with_wait(
        root: &Path,
        campaign: Fingerprint,
        resume: bool,
        lock_wait: Duration,
    ) -> Result<Self, SimError> {
        Self::open_observed(root, campaign, resume, lock_wait, &llbp_obs::Telemetry::disabled())
    }

    /// [`CampaignJournal::open_with_wait`] with telemetry: lock waits and
    /// dead-holder takeovers are recorded as `lock_wait` spans and
    /// `lock_takeover` marks (see [`LockFile::acquire_observed`]).
    ///
    /// # Errors
    ///
    /// As [`CampaignJournal::open`].
    pub fn open_observed(
        root: &Path,
        campaign: Fingerprint,
        resume: bool,
        lock_wait: Duration,
        telemetry: &llbp_obs::Telemetry,
    ) -> Result<Self, SimError> {
        let io_err =
            |e: std::io::Error| SimError::MemoIo { op: "open_journal", detail: e.to_string() };
        std::fs::create_dir_all(root).map_err(io_err)?;
        let path = root.join(format!("{campaign}.journal"));
        // Lock BEFORE opening/truncating: a fresh campaign truncating a
        // journal a live campaign is appending to is exactly the race the
        // lock exists to exclude.
        let lock =
            LockFile::acquire_observed(path.with_extension("journal.lock"), lock_wait, telemetry)?;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err)?;
        if resume {
            // A crash mid-append can leave a torn final line without a
            // newline; terminate it so the first fresh append starts a
            // new line instead of fusing with the torn tail.
            if !ends_with_newline(&path).map_err(io_err)? {
                file.write_all(b"\n").and_then(|()| file.sync_all()).map_err(io_err)?;
            }
        } else {
            file.set_len(0).map_err(io_err)?;
        }
        Ok(Self { path, file: Mutex::new(file), lock })
    }

    /// The journal's path on disk.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How long acquiring the campaign lock blocked, and how many
    /// dead-holder takeovers it performed (both usually zero).
    #[must_use]
    pub fn lock_stats(&self) -> (Duration, u64) {
        (self.lock.wait_duration(), self.lock.takeovers())
    }

    /// Parses the journal into per-cell outcomes. Later lines win (a
    /// resumed run that re-ran a previously failed cell appends a fresh
    /// `ok`; a verify pass appends `stale` after an `ok` it demoted);
    /// malformed or partial lines are ignored.
    #[must_use]
    pub fn load(&self) -> HashMap<usize, CellOutcome> {
        read_outcomes(&self.path)
    }

    /// Appends `cell`'s outcome (best-effort: journal IO failures never
    /// fail the cell they describe). An `ok` entry carries the stored
    /// cell's payload digest when write-back succeeded; a `stale` entry
    /// means the memoized result no longer matches what the journal
    /// recorded and the cell will re-run.
    pub fn record(&self, cell: usize, outcome: &CellOutcome) {
        self.append(&outcome_line(cell, outcome));
    }

    /// One entry = one preformatted line = one `write_all` + `sync_all`:
    /// concurrent in-process writers cannot interleave bytes (POSIX
    /// `O_APPEND` single-write atomicity plus the mutex), and a crash
    /// after return cannot lose the entry.
    fn append(&self, line: &str) {
        let mut file = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = file.write_all(line.as_bytes());
        let _ = file.sync_all();
    }
}

/// Whether the file's last byte is a newline (empty files count as yes).
fn ends_with_newline(path: &Path) -> std::io::Result<bool> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(true);
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

/// Parses one journal line, `None` for anything malformed (including
/// torn lines: fingerprint fields must be exactly 32 hex digits, so a
/// truncated tail never parses as a shorter-but-valid entry).
fn parse_line(line: &str) -> Option<(usize, CellOutcome)> {
    let mut parts = line.split_ascii_whitespace();
    let (tag, cell) = (parts.next()?, parts.next()?);
    let cell = cell.parse::<usize>().ok()?;
    let outcome = match tag {
        "ok" => {
            let fingerprint = Fingerprint::from_hex(parts.next()?)?;
            let digest = match parts.next() {
                // Legacy three-field entry (pre-digest journals).
                None => None,
                Some("-") => None,
                Some(raw) => Some(Fingerprint::from_hex(raw)?),
            };
            CellOutcome::Ok { fingerprint, digest }
        }
        "failed" => CellOutcome::Failed { class: parts.next()?.to_string() },
        "stale" => CellOutcome::Stale { fingerprint: Fingerprint::from_hex(parts.next()?)? },
        _ => return None,
    };
    // Trailing tokens mean a fused or corrupted line: reject it whole.
    if parts.next().is_some() {
        return None;
    }
    Some((cell, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_root(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "llbp-journal-unit-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn ok(fp: u128, digest: Option<u128>) -> CellOutcome {
        CellOutcome::Ok { fingerprint: Fingerprint(fp), digest: digest.map(Fingerprint) }
    }

    #[test]
    fn roundtrips_all_entry_kinds() {
        let root = scratch_root("roundtrip");
        let camp = campaign_fingerprint(&[Fingerprint(1), Fingerprint(2)]);
        let journal = CampaignJournal::open(&root, camp, false).expect("open");
        journal.record(0, &ok(0xabcd, Some(0x1111)));
        journal.record(1, &ok(0xbeef, None));
        journal.record(3, &CellOutcome::Failed { class: "timeout".into() });
        journal.record(4, &CellOutcome::Stale { fingerprint: Fingerprint(0x2222) });
        let outcomes = journal.load();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[&0], ok(0xabcd, Some(0x1111)));
        assert_eq!(outcomes[&1], ok(0xbeef, None));
        assert_eq!(outcomes[&3], CellOutcome::Failed { class: "timeout".into() });
        assert_eq!(outcomes[&4], CellOutcome::Stale { fingerprint: Fingerprint(0x2222) });
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn later_entries_supersede_earlier_ones() {
        let root = scratch_root("supersede");
        let camp = campaign_fingerprint(&[Fingerprint(7)]);
        let journal = CampaignJournal::open(&root, camp, false).expect("open");
        journal.record(2, &CellOutcome::Failed { class: "panic".into() });
        journal.record(2, &ok(0x99, None));
        assert_eq!(journal.load()[&2], ok(0x99, None));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn failed_then_ok_and_ok_then_stale_are_last_entry_wins() {
        // The two reconciliation orders that decide whether resumed
        // re-runs double-count: a failed cell later completed must read
        // `ok`; a completed cell later demoted must read `stale`.
        let root = scratch_root("lastwins");
        let camp = campaign_fingerprint(&[Fingerprint(11)]);
        let journal = CampaignJournal::open(&root, camp, false).expect("open");
        journal.record(0, &CellOutcome::Failed { class: "timeout".into() });
        journal.record(0, &ok(0xaa, Some(0xd1)));
        journal.record(1, &ok(0xbb, Some(0xd2)));
        journal.record(1, &CellOutcome::Stale { fingerprint: Fingerprint(0xbb) });
        drop(journal);
        let reopened = CampaignJournal::open(&root, camp, true).expect("reopen");
        let outcomes = reopened.load();
        assert_eq!(outcomes[&0], ok(0xaa, Some(0xd1)), "failed→ok resolves to ok");
        assert_eq!(
            outcomes[&1],
            CellOutcome::Stale { fingerprint: Fingerprint(0xbb) },
            "ok→stale resolves to stale"
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn resume_keeps_history_and_fresh_start_truncates() {
        let root = scratch_root("resume");
        let camp = campaign_fingerprint(&[Fingerprint(9)]);
        {
            let journal = CampaignJournal::open(&root, camp, false).expect("open");
            journal.record(1, &ok(0x11, None));
        }
        let resumed = CampaignJournal::open(&root, camp, true).expect("reopen");
        assert_eq!(resumed.load().len(), 1, "resume keeps prior entries");
        drop(resumed);
        let fresh = CampaignJournal::open(&root, camp, false).expect("reopen fresh");
        assert!(fresh.load().is_empty(), "fresh campaign truncates");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn torn_final_line_is_ignored_and_repaired_on_resume() {
        let root = scratch_root("torn");
        let camp = campaign_fingerprint(&[Fingerprint(5)]);
        let good_fp = Fingerprint(0x42);
        {
            let journal = CampaignJournal::open(&root, camp, false).expect("open");
            journal.record(
                0,
                &CellOutcome::Ok { fingerprint: good_fp, digest: Some(Fingerprint(0x77)) },
            );
            // Simulate a kill mid-append: a final line torn mid-digest,
            // with no trailing newline.
            journal.append(&format!("ok 1 {good_fp} deadbeef"));
        }
        let resumed = CampaignJournal::open(&root, camp, true).expect("reopen");
        let outcomes = resumed.load();
        assert_eq!(outcomes.len(), 1, "torn entry must not parse: {outcomes:?}");
        assert_eq!(
            outcomes[&0],
            CellOutcome::Ok { fingerprint: good_fp, digest: Some(Fingerprint(0x77)) }
        );
        // The next append must start a fresh line, not extend the torn one.
        resumed.record(2, &ok(0x55, None));
        let outcomes = resumed.load();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[&2], ok(0x55, None));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn partial_and_garbage_lines_are_ignored() {
        let root = scratch_root("garbage");
        let camp = campaign_fingerprint(&[Fingerprint(3)]);
        let journal = CampaignJournal::open(&root, camp, false).expect("open");
        journal.record(0, &ok(0x42, None));
        drop(journal);
        let reopened = CampaignJournal::open(&root, camp, true).expect("reopen");
        reopened.append(&format!(
            "\nnot-a-tag 2 x\nok nine zz\nfailed 5\nok 3 abc\nstale 4 zz\nok 6 {} {} extra\n",
            Fingerprint(0x1),
            Fingerprint(0x2)
        ));
        let outcomes = reopened.load();
        assert_eq!(outcomes.len(), 1, "only the complete entry survives: {outcomes:?}");
        assert!(outcomes.contains_key(&0));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn outcome_lines_keep_their_text_and_fit_their_buffer() {
        let (fp, digest) = (Fingerprint(0x0123), Fingerprint(u128::MAX));
        let cases = [
            (7, ok(fp.0, Some(digest.0)), format!("ok 7 {fp} {digest}\n")),
            (usize::MAX, ok(fp.0, None), format!("ok {} {fp} -\n", usize::MAX)),
            (usize::MAX, ok(fp.0, Some(digest.0)), format!("ok {} {fp} {digest}\n", usize::MAX)),
            (
                3,
                CellOutcome::Failed { class: "predictor_panic".into() },
                "failed 3 predictor_panic\n".into(),
            ),
            (
                usize::MAX,
                CellOutcome::Stale { fingerprint: fp },
                format!("stale {} {fp}\n", usize::MAX),
            ),
        ];
        for (cell, outcome, want) in cases {
            let line = outcome_line(cell, &outcome);
            assert_eq!(line, want);
            let class_len = match &outcome {
                CellOutcome::Failed { class } => class.len(),
                _ => 0,
            };
            assert_eq!(line.capacity(), LINE_MAX + class_len, "{line:?} grew its buffer");
            assert_eq!(parse_line(line.trim_end()), Some((cell, outcome)));
        }
    }

    #[test]
    fn legacy_three_field_ok_lines_still_parse() {
        let fp = Fingerprint(0xfeed_f00d);
        let (cell, outcome) = parse_line(&format!("ok 12 {fp}")).expect("legacy line parses");
        assert_eq!(cell, 12);
        assert_eq!(outcome, CellOutcome::Ok { fingerprint: fp, digest: None });
    }

    #[test]
    fn concurrent_open_of_one_campaign_contends() {
        let root = scratch_root("contend");
        let camp = campaign_fingerprint(&[Fingerprint(21)]);
        let held = CampaignJournal::open(&root, camp, false).expect("first open");
        let err = CampaignJournal::open_with_wait(&root, camp, false, Duration::from_millis(20))
            .expect_err("second campaign must contend");
        assert_eq!(err.class(), "contention");
        drop(held);
        // Once the holder releases, the same campaign opens cleanly.
        let reopened = CampaignJournal::open(&root, camp, true).expect("reopen after release");
        drop(reopened);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn different_campaigns_do_not_contend() {
        let root = scratch_root("disjoint");
        let a = CampaignJournal::open(&root, campaign_fingerprint(&[Fingerprint(1)]), false)
            .expect("campaign a");
        let b = CampaignJournal::open(&root, campaign_fingerprint(&[Fingerprint(2)]), false)
            .expect("campaign b opens concurrently");
        drop((a, b));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn campaign_fingerprints_key_on_cells_and_order() {
        let a = campaign_fingerprint(&[Fingerprint(1), Fingerprint(2)]);
        let b = campaign_fingerprint(&[Fingerprint(2), Fingerprint(1)]);
        let c = campaign_fingerprint(&[Fingerprint(1)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, campaign_fingerprint(&[Fingerprint(1), Fingerprint(2)]));
    }
}
