//! Figure pins: the built `fig02_mpki_limits`, `fig09_mpki_reduction`,
//! `fig11_bandwidth` and `fig13_cid_sensitivity` binaries, run cold on
//! three workloads at 20k branch records, must print exactly the
//! committed text in `tests/pins/`.
//!
//! Output is deterministic, so any difference is a real change to the
//! figures. A change that moves these outputs on purpose regenerates
//! the pin files in the same commit and says so in CHANGES.md.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

const ARGS: [&str; 4] = ["--workloads", "HTTP,Kafka,Tomcat", "--branches", "20000"];

/// Runs `bin` on a fresh, empty store with no other `LLBP_*` variable
/// set, and returns its stdout.
fn cold_stdout(bin: &str) -> String {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let store: PathBuf = std::env::temp_dir().join(format!(
        "llbp-figure-pin-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut cmd = Command::new(bin);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("LLBP_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd.args(ARGS).env("LLBP_CACHE_DIR", &store).output().expect("binary runs");
    let _ = std::fs::remove_dir_all(&store);
    assert!(
        out.status.success(),
        "{bin} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn fig02_stdout_matches_its_pin() {
    let out = cold_stdout(env!("CARGO_BIN_EXE_fig02_mpki_limits"));
    assert_eq!(out, include_str!("pins/fig02_mpki_limits.md"));
}

#[test]
fn fig09_stdout_matches_its_pin() {
    let out = cold_stdout(env!("CARGO_BIN_EXE_fig09_mpki_reduction"));
    assert_eq!(out, include_str!("pins/fig09_mpki_reduction.md"));
}

#[test]
fn fig11_stdout_matches_its_pin() {
    let out = cold_stdout(env!("CARGO_BIN_EXE_fig11_bandwidth"));
    assert_eq!(out, include_str!("pins/fig11_bandwidth.md"));
}

#[test]
fn fig13_stdout_matches_its_pin() {
    let out = cold_stdout(env!("CARGO_BIN_EXE_fig13_cid_sensitivity"));
    assert_eq!(out, include_str!("pins/fig13_cid_sensitivity.md"));
}
