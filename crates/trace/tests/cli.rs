//! End-to-end tests of the `trace_tool` binary.

use std::path::PathBuf;
use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace_tool"))
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("llbp_trace_tool_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn gen_info_head_csv_pipeline() {
    let llbt = temp_path("a.llbt");
    let csv = temp_path("a.csv");

    let out =
        tool().args(["gen", "HTTP", "2000", llbt.to_str().unwrap()]).output().expect("run gen");
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 2000 records"));

    let out = tool().args(["info", llbt.to_str().unwrap()]).output().expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("records:             2000"));
    assert!(text.contains("cond:uncond ratio:"));

    let out = tool().args(["head", llbt.to_str().unwrap(), "5"]).output().expect("run head");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 6, "header + 5 rows");

    let out = tool()
        .args(["csv", llbt.to_str().unwrap(), csv.to_str().unwrap()])
        .output()
        .expect("run csv");
    assert!(out.status.success());
    let body = std::fs::read_to_string(&csv).expect("csv written");
    assert!(body.starts_with("pc,target,kind,taken,non_branch_insts\n"));
    assert_eq!(body.lines().count(), 2001);

    let _ = std::fs::remove_file(llbt);
    let _ = std::fs::remove_file(csv);
}

#[test]
fn unknown_workload_fails_cleanly() {
    let out = tool().args(["gen", "NotAWorkload", "10", "/tmp/x.llbt"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn truncated_trace_fails_with_one_line_diagnostic() {
    let llbt = temp_path("trunc.llbt");
    let out =
        tool().args(["gen", "HTTP", "500", llbt.to_str().unwrap()]).output().expect("run gen");
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));

    // Chop the file mid-record, as a killed writer or full disk would.
    let bytes = std::fs::read(&llbt).expect("trace bytes");
    std::fs::write(&llbt, &bytes[..bytes.len() / 2]).expect("truncate");

    for cmd in ["info", "head", "csv"] {
        let mut args = vec![cmd, llbt.to_str().unwrap()];
        let csv = temp_path("trunc.csv");
        if cmd == "csv" {
            args.push(csv.to_str().unwrap());
        }
        let out = tool().args(&args).output().expect("run on truncated file");
        assert!(!out.status.success(), "{cmd} must fail on a truncated trace");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(stderr.lines().count(), 1, "{cmd} stderr: {stderr}");
        assert!(stderr.starts_with("error: read "), "{cmd} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd} must not panic: {stderr}");
        let _ = std::fs::remove_file(csv);
    }
    let _ = std::fs::remove_file(llbt);
}

#[test]
fn missing_file_fails_cleanly() {
    let out = tool().args(["info", "/definitely/not/here.llbt"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn no_args_prints_usage() {
    let out = tool().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn write_errors_on_the_last_buffered_bytes_fail_the_command() {
    // `/dev/full` accepts the open and fails every write with ENOSPC, so
    // only an explicit flush of the buffered tail can report it.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let llbt = temp_path("full.llbt");
    let out = tool().args(["gen", "Tpcc", "300", llbt.to_str().unwrap()]).output().expect("gen");
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));

    for args in
        [vec!["gen", "Tpcc", "100", "/dev/full"], vec!["csv", llbt.to_str().unwrap(), "/dev/full"]]
    {
        let out = tool().args(&args).output().expect("run into /dev/full");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(!out.status.success(), "{} must fail on a full device: {stderr}", args[0]);
        assert_eq!(stderr.lines().count(), 1, "{} stderr: {stderr}", args[0]);
        assert!(stderr.starts_with("error: write /dev/full: "), "{} stderr: {stderr}", args[0]);
        assert!(!String::from_utf8_lossy(&out.stdout).contains("wrote"), "{}", args[0]);
    }
    let _ = std::fs::remove_file(llbt);
}
