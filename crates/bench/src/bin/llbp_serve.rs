//! `llbp-serve` — the resident campaign daemon (DESIGN.md §12).
//!
//! Accepts sweep submissions over the length-prefixed TCP protocol, runs
//! each one on the sweep engine over the daemon's store, dedups cells
//! across concurrent campaigns, and streams results back as they
//! publish. Any experiment binary routes through it with `--server
//! tcp://host:port` and prints byte-identical output to a local run;
//! `llbp_client` speaks the protocol directly (submit, poll, metrics
//! scrape, shutdown).
//!
//! ```text
//! llbp_serve [--addr HOST:PORT] [--root DIR] [--print-addr]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:0` (ephemeral; combine with
//! `--print-addr`, which writes the bound address to stdout as its own
//! line so scripts can capture it). `--root` defaults to the
//! `LLBP_CACHE_DIR`/`target/llbp-cache` resolution every binary uses —
//! point it at the same root as a previous incarnation and interrupted
//! campaigns resume from their journals and published cells.
//!
//! Knobs: `LLBP_WORKERS`, `LLBP_MAX_RETRIES` and `LLBP_JOB_TIMEOUT_SECS`
//! size each campaign's worker pool, retry budget and watchdog, as in
//! every other binary; `LLBP_FAULT_SPEC` injects faults (the cell rules
//! into every campaign, the `io` rules into the store).

use llbp_bench::fault_injector;
use llbp_sim::memo::{CACHE_DIR_ENV, DEFAULT_CACHE_DIR};
use llbp_sim::serve::ServeDaemon;
use llbp_sim::MemoStore;
use std::sync::Arc;

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: llbp_serve [--addr HOST:PORT] [--root DIR] [--print-addr]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut root: Option<String> = None;
    let mut print_addr = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage("--addr needs HOST:PORT")),
            "--root" => root = Some(args.next().unwrap_or_else(|| usage("--root needs DIR"))),
            "--print-addr" => print_addr = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let root = root.or_else(|| std::env::var(CACHE_DIR_ENV).ok()).filter(|r| !r.trim().is_empty());
    let root = std::path::PathBuf::from(root.unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string()));

    let faults = fault_injector();
    let mut store = match MemoStore::open(&root) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: cannot open cache root {}: {e}", root.display());
            std::process::exit(1);
        }
    };
    if let Some(faults) = faults.clone() {
        store.attach_faults(faults);
    }

    let daemon = match ServeDaemon::bind(&addr, Arc::new(store), faults) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("error: cannot serve {addr}: {e}");
            std::process::exit(4);
        }
    };
    let bound = daemon.local_addr();
    if print_addr {
        // Scripts parse this line; keep it bare.
        println!("{bound}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }
    eprintln!("llbp-serve: serving campaigns from {} at {bound}", root.display());
    daemon.run();
    eprintln!("llbp-serve: shut down cleanly");
}
