//! `llbp-store` — the shared object-store server for distributed
//! campaigns.
//!
//! Serves the length-prefixed TCP object protocol over a local
//! content-addressed directory. Workers point `LLBP_STORE=tcp://host:port`
//! at it; everything else (journals and their locks) stays on each
//! worker's own filesystem.
//!
//! ```text
//! llbp_store [--addr HOST:PORT] [--root DIR] [--print-addr]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:0` (an ephemeral port; combine with
//! `--print-addr`, which writes the bound address to stdout as its own
//! line so scripts can capture it). `--root` defaults to the
//! `LLBP_CACHE_DIR`/`target/llbp-cache` resolution every binary uses.

use llbp_sim::memo::{CACHE_DIR_ENV, DEFAULT_CACHE_DIR};
use llbp_sim::store::server::StoreServer;

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: llbp_store [--addr HOST:PORT] [--root DIR] [--print-addr]");
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

    let server = match StoreServer::bind(&addr, &root) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot serve {addr}: {e}");
            std::process::exit(4);
        }
    };
    let bound = server.local_addr().expect("bound listener has an address");
    if print_addr {
        // Scripts parse this line; keep it bare.
        println!("{bound}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }
    eprintln!("llbp-store: serving {} at {bound}", root.display());
    server.run();
}
