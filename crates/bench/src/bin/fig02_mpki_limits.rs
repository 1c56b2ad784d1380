//! Figure 2: branch MPKI of 64K TSL vs Inf TAGE vs Inf TSL across all 14
//! workloads.
//!
//! Paper values: 64K TSL 0.29–6.4 MPKI (avg 2.91); Inf TAGE reduces
//! mispredictions by 14–54% (avg 31.9%); Inf TSL by 36.5% on average.
//!
//! The grid and the table rendering live in [`llbp_bench::figures`],
//! shared with `llbp_client submit` and the provenance parity tests; a
//! `--server` run prints this binary's local stdout byte-for-byte.

use llbp_bench::figures::{fig02_render, fig02_spec};
use llbp_bench::{emit, engine, Opts};

fn main() {
    let opts = Opts::from_args();
    let spec = fig02_spec(&opts);
    let report = llbp_bench::run_sweep(&engine(&opts), &spec);
    print!("{}", fig02_render(|w, p| report.get(w, p), &opts));
    emit(&report, "fig02", &opts);
}
