//! Figure definitions shared between the experiment binaries, the
//! `llbp_client` submit verb and the tests.
//!
//! `fig02_mpki_limits` renders through [`fig02_render`] whether its
//! cells were simulated in-process or streamed back from `llbp_serve`
//! (`--server`), and `llbp_client submit` builds the daemon campaign from
//! the same [`fig02_spec`], so a submitted grid and a `--server` run of
//! the figure land on one campaign ticket.

use crate::{mean_reduction, sim_config, workload_specs, Opts};
use llbp_sim::engine::SweepSpec;
use llbp_sim::report::{f1, f2, Table};
use llbp_sim::{PredictorKind, SimResult};

/// Figure 2's predictor axis, in column order.
#[must_use]
pub fn fig02_predictors() -> Vec<PredictorKind> {
    vec![PredictorKind::Tsl64K, PredictorKind::InfTage, PredictorKind::InfTsl]
}

/// Figure 2's sweep grid for the given options.
#[must_use]
pub fn fig02_spec(opts: &Opts) -> SweepSpec {
    SweepSpec::new(fig02_predictors(), workload_specs(opts), sim_config(opts))
}

/// Renders Figure 2's full stdout — header, paper-values line, and the
/// MPKI/reduction table — from a cell accessor `get(workload, predictor)`
/// over the fig02 grid. Returns the exact bytes the binary prints.
#[must_use]
pub fn fig02_render<'a, F>(get: F, opts: &Opts) -> String
where
    F: Fn(usize, usize) -> &'a SimResult,
{
    let mut table = Table::new([
        "workload",
        "64K TSL MPKI",
        "Inf TAGE MPKI",
        "Inf TSL MPKI",
        "Inf TAGE red.",
        "Inf TSL red.",
    ]);
    let mut base_mpkis = Vec::new();
    let mut tage_reds = Vec::new();
    let mut tsl_reds = Vec::new();
    for (i, w) in opts.workloads.iter().enumerate() {
        let (base, inf_tage, inf_tsl) = (get(i, 0), get(i, 1), get(i, 2));
        let red_tage = inf_tage.mpki_reduction_vs(base);
        let red_tsl = inf_tsl.mpki_reduction_vs(base);
        base_mpkis.push(base.mpki());
        tage_reds.push(red_tage);
        tsl_reds.push(red_tsl);
        table.row([
            w.to_string(),
            f2(base.mpki()),
            f2(inf_tage.mpki()),
            f2(inf_tsl.mpki()),
            format!("{}%", f1(red_tage)),
            format!("{}%", f1(red_tsl)),
        ]);
    }
    table.row([
        "Mean".to_string(),
        f2(mean_reduction(&base_mpkis)),
        String::new(),
        String::new(),
        format!("{}%", f1(mean_reduction(&tage_reds))),
        format!("{}%", f1(mean_reduction(&tsl_reds))),
    ]);

    format!(
        "# Figure 2 — MPKI for 64K TSL, Inf TAGE, Inf TSL\n\
         (paper: 64K TSL avg 2.91 MPKI; Inf TAGE −31.9% avg; Inf TSL −36.5% avg; \
         Inf TAGE captures ~87% of Inf TSL)\n\n{}\n",
        table.to_markdown()
    )
}

/// Renders Table I's full stdout — header plus the measured workload
/// characteristics — from per-workload trace statistics in `workloads`
/// order. Returns the exact bytes the binary prints.
#[must_use]
pub fn table01_render(
    workloads: &[llbp_trace::Workload],
    rows: &[llbp_trace::TraceStats],
) -> String {
    let mut table = Table::new([
        "application",
        "description",
        "static cond. branches",
        "cond:uncond",
        "taken rate",
    ]);
    for (w, s) in workloads.iter().zip(rows) {
        table.row([
            w.to_string(),
            w.description().to_string(),
            s.static_conditional.to_string(),
            f2(s.cond_per_uncond().unwrap_or(0.0)),
            f2(s.taken_rate().unwrap_or(0.0)),
        ]);
    }
    format!(
        "# Table I — workloads (synthetic stand-ins; see DESIGN.md §3)\n\n{}\n",
        table.to_markdown()
    )
}
