//! `trace_tool` — generate, inspect and convert branch traces.
//!
//! ```text
//! trace_tool gen  <workload> <branches> <out.llbt>   generate a synthetic trace
//! trace_tool info <file.llbt>                        print summary statistics
//! trace_tool head <file.llbt> [count]                print the first records
//! trace_tool csv  <file.llbt> <out.csv>              export as CSV
//! trace_tool characterize <file.llbt>                per-branch entropy/working-set report
//! trace_tool characterize all|<workload> [branches]  same, over synthetic workloads
//! ```

use llbp_trace::{
    read_trace, write_trace, BranchKind, Characterization, Trace, Workload, WorkloadSpec,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("head") => cmd_head(&args[1..]),
        Some("csv") => cmd_csv(&args[1..]),
        Some("characterize") => cmd_characterize(&args[1..]),
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: trace_tool gen <workload> <branches> <out.llbt>\n\
            \x20      trace_tool info <file.llbt>\n\
            \x20      trace_tool head <file.llbt> [count]\n\
            \x20      trace_tool csv <file.llbt> <out.csv>\n\
            \x20      trace_tool characterize <file.llbt>\n\
            \x20      trace_tool characterize all|<workload> [branches]"
        .into()
}

fn load(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_trace(BufReader::new(file)).map_err(|e| format!("read {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let [workload, branches, out] = args else {
        return Err(usage());
    };
    let workload: Workload = workload.parse()?;
    let branches: usize = branches.parse().map_err(|e| format!("bad count: {e}"))?;
    let trace = WorkloadSpec::named(workload).with_branches(branches).generate();
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    write_trace(&mut w, &trace).map_err(|e| format!("write {out}: {e}"))?;
    // Flushed here, not on drop, which would discard a failed final write.
    w.flush().map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} records ({} instructions) to {out}", trace.len(), trace.instructions());
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err(usage());
    };
    let trace = load(path)?;
    let s = trace.stats();
    println!("name:                {}", trace.name());
    println!("records:             {}", trace.len());
    println!("instructions:        {}", trace.instructions());
    println!("conditional:         {} ({} static)", s.conditional, s.static_conditional);
    println!("unconditional:       {} ({} static)", s.unconditional, s.static_unconditional);
    for kind in BranchKind::ALL {
        println!("  {:6}             {}", kind.to_string(), s.count(kind));
    }
    if let Some(r) = s.cond_per_uncond() {
        println!("cond:uncond ratio:   {r:.2}");
    }
    if let Some(t) = s.taken_rate() {
        println!("taken rate:          {t:.3}");
    }
    Ok(())
}

fn cmd_head(args: &[String]) -> Result<(), String> {
    let (path, count) = match args {
        [path] => (path, 20usize),
        [path, n] => (path, n.parse().map_err(|e| format!("bad count: {e}"))?),
        _ => return Err(usage()),
    };
    let trace = load(path)?;
    println!("{:>4}  {:18} {:18} {:6} {:5} {:>5}", "#", "pc", "target", "kind", "taken", "gap");
    for (i, r) in trace.iter().take(count).enumerate() {
        println!(
            "{:>4}  {:#018x} {:#018x} {:6} {:5} {:>5}",
            i,
            r.pc(),
            r.target(),
            r.kind().to_string(),
            r.taken(),
            r.non_branch_insts()
        );
    }
    Ok(())
}

fn cmd_csv(args: &[String]) -> Result<(), String> {
    let [path, out] = args else {
        return Err(usage());
    };
    let trace = load(path)?;
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    let write_err = |e: std::io::Error| format!("write {out}: {e}");
    writeln!(w, "pc,target,kind,taken,non_branch_insts").map_err(write_err)?;
    for r in &trace {
        writeln!(
            w,
            "{:#x},{:#x},{},{},{}",
            r.pc(),
            r.target(),
            r.kind(),
            u8::from(r.taken()),
            r.non_branch_insts()
        )
        .map_err(write_err)?;
    }
    w.flush().map_err(write_err)?;
    println!("wrote {} rows to {out}", trace.len());
    Ok(())
}

/// Default trace length for `characterize` over synthetic workloads.
const CHARACTERIZE_BRANCHES: usize = 150_000;

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let (target, branches) = match args {
        [target] => (target.as_str(), CHARACTERIZE_BRANCHES),
        [target, n] => (target.as_str(), n.parse().map_err(|e| format!("bad count: {e}"))?),
        _ => return Err(usage()),
    };
    if target == "all" {
        characterize_workloads(&Workload::ALL, branches);
        return Ok(());
    }
    if let Ok(workload) = target.parse::<Workload>() {
        characterize_workloads(&[workload], branches);
        return Ok(());
    }
    // Not a workload name: treat it as a trace file.
    let trace = load(target)?;
    characterize_one(&trace);
    Ok(())
}

/// The per-workload characterization table (EXPERIMENTS.md §trace
/// characterization is pasted from this output).
fn characterize_workloads(workloads: &[Workload], branches: usize) {
    println!("| workload | cond branches | static | ws 90% | ws 99% | entropy | wild | taken |");
    println!("|---|---|---|---|---|---|---|---|");
    for &w in workloads {
        let trace = WorkloadSpec::named(w).with_branches(branches).generate();
        let c = Characterization::from_trace(&trace);
        let taken: u64 = c.branches.iter().map(|b| b.taken).sum();
        println!(
            "| {} | {} | {} | {} | {} | {:.3} | {} | {:.3} |",
            w,
            c.conditional,
            c.branches.len(),
            c.working_set(0.90),
            c.working_set(0.99),
            c.weighted_entropy(),
            c.wild_branches(),
            if c.conditional == 0 { 0.0 } else { taken as f64 / c.conditional as f64 },
        );
    }
}

fn characterize_one(trace: &Trace) {
    let c = Characterization::from_trace(trace);
    println!("name:              {}", trace.name());
    println!("cond branches:     {}", c.conditional);
    println!("static cond:       {}", c.branches.len());
    println!("working set 90%:   {}", c.working_set(0.90));
    println!("working set 99%:   {}", c.working_set(0.99));
    println!("weighted entropy:  {:.3} bits", c.weighted_entropy());
    println!("wild branches:     {}", c.wild_branches());
    println!();
    println!("{:>4}  {:18} {:>10} {:>7} {:>8}", "#", "pc", "execs", "taken", "entropy");
    for (i, b) in c.branches.iter().take(20).enumerate() {
        println!(
            "{:>4}  {:#018x} {:>10} {:>7.3} {:>8.3}",
            i,
            b.pc,
            b.executions,
            b.taken_rate(),
            b.entropy()
        );
    }
}
