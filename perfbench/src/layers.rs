//! Per-layer probes of the traced run. Each probe calls one layer's public
//! functions from here, times every [`SAMPLE_EVERY`]th record with
//! [`Instant`], and counts heap allocations around the same calls. The
//! program itself gains no tracing.

use crate::alloc;
use crate::grid::{layer_predictors, trace_spec};
use crate::output::Metric;
use crate::runs::{Accuracy, BenchError};
use crate::stats::median;
use llbp_core::{LlbpParams, LlbpPredictor};
use llbp_sim::engine::SweepSpec;
use llbp_sim::{LockFile, MemoStore, SimConfig, SweepEngine};
use llbp_tage::tage::UpdateMode;
use llbp_tage::{Predictor, TageScl, TslConfig};
use llbp_trace::{BranchKind, BranchRecord, Trace, Workload, WorkloadSpec};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One record in this many is timed call by call.
pub const SAMPLE_EVERY: usize = 4;

/// Rounds of the trace and memo probes; each metric is the median round.
pub const ROUNDS: usize = 3;

/// Lock acquisitions per round of the lock probe.
pub const LOCK_ACQUIRES: usize = 200;

/// Traces of the predictor probes: the paper's case-study workload and
/// LLBP's best case.
pub const PROBE_WORKLOADS: [Workload; 2] = [Workload::Tomcat, Workload::NodeApp];

/// Running sum of sampled call durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer {
    /// Summed nanoseconds.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Timer {
    fn add(&mut self, started: Instant) {
        self.ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
    }

    /// Mean nanoseconds per timed call.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// The history advance of the fast execution tiers: the call
/// `tage.history_ns` times.
pub fn advance_history(tsl: &mut TageScl, record: &BranchRecord) {
    tsl.update_history_fast(record);
}

/// Sampled timings of one `TageScl` driven over a trace the way the fast
/// tiers drive it (`lookup` + `commit` per conditional, history advance
/// per record). A timed call cannot overlap its cache misses with its
/// neighbours the way the untimed loop does, so the parts sum to more than
/// the loop's cost per record.
#[derive(Debug, Clone, Copy, Default)]
pub struct TageProbe {
    /// `lookup_tage`, the core TAGE stage.
    pub lookup_tage: Timer,
    /// `finish_lookup`: the statistical corrector and loop predictor, the
    /// part of `lookup` after `lookup_tage`.
    pub finish_lookup: Timer,
    /// `commit`.
    pub commit: Timer,
    /// [`advance_history`].
    pub history: Timer,
    /// Heap allocations over the whole drive.
    pub allocs: u64,
    /// Records driven.
    pub records: u64,
}

/// Drives a fresh `TageScl` built from `cfg` over `trace`.
#[must_use]
pub fn probe_tage(cfg: TslConfig, trace: &Trace) -> TageProbe {
    let mut tsl = TageScl::new(cfg);
    let mut probe = TageProbe { records: trace.len() as u64, ..TageProbe::default() };
    let allocs = alloc::allocations();
    for (i, record) in trace.records().iter().enumerate() {
        let sampled = i % SAMPLE_EVERY == 0;
        if record.kind() == BranchKind::Conditional {
            let pc = record.pc();
            if sampled {
                // `lookup` is exactly `lookup_tage` then `finish_lookup`;
                // timing the halves splits it without repeating any work.
                let t = Instant::now();
                let tage = tsl.lookup_tage(pc);
                probe.lookup_tage.add(t);
                let t = Instant::now();
                let lookup = tsl.finish_lookup(pc, tage, None);
                probe.finish_lookup.add(t);
                let t = Instant::now();
                tsl.commit(&lookup, record.taken(), UpdateMode::Full);
                probe.commit.add(t);
            } else {
                let lookup = tsl.lookup(pc);
                tsl.commit(&lookup, record.taken(), UpdateMode::Full);
            }
        }
        if sampled {
            let t = Instant::now();
            advance_history(&mut tsl, record);
            probe.history.add(t);
        } else {
            advance_history(&mut tsl, record);
        }
    }
    probe.allocs = alloc::allocations() - allocs;
    black_box(&tsl);
    probe
}

/// Sampled timings of the LLBP predictor through the `Predictor` trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreProbe {
    /// `predict`.
    pub predict: Timer,
    /// `train`.
    pub train: Timer,
    /// `update_history_fast`.
    pub history: Timer,
    /// Heap allocations over the whole drive.
    pub allocs: u64,
    /// Records driven.
    pub records: u64,
}

/// Drives a fresh default LLBP over `trace`.
#[must_use]
pub fn probe_core(trace: &Trace) -> CoreProbe {
    let mut llbp = LlbpPredictor::new(LlbpParams::default());
    let mut probe = CoreProbe { records: trace.len() as u64, ..CoreProbe::default() };
    let allocs = alloc::allocations();
    for (i, record) in trace.records().iter().enumerate() {
        let sampled = i % SAMPLE_EVERY == 0;
        if record.kind() == BranchKind::Conditional {
            let (pc, taken) = (record.pc(), record.taken());
            if sampled {
                let t = Instant::now();
                black_box(llbp.predict(pc));
                probe.predict.add(t);
                let t = Instant::now();
                llbp.train(pc, taken);
                probe.train.add(t);
            } else {
                black_box(llbp.predict(pc));
                llbp.train(pc, taken);
            }
        }
        if sampled {
            let t = Instant::now();
            llbp.update_history_fast(record);
            probe.history.add(t);
        } else {
            llbp.update_history_fast(record);
        }
    }
    probe.allocs = alloc::allocations() - allocs;
    black_box(&llbp);
    probe
}

/// Nanoseconds per record of `f` over `specs`' traces, median of
/// [`ROUNDS`] rounds, with the traces of the last round.
fn per_record<F>(specs: &[WorkloadSpec], mut f: F) -> Result<(f64, Vec<Trace>), BenchError>
where
    F: FnMut(&WorkloadSpec) -> Result<Trace, BenchError>,
{
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut traces = Vec::new();
    for _ in 0..ROUNDS {
        traces.clear();
        let started = Instant::now();
        for spec in specs {
            traces.push(f(spec)?);
        }
        let records: usize = traces.iter().map(Trace::len).sum();
        rounds.push(started.elapsed().as_nanos() as f64 / records.max(1) as f64);
    }
    Ok((median(&rounds), traces))
}

/// Microseconds per call of `f(0..calls)`, median of [`ROUNDS`] rounds.
fn per_call_us<F>(calls: usize, mut f: F) -> Result<f64, BenchError>
where
    F: FnMut(usize) -> Result<(), BenchError>,
{
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        for i in 0..calls {
            f(i)?;
        }
        rounds.push(started.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64);
    }
    Ok(median(&rounds))
}

/// Everything the traced run measures below the engine.
pub struct LayerInputs<'a> {
    /// The run's seed.
    pub seed: u64,
    /// The run's trace specs (all fourteen workloads).
    pub specs: &'a [WorkloadSpec],
    /// A store holding every trace of `specs` and every result cell of
    /// `grid`: the last campaign's.
    pub store: &'a MemoStore,
    /// The workload's grid.
    pub grid: &'a SweepSpec,
    /// Reference 64K TSL and LLBP results of the run.
    pub accuracy: &'a Accuracy,
    /// An empty directory the write-back and lock probes may use.
    pub scratch: &'a Path,
}

/// Runs every layer probe and returns the per-layer metrics (engine-level
/// ones come from the traced campaigns instead) plus sanity lines.
///
/// # Errors
///
/// Returns a store error, or a missing trace or result object.
pub fn probe_layers(inputs: &LayerInputs<'_>) -> Result<(Vec<Metric>, Vec<String>), BenchError> {
    let mut metrics = Vec::new();
    let n_specs = inputs.specs.len() as u64;

    // trace: generation, decode from the store, resident size.
    let (gen_ns, _) = per_record(inputs.specs, |spec| Ok(spec.generate()))?;
    metrics.push(Metric::new("trace.gen_ns_per_record", gen_ns, "ns", ROUNDS as u64 * n_specs));
    let store = inputs.store;
    let (decode_ns, decoded) = per_record(inputs.specs, |spec| {
        store
            .load_trace(store.trace_fingerprint(spec))?
            .ok_or_else(|| format!("trace of {} missing from the store", spec.name()).into())
    })?;
    metrics.push(Metric::new(
        "trace.decode_ns_per_record",
        decode_ns,
        "ns",
        ROUNDS as u64 * n_specs,
    ));
    let resident: usize = decoded
        .iter()
        .map(|t| {
            let _ = t.soa();
            t.memory_footprint()
        })
        .sum();
    metrics.push(
        Metric::new("trace.resident_mib", resident as f64 / (1 << 20) as f64, "MiB", n_specs)
            .with_note("records plus the column view the batch tier builds"),
    );
    drop(decoded);

    // sim: exact per-cell wall of each predictor on the probe traces.
    let probe_specs: Vec<WorkloadSpec> =
        PROBE_WORKLOADS.iter().map(|&w| trace_spec(w, inputs.seed)).collect();
    let predictors = layer_predictors();
    let sweep = SweepSpec::new(
        predictors.iter().map(|(_, k)| k.clone()).collect(),
        probe_specs.clone(),
        SimConfig::default(),
    );
    let report = SweepEngine::with_workers(1).try_run(&sweep)?;
    let mut sim_ns = Vec::new();
    for (p, (name, _)) in predictors.iter().enumerate() {
        let jobs = report.jobs.iter().filter(|j| j.job.predictor == p);
        let (wall, branches) = jobs.fold((0.0, 0u64), |(w, b), j| {
            (w + j.stats.wall.as_secs_f64() * 1e9, b + j.stats.branches)
        });
        let ns = wall / branches.max(1) as f64;
        sim_ns.push((*name, ns));
        metrics.push(Metric::new(
            format!("sim.ns_per_record.{name}"),
            ns,
            "ns",
            PROBE_WORKLOADS.len() as u64,
        ));
    }
    let sim = |name: &str| sim_ns.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, ns)| *ns);

    // tage: the TAGE-SC-L public API, 64K and Inf TSL.
    let trace = probe_specs[0].generate();
    for (name, cfg) in [("tsl64k", TslConfig::cbp64k()), ("inf_tsl", TslConfig::infinite_tsl())] {
        let probe = probe_tage(cfg, &trace);
        metrics.extend([
            Metric::new(
                format!("tage.lookup_ns.{name}"),
                probe.lookup_tage.mean_ns(),
                "ns",
                probe.lookup_tage.calls,
            ),
            Metric::new(
                format!("tage.sc_loop_ns.{name}"),
                probe.finish_lookup.mean_ns(),
                "ns",
                probe.finish_lookup.calls,
            )
            .with_note("finish_lookup: lookup minus lookup_tage"),
            Metric::new(
                format!("tage.commit_ns.{name}"),
                probe.commit.mean_ns(),
                "ns",
                probe.commit.calls,
            ),
            Metric::new(
                format!("tage.history_ns.{name}"),
                probe.history.mean_ns(),
                "ns",
                probe.history.calls,
            )
            .with_note("update_history_fast"),
            Metric::new(
                format!("tage.allocs_per_record.{name}"),
                probe.allocs as f64 / probe.records.max(1) as f64,
                "allocs/record",
                probe.records,
            ),
        ]);
    }

    // core: LLBP through the Predictor trait, and its own cost.
    let core = probe_core(&trace);
    let core_allocs = core.allocs as f64 / core.records.max(1) as f64;
    metrics.extend([
        Metric::new("core.predict_ns", core.predict.mean_ns(), "ns", core.predict.calls),
        Metric::new("core.train_ns", core.train.mean_ns(), "ns", core.train.calls),
        Metric::new("core.history_ns", core.history.mean_ns(), "ns", core.history.calls),
        Metric::new(
            "core.self_ns_per_record",
            sim("llbp") - sim("tsl64k"),
            "ns",
            PROBE_WORKLOADS.len() as u64,
        )
        .with_note("sim.ns_per_record.llbp minus sim.ns_per_record.tsl64k"),
        Metric::new("core.allocs_per_record", core_allocs, "allocs/record", core.records),
    ]);
    metrics.extend(llbp_ratios(inputs.accuracy));

    // memo: result-cell loads from the last campaign's store, and the
    // engine's write-back call storing the same cells into an empty one.
    let grid = inputs.grid;
    let mut fps = Vec::new();
    for w in &grid.workloads {
        fps.extend(grid.predictors.iter().map(|p| store.result_fingerprint(p, w, &grid.sim)));
    }
    let samples = (ROUNDS * fps.len()) as u64;
    let mut cells = Vec::with_capacity(fps.len());
    let load_us = per_call_us(fps.len(), |i| {
        cells.push(store.load_result(fps[i])?.ok_or("result cell missing from the store")?);
        Ok(())
    })?;
    metrics.push(Metric::new("memo.load_result_us", load_us, "us", samples));
    let scratch = MemoStore::open(inputs.scratch.join("store"))?;
    let store_us = per_call_us(fps.len(), |i| {
        let cell = &cells[i % cells.len()];
        scratch.store_result(fps[i], &cell.result, cell.wall, cell.trace_len)?;
        Ok(())
    })?;
    metrics.push(Metric::new("memo.store_result_us", store_us, "us", samples));

    // lock: an uncontended acquire and release of a campaign journal lock.
    let lock_path = inputs.scratch.join("probe.journal.lock");
    let lock_us = per_call_us(LOCK_ACQUIRES, |_| {
        drop(LockFile::acquire(lock_path.clone(), Duration::ZERO)?);
        Ok(())
    })?;
    metrics.push(Metric::new("lock.acquire_us", lock_us, "us", (ROUNDS * LOCK_ACQUIRES) as u64));

    let lines = vec![format!(
        "sanity: 64K TSL {:.2} M branches/s and LLBP {:.2} M branches/s on the default tier \
         (ROADMAP re-anchor: 1.55-1.65 M/s for 64K TSL on the fast tiers, LLBP 0.91 M/s); \
         core.allocs_per_record {core_allocs:.3} (ROADMAP: 1.23)",
        1e3 / sim("tsl64k"),
        1e3 / sim("llbp"),
    )];
    Ok((metrics, lines))
}

/// LLBP's own outcome ratios, from the exact `LlbpStats` of the reference
/// LLBP cells summed over all workloads.
#[must_use]
pub fn llbp_ratios(accuracy: &Accuracy) -> Vec<Metric> {
    let mut s = llbp_core::LlbpStats::default();
    for cell in accuracy.llbp.iter().filter_map(|r| r.llbp.as_ref()) {
        let l = &cell.llbp;
        s.predictions += l.predictions;
        s.llbp_matches += l.llbp_matches;
        s.good_override += l.good_override;
        s.bad_override += l.bad_override;
        s.both_correct += l.both_correct;
        s.both_wrong += l.both_wrong;
        s.storage_reads += l.storage_reads;
        s.storage_writes += l.storage_writes;
        s.cd_lookups += l.cd_lookups;
        s.cd_hits += l.cd_hits;
        s.pb_hits += l.pb_hits;
        s.late_prefetches += l.late_prefetches;
        s.instructions += l.instructions;
    }
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let n = accuracy.llbp.len() as u64;
    vec![
        Metric::new("core.cd_hit_ratio", ratio(s.cd_hits, s.cd_lookups), "ratio", n),
        Metric::new("core.pb_hit_ratio", ratio(s.pb_hits, s.predictions), "ratio", n),
        Metric::new(
            "core.late_prefetch_ratio",
            ratio(s.late_prefetches, s.predictions - s.pb_hits.min(s.predictions)),
            "ratio",
            n,
        )
        .with_note("late prefetches per prediction that missed the pattern buffer"),
        Metric::new("core.match_ratio", ratio(s.llbp_matches, s.predictions), "ratio", n),
        Metric::new("core.good_override_ratio", ratio(s.good_override, s.overrides()), "ratio", n)
            .with_note("good overrides per override"),
        Metric::new(
            "core.storage_reads_per_kinst",
            1e3 * ratio(s.storage_reads, s.instructions),
            "1/kinst",
            n,
        ),
        Metric::new(
            "core.storage_writes_per_kinst",
            1e3 * ratio(s.storage_writes, s.instructions),
            "1/kinst",
            n,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timed history call must advance the predictor exactly as the
    /// reference `update_history` does, or `tage.history_ns` would time
    /// different work from what the simulator runs.
    #[test]
    fn timed_history_call_matches_update_history() {
        let trace = WorkloadSpec::named(Workload::Tomcat).with_branches(6_000).generate();
        for cfg in [TslConfig::cbp64k(), TslConfig::infinite_tsl()] {
            let mut timed = TageScl::new(cfg.clone());
            let mut reference = TageScl::new(cfg);
            for record in trace.records() {
                if record.kind() == BranchKind::Conditional {
                    let a = timed.lookup(record.pc());
                    let b = reference.lookup(record.pc());
                    assert_eq!(a.pred, b.pred);
                    timed.commit(&a, record.taken(), UpdateMode::Full);
                    reference.commit(&b, record.taken(), UpdateMode::Full);
                }
                advance_history(&mut timed, record);
                reference.update_history(record);
                assert_eq!(timed.checkpoint(), reference.checkpoint());
            }
        }
    }

    #[test]
    fn probes_time_a_sample_of_records() {
        let trace = WorkloadSpec::named(Workload::Http).with_branches(4_000).generate();
        let tage = probe_tage(TslConfig::cbp64k(), &trace);
        assert_eq!(tage.records, 4_000);
        assert_eq!(tage.history.calls, 1_000);
        assert!(tage.lookup_tage.calls > 0 && tage.finish_lookup.calls == tage.commit.calls);
        let core = probe_core(&trace);
        assert_eq!(core.history.calls, 1_000);
        assert_eq!(core.predict.calls, core.train.calls);
    }
}
