//! Golden pins of predictor behaviour from the reference backend: exact
//! misprediction counts and every `LlbpStats` counter for the LLBP design
//! points the figures and ablations use, and exact branch, instruction and
//! provider counts for the TAGE-SC-L configurations of Figs. 2 and 9.
//!
//! The parity suites compare execution tiers of the *same* predictor code
//! with each other, so a change inside `crates/core` or `crates/tage` that
//! shifts behaviour in every tier at once would pass them. These numbers
//! were recorded from the reference tier and must not move unless a
//! predictor's semantics change on purpose.

use llbp_core::{CdReplacement, LlbpParams, LlbpStats};
use llbp_sim::{BackendKind, PredictorKind, SimConfig, SimResult};
use llbp_tage::ProviderKind;
use llbp_trace::{Trace, Workload, WorkloadSpec};

const RECORDS: usize = 60_000;
const WORKLOADS: [Workload; 2] = [Workload::NodeApp, Workload::Tomcat];

/// The pinned design points, in [`GOLDEN`] row order.
fn designs() -> Vec<LlbpParams> {
    let lru = LlbpParams {
        cd_replacement: CdReplacement::Lru,
        label: "LRU CD replacement".into(),
        ..LlbpParams::default()
    };
    let no_buckets =
        LlbpParams { num_buckets: 1, label: "no bucketing".into(), ..LlbpParams::default() };
    vec![
        LlbpParams::default(),
        LlbpParams::zero_latency(),
        LlbpParams::study_full_assoc(8192, 8),
        LlbpParams::study_full_assoc(8192, 64),
        LlbpParams::default().with_pb_entries(16),
        lru,
        no_buckets,
    ]
}

/// Every `LlbpStats` counter, in declaration order.
fn counters(s: &LlbpStats) -> [u64; 18] {
    [
        s.predictions,
        s.llbp_matches,
        s.no_override,
        s.good_override,
        s.bad_override,
        s.both_correct,
        s.both_wrong,
        s.storage_reads,
        s.storage_writes,
        s.cd_lookups,
        s.cd_hits,
        s.pb_hits,
        s.late_prefetches,
        s.pipeline_resets,
        s.contexts_created,
        s.pattern_allocs,
        s.instructions,
        s.cycles,
    ]
}

/// `(mispredictions, counters)` per design (outer) and workload (inner).
type Row = (u64, [u64; 18]);

#[rustfmt::skip]
const GOLDEN: [[Row; 2]; 7] = [
    // LLBP
    [
        (2362, [44652, 3286, 888, 90, 29, 2175, 104, 5148, 3781, 15348, 7174, 26425, 1565, 6475, 1662, 4416, 421114, 70185]),
        (3318, [46569, 3236, 624, 103, 62, 2351, 96, 4778, 4534, 13431, 5957, 28972, 1885, 8777, 2154, 6063, 418968, 69828]),
    ],
    // LLBP-0Lat
    [
        (2357, [44652, 3450, 922, 105, 33, 2287, 103, 5381, 3864, 15348, 7171, 27960, 0, 6466, 1661, 4408, 421114, 70185]),
        (3307, [46569, 3434, 664, 111, 69, 2498, 92, 4992, 4613, 13431, 5955, 30815, 0, 8762, 2155, 6049, 418968, 69828]),
    ],
    // LLBP-study-8192x8
    [
        (2335, [44652, 3999, 1078, 127, 37, 2652, 105, 4661, 3779, 15348, 6454, 26327, 0, 6440, 1788, 4384, 421114, 70185]),
        (3294, [46569, 4462, 961, 147, 78, 3159, 117, 4267, 4586, 13431, 5301, 29449, 0, 8742, 2312, 6036, 418968, 69828]),
    ],
    // LLBP-study-8192x64
    [
        (2333, [44652, 4784, 1313, 161, 65, 3064, 181, 4655, 3807, 15348, 6444, 26313, 0, 6437, 1790, 4380, 421114, 70185]),
        (3292, [46569, 5045, 1161, 163, 95, 3469, 157, 4266, 4602, 13431, 5300, 29448, 0, 8738, 2308, 6030, 418968, 69828]),
    ],
    // LLBP (PB 16)
    [
        (2361, [44652, 3284, 885, 89, 29, 2177, 104, 6672, 4194, 15348, 7174, 26186, 1802, 6474, 1661, 4415, 421114, 70185]),
        (3321, [46569, 3165, 619, 96, 64, 2293, 93, 5513, 4783, 13431, 5955, 28581, 2272, 8781, 2153, 6067, 418968, 69828]),
    ],
    // LRU CD replacement (equal to LLBP: no directory set overflows in
    // 60k records, so the victim policy never runs)
    [
        (2362, [44652, 3286, 888, 90, 29, 2175, 104, 5148, 3781, 15348, 7174, 26425, 1565, 6475, 1662, 4416, 421114, 70185]),
        (3318, [46569, 3236, 624, 103, 62, 2351, 96, 4778, 4534, 13431, 5957, 28972, 1885, 8777, 2154, 6063, 418968, 69828]),
    ],
    // no bucketing
    [
        (2331, [44652, 4255, 1190, 138, 47, 2744, 136, 5144, 3853, 15348, 7161, 26420, 1534, 6439, 1659, 4382, 421114, 70185]),
        (3297, [46569, 4657, 1062, 146, 89, 3215, 145, 4781, 4604, 13431, 5956, 28967, 1904, 8749, 2152, 6034, 418968, 69828]),
    ],
];

fn traces() -> Vec<Trace> {
    WORKLOADS.iter().map(|&w| WorkloadSpec::named(w).with_branches(RECORDS).generate()).collect()
}

#[test]
fn llbp_design_points_match_golden_pins() {
    let cfg = SimConfig::default().with_backend(BackendKind::Reference);
    let traces = traces();
    let mut actual = Vec::new();
    for params in designs() {
        let label = params.label.clone();
        let row: Vec<Row> = traces
            .iter()
            .map(|trace| {
                let result = cfg.run(PredictorKind::Llbp(params.clone()), trace);
                let stats = result.llbp.expect("LLBP cells carry LLBP statistics");
                (result.mispredictions, counters(&stats.llbp))
            })
            .collect();
        actual.push((label, row));
    }
    let rendered: String = actual
        .iter()
        .map(|(label, row)| {
            let cells: String =
                row.iter().map(|(m, c)| format!("        ({m}, {c:?}),\n")).collect();
            format!("    // {label}\n    [\n{cells}    ],\n")
        })
        .collect();
    for (i, (label, row)) in actual.iter().enumerate() {
        for (j, got) in row.iter().enumerate() {
            assert_eq!(
                *got, GOLDEN[i][j],
                "{label} on {:?} moved from its golden pin; all actual rows:\n{rendered}",
                WORKLOADS[j]
            );
        }
    }
}

/// The pinned TAGE-SC-L configurations, in [`TSL_GOLDEN`] row order.
fn tsl_kinds() -> [PredictorKind; 4] {
    [
        PredictorKind::Tsl64K,
        PredictorKind::TslScaled(8),
        PredictorKind::InfTage,
        PredictorKind::InfTsl,
    ]
}

/// `(mispredictions, conditional_branches, instructions, provider counts
/// in ProviderKind::LABELS order)` per configuration (outer) and workload
/// (inner).
type TslRow = (u64, u64, u64, [u64; ProviderKind::COUNT]);

fn tsl_row(result: &SimResult) -> TslRow {
    let providers =
        ProviderKind::LABELS.map(|label| result.provider_counts.get(label).copied().unwrap_or(0));
    (result.mispredictions, result.conditional_branches, result.instructions, providers)
}

#[rustfmt::skip]
const TSL_GOLDEN: [[TslRow; 2]; 4] = [
    // 64K TSL
    [(2400, 29817, 280707, [19166, 10466, 185, 0, 0]), (3340, 31113, 279359, [20297, 10563, 253, 0, 0])],
    // 512K TSL
    [(2151, 29817, 280707, [17165, 12511, 141, 0, 0]), (3146, 31113, 279359, [18282, 12625, 206, 0, 0])],
    // Inf TAGE
    [(2154, 29817, 280707, [16286, 13385, 146, 0, 0]), (3050, 31113, 279359, [17390, 13537, 186, 0, 0])],
    // Inf TSL
    [(2203, 29817, 280707, [16254, 13270, 53, 240, 0]), (3048, 31113, 279359, [17462, 13571, 80, 0, 0])],
];

#[test]
fn tsl_configurations_match_golden_pins() {
    let cfg = SimConfig::default().with_backend(BackendKind::Reference);
    let traces = traces();
    let actual: Vec<(String, Vec<TslRow>)> = tsl_kinds()
        .into_iter()
        .map(|kind| {
            let row = traces.iter().map(|trace| tsl_row(&cfg.run(kind.clone(), trace))).collect();
            (kind.label(), row)
        })
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(label, row)| {
            let cells: Vec<String> = row.iter().map(|r| format!("{r:?}")).collect();
            format!("    // {label}\n    [{}],\n", cells.join(", "))
        })
        .collect();
    for (i, (label, row)) in actual.iter().enumerate() {
        for (j, got) in row.iter().enumerate() {
            assert_eq!(
                *got, TSL_GOLDEN[i][j],
                "{label} on {:?} moved from its golden pin; all actual rows:\n{rendered}",
                WORKLOADS[j]
            );
        }
    }
}
