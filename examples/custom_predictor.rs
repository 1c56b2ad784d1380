//! Extending the framework: plugging a custom predictor into the
//! simulator via the [`Predictor`] trait.
//!
//! This example implements a classic gshare predictor from the crate's
//! building blocks (`bputil`), runs it against TAGE-SC-L on the same
//! trace, and reports both — the same way a researcher would evaluate a
//! new design inside this framework.
//!
//! ```sh
//! cargo run --release --example custom_predictor
//! ```

use llbp_repro::bputil::counter::CounterWidth;
use llbp_repro::bputil::history::HistoryBuffer;
use llbp_repro::prelude::*;
use llbp_repro::tage::{Predictor, ProviderKind};
use llbp_repro::trace::{BranchKind, BranchRecord};

/// Width of the gshare counters: one width for the whole table.
const TWO_BIT: CounterWidth = CounterWidth::signed(2);

/// A classic gshare predictor: PC XOR global history indexes one table of
/// 2-bit counters.
struct Gshare {
    table: Vec<i8>,
    ghr: HistoryBuffer,
    history_bits: u32,
    label: String,
}

impl Gshare {
    fn new(index_bits: u32, history_bits: u32) -> Self {
        Self {
            table: vec![0; 1 << index_bits],
            ghr: HistoryBuffer::new(64),
            history_bits,
            label: format!("gshare-{}k", (1u32 << index_bits) / 1024),
        }
    }

    fn index(&self, pc: u64) -> usize {
        let hist = self.ghr.fold(self.history_bits as usize, self.history_bits);
        ((pc >> 2) ^ u64::from(hist)) as usize & (self.table.len() - 1)
    }
}

impl Predictor for Gshare {
    fn predict(&mut self, pc: u64) -> bool {
        CounterWidth::taken(self.table[self.index(pc)])
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        TWO_BIT.update(&mut self.table[i], taken);
    }

    fn update_history(&mut self, record: &BranchRecord) {
        if record.kind() == BranchKind::Conditional {
            self.ghr.push(record.taken());
        }
    }

    fn last_provider(&self) -> ProviderKind {
        ProviderKind::Bimodal
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * 2
    }
}

fn main() {
    let trace = WorkloadSpec::named(Workload::Tpcc).with_branches(300_000).generate();
    let cfg = SimConfig::default();

    let mut gshare = Gshare::new(14, 12); // 16K entries, 12-bit history
    let gshare_result = cfg.run_predictor(&mut gshare, &trace);
    let tsl = cfg.run(PredictorKind::Tsl64K, &trace);

    println!("{:12} {:>8}  {:>10}", "predictor", "MPKI", "bits");
    for r in [&gshare_result, &tsl] {
        println!("{:12} {:>8.3}", r.label, r.mpki());
    }
    println!(
        "\nTAGE-SC-L beats gshare by {:.1}% MPKI — three decades of branch \
         prediction research at work.",
        gshare_result.mpki() / tsl.mpki() * 100.0 - 100.0
    );
}
