//! Sharded-execution integration tests: the lease-claimed shard pass,
//! the order-insensitive journal merge, and the shard-journal paths.
//!
//! These run every sharding ingredient inside one process (shard passes
//! are plain function calls), so the logic is exercised
//! deterministically. Crash recovery through the daemon's reconcile loop
//! — stolen dead-holder leases, `lease:expire` discards — is pinned in
//! `tests/serve.rs`; the process-level chaos run (an aborted
//! `llbp_serve`, a restarted daemon, byte-identical stdout) lives in
//! `scripts/tier1.sh`.

use llbp_sim::journal::{campaign_fingerprint, merge_outcomes, outcome_line, read_outcomes};
use llbp_sim::shard::{
    grid_fingerprints, read_worker_journals, run_shard, worker_journal_path, ShardConfig,
    ShardHooks,
};
use llbp_sim::{CellOutcome, MemoStore, PredictorKind, SimConfig, SweepSpec};
use llbp_trace::fingerprint::Fingerprint;
use llbp_trace::{Workload, WorkloadSpec};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "llbp-dist-it-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn small_spec() -> SweepSpec {
    SweepSpec::new(
        vec![PredictorKind::Tsl64K, PredictorKind::TslScaled(2)],
        vec![
            WorkloadSpec::named(Workload::Http).with_branches(2_000),
            WorkloadSpec::named(Workload::Kafka).with_branches(2_000),
        ],
        SimConfig::default(),
    )
}

fn cfg(worker: u32) -> ShardConfig {
    ShardConfig { worker, abort_after_claims: None, max_retries: 2 }
}

/// SplitMix64, for deterministic shuffles without `rand`.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn one_shard_pass_completes_the_grid_and_later_shards_are_memo_served() {
    let root = scratch_dir("complete");
    let store = Arc::new(MemoStore::open(&root).expect("store opens"));
    let spec = small_spec();

    let first = run_shard(&spec, &store, None, &cfg(0), &ShardHooks::default()).expect("shard 0");
    assert_eq!(first.claimed, 4);
    assert_eq!(first.completed, 4);
    assert_eq!(first.failed + first.lost + first.skipped, 0);

    // A second worker over the same grid: every cell is already
    // published, so its whole shard is memo-served, not re-simulated.
    let second = run_shard(&spec, &store, None, &cfg(1), &ShardHooks::default()).expect("shard 1");
    assert_eq!(second.memo_served, 4);
    assert_eq!(second.completed, 0);

    // Both shard journals agree cell-for-cell once merged.
    let campaign = campaign_fingerprint(&grid_fingerprints(&spec, &store));
    let merged = merge_outcomes(read_worker_journals(&root, campaign));
    assert_eq!(merged.len(), 4);
    assert!(merged.values().all(|o| matches!(o, CellOutcome::Ok { digest: Some(_), .. })));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn merging_shuffled_shard_journals_is_order_insensitive_and_matches_single_process() {
    let root = scratch_dir("merge-prop");
    let campaign = Fingerprint(0xc0ffee);
    let mut rng = Rng(0x5eed);

    // Ground truth: 40 cells with mixed outcomes, including cells whose
    // shards disagree (a transient `failed` from a worker that died,
    // superseded by another worker's `ok` — the lattice must pick `ok`
    // regardless of which journal is read first).
    let mut truth: HashMap<usize, CellOutcome> = HashMap::new();
    let mut entries: Vec<(usize, CellOutcome)> = Vec::new();
    for cell in 0..40usize {
        let fp = Fingerprint(u128::from(rng.next()) << 64 | u128::from(rng.next()));
        let outcome = match cell % 4 {
            0 | 1 => CellOutcome::Ok {
                fingerprint: fp,
                digest: Some(Fingerprint(u128::from(rng.next()))),
            },
            2 => CellOutcome::Stale { fingerprint: fp },
            _ => CellOutcome::Failed { class: "timeout".to_string() },
        };
        if matches!(outcome, CellOutcome::Ok { .. }) && cell % 5 == 0 {
            // The losing shard's view, distributed alongside the winner.
            entries.push((cell, CellOutcome::Failed { class: "network".to_string() }));
        }
        entries.push((cell, outcome.clone()));
        truth.insert(cell, outcome);
    }

    // Shuffle entries across 4 shard journals.
    let mut shards: Vec<Vec<(usize, CellOutcome)>> = vec![Vec::new(); 4];
    for entry in entries {
        shards[(rng.next() % 4) as usize].push(entry);
    }
    for (worker, entries) in shards.iter().enumerate() {
        let mut text = String::new();
        for (cell, outcome) in entries {
            text.push_str(&outcome_line(*cell, outcome));
        }
        std::fs::write(worker_journal_path(&root, campaign, worker as u32), text)
            .expect("write shard journal");
    }

    // Conflicted cells resolve to Ok; everything else matches truth.
    let resolves = |merged: &HashMap<usize, CellOutcome>| {
        assert_eq!(merged.len(), truth.len());
        for (cell, expected) in &truth {
            assert_eq!(merged[cell], *expected, "cell {cell}");
        }
    };

    // Order-insensitivity: merge the shard maps in many permutations.
    let maps = read_worker_journals(&root, campaign);
    assert_eq!(maps.len(), 4);
    let reference = merge_outcomes(maps.clone());
    resolves(&reference);
    for perm in 0..8u64 {
        let mut order: Vec<usize> = (0..maps.len()).collect();
        // Fisher–Yates with the seeded generator.
        let mut r = Rng(perm.wrapping_mul(0x9e37).wrapping_add(11));
        for i in (1..order.len()).rev() {
            order.swap(i, (r.next() % (i as u64 + 1)) as usize);
        }
        let permuted = merge_outcomes(order.into_iter().map(|i| maps[i].clone()));
        assert_eq!(permuted, reference, "merge must not depend on shard order");
    }

    // ... and the merged view equals a single-process journal holding
    // the same history (last-entry-wins there, lattice here — for one
    // writer per cell they agree; truth's winners are what a single
    // process would have recorded).
    let mut single = String::new();
    for cell in 0..40usize {
        single.push_str(&outcome_line(cell, &truth[&cell]));
    }
    let single_path = root.join(format!("{campaign}.journal"));
    std::fs::write(&single_path, single).expect("write single-process journal");
    assert_eq!(read_outcomes(&single_path), reference);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn shard_journal_paths_are_per_worker_and_reread_exactly() {
    let root = scratch_dir("paths");
    let campaign = Fingerprint(0xabc);
    let a = worker_journal_path(&root, campaign, 0);
    let b = worker_journal_path(&root, campaign, 1);
    assert_ne!(a, b);
    assert!(a.file_name().unwrap().to_string_lossy().contains(".w0."));
    // An unrelated campaign's shard journal is not picked up.
    std::fs::write(&a, outcome_line(3, &CellOutcome::Failed { class: "panic".into() }))
        .expect("write");
    std::fs::write(
        worker_journal_path(&root, Fingerprint(0xdef), 0),
        outcome_line(9, &CellOutcome::Failed { class: "panic".into() }),
    )
    .expect("write other campaign");
    let maps = read_worker_journals(&root, campaign);
    assert_eq!(maps.len(), 1);
    assert_eq!(maps[0].len(), 1);
    assert!(maps[0].contains_key(&3));
    let _ = std::fs::remove_dir_all(root);
}
