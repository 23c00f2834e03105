//! Shard-count byte-identity: the sweep artifact is the same file no
//! matter how many shards the shard-engine rows execute on, and the
//! `--shards` flag leaves every classic cluster run — chaos rows
//! included — untouched down to the committed baseline bytes.
//!
//! This is the artifact-level face of the conservative executor's
//! determinism guarantee: `Shards::Auto` rows follow the sweep-wide
//! setting, yet their `RunRecord` metrics are invariant, so
//! `results/sweep.json` and the committed smoke baseline cannot drift
//! with the host's parallelism. The `launch()` row families — cluster,
//! chaos-cluster, warm and kv — exercise the engine: their nodes run the
//! full SHRIMP stack (VMMC, NIC, notifications) sharded across `Sim`s
//! with the mesh as the only cross-shard channel.

use std::path::PathBuf;
use std::sync::Arc;

use shrimp_bench::{matrix, Scale};
use shrimp_harness::runner::{run_sweep, RunResult, RunStatus, RunnerOptions};
use shrimp_harness::sweep;

fn run_ok(
    specs: &[shrimp_bench::RunSpec],
    shards: usize,
    checkpoint_in: Option<Arc<Vec<u8>>>,
    checkpoint_out: bool,
) -> Vec<RunResult> {
    let results = run_sweep(
        specs,
        &RunnerOptions {
            workers: 4,
            shards,
            checkpoint_in,
            checkpoint_out,
            ..RunnerOptions::default()
        },
    );
    for r in &results {
        assert!(
            matches!(r.status, RunStatus::Ok(_)),
            "{} failed at {shards} shard(s): {}",
            r.spec.id(),
            r.status.label()
        );
    }
    results
}

fn sweep_bytes(specs: &[shrimp_bench::RunSpec], shards: usize) -> String {
    sweep::to_json("smoke", &run_ok(specs, shards, None, false))
}

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/baselines")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed baseline {}: {e}", path.display()))
}

/// The full smoke sweep, three times: `--shards 1`, `--shards 2` and
/// `--shards 4` must produce byte-identical artifacts, and that one
/// artifact must match the committed smoke baseline byte for byte. This
/// covers every experiment group at once: the classic chaos rows (for
/// which `--shards` must stay a no-op even with the fault plane active)
/// and every `launch()` family — cluster rows up to the pinned 64-node
/// pair, chaos-cluster crash/restart faults under the heartbeat detector,
/// warm-start forks and the kv rows whose latency quantiles come out of
/// histograms merged across shards.
#[test]
fn smoke_sweep_is_byte_identical_across_shard_counts() {
    let specs = matrix(Scale::Smoke, 4);
    assert!(
        specs.iter().any(|s| s.experiment == "cluster"),
        "smoke matrix lost its distributed-cluster rows"
    );
    let one = sweep_bytes(&specs, 1);
    let two = sweep_bytes(&specs, 2);
    let four = sweep_bytes(&specs, 4);
    assert_eq!(one, two, "--shards 2 changed the sweep artifact");
    assert_eq!(one, four, "--shards 4 changed the sweep artifact");
    assert_eq!(
        one,
        committed("smoke.json"),
        "the sweep artifact drifted from the committed smoke baseline"
    );
}

/// Cross-shard checkpoint/restore identity at the artifact level: the
/// warm-start rows (64-node, forked from one post-warmup checkpoint)
/// produce the same sweep rows whether they run cold, restore a
/// checkpoint captured at `--shards 1` onto 4 shards, or restore one
/// captured at `--shards 4` onto a single shard — and the checkpoint
/// artifact itself is byte-identical at every shard count. The rows also
/// byte-match the committed smoke baseline.
#[test]
fn warm_rows_restore_byte_identically_across_shard_counts() {
    let mut specs = matrix(Scale::Smoke, 4);
    specs.retain(|s| s.experiment == "warm");
    assert_eq!(specs.len(), 3, "smoke warm group changed size");
    let cold = sweep_bytes(&specs, 1);

    // Capture the checkpoint at each shard count; every warm row echoes
    // the same bytes, and the artifact is shard-count-invariant.
    let capture = |shards: usize| -> Arc<Vec<u8>> {
        let results = run_ok(&specs, shards, None, true);
        let captured: Vec<&Vec<u8>> = results
            .iter()
            .filter_map(|r| r.checkpoint.as_ref())
            .collect();
        assert_eq!(
            captured.len(),
            3,
            "every warm row must capture a checkpoint"
        );
        assert!(
            captured.iter().all(|b| *b == captured[0]),
            "warm rows captured diverging checkpoints at {shards} shard(s)"
        );
        Arc::new(captured[0].clone())
    };
    let ck1 = capture(1);
    let ck4 = capture(4);
    assert_eq!(
        ck1, ck4,
        "the checkpoint artifact must not depend on the shard count"
    );

    // Checkpoint at --shards 1, restore at --shards 4 — and the reverse.
    let warm4 = sweep::to_json("smoke", &run_ok(&specs, 4, Some(ck1), false));
    assert_eq!(
        cold, warm4,
        "restoring the 1-shard checkpoint on 4 shards changed the rows"
    );
    let warm1 = sweep::to_json("smoke", &run_ok(&specs, 1, Some(ck4), false));
    assert_eq!(
        cold, warm1,
        "restoring the 4-shard checkpoint on 1 shard changed the rows"
    );

    // Row-for-row byte match against the committed smoke baseline (the
    // warm rows sit at the end of the full smoke matrix).
    let baseline = committed("smoke.json");
    let warm_rows: Vec<&str> = cold
        .lines()
        .filter(|l| l.contains("\"experiment\": \"warm\""))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert_eq!(warm_rows.len(), 3);
    for row in warm_rows {
        assert!(
            baseline.contains(row),
            "warm row missing from the committed smoke baseline: {row}"
        );
    }
}
