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
//! chaos-cluster and kv — exercise the engine: their nodes run the
//! full SHRIMP stack (VMMC, NIC, notifications) sharded across `Sim`s
//! with the mesh as the only cross-shard channel.

use std::path::PathBuf;

use shrimp_bench::{matrix, Scale};
use shrimp_harness::runner::{run_sweep, RunStatus, RunnerOptions};
use shrimp_harness::sweep;

fn sweep_bytes(specs: &[shrimp_bench::RunSpec], shards: usize) -> String {
    let results = run_sweep(
        specs,
        &RunnerOptions {
            workers: 4,
            shards,
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
    sweep::to_json("smoke", &results)
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
/// pair and the 64-node syscall and interrupt rows, chaos-cluster
/// crash/restart faults under the heartbeat detector, and the kv rows
/// whose latency quantiles come out of histograms merged across shards.
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
