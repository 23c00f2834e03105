//! Parallel experiment-sweep harness with baseline regression gating.
//!
//! `shrimp-harness` enumerates the EXPERIMENTS.md matrix as typed
//! [`shrimp_bench::RunSpec`]s — experiment × config knobs × seed — and
//! shards the runs across `std::thread` workers with a work-stealing
//! queue ([`runner`]). Each run is a deterministic single-threaded DES
//! executed under a wall-clock timeout with panic isolation, so one
//! wedged or crashing configuration costs a row, not the sweep.
//!
//! Results aggregate into `results/sweep.json` ([`sweep`], simulated
//! metrics only — byte-identical across worker counts) plus a
//! human-readable comparison table, and the [`gate`] diffs fresh runs
//! against committed golden metrics in `results/baselines/*.json`,
//! exiting non-zero if any metric differs from its baseline. With
//! `--perf`, host wall-clock and simulator events/sec samples land in
//! `results/perf.json` ([`perf`]) — strictly apart from the deterministic
//! artifact — with their own generous throughput gate. `--report` reads
//! a saved sweep back and renders the paper's figures and tables from its
//! rows ([`report`]), checking each shape claim as a band.
//!
//! ```text
//! cargo run --release -p shrimp-harness -- --smoke --workers 4
//! cargo run --release -p shrimp-harness -- --smoke --write-baseline
//! cargo run --release -p shrimp-harness -- --list
//! cargo run --release -p shrimp-harness -- --report results/sweep.json
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod gate;
pub mod json;
pub mod perf;
pub mod report;
pub mod runner;
pub mod sweep;

pub use gate::{check, GateOutcome, Regression, RegressionKind, Selection};
pub use runner::{run_sweep, RunResult, RunStatus, RunnerOptions};

#[cfg(test)]
mod determinism_tests {
    use crate::runner::{run_sweep, RunnerOptions};
    use crate::sweep;
    use shrimp_bench::{matrix, Scale};

    #[test]
    fn sweep_rows_are_identical_for_1_and_4_workers() {
        // A cheap slice of the real smoke matrix: every sockets-app row
        // (DFS and Render are the fastest smoke workloads) across all
        // experiment groups they appear in.
        let specs: Vec<_> = matrix(Scale::Smoke, 2)
            .into_iter()
            .filter(|s| s.id().contains("dfs"))
            .collect();
        assert!(specs.len() >= 3, "expected several DFS rows in the matrix");
        let serial = run_sweep(
            &specs,
            &RunnerOptions {
                workers: 1,
                ..RunnerOptions::default()
            },
        );
        let parallel = run_sweep(
            &specs,
            &RunnerOptions {
                workers: 4,
                ..RunnerOptions::default()
            },
        );
        let a = sweep::to_json("smoke", &serial);
        let b = sweep::to_json("smoke", &parallel);
        assert_eq!(a, b, "worker count leaked into the sweep artifact");
    }
}
