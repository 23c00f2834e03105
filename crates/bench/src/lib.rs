//! Experiment harness shared by the per-table/figure bench targets and the
//! `shrimp-harness` sweep runner.
//!
//! Each bench target (`benches/*.rs`, `harness = false`) regenerates one
//! table or figure of the paper by executing the corresponding
//! [`spec::RunSpec`]s. Problem sizes default to scaled-down instances so
//! `cargo bench` completes quickly; set `SHRIMP_FULL=1` for the paper's
//! sizes (documented in `EXPERIMENTS.md`), and `SHRIMP_NODES=<n>` to
//! override the 16-node default. Both are thin shims over the typed
//! [`HarnessConfig`], which drivers can also build programmatically.

#![warn(missing_docs)]

pub mod spec;

use shrimp_apps::barnes::BarnesParams;
use shrimp_apps::dfs::DfsParams;
use shrimp_apps::ocean::OceanParams;
use shrimp_apps::radix::RadixParams;
use shrimp_apps::render::RenderParams;
use shrimp_apps::RunOutcome;
use shrimp_core::{Cluster, DesignConfig};
use shrimp_sim::{time, Time};
use shrimp_testkit::HarnessConfig;

pub use spec::{
    matrix, Knobs, KvMetrics, Observation, PerfSample, RunRecord, RunSpec, Scale, Shards, Variant,
};

/// The problem scale a harness configuration selects (`Full` under
/// `SHRIMP_FULL=1`, `Reduced` otherwise; [`Scale::Smoke`] is only reachable
/// programmatically).
pub fn scale_of(cfg: &HarnessConfig) -> Scale {
    if cfg.full_scale {
        Scale::Full
    } else {
        Scale::Reduced
    }
}

/// `true` when the process-global configuration asks for the paper's
/// problem sizes (`SHRIMP_FULL=1`).
pub fn full_scale() -> bool {
    HarnessConfig::global().full_scale
}

/// Cluster size for the headline experiments (paper: 16).
pub fn max_nodes() -> usize {
    HarnessConfig::global().nodes
}

/// The scale selected by the process-global configuration.
pub fn global_scale() -> Scale {
    scale_of(HarnessConfig::global())
}

/// Radix problem size at the global scale (paper: 2 M keys, 3 iters).
pub fn radix_params() -> RadixParams {
    spec::radix_params_at(global_scale(), 1)
}

/// Ocean-SVM problem size at the global scale (paper: 514 x 514).
pub fn ocean_svm_params() -> OceanParams {
    spec::ocean_svm_params_at(global_scale())
}

/// Ocean-NX problem size at the global scale (paper: 258 x 258).
pub fn ocean_nx_params() -> OceanParams {
    spec::ocean_nx_params_at(global_scale())
}

/// Barnes-NX problem size at the global scale (paper: 4 K bodies, 20 iters).
pub fn barnes_nx_params() -> BarnesParams {
    spec::barnes_nx_params_at(global_scale())
}

/// Barnes-SVM problem size at the global scale (paper: 16 K bodies).
pub fn barnes_svm_params() -> BarnesParams {
    spec::barnes_svm_params_at(global_scale())
}

/// DFS workload at the global scale.
pub fn dfs_params() -> DfsParams {
    spec::dfs_params_at(global_scale())
}

/// Render workload at the global scale.
pub fn render_params() -> RenderParams {
    spec::render_params_at(global_scale())
}

/// The applications of Table 1, with their default versions: AURC for the
/// SVM applications and deliberate update for the rest (the configurations
/// the paper's tables characterize).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Barnes-Hut on shared virtual memory.
    BarnesSvm,
    /// Grid solver on shared virtual memory.
    OceanSvm,
    /// Radix sort on shared virtual memory.
    RadixSvm,
    /// Radix sort on the native VMMC API.
    RadixVmmc,
    /// Barnes-Hut on NX message passing.
    BarnesNx,
    /// Grid solver on NX message passing.
    OceanNx,
    /// Distributed file system on stream sockets.
    DfsSockets,
    /// Volume renderer on stream sockets.
    RenderSockets,
    /// The distributed-cluster workload: the full SHRIMP stack (VMMC
    /// exports/imports, DMA, notifications) on the shard engine via
    /// `shrimp_core::run_distributed`, used by the `"cluster"` experiment
    /// group and the cluster leg of the `--perf` speedup gate. Not a
    /// Table 1 application, so it is absent from [`App::all`]; it builds
    /// its own sharded cluster per run.
    ClusterNodes,
    /// The warm-start variant of the distributed-cluster workload
    /// (`shrimp_core::warm`): the warmup prefix runs once under the
    /// as-built machine, is checkpointed at the drain barrier, and each
    /// row resumes from the checkpoint under its own knobs. Used by the
    /// `"warm"` experiment group and the harness
    /// `--checkpoint-out`/`--checkpoint-in` flags. Not a Table 1
    /// application, so it is absent from [`App::all`].
    WarmClusterNodes,
    /// The replicated key-value service (`shrimp_apps::kv`): sharded
    /// primary/backup replication groups on the `launch()` path, driven
    /// by a deterministic open-loop Zipf load whose per-request latency
    /// lands in the metrics plane — the `"kv"` experiment group's rows
    /// carry p50/p99/p999 and throughput. Not a Table 1 application, so
    /// it is absent from [`App::all`]; it builds its own sharded cluster
    /// per run.
    KvNodes,
}

impl App {
    /// All eight applications in Table 1 order.
    pub fn all() -> [App; 8] {
        [
            App::BarnesSvm,
            App::OceanSvm,
            App::RadixSvm,
            App::RadixVmmc,
            App::BarnesNx,
            App::OceanNx,
            App::DfsSockets,
            App::RenderSockets,
        ]
    }

    /// Paper row label.
    pub fn name(&self) -> &'static str {
        match self {
            App::BarnesSvm => "Barnes-SVM",
            App::OceanSvm => "Ocean-SVM",
            App::RadixSvm => "Radix-SVM",
            App::RadixVmmc => "Radix-VMMC",
            App::BarnesNx => "Barnes-NX",
            App::OceanNx => "Ocean-NX",
            App::DfsSockets => "DFS-sockets",
            App::RenderSockets => "Render-sockets",
            App::ClusterNodes => "Cluster-distributed",
            App::WarmClusterNodes => "Cluster-warm",
            App::KvNodes => "KV-replicated",
        }
    }

    /// API column of Table 1.
    pub fn api(&self) -> &'static str {
        match self {
            App::BarnesSvm | App::OceanSvm | App::RadixSvm => "SVM",
            App::RadixVmmc => "VMMC",
            App::BarnesNx | App::OceanNx => "NX",
            App::DfsSockets | App::RenderSockets => "Sockets",
            App::ClusterNodes | App::WarmClusterNodes | App::KvNodes => "VMMC",
        }
    }

    /// Problem-size column of Table 1 for the current scale.
    pub fn problem_size(&self) -> String {
        match self {
            App::BarnesSvm => format!("{} bodies", barnes_svm_params().bodies),
            App::OceanSvm => {
                let p = ocean_svm_params();
                format!("{0} x {0}", p.n)
            }
            App::RadixSvm | App::RadixVmmc => {
                let p = radix_params();
                format!("{} keys, {} iters", p.total_keys, p.iters)
            }
            App::BarnesNx => {
                let p = barnes_nx_params();
                format!("{} bodies, {} iters", p.bodies, p.steps)
            }
            App::OceanNx => {
                let p = ocean_nx_params();
                format!("{0} x {0}", p.n)
            }
            App::DfsSockets => format!("{} clients", dfs_params().clients),
            App::RenderSockets => {
                let p = render_params();
                format!("{0} x {0} image", p.image)
            }
            App::ClusterNodes => {
                let p = spec::distributed_params_at(global_scale());
                format!("{} nodes x {} rounds", p.nodes, p.steps)
            }
            App::WarmClusterNodes => {
                let p = spec::warm_params_at(global_scale(), 16, 1);
                format!(
                    "{} nodes x {} rounds ({} warmup)",
                    p.base.nodes, p.base.steps, p.warmup
                )
            }
            App::KvNodes => {
                let p = spec::kv_params_at(global_scale());
                format!(
                    "{}x{} replicas, {} keys, {} reqs/client",
                    p.groups, p.replication, p.keys, p.requests
                )
            }
        }
    }

    /// Runs this application on `nodes` nodes under `cfg`, in its default
    /// version, honouring the process-global [`HarnessConfig`]
    /// (`SHRIMP_TRACE=1` dumps the trace, `SHRIMP_REPORT=1` the machine-wide
    /// utilization report).
    pub fn run(&self, nodes: usize, cfg: DesignConfig) -> RunOutcome {
        self.run_with(nodes, cfg, HarnessConfig::global())
    }

    /// [`App::run`] with an explicit harness configuration — the
    /// programmatic entry the sweep runner's worker threads use (no
    /// process-environment reads).
    ///
    /// # Panics
    ///
    /// Panics for the apps outside [`App::all`], which build their own
    /// sharded clusters (see [`RunSpec::run_on`]).
    pub fn run_with(&self, nodes: usize, cfg: DesignConfig, harness: &HarnessConfig) -> RunOutcome {
        let cluster = Cluster::builder(nodes).config(cfg).build();
        if harness.trace {
            cluster.sim().trace().enable(Some(harness.trace_capacity));
        }
        let spec = RunSpec::new("adhoc", *self, nodes, scale_of(harness));
        let out = spec.run_on(&cluster);
        if harness.trace {
            let events = cluster.sim().trace().take();
            println!(
                "--- {} trace (last {} events, {} dropped) ---\n{}",
                self.name(),
                events.len(),
                cluster.sim().trace().dropped(),
                shrimp_sim::TraceSink::render(&events)
            );
        }
        if harness.report {
            let report = shrimp_core::ClusterReport::capture(&cluster, out.elapsed);
            println!(
                "--- {} on {} nodes ---\n{}",
                self.name(),
                nodes,
                report.render()
            );
        }
        out
    }

    /// Smallest sensible node count for this application (Ocean-NX "does
    /// not run on a uniprocessor"; sockets apps need client + server).
    pub fn min_nodes(&self) -> usize {
        match self {
            App::RenderSockets => 2,
            _ => 1,
        }
    }
}

/// Percentage increase of `new` over `base`.
pub fn pct_increase(base: Time, new: Time) -> f64 {
    assert!(base > 0);
    (new as f64 - base as f64) / base as f64 * 100.0
}

/// Formats a simulated time as seconds with 2 decimals.
pub fn secs(t: Time) -> String {
    format!("{:.2}", time::to_secs(t))
}

/// Prints a fixed-width table with a title line.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Announces the scale of a bench run.
pub fn announce(what: &str) {
    println!(
        "[shrimp-bench] {what} — scale: {} ({} nodes max); SHRIMP_FULL=1 for paper sizes",
        if full_scale() { "PAPER" } else { "reduced" },
        max_nodes()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_runs_at_small_scale() {
        // Smoke: each Table 1 app completes on 2 nodes at smoke scale, via
        // the programmatic (environment-free) entry point.
        let quiet = HarnessConfig::new();
        for app in App::all() {
            let nodes = app.min_nodes().max(2);
            let spec = RunSpec::new("test", app, nodes, Scale::Smoke);
            let cluster = Cluster::builder(nodes).config(spec.design_config()).build();
            let out = spec.run_on(&cluster);
            assert!(out.elapsed > 0, "{} produced no time", app.name());
        }
        let out = App::DfsSockets.run_with(2, DesignConfig::default(), &quiet);
        assert!(out.elapsed > 0);
    }

    #[test]
    fn pct_increase_math() {
        assert_eq!(pct_increase(100, 150), 50.0);
        assert_eq!(pct_increase(200, 200), 0.0);
    }
}
