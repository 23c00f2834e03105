//! The experiment matrix: every run of the paper's tables and figures,
//! its microbenchmarks and the sensitivity studies beyond it.
//!
//! [`spec::matrix`] enumerates the runs as [`spec::RunSpec`]s; the
//! `shrimp-harness` sweep runner executes them into `sweep.json`, and
//! `shrimp-harness --report` renders the paper's figures and tables from
//! that artifact. The harness's `--smoke`/`--full` and `--nodes` flags
//! choose the scale and the headline cluster size. Host-side timing of the
//! simulator's own layers lives in the separate `perfbench` package.

#![warn(missing_docs)]

pub mod spec;

use shrimp_sim::{time, Time};

pub use spec::{
    matrix, Ablation, ConfigKey, Knobs, KvMetrics, Observation, PerfSample, RunOutput, RunRecord,
    RunSpec, Scale, Shards, Variant,
};

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
    /// The replicated key-value service (`shrimp_apps::kv`): sharded
    /// primary/backup replication groups on the `launch()` path, driven
    /// by a deterministic open-loop Zipf load whose per-request latency
    /// lands in the metrics plane — the `"kv"` experiment group's rows
    /// carry p50/p99/p999 and throughput. Not a Table 1 application, so
    /// it is absent from [`App::all`]; it builds its own sharded cluster
    /// per run.
    KvNodes,
    /// §4.1/§4.2: one-way time of a one-word message, per mechanism
    /// (`shrimp_apps::micro`). Not a Table 1 application.
    MicroLatency,
    /// §4.2: one-way time of a 16 KiB transfer, per mechanism; the
    /// `"micro"` group runs AU with and without combining.
    MicroBulk,
    /// §4.3: CPU overhead of a 64-byte deliberate-update send; the
    /// `"micro"` group runs it as built and with a syscall per send.
    MicroSendOverhead,
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
            App::KvNodes => "KV-replicated",
            App::MicroLatency => "Latency-4B",
            App::MicroBulk => "Bulk-16KiB",
            App::MicroSendOverhead => "Send-64B",
        }
    }

    /// API column of Table 1.
    pub fn api(&self) -> &'static str {
        match self {
            App::BarnesSvm | App::OceanSvm | App::RadixSvm => "SVM",
            App::RadixVmmc => "VMMC",
            App::BarnesNx | App::OceanNx => "NX",
            App::DfsSockets | App::RenderSockets => "Sockets",
            App::ClusterNodes
            | App::KvNodes
            | App::MicroLatency
            | App::MicroBulk
            | App::MicroSendOverhead => "VMMC",
        }
    }

    /// Problem-size column of Table 1 at `scale`.
    pub fn problem_size(&self, scale: Scale) -> String {
        match self {
            App::BarnesSvm => format!("{} bodies", spec::barnes_svm_params_at(scale).bodies),
            App::OceanSvm => format!("{0} x {0}", spec::ocean_svm_params_at(scale).n),
            App::RadixSvm | App::RadixVmmc => {
                let p = spec::radix_params_at(scale, 1);
                format!("{} keys, {} iters", p.total_keys, p.iters)
            }
            App::BarnesNx => {
                let p = spec::barnes_nx_params_at(scale);
                format!("{} bodies, {} iters", p.bodies, p.steps)
            }
            App::OceanNx => format!("{0} x {0}", spec::ocean_nx_params_at(scale).n),
            App::DfsSockets => format!("{} clients", spec::dfs_params_at(scale).clients),
            App::RenderSockets => format!("{0} x {0} image", spec::render_params_at(scale).image),
            App::ClusterNodes => {
                let p = spec::distributed_params_at(scale);
                format!("{} nodes x {} rounds", p.nodes, p.steps)
            }
            App::KvNodes => {
                let p = spec::kv_params_at(scale);
                format!(
                    "{}x{} replicas, {} keys, {} reqs/client",
                    p.groups, p.replication, p.keys, p.requests
                )
            }
            App::MicroLatency => format!("{} B", shrimp_apps::micro::WORD_BYTES),
            App::MicroBulk => format!("{} B", shrimp_apps::micro::BULK_BYTES),
            App::MicroSendOverhead => format!("{} B", shrimp_apps::micro::SEND_BYTES),
        }
    }

    /// Smallest node count this application runs on: 2 for Render, whose
    /// controller and workers need separate nodes, and for the
    /// microbenchmarks, which send from node 0 to node 1; 1 for every other
    /// one. Table 1 reports each application's sequential time at this
    /// count.
    pub fn min_nodes(&self) -> usize {
        match self {
            App::RenderSockets | App::MicroLatency | App::MicroBulk | App::MicroSendOverhead => 2,
            _ => 1,
        }
    }
}

/// Formats a simulated time as seconds with 2 decimals.
pub fn secs(t: Time) -> String {
    format!("{:.2}", time::to_secs(t))
}

/// Formats a fixed-width table under a title line.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = format!("\n=== {title} ===\n");
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::Cluster;

    #[test]
    fn every_app_runs_at_small_scale() {
        // Smoke: each Table 1 app completes on 2 nodes at smoke scale, via
        // the programmatic (environment-free) entry point.
        for app in App::all() {
            let nodes = app.min_nodes().max(2);
            let spec = RunSpec::new("test", app, nodes, Scale::Smoke);
            let cluster = Cluster::builder(nodes).config(spec.design_config()).build();
            let out = spec.run_on(&cluster);
            assert!(out.elapsed > 0, "{} produced no time", app.name());
        }
    }
}
