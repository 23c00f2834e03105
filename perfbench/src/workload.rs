//! The benchmark's workloads: fixed lists of existing [`RunSpec`]s, how
//! one row executes (plain or observed), and the output checks.

use std::collections::BTreeMap;
use std::time::Instant;

use shrimp_apps::Mechanism;
use shrimp_bench::spec::{distributed_params_at, Recovery};
use shrimp_bench::{App, Knobs, RunRecord, RunSpec, Scale, Shards, Variant};
use shrimp_core::{
    chaos_node_program, node_program, Cluster, FaultScenario, HeartbeatConfig, LaunchOutcome,
    NodeCrash,
};
use shrimp_sim::MetricsSnapshot;
use shrimp_svm::Protocol;

/// The workload seed the committed expected records were made with.
pub const DEFAULT_SEED: u64 = 1;

/// Every workload runs at this problem scale.
pub(crate) const SCALE: Scale = Scale::Reduced;

/// Expected records for [`DEFAULT_SEED`], one line per row name.
const EXPECTED: &str = include_str!("../expected.txt");

/// One benchmark workload: a fixed list of rows run serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The classic single-`Sim` paper path on 16 nodes.
    PaperP16,
    /// The `ClusterBuilder::launch` path at one shard.
    LaunchSh1,
    /// The same launch rows at two shard threads.
    LaunchSh2,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::PaperP16, Workload::LaunchSh1, Workload::LaunchSh2];

    /// The name the command line and the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperP16 => "paper-p16",
            Workload::LaunchSh1 => "launch-sh1",
            Workload::LaunchSh2 => "launch-sh2",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host threads the workload's rows run on.
    pub fn threads(self) -> usize {
        match self {
            Workload::PaperP16 | Workload::LaunchSh1 => 1,
            Workload::LaunchSh2 => 2,
        }
    }

    /// The shard count of the launch rows' twin run, which must give the
    /// same records (`None` for the classic path).
    pub(crate) fn twin_shards(self) -> Option<usize> {
        match self {
            Workload::PaperP16 => None,
            Workload::LaunchSh1 => Some(2),
            Workload::LaunchSh2 => Some(1),
        }
    }

    /// The workload's rows, with `seed` given to every spec.
    pub fn rows(self, seed: u64) -> Vec<Row> {
        let rows = match self {
            Workload::PaperP16 => paper_rows(),
            Workload::LaunchSh1 => launch_rows(1),
            Workload::LaunchSh2 => launch_rows(2),
        };
        rows.into_iter()
            .map(|(name, spec)| Row {
                name,
                spec: spec.with_seed(seed),
            })
            .collect()
    }
}

/// One row of a workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stable row name; launch rows share it across shard counts.
    pub name: &'static str,
    /// The spec the row executes.
    pub spec: RunSpec,
}

impl Row {
    /// `true` for rows on the `launch()` path (decoupled transport).
    pub(crate) fn is_launch(&self) -> bool {
        self.spec.app == App::ClusterNodes
    }

    /// The same row pinned to `shards` shard threads.
    pub(crate) fn at_shards(&self, shards: usize) -> Row {
        Row {
            name: self.name,
            spec: self.spec.clone().with_shards(Shards::Fixed(shards)),
        }
    }
}

/// The six Figure 3 best versions plus DFS, all on 16 nodes.
fn paper_rows() -> Vec<(&'static str, RunSpec)> {
    let aurc = Variant::Protocol(Protocol::Aurc);
    let au = Variant::Mechanism(Mechanism::AutomaticUpdate);
    let du = Variant::Mechanism(Mechanism::DeliberateUpdate);
    [
        ("radix-svm-aurc", App::RadixSvm, aurc),
        ("ocean-svm-aurc", App::OceanSvm, aurc),
        ("barnes-svm-aurc", App::BarnesSvm, aurc),
        ("radix-vmmc-au", App::RadixVmmc, au),
        ("ocean-nx-au", App::OceanNx, au),
        ("barnes-nx-du", App::BarnesNx, du),
        ("dfs-sockets", App::DfsSockets, Variant::Default),
    ]
    .into_iter()
    .map(|(name, app, variant)| {
        let spec = RunSpec::new("fig3", app, 16, SCALE).with_variant(variant);
        (name, spec)
    })
    .collect()
}

/// The launch rows: cluster p256, cluster p64 and the chaos-cluster p64
/// permanent crash of node 5, all pinned to `shards`.
fn launch_rows(shards: usize) -> Vec<(&'static str, RunSpec)> {
    let crash5 = Knobs {
        faults: FaultScenario {
            crash: Some(NodeCrash {
                node: 5,
                at_us: 40,
                down_us: 0,
            }),
            ..FaultScenario::none()
        },
        ..Knobs::as_built()
    };
    [
        (
            "cluster-p256",
            RunSpec::new("cluster", App::ClusterNodes, 256, SCALE),
        ),
        (
            "cluster-p64",
            RunSpec::new("cluster", App::ClusterNodes, 64, SCALE),
        ),
        (
            "chaos-p64-crash5",
            RunSpec::new("chaos-cluster", App::ClusterNodes, 64, SCALE).with_knobs(crash5),
        ),
    ]
    .into_iter()
    .map(|(name, spec)| (name, spec.with_shards(Shards::Fixed(shards))))
    .collect()
}

/// What one observed execution of a row exposes.
#[derive(Debug, Clone)]
pub struct Observed {
    /// The row's deterministic record.
    pub record: RunRecord,
    /// Executor events (task polls plus timer fires) across shards.
    pub events: u64,
    /// Shard synchronization windows (0 on the classic path and at one
    /// shard).
    pub windows: u64,
    /// The metrics registry at the end of the run.
    pub metrics: MetricsSnapshot,
}

/// Runs a row with tracing off and returns its record and host time.
pub fn execute(row: &Row) -> (RunRecord, u64) {
    let start = Instant::now();
    let (record, _) = row.spec.execute_timed();
    (record, start.elapsed().as_nanos() as u64)
}

/// Runs a row with the trace sink and the metrics registry on. Classic
/// rows go through `execute_observed`; launch rows rebuild the spec's
/// launch with the planes enabled, since only the `LaunchOutcome`
/// exposes their registry and window count.
pub fn execute_observed(row: &Row) -> Observed {
    if !row.is_launch() {
        let (record, perf, obs) = row.spec.execute_observed();
        return Observed {
            record,
            events: perf.events,
            windows: 0,
            metrics: obs.metrics,
        };
    }
    let spec = &row.spec;
    let cfg = spec.design_config();
    let chaos = spec.knobs.faults.is_active();
    let mut params = distributed_params_at(spec.scale).scaled_to(spec.nodes);
    params.seed = spec.seed;
    let program = if chaos {
        // The hold-open rule of `run_chaos_distributed`.
        let detector = HeartbeatConfig::for_nodes(spec.nodes);
        let run_until = cfg
            .faults
            .crash
            .as_ref()
            .and_then(NodeCrash::restart_at)
            .map_or(0, |t| t + 2 * detector.cycle(spec.nodes));
        chaos_node_program(params, detector, run_until)
    } else {
        node_program(params)
    };
    let out = Cluster::builder(spec.nodes)
        .config(cfg)
        .shards(spec.shards)
        .metrics(true)
        .trace_capacity(Some(1 << 20))
        .launch(program);
    let record = record_of_launch(&out, chaos || spec.knobs.reliability);
    Observed {
        record,
        events: out.events,
        windows: out.windows,
        metrics: out.metrics,
    }
}

/// The [`RunRecord`] `RunSpec::execute` builds from a launch outcome.
fn record_of_launch(out: &LaunchOutcome, recovery: bool) -> RunRecord {
    RunRecord {
        elapsed: out.elapsed,
        checksum: out
            .node_results
            .iter()
            .fold(0u64, |acc, &r| acc.wrapping_add(r)),
        messages: out.messages,
        notifications: out.notifications,
        interrupts: out.interrupts,
        syscalls: out.syscalls,
        net_packets: out.net_packets,
        net_bytes: out.net_bytes,
        recovery: recovery.then_some(Recovery {
            retransmits: out.retransmits,
            corrupt_detected: out.corrupt_detected,
            dup_suppressed: out.dup_suppressed,
            faults_injected: out.faults_injected,
            detection_latency_ps: out.detection_latency_ps,
            recovery_time_ps: out.recovery_time_ps,
        }),
        kv: None,
    }
}

/// One record as its flat `name=value` line.
pub fn record_line(name: &str, record: &RunRecord) -> String {
    let fields: Vec<String> = record
        .fields()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("{name} {}", fields.join(" "))
}

/// The output checks, on records in their [`record_line`] form. At
/// [`DEFAULT_SEED`] every record must equal the committed expected
/// record; at any seed a row's records must repeat exactly: across
/// passes, traced or not, in this process or a child, and across shard
/// counts.
#[derive(Debug)]
pub struct Checker {
    expected: Option<BTreeMap<String, String>>,
    seen: BTreeMap<String, String>,
}

impl Checker {
    /// A checker for `seed`; `use_expected` is off only while the
    /// expected records themselves are written.
    pub fn new(seed: u64, use_expected: bool) -> Checker {
        let expected = (use_expected && seed == DEFAULT_SEED).then(|| {
            EXPECTED
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .filter_map(|l| {
                    l.split_once(' ')
                        .map(|(k, _)| (k.to_string(), l.to_string()))
                })
                .collect()
        });
        Checker {
            expected,
            seen: BTreeMap::new(),
        }
    }

    /// Checks one record line of the row `name`.
    ///
    /// # Errors
    ///
    /// A description of the first check the record fails.
    pub fn check(&mut self, name: &str, line: &str) -> Result<(), String> {
        if let Some(expected) = &self.expected {
            match expected.get(name) {
                Some(want) if want == line => {}
                Some(want) => return Err(format!("record mismatch\n  want {want}\n  got  {line}")),
                None => return Err(format!("{name}: no expected record")),
            }
        }
        match self.seen.get(name) {
            Some(first) if first != line => Err(format!(
                "record changed between executions\n  first {first}\n  now   {line}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(name.to_string(), line.to_string());
                Ok(())
            }
        }
    }
}
