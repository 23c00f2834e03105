//! Typed experiment run specifications.
//!
//! A [`RunSpec`] names one deterministic DES run of the paper's matrix:
//! an application, a version ([`Variant`]), a node count, the design
//! knobs flipped relative to the machine as built ([`Knobs`]), a problem
//! [`Scale`] and a workload seed. Specs are plain `Send` data — the
//! `shrimp-harness` sweep runner shards them across worker threads —
//! and [`RunSpec::run`] builds the cluster, runs the application and
//! returns the deterministic [`RunRecord`] metrics beside the host-side
//! [`PerfSample`]. The paper's figures
//! and tables are rendered from those rows (`shrimp-harness --report`),
//! never from a second run of the same spec.

use shrimp_apps::barnes::{run_barnes_nx, run_barnes_svm, BarnesParams};
use shrimp_apps::dfs::{run_dfs, DfsParams};
use shrimp_apps::kv::{run_kv, total_acked, total_verify_failures, KvParams};
use shrimp_apps::micro::{run_latency, run_send_overhead, BULK_BYTES, SEND_BYTES, WORD_BYTES};
use shrimp_apps::ocean::{run_ocean_nx, run_ocean_svm, OceanParams};
use shrimp_apps::radix::{run_radix_svm, run_radix_vmmc, RadixParams};
use shrimp_apps::render::{run_render, RenderParams};
use shrimp_apps::{Mechanism, RunOutcome};
use shrimp_core::{
    run_chaos_distributed, run_distributed, Cluster, DesignConfig, DistributedParams,
    HeartbeatConfig, LaunchOutcome, RingBulk,
};
use shrimp_faults::{FaultScenario, FaultStats, FifoStall, LinkFault, NodeCrash, NodePause};
use shrimp_net::MeshConfig;
use shrimp_sim::{time, Category, MetricValue, MetricsSnapshot, Time, TraceEvent};
use shrimp_sockets::SocketConfig;
use shrimp_svm::Protocol;

use crate::App;

// ---------------------------------------------------------------------------
// Scale
// ---------------------------------------------------------------------------

/// Problem scale of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest sizes: every application in seconds, for CI and the
    /// harness determinism/regression gates.
    Smoke,
    /// The default sweep sizes (about half a minute, same shapes as the
    /// paper).
    Reduced,
    /// The paper's problem sizes (`shrimp-harness --full`).
    Full,
}

impl Scale {
    /// Stable lowercase label used in run ids and artifact names.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Reduced => "reduced",
            Scale::Full => "full",
        }
    }

    /// The headline cluster size at this scale (paper: 16).
    pub fn default_nodes(&self) -> usize {
        match self {
            Scale::Smoke => 4,
            _ => 16,
        }
    }
}

/// Radix problem size at a scale (paper: 2 M keys, 3 iters).
pub fn radix_params_at(scale: Scale, seed: u64) -> RadixParams {
    let mut p = match scale {
        Scale::Full => RadixParams::paper(),
        Scale::Reduced => RadixParams {
            total_keys: 128 * 1024,
            iters: 3,
            radix_bits: 10,
            seed: 1,
        },
        Scale::Smoke => RadixParams {
            total_keys: 32 * 1024,
            iters: 2,
            radix_bits: 8,
            seed: 1,
        },
    };
    p.seed = seed;
    p
}

/// Ocean-SVM problem size at a scale (paper: 514 x 514).
pub fn ocean_svm_params_at(scale: Scale) -> OceanParams {
    match scale {
        Scale::Full => OceanParams::paper_svm(),
        Scale::Reduced => OceanParams {
            n: 130,
            sweeps: 24,
            reduce_every: 4,
        },
        Scale::Smoke => OceanParams {
            n: 66,
            sweeps: 8,
            reduce_every: 4,
        },
    }
}

/// Ocean-NX problem size at a scale (paper: 258 x 258).
pub fn ocean_nx_params_at(scale: Scale) -> OceanParams {
    match scale {
        Scale::Full => OceanParams::paper_nx(),
        _ => ocean_svm_params_at(scale),
    }
}

/// Barnes-NX problem size at a scale (paper: 4 K bodies, 20 iters).
pub fn barnes_nx_params_at(scale: Scale) -> BarnesParams {
    match scale {
        Scale::Full => BarnesParams::paper_nx(),
        Scale::Reduced => BarnesParams {
            bodies: 1024,
            steps: 4,
            chunk_bodies: 2,
            ..BarnesParams::paper_nx()
        },
        Scale::Smoke => BarnesParams {
            bodies: 256,
            steps: 2,
            chunk_bodies: 4,
            work_chunk: 8,
            ..BarnesParams::paper_nx()
        },
    }
}

/// Barnes-SVM problem size at a scale (paper: 16 K bodies).
pub fn barnes_svm_params_at(scale: Scale) -> BarnesParams {
    match scale {
        Scale::Full => BarnesParams::paper_svm(),
        Scale::Reduced => BarnesParams {
            bodies: 2048,
            steps: 2,
            ..BarnesParams::paper_svm()
        },
        Scale::Smoke => BarnesParams {
            bodies: 512,
            steps: 1,
            chunk_bodies: 4,
            work_chunk: 16,
            ..BarnesParams::paper_svm()
        },
    }
}

/// DFS workload at a scale.
pub fn dfs_params_at(scale: Scale) -> DfsParams {
    match scale {
        Scale::Full => DfsParams::paper(),
        Scale::Reduced => DfsParams {
            clients: 4,
            files: 4,
            file_blocks: 48,
            block_bytes: 8192,
            cache_blocks: 24,
            reads_per_client: 8,
        },
        Scale::Smoke => DfsParams {
            clients: 2,
            files: 2,
            file_blocks: 16,
            block_bytes: 4096,
            cache_blocks: 8,
            reads_per_client: 4,
        },
    }
}

/// Distributed-cluster workload at a scale: the full SHRIMP stack (VMMC
/// exports/imports, DMA sends, notifications) driven through the shard
/// engine by `shrimp_core::run_distributed`. Per-node work is constant —
/// the workload is *proportional* — so the 64- and 256-node rows scale
/// total work linearly and give the threaded executor real work per shard.
pub fn distributed_params_at(scale: Scale) -> DistributedParams {
    match scale {
        Scale::Smoke => DistributedParams::with_steps(24),
        Scale::Reduced => DistributedParams::with_steps(96),
        Scale::Full => DistributedParams::with_steps(384),
    }
}

/// Replicated KV service at a scale: the 16-node smoke shape (two groups
/// of three replicas, ten clients, 4096-key Zipf keyspace) with the
/// load-phase request count scaled. Latency quantiles want enough samples
/// to have a tail, so the count grows faster than the step counts above.
pub fn kv_params_at(scale: Scale) -> KvParams {
    let requests = match scale {
        Scale::Smoke => 10,
        Scale::Reduced => 40,
        Scale::Full => 160,
    };
    KvParams {
        requests,
        ..KvParams::smoke()
    }
}

/// [`kv_params_at`] on `nodes` nodes with `seed`: extra nodes become
/// clients, and the open-loop gap stretches with each group's client
/// fan-in so the offered load per primary — set just under the ~55 µs
/// per-request service capacity by the 16-node shape (5 clients per
/// group at 400 µs) — stays constant at every node count. Without the
/// stretch a 64-node row would oversubscribe its two primaries several
/// times over: the open-loop tail would grow without bound and the
/// starved primaries would be falsely declared dead by their backups.
pub fn kv_params_for(scale: Scale, nodes: usize, seed: u64) -> KvParams {
    let mut p = kv_params_at(scale).scaled_to(nodes);
    p.seed = seed;
    let fanin = p.clients().div_ceil(p.groups).max(1);
    p.mean_gap = time::us(80) * fanin as Time;
    p
}

/// Render workload at a scale.
pub fn render_params_at(scale: Scale) -> RenderParams {
    match scale {
        Scale::Full => RenderParams::paper(),
        Scale::Reduced => RenderParams {
            image: 64,
            tile: 8,
            steps: 48,
            fail_worker: None,
        },
        Scale::Smoke => RenderParams {
            image: 32,
            tile: 8,
            steps: 12,
            fail_worker: None,
        },
    }
}

// ---------------------------------------------------------------------------
// Variants and knobs
// ---------------------------------------------------------------------------

/// Which version of an application a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The application's default version (AURC for the SVM applications,
    /// deliberate update for the rest — the Table 1 configurations).
    Default,
    /// An explicit SVM protocol (SVM applications only).
    Protocol(Protocol),
    /// An explicit bulk mechanism (VMMC/NX applications only).
    Mechanism(Mechanism),
    /// Sockets forced onto automatic-update bulk transfers (§4.5.1).
    ForcedAu,
}

impl Variant {
    /// Stable lowercase label used in run ids.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::Protocol(Protocol::Hlrc) => "hlrc",
            Variant::Protocol(Protocol::HlrcAu) => "hlrc-au",
            Variant::Protocol(Protocol::Aurc) => "aurc",
            Variant::Mechanism(Mechanism::AutomaticUpdate) => "au",
            Variant::Mechanism(Mechanism::DeliberateUpdate) => "du",
            Variant::ForcedAu => "forced-au",
        }
    }
}

/// Design knobs flipped relative to the machine as built. `None`/`false`
/// everywhere reproduces [`DesignConfig::as_built`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Knobs {
    /// Table 2: a system call before every message send.
    pub syscall_send: bool,
    /// Table 4: an interrupt on every message arrival.
    pub interrupt_per_message: bool,
    /// §4.5.1: automatic-update combining override.
    pub combining: Option<bool>,
    /// §4.5.2: outgoing FIFO capacity override (threshold = half).
    pub fifo_bytes: Option<usize>,
    /// §4.5.3: deliberate-update request queue depth override.
    pub du_queue_depth: Option<usize>,
    /// Chaos sweeps: reliable (acked, retransmitting) deliberate update.
    pub reliability: bool,
    /// Chaos sweeps: the fault scenario injected into the run.
    pub faults: FaultScenario,
    /// Sensitivity studies: one hardware parameter moved off its as-built
    /// value.
    pub ablation: Option<Ablation>,
}

/// A hardware parameter the design fixed, moved for the `ablation`
/// group's sensitivity studies. Each variant writes one field of the
/// design (or of its mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Combining sub-page boundary in bytes (as built: 256).
    CombineSubpage(usize),
    /// EISA-bus DMA bandwidth in MB/s (as built: 30).
    EisaMbps(u64),
    /// Interrupt dispatch cost in µs (as built: 20).
    InterruptCost(u64),
    /// Mesh router hop latency in ns (as built: 40).
    HopLatency(u64),
}

impl Ablation {
    /// The combining study's sub-page sizes, as built included.
    const SUBPAGE_BYTES: [usize; 5] = [64, 128, 256, 1024, 4096];
    /// The I/O-bus study's DMA bandwidths, as built included.
    const EISA_MBPS: [u64; 4] = [15, 30, 60, 120];
    /// The interrupt study's dispatch costs, as built included.
    const INTERRUPT_US: [u64; 4] = [5, 20, 50, 100];
    /// The backplane study's hop latencies, as built included.
    const HOP_NS: [u64; 4] = [40, 200, 1000, 5000];

    fn apply(&self, cfg: &mut DesignConfig, nodes: usize) {
        match *self {
            Ablation::CombineSubpage(bytes) => cfg.nic.combine_subpage = bytes,
            Ablation::EisaMbps(mbps) => cfg.nic.eisa_bytes_per_sec = mbps * 1_000_000,
            Ablation::InterruptCost(us) => cfg.interrupt_cost = time::us(us),
            Ablation::HopLatency(ns) => {
                cfg.mesh = Some(MeshConfig {
                    hop_latency: time::ns(ns),
                    ..MeshConfig::for_nodes(nodes)
                });
            }
        }
    }

    fn label(&self) -> String {
        match self {
            Ablation::CombineSubpage(bytes) => format!("subpage{bytes}"),
            Ablation::EisaMbps(mbps) => format!("eisa{mbps}mbps"),
            Ablation::InterruptCost(us) => format!("intrcost{us}us"),
            Ablation::HopLatency(ns) => format!("hop{ns}ns"),
        }
    }
}

impl Knobs {
    /// The machine as built.
    pub fn as_built() -> Self {
        Knobs::default()
    }

    /// Applies the knobs to the design configuration of a `nodes`-node
    /// cluster.
    pub fn apply(&self, cfg: &mut DesignConfig, nodes: usize) {
        cfg.syscall_send = self.syscall_send;
        cfg.nic.interrupt_per_message = self.interrupt_per_message;
        if let Some(c) = self.combining {
            cfg.nic.combining = c;
        }
        if let Some(bytes) = self.fifo_bytes {
            // The §4.5.2 configuration: threshold at half capacity, 2 us
            // interrupt dispatch (applied for every override, including
            // re-stating the default 32 KB, so FIFO pairs differ only in
            // the capacity).
            cfg.nic.out_fifo_capacity = bytes;
            cfg.nic.out_fifo_threshold = bytes / 2;
            cfg.nic.fifo_interrupt_latency = time::us(2);
        }
        if let Some(depth) = self.du_queue_depth {
            cfg.nic.du_queue_depth = depth;
        }
        cfg.reliability.enabled = self.reliability;
        cfg.faults = self.faults;
        if let Some(ablation) = &self.ablation {
            ablation.apply(cfg, nodes);
        }
    }

    /// Stable label used in run ids ("as-built" when nothing is flipped).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.syscall_send {
            parts.push("syscall".to_string());
        }
        if self.interrupt_per_message {
            parts.push("intr".to_string());
        }
        match self.combining {
            Some(true) => parts.push("comb".to_string()),
            Some(false) => parts.push("nocomb".to_string()),
            None => {}
        }
        if let Some(b) = self.fifo_bytes {
            parts.push(format!("fifo{b}"));
        }
        if let Some(d) = self.du_queue_depth {
            parts.push(format!("duq{d}"));
        }
        if self.reliability {
            parts.push("rel".to_string());
        }
        if self.faults.is_active() {
            parts.push(self.faults.label());
        }
        if let Some(ablation) = &self.ablation {
            parts.push(ablation.label());
        }
        if parts.is_empty() {
            "as-built".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// Shard-count selection for the rows that run on
/// [`ClusterBuilder::launch`](shrimp_core::ClusterBuilder::launch) (the
/// cluster, chaos-cluster and kv groups): `Auto` follows the
/// sweep-wide `--shards` setting, clamped to the row's node count, and
/// `Fixed(k)` pins the row. One shared spelling across the whole
/// workspace — this is `shrimp_sim::shard::Shards`, re-exported through
/// `shrimp_core`. Because every launch workload is shard-count invariant,
/// an `Auto` row's [`RunRecord`] is byte-identical at every setting;
/// `Fixed` rows are the scaling pairs the `--perf` speedup gate compares.
/// Classic single-`Sim` rows ignore the selection entirely.
pub use shrimp_core::Shards;

// ---------------------------------------------------------------------------
// RunSpec
// ---------------------------------------------------------------------------

/// One deterministic DES run of the experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Experiment group this run belongs to (`"fig3"`, `"table2"`, ...).
    pub experiment: &'static str,
    /// The application.
    pub app: App,
    /// Application version.
    pub variant: Variant,
    /// Cluster size.
    pub nodes: usize,
    /// Design knobs flipped for this run.
    pub knobs: Knobs,
    /// Problem scale.
    pub scale: Scale,
    /// Workload seed: the radix keys (both radix apps), the distributed
    /// workload's jitter, peers and payloads (cluster and chaos-cluster
    /// rows) and the kv service's keys and arrivals. Every other
    /// application runs the same workload at any seed.
    pub seed: u64,
    /// Shard-count selection (rows on the `launch()` path only).
    pub shards: Shards,
}

impl RunSpec {
    /// A default-version, as-built run of `app` on `nodes` nodes.
    pub fn new(experiment: &'static str, app: App, nodes: usize, scale: Scale) -> Self {
        RunSpec {
            experiment,
            app,
            variant: Variant::Default,
            nodes,
            knobs: Knobs::as_built(),
            scale,
            seed: 1,
            shards: Shards::Auto,
        }
    }

    /// Builder: application version.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Builder: cluster size.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builder: design knobs.
    pub fn with_knobs(mut self, knobs: Knobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Builder: workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: shard-count selection.
    pub fn with_shards(mut self, shards: Shards) -> Self {
        self.shards = shards;
        self
    }

    /// The unique, deterministic identifier of this run — the key that
    /// joins sweep rows, baselines and logs.
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}/{}-{}/p{}/{}",
            self.experiment,
            self.app.name().to_lowercase(),
            self.variant.label(),
            self.nodes,
            self.knobs.label()
        );
        if self.seed != 1 {
            id.push_str(&format!("/s{}", self.seed));
        }
        if let Shards::Fixed(k) = self.shards {
            id.push_str(&format!("/sh{k}"));
        }
        id
    }

    /// The shard count this run asks for: a [`Shards::Fixed`] pin wins
    /// unchanged — it is part of the row's identity, so `launch` refuses a
    /// chaos pin wider than the machine — otherwise the sweep-wide CLI
    /// setting, clamped to `1..=nodes`.
    pub fn effective_shards(&self, cli_shards: usize) -> usize {
        match self.shards {
            Shards::Auto => cli_shards.clamp(1, self.nodes),
            Shards::Fixed(k) => k.max(1),
        }
    }

    /// The design configuration of this run.
    pub fn design_config(&self) -> DesignConfig {
        let mut cfg = DesignConfig::default();
        self.knobs.apply(&mut cfg, self.nodes);
        cfg
    }

    /// The identity of the simulation this spec runs (see [`ConfigKey`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero-node spec: no mesh holds it.
    pub fn config_key(&self) -> ConfigKey {
        let mut machine = self.design_config();
        machine
            .mesh
            .get_or_insert_with(|| MeshConfig::for_nodes(self.nodes));
        ConfigKey {
            app: self.app,
            variant: self.resolved_variant(),
            nodes: self.nodes,
            scale: self.scale,
            seed: self.seed,
            shards: self.shards,
            machine,
        }
    }

    /// Runs the spec to completion on a fresh cluster and collects the
    /// deterministic metrics.
    pub fn execute(&self) -> RunRecord {
        self.run(1, false).record
    }

    /// [`RunSpec::execute`] plus the run's [`PerfSample`] (see
    /// [`RunOutput::perf`]).
    pub fn execute_timed(&self) -> (RunRecord, PerfSample) {
        let out = self.run(1, false);
        (out.record, out.perf)
    }

    /// [`RunSpec::execute_timed`] with the observability plane switched
    /// on, returning what it captured (see [`RunOutput::obs`]).
    pub fn execute_observed(&self) -> (RunRecord, PerfSample, Observation) {
        let out = self.run(1, true);
        (out.record, out.perf, out.obs.unwrap_or_default())
    }

    /// Runs the row: the one execution path of every spec.
    ///
    /// The application alone picks the machine. Classic rows build one
    /// single-`Sim` cluster and run the application on it; the
    /// [`ClusterBuilder::launch`](shrimp_core::ClusterBuilder::launch) rows
    /// ([`App::ClusterNodes`], with the heartbeat failure detector when the
    /// knobs carry a fault scenario, and [`App::KvNodes`]) launch their
    /// node program on [`RunSpec::effective_shards`]`(shards)` shards.
    /// Their record comes from the shard-count-invariant
    /// [`LaunchOutcome`], so every [`RunRecord`] is byte-identical at any
    /// `shards`; only the [`PerfSample`] sees the parallelism.
    ///
    /// `observe` switches the trace sink and the metrics registry's gauges
    /// and histograms on for the run (see [`RunOutput::obs`]); the record
    /// is the same either way.
    ///
    /// # Panics
    ///
    /// Panics when the application panics.
    pub fn run(&self, shards: usize, observe: bool) -> RunOutput {
        let start = std::time::Instant::now();
        let cfg = self.design_config();
        let recovery = self.knobs.reliability || self.knobs.faults.is_active();
        let launch_shards = Shards::Fixed(self.effective_shards(shards));
        let mut kv = None;
        let out = match self.app {
            App::ClusterNodes => {
                let mut params = distributed_params_at(self.scale).scaled_to(self.nodes);
                params.seed = self.seed;
                if self.knobs.faults.is_active() {
                    let detector = HeartbeatConfig::for_nodes(self.nodes);
                    run_chaos_distributed(&params, cfg, launch_shards, detector)
                } else {
                    run_distributed(&params, cfg, launch_shards)
                }
            }
            App::KvNodes => {
                let params = kv_params_for(self.scale, self.nodes, self.seed);
                let out = run_kv(&params, cfg, launch_shards);
                kv = Some(KvMetrics::capture(&params, &out));
                out
            }
            _ => {
                let mut builder = Cluster::builder(self.nodes).config(cfg).metrics(observe);
                if observe {
                    // Per-packet network events push a smoke row past the
                    // sink's default 64 K bound; a 1 M cap keeps whole smoke
                    // timelines. Bigger scales overflow it and report via
                    // `trace_dropped`.
                    builder = builder.trace_capacity(Some(1 << 20));
                }
                let cluster = builder.build();
                let out = self.run_on(&cluster);
                let metrics = cluster.sim().metrics().snapshot();
                let record = RunRecord::from_counters(
                    &metrics,
                    out.elapsed,
                    out.checksum,
                    recovery,
                    Category::Nic,
                    None,
                );
                let events = cluster.sim().events();
                let obs = observe.then(|| Observation {
                    events: cluster.sim().trace().take(),
                    trace_dropped: cluster.sim().trace().dropped(),
                    metrics,
                });
                return RunOutput {
                    record,
                    perf: PerfSample::since(start, events, 1, 0),
                    obs,
                };
            }
        };
        // An observed launch row yields an empty observation: per-shard
        // trace interleavings are a host-layout detail, and merged gauges
        // keep per-shard maxima, so neither is shard-count invariant.
        RunOutput {
            record: RunRecord::from_launch(&out, recovery, kv),
            perf: PerfSample::since(start, out.events, out.shards, out.windows),
            obs: observe.then(Observation::default),
        }
    }

    /// Runs a classic row's application on `cluster`: the step
    /// [`RunSpec::run`] wraps with cluster construction and metric capture.
    /// The `launch()` apps never reach it.
    pub(crate) fn run_on(&self, cluster: &Cluster) -> RunOutcome {
        let scale = self.scale;
        match self.app {
            App::BarnesSvm => {
                run_barnes_svm(cluster, self.protocol(), &barnes_svm_params_at(scale))
            }
            App::OceanSvm => run_ocean_svm(cluster, self.protocol(), &ocean_svm_params_at(scale)),
            App::RadixSvm => {
                run_radix_svm(cluster, self.protocol(), &radix_params_at(scale, self.seed))
            }
            App::RadixVmmc => run_radix_vmmc(
                cluster,
                &radix_params_at(scale, self.seed),
                self.mechanism(),
            ),
            App::BarnesNx => run_barnes_nx(cluster, &barnes_nx_params_at(scale), self.mechanism()),
            App::OceanNx => run_ocean_nx(cluster, &ocean_nx_params_at(scale), self.mechanism()),
            App::DfsSockets => {
                let mut p = dfs_params_at(scale);
                p.clients = p.clients.min(cluster.num_nodes());
                run_dfs(cluster, &p, self.socket_config())
            }
            App::RenderSockets => {
                run_render(cluster, &render_params_at(scale), self.socket_config())
            }
            App::MicroLatency => run_latency(cluster, WORD_BYTES, self.mechanism()),
            App::MicroBulk => run_latency(cluster, BULK_BYTES, self.mechanism()),
            App::MicroSendOverhead => {
                assert_eq!(self.variant, Variant::Default, "a send has one version");
                run_send_overhead(cluster, SEND_BYTES)
            }
            App::ClusterNodes | App::KvNodes => {
                unreachable!("{} runs on the launch path", self.app.name())
            }
        }
    }

    /// The version this run executes: [`Variant::Default`] resolved to
    /// AURC for the SVM applications and to deliberate update for the
    /// VMMC and NX ones (every other variant is already explicit). It is
    /// the version half of [`RunSpec::config_key`].
    pub fn resolved_variant(&self) -> Variant {
        match (self.variant, self.app) {
            (Variant::Default, App::BarnesSvm | App::OceanSvm | App::RadixSvm) => {
                Variant::Protocol(self.protocol())
            }
            (
                Variant::Default,
                App::RadixVmmc | App::BarnesNx | App::OceanNx | App::MicroLatency | App::MicroBulk,
            ) => Variant::Mechanism(self.mechanism()),
            (variant, _) => variant,
        }
    }

    fn protocol(&self) -> Protocol {
        match self.variant {
            Variant::Protocol(p) => p,
            Variant::Default => Protocol::Aurc,
            v => panic!("variant {v:?} does not apply to {}", self.app.name()),
        }
    }

    fn mechanism(&self) -> Mechanism {
        match self.variant {
            Variant::Mechanism(m) => m,
            Variant::Default => Mechanism::DeliberateUpdate,
            v => panic!("variant {v:?} does not apply to {}", self.app.name()),
        }
    }

    fn socket_config(&self) -> SocketConfig {
        match self.variant {
            Variant::ForcedAu => SocketConfig {
                bulk: RingBulk::Automatic,
                ..SocketConfig::default()
            },
            Variant::Default => SocketConfig::default(),
            v => panic!("variant {v:?} does not apply to {}", self.app.name()),
        }
    }
}

/// The identity of one simulation: every fact of a [`RunSpec`] that its
/// run reads, and nothing else. Two specs with equal keys run the same
/// simulation and yield the same [`RunRecord`], whatever their
/// experiment groups and however their knobs spell the design: a knob
/// that restates the machine as built (combining on, a 256-byte
/// sub-page) is no change, and the default version is its resolved one
/// ([`RunSpec::resolved_variant`]). The sweep runs each key once, and
/// `--report` finds a configuration's row by key.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigKey {
    app: App,
    variant: Variant,
    nodes: usize,
    scale: Scale,
    seed: u64,
    shards: Shards,
    /// The design after the knobs, with the mesh resolved.
    machine: DesignConfig,
}

/// The deterministic metrics of one completed run. Simulated quantities
/// only — wall-clock time is kept out so rows are byte-identical across
/// worker counts and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// Simulated completion time.
    pub elapsed: Time,
    /// Deterministic digest of the application's numerical output.
    pub checksum: u64,
    /// VMMC messages sent (Table 3's totals).
    pub messages: u64,
    /// User-level notifications delivered.
    pub notifications: u64,
    /// Host interrupts taken.
    pub interrupts: u64,
    /// Send syscalls taken (Table 2 runs only).
    pub syscalls: u64,
    /// Backplane packets.
    pub net_packets: u64,
    /// Backplane payload bytes.
    pub net_bytes: u64,
    /// Fault-recovery metrics; present only on runs with reliability or an
    /// active fault scenario, so fault-free rows serialize unchanged.
    pub recovery: Option<Recovery>,
    /// KV-service metrics (tail-latency quantiles, throughput, failover);
    /// present only on [`App::KvNodes`] rows, so every other row
    /// serializes unchanged.
    pub kv: Option<KvMetrics>,
}

/// Host-side performance sample of one run. Carried *beside* the
/// deterministic [`RunRecord`], never inside it: wall-clock depends on the
/// machine, the load and the build, so it must stay out of `sweep.json`
/// and the baselines (`results/perf.json` is its only home).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfSample {
    /// Host wall-clock nanoseconds for the whole run (cluster construction,
    /// simulation and metric capture).
    pub wall_ns: u64,
    /// Simulator events dispatched (task polls + timer fires) — the
    /// deterministic work measure that turns `wall_ns` into events/sec.
    pub events: u64,
    /// Process peak resident set (`VmHWM`) in bytes, sampled when the run
    /// completed. Process-wide and monotone across a sweep, so it bounds —
    /// rather than attributes — per-run memory; `0` where unavailable.
    pub peak_rss_bytes: u64,
    /// Effective shard count the run executed on (1 for every classic
    /// single-`Sim` row). Host-execution metadata, so it lives here and in
    /// `perf.json`, never in the [`RunRecord`].
    pub shards: usize,
    /// Shard synchronization windows the run executed (0 on every classic
    /// row and on the one-shard path). Host-side metadata like `shards`.
    pub windows: u64,
}

impl PerfSample {
    /// The sample of a run that started at `start` and has just finished.
    fn since(start: std::time::Instant, events: u64, shards: usize, windows: u64) -> Self {
        PerfSample {
            wall_ns: start.elapsed().as_nanos() as u64,
            events,
            peak_rss_bytes: peak_rss_bytes(),
            shards,
            windows,
        }
    }
}

/// Everything one [`RunSpec::run`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The deterministic metrics, byte-identical at every shard count and
    /// whether or not the run was observed.
    pub record: RunRecord,
    /// Host wall-clock around cluster construction, run and metric
    /// capture, plus the events and shard windows the run executed. Beside
    /// the record, never inside it, so the deterministic artifact cannot
    /// pick up host timing.
    pub perf: PerfSample,
    /// What the observability plane captured, present exactly when the run
    /// was observed. Empty on `launch()` rows.
    pub obs: Option<Observation>,
}

/// Everything the observability plane captured during one observed run:
/// the drained trace timeline plus a snapshot of every metrics-registry
/// instrument. Deterministic, simulated data only (plain `Send` values),
/// so the harness carries it across run-thread boundaries and serializes
/// it byte-identically on every host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observation {
    /// The run's trace timeline in record order.
    pub events: Vec<TraceEvent>,
    /// Events the sink discarded to its capacity bound (oldest first);
    /// non-zero means [`Observation::events`] is the *tail* of the run.
    pub trace_dropped: u64,
    /// Final values of every counter, gauge and histogram.
    pub metrics: MetricsSnapshot,
}

/// Process peak RSS in bytes from `/proc/self/status` (`VmHWM`); `0` on
/// platforms without procfs.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
                    .map(|kb| kb * 1024)
            })
        })
        .unwrap_or(0)
}

/// Fault-detection and -recovery metrics of one chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Reliable-delivery retransmissions performed by senders.
    pub retransmits: u64,
    /// Packets whose payload failed the checksum at NIC ingress.
    pub corrupt_detected: u64,
    /// Sequenced packets discarded as already-delivered duplicates.
    pub dup_suppressed: u64,
    /// Faults the plane actually injected (drops + corruptions +
    /// duplications + link-reject losses).
    pub faults_injected: u64,
    /// Summed sim time from injection to corruption detection (ps).
    pub detection_latency_ps: u64,
    /// Summed sim time spent recovering retransmitted chunks (ps).
    pub recovery_time_ps: u64,
}

/// Service-level metrics of one replicated-KV run, extracted from the
/// shard-count-invariant merged metrics of the
/// [`LaunchOutcome`] — so, like every other
/// [`RunRecord`] field, byte-identical at every shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvMetrics {
    /// Load-phase requests acknowledged across all clients.
    pub acked: u64,
    /// Acked writes whose verify-phase re-read regressed (0 on a correct
    /// run — an acked write must survive any crash in the scenario).
    pub verify_failures: u64,
    /// Median request latency (ps), scheduled open-loop arrival → ack.
    pub p50_ps: u64,
    /// 99th-percentile request latency (ps).
    pub p99_ps: u64,
    /// 99.9th-percentile request latency (ps).
    pub p999_ps: u64,
    /// Saturation throughput: acked requests per simulated second.
    pub throughput_rps: u64,
    /// Backup promotions observed (0 on fault-free rows).
    pub failovers: u64,
    /// Median failover time (ps): promotion instant minus the failed
    /// primary's last heartbeat. 0 when no failover happened.
    pub failover_p50_ps: u64,
}

impl KvMetrics {
    /// Reads the service metrics out of a finished KV run.
    pub fn capture(params: &KvParams, out: &LaunchOutcome) -> Self {
        let hist = |name: &str| match out.metrics.get(Category::App, name) {
            Some(MetricValue::Histogram(h)) => Some(h.clone()),
            _ => None,
        };
        let req = hist("kv_req_ps");
        let fail = hist("kv_failover_ps");
        let q = |h: &Option<shrimp_sim::HistogramSnapshot>, p: f64| {
            h.as_ref().map_or(0, |h| h.quantile(p))
        };
        let acked = total_acked(params, out);
        KvMetrics {
            acked,
            verify_failures: total_verify_failures(params, out),
            p50_ps: q(&req, 0.50),
            p99_ps: q(&req, 0.99),
            p999_ps: q(&req, 0.999),
            throughput_rps: acked
                .saturating_mul(1_000_000_000_000)
                .checked_div(out.elapsed)
                .unwrap_or(0),
            failovers: fail.as_ref().map_or(0, |h| h.count),
            failover_p50_ps: q(&fail, 0.50),
        }
    }
}

impl RunRecord {
    /// The record of a [`ClusterBuilder::launch`](shrimp_core::ClusterBuilder::launch)
    /// run — the one conversion every `launch()` row uses. The checksum is
    /// the wrapping sum of the node results; `recovery` adds the recovery
    /// block (chaos and reliability rows) and `kv` is the service block of
    /// [`App::KvNodes`] rows.
    ///
    /// Public so a driver that calls `launch()` itself, such as the
    /// isolated host-time benchmark, builds byte-identical records through
    /// this same conversion instead of a copy of it.
    pub fn from_launch(out: &LaunchOutcome, recovery: bool, kv: Option<KvMetrics>) -> Self {
        let checksum = out
            .node_results
            .iter()
            .fold(0u64, |acc, &r| acc.wrapping_add(r));
        RunRecord::from_counters(
            &out.metrics,
            out.elapsed,
            checksum,
            recovery,
            Category::Core,
            kv,
        )
    }

    /// The one conversion from a run's counters to its record, read by name
    /// from the cluster's snapshot (classic path) or the merged shard
    /// snapshots (launch path). `recovery` adds the recovery block (chaos
    /// and reliability rows only, so plain rows predate the fault plane).
    /// `detection` picks the `detection_latency_ps` counter: `Nic`
    /// (corruption detection) on the classic path, `Core` (the failure
    /// detector) on the launch path. Splitting the two meanings changes
    /// the smoke baseline and the benchmark's `Recovery` literal.
    fn from_counters(
        counters: &MetricsSnapshot,
        elapsed: Time,
        checksum: u64,
        recovery: bool,
        detection: Category,
        kv: Option<KvMetrics>,
    ) -> Self {
        let count = |category, name| counters.counter(category, name);
        RunRecord {
            elapsed,
            checksum,
            messages: count(Category::Core, "messages_sent"),
            notifications: count(Category::Core, "notifications"),
            interrupts: count(Category::Core, "interrupts_taken"),
            syscalls: count(Category::Core, "syscalls"),
            net_packets: count(Category::Net, "packets"),
            net_bytes: count(Category::Net, "wire_bytes"),
            recovery: recovery.then(|| Recovery {
                retransmits: count(Category::Core, "retransmits"),
                corrupt_detected: count(Category::Nic, "corrupt_detected"),
                dup_suppressed: count(Category::Nic, "dup_suppressed"),
                faults_injected: FaultStats::injected(counters),
                detection_latency_ps: count(detection, "detection_latency_ps"),
                recovery_time_ps: count(Category::Core, "recovery_time_ps"),
            }),
            kv,
        }
    }

    /// The gated metrics as stable `(name, value)` pairs — the flat row
    /// schema shared by `sweep.json` and the committed baselines.
    /// Recovery and KV metrics are appended only when present.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let mut f = vec![
            ("elapsed_ns", self.elapsed),
            ("checksum", self.checksum),
            ("messages", self.messages),
            ("notifications", self.notifications),
            ("interrupts", self.interrupts),
            ("syscalls", self.syscalls),
            ("net_packets", self.net_packets),
            ("net_bytes", self.net_bytes),
        ];
        if let Some(r) = &self.recovery {
            f.push(("retransmits", r.retransmits));
            f.push(("corrupt_detected", r.corrupt_detected));
            f.push(("dup_suppressed", r.dup_suppressed));
            f.push(("faults_injected", r.faults_injected));
            f.push(("detection_latency_ps", r.detection_latency_ps));
            f.push(("recovery_time_ps", r.recovery_time_ps));
        }
        if let Some(k) = &self.kv {
            f.push(("kv_acked", k.acked));
            f.push(("kv_verify_failures", k.verify_failures));
            f.push(("kv_p50_ps", k.p50_ps));
            f.push(("kv_p99_ps", k.p99_ps));
            f.push(("kv_p999_ps", k.p999_ps));
            f.push(("kv_rps", k.throughput_rps));
            f.push(("kv_failovers", k.failovers));
            f.push(("kv_failover_p50_ps", k.failover_p50_ps));
        }
        f
    }

    /// Looks up a metric by its field name.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields()
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }
}

// ---------------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------------

/// Enumerates the whole EXPERIMENTS.md matrix at a scale: every table and
/// figure of the paper as independent [`RunSpec`]s, capped at `max_nodes`.
pub fn matrix(scale: Scale, max_nodes: usize) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    let n = max_nodes;
    let du = Variant::Mechanism(Mechanism::DeliberateUpdate);
    let au = Variant::Mechanism(Mechanism::AutomaticUpdate);

    // Figure 3: speedup curves, best version per application. p=1 rows
    // are each version's own sequential run.
    let counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&c| c <= n)
        .collect();
    let fig3: [(App, Variant); 6] = [
        (App::OceanNx, au),
        (App::RadixVmmc, au),
        (App::BarnesNx, du),
        (App::RadixSvm, Variant::Protocol(Protocol::Aurc)),
        (App::OceanSvm, Variant::Protocol(Protocol::Aurc)),
        (App::BarnesSvm, Variant::Protocol(Protocol::Aurc)),
    ];
    for (app, variant) in fig3 {
        for &c in &counts {
            specs.push(RunSpec::new("fig3", app, c, scale).with_variant(variant));
        }
    }

    // Figure 4 (left): HLRC vs HLRC-AU vs AURC for the SVM applications.
    for app in [App::BarnesSvm, App::OceanSvm, App::RadixSvm] {
        for proto in [Protocol::Hlrc, Protocol::HlrcAu, Protocol::Aurc] {
            specs.push(
                RunSpec::new("fig4-svm-au", app, n, scale).with_variant(Variant::Protocol(proto)),
            );
        }
    }

    // Figure 4 (right): DU vs AU as the bulk mechanism.
    for app in [App::RadixVmmc, App::OceanNx, App::BarnesNx] {
        for m in [du, au] {
            specs.push(RunSpec::new("fig4-du-au", app, n, scale).with_variant(m));
        }
    }

    // Tables 1 and 3: the default versions as built — message and
    // notification counts at the headline size, and each application's
    // sequential time at its smallest node count.
    for app in App::all() {
        specs.push(RunSpec::new("table1", app, n.max(app.min_nodes()), scale));
    }
    for app in App::all() {
        if app.min_nodes() != n.max(app.min_nodes()) {
            specs.push(RunSpec::new("table1", app, app.min_nodes(), scale));
        }
    }

    // Table 2: a system call before every send (paper: all except DFS).
    for app in [
        App::BarnesSvm,
        App::OceanSvm,
        App::RadixSvm,
        App::RadixVmmc,
        App::BarnesNx,
        App::OceanNx,
        App::RenderSockets,
    ] {
        specs.push(
            RunSpec::new("table2", app, n.max(app.min_nodes()), scale).with_knobs(Knobs {
                syscall_send: true,
                ..Knobs::as_built()
            }),
        );
    }

    // Table 4: an interrupt per arrival (paper: Barnes-NX on 8 nodes).
    for app in App::all() {
        let c = if app == App::BarnesNx {
            n.min(8)
        } else {
            n.max(app.min_nodes())
        };
        specs.push(RunSpec::new("table4", app, c, scale).with_knobs(Knobs {
            interrupt_per_message: true,
            ..Knobs::as_built()
        }));
    }

    // §4.5.1 combining: on/off for sparse-AU and bulk-AU workloads.
    for (app, variant) in [
        (App::RadixVmmc, au),
        (App::RadixSvm, Variant::Protocol(Protocol::Aurc)),
        (App::DfsSockets, Variant::ForcedAu),
    ] {
        for on in [true, false] {
            specs.push(
                RunSpec::new("combining", app, n, scale)
                    .with_variant(variant)
                    .with_knobs(Knobs {
                        combining: Some(on),
                        ..Knobs::as_built()
                    }),
            );
        }
    }

    // §4.5.2 FIFO capacity: 32 KB vs 1 KB.
    for (app, variant) in [
        (App::RadixVmmc, au),
        (App::RadixSvm, Variant::Protocol(Protocol::Aurc)),
        (App::OceanSvm, Variant::Protocol(Protocol::Aurc)),
        (App::DfsSockets, Variant::ForcedAu),
    ] {
        for bytes in [32 * 1024, 1024] {
            specs.push(
                RunSpec::new("fifo", app, n, scale)
                    .with_variant(variant)
                    .with_knobs(Knobs {
                        fifo_bytes: Some(bytes),
                        ..Knobs::as_built()
                    }),
            );
        }
    }

    // §4.5.3 DU queue depth: 1 vs 2 for the HLRC SVM applications.
    for app in [App::BarnesSvm, App::OceanSvm, App::RadixSvm] {
        for depth in [1usize, 2] {
            specs.push(
                RunSpec::new("du-queue", app, n, scale)
                    .with_variant(Variant::Protocol(Protocol::Hlrc))
                    .with_knobs(Knobs {
                        du_queue_depth: Some(depth),
                        ..Knobs::as_built()
                    }),
            );
        }
    }

    // Chaos: the fault-injection/recovery study. Deliberate-update Radix
    // under the reliability knob, one scenario per row; the control row
    // (reliability, no faults) isolates the overhead of sequencing alone.
    let mut chaos = vec![
        FaultScenario::none(),
        FaultScenario {
            seed: 11,
            drop_pct: 5,
            ..FaultScenario::none()
        },
        FaultScenario {
            seed: 12,
            corrupt_pct: 5,
            ..FaultScenario::none()
        },
        FaultScenario {
            seed: 13,
            duplicate_pct: 5,
            ..FaultScenario::none()
        },
        // Transient link outage spanning the communication phase: senders
        // detour around the dead window (or lose packets and recover by
        // backoff retransmission on meshes with no alternative path).
        FaultScenario {
            link: Some(LinkFault {
                from: 0,
                to: 1,
                at_us: 500,
                down_us: 30_000,
            }),
            ..FaultScenario::none()
        },
        FaultScenario {
            interrupt_delay_us: 50,
            ..FaultScenario::none()
        },
        FaultScenario {
            pause: Some(NodePause {
                node: 1,
                at_us: 1000,
                dur_us: 500,
            }),
            ..FaultScenario::none()
        },
    ];
    if n >= 4 {
        // Permanent link failure: every delivery takes the route around it
        // for the whole run. Needs a mesh with an alternative path.
        chaos.push(FaultScenario {
            link: Some(LinkFault {
                from: 0,
                to: 1,
                at_us: 0,
                down_us: 0,
            }),
            ..FaultScenario::none()
        });
    }
    for scenario in chaos {
        specs.push(
            RunSpec::new("chaos", App::RadixVmmc, n, scale)
                .with_variant(du)
                .with_knobs(Knobs {
                    reliability: true,
                    faults: scenario,
                    ..Knobs::as_built()
                }),
        );
    }
    // Automatic update has no retransmission path, so its chaos row is the
    // one non-lossy fault: a stalled outgoing-FIFO drain engine.
    specs.push(
        RunSpec::new("chaos", App::RadixVmmc, n, scale)
            .with_variant(au)
            .with_knobs(Knobs {
                faults: FaultScenario {
                    fifo_stall: Some(FifoStall {
                        node: 0,
                        at_us: 500,
                        dur_us: 300,
                    }),
                    ..FaultScenario::none()
                },
                ..Knobs::as_built()
            }),
    );

    // Distributed cluster: the full SHRIMP stack (VMMC/NIC/notifications)
    // on the shard engine, independent of `max_nodes` (the workload is
    // proportional, so row cost is bounded by the scale's step count).
    // The 16-node Auto row follows the sweep-wide `--shards` flag and must
    // stay byte-identical at every setting; the pinned 64-node pair is
    // the scaling pair of the `--perf` speedup gate; the two 64-node Auto
    // knob rows take a system call per send and an interrupt per message
    // on the `launch()` path; the 256-node row exercises the machine at
    // Paragon scale (too heavy for the smoke gate).
    specs.push(RunSpec::new("cluster", App::ClusterNodes, 16, scale));
    for sh in [1usize, 4] {
        specs.push(
            RunSpec::new("cluster", App::ClusterNodes, 64, scale).with_shards(Shards::Fixed(sh)),
        );
    }
    for knobs in [
        Knobs {
            syscall_send: true,
            ..Knobs::as_built()
        },
        Knobs {
            interrupt_per_message: true,
            ..Knobs::as_built()
        },
    ] {
        specs.push(RunSpec::new("cluster", App::ClusterNodes, 64, scale).with_knobs(knobs));
    }
    if scale != Scale::Smoke {
        specs.push(RunSpec::new("cluster", App::ClusterNodes, 256, scale));
    }

    // Sharded chaos: fault scenarios on the `launch()` path, where the
    // fault plane draws from per-entity RNG streams (shard-count
    // invariant) and the workload carries the heartbeat failure detector.
    // The 16-node packet-fate row is the oracle row (its single-shard run
    // is windowless); the 64-node pair exercises a permanent crash and a
    // crash-with-restart — detection latency and recovery time land in
    // the recovery metrics; the 256-node permanent-link-failure row runs
    // the detour path at Paragon scale (too heavy for the smoke gate).
    specs.push(
        RunSpec::new("chaos-cluster", App::ClusterNodes, 16, scale).with_knobs(Knobs {
            reliability: true,
            faults: FaultScenario {
                seed: 21,
                drop_pct: 3,
                corrupt_pct: 2,
                duplicate_pct: 3,
                ..FaultScenario::none()
            },
            ..Knobs::as_built()
        }),
    );
    for crash in [
        // Permanent: the node never returns; survivors must detect it and
        // complete without it.
        NodeCrash {
            node: 5,
            at_us: 40,
            down_us: 0,
        },
        // Restarting: down for 560 us, then a deterministic reboot the
        // survivors witness (finite recovery time).
        NodeCrash {
            node: 5,
            at_us: 40,
            down_us: 560,
        },
    ] {
        specs.push(
            RunSpec::new("chaos-cluster", App::ClusterNodes, 64, scale).with_knobs(Knobs {
                faults: FaultScenario {
                    crash: Some(crash),
                    ..FaultScenario::none()
                },
                ..Knobs::as_built()
            }),
        );
    }
    if scale != Scale::Smoke {
        specs.push(
            RunSpec::new("chaos-cluster", App::ClusterNodes, 256, scale).with_knobs(Knobs {
                reliability: true,
                faults: FaultScenario {
                    link: Some(LinkFault {
                        from: 0,
                        to: 1,
                        at_us: 0,
                        down_us: 0,
                    }),
                    ..FaultScenario::none()
                },
                ..Knobs::as_built()
            }),
        );
    }

    // Replicated KV service: two groups of three replicas on the
    // `launch()` path under a deterministic open-loop Zipf load, with
    // p50/p99/p999 request latency and throughput in the row's KV
    // metrics block. The 16-node Auto row follows the sweep-wide
    // `--shards` flag and must stay byte-identical at every setting; the
    // chaos row crashes group 0's initial primary mid-load (permanently —
    // reliability stays off, matching the service's unreliable-transport
    // failover design) and reports the measured failover time; the
    // pinned 64-node pair scales the client fan-in at constant offered
    // load per primary (too heavy for the smoke gate).
    specs.push(RunSpec::new("kv", App::KvNodes, 16, scale));
    specs.push(
        RunSpec::new("kv", App::KvNodes, 16, scale).with_knobs(Knobs {
            faults: FaultScenario {
                crash: Some(NodeCrash {
                    node: 0,
                    at_us: 400,
                    down_us: 0,
                }),
                ..FaultScenario::none()
            },
            ..Knobs::as_built()
        }),
    );
    if scale != Scale::Smoke {
        for sh in [1usize, 4] {
            specs.push(RunSpec::new("kv", App::KvNodes, 64, scale).with_shards(Shards::Fixed(sh)));
        }
    }

    // §4.1–4.3 microbenchmarks on two nodes, the same rows at every scale:
    // one-word latency and 16 KiB transfer time per mechanism (AU bulk
    // also without combining), and the overhead of a user-level DMA send
    // against a syscall send.
    let micro = |app| RunSpec::new("micro", app, 2, scale);
    for app in [App::MicroLatency, App::MicroBulk] {
        for m in [du, au] {
            specs.push(micro(app).with_variant(m));
        }
    }
    specs.push(micro(App::MicroBulk).with_variant(au).with_knobs(Knobs {
        combining: Some(false),
        ..Knobs::as_built()
    }));
    for syscall_send in [false, true] {
        specs.push(micro(App::MicroSendOverhead).with_knobs(Knobs {
            syscall_send,
            ..Knobs::as_built()
        }));
    }

    // Sensitivity studies beyond the paper. A point that restates the
    // machine as built is no row of its own: the report reads it from the
    // row the matrix already runs under that configuration.
    for spec in ablation_points(scale, n) {
        let twin = spec.clone().with_knobs(Knobs {
            ablation: None,
            ..spec.knobs
        });
        if spec.config_key() != twin.config_key() {
            specs.push(spec);
        }
    }

    specs
}

/// Every point of the four sensitivity studies on `n` nodes, as-built
/// points included, in study order: the combining sub-page on DFS forced
/// onto AU; the I/O-bus DMA bandwidth under Radix-VMMC DU and AU; the
/// interrupt cost under an interrupt per arrival (Radix-VMMC DU); and the
/// router hop latency (Radix-VMMC DU).
pub fn ablation_points(scale: Scale, n: usize) -> Vec<RunSpec> {
    let du = Variant::Mechanism(Mechanism::DeliberateUpdate);
    let au = Variant::Mechanism(Mechanism::AutomaticUpdate);
    let point = |app, variant, ablation, interrupt_per_message| {
        RunSpec::new("ablation", app, n, scale)
            .with_variant(variant)
            .with_knobs(Knobs {
                interrupt_per_message,
                ablation: Some(ablation),
                ..Knobs::as_built()
            })
    };
    let mut specs = Vec::new();
    for bytes in Ablation::SUBPAGE_BYTES {
        let ablation = Ablation::CombineSubpage(bytes);
        specs.push(point(App::DfsSockets, Variant::ForcedAu, ablation, false));
    }
    for mbps in Ablation::EISA_MBPS {
        for m in [du, au] {
            specs.push(point(App::RadixVmmc, m, Ablation::EisaMbps(mbps), false));
        }
    }
    for us in Ablation::INTERRUPT_US {
        specs.push(point(App::RadixVmmc, du, Ablation::InterruptCost(us), true));
    }
    for ns in Ablation::HOP_NS {
        specs.push(point(App::RadixVmmc, du, Ablation::HopLatency(ns), false));
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_stable() {
        let specs = matrix(Scale::Smoke, 4);
        let mut ids: Vec<String> = specs.iter().map(|s| s.id()).collect();
        let count = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), count, "duplicate run ids in the matrix");
        // A spot check against the documented id scheme.
        let spec = RunSpec::new("table2", App::RadixVmmc, 4, Scale::Smoke).with_knobs(Knobs {
            syscall_send: true,
            ..Knobs::as_built()
        });
        assert_eq!(spec.id(), "table2/radix-vmmc-default/p4/syscall");
        let cluster = RunSpec::new("cluster", App::ClusterNodes, 64, Scale::Smoke)
            .with_shards(Shards::Fixed(4));
        assert_eq!(
            cluster.id(),
            "cluster/cluster-distributed-default/p64/as-built/sh4"
        );
    }

    #[test]
    fn matrix_covers_every_experiment_group() {
        let specs = matrix(Scale::Smoke, 4);
        for exp in [
            "fig3",
            "fig4-svm-au",
            "fig4-du-au",
            "table1",
            "table2",
            "table4",
            "combining",
            "fifo",
            "du-queue",
            "chaos",
            "cluster",
            "chaos-cluster",
            "kv",
            "micro",
            "ablation",
        ] {
            assert!(
                specs.iter().any(|s| s.experiment == exp),
                "matrix missing {exp}"
            );
        }
        // Smoke at 4 nodes keeps fig3 to p in {1, 2, 4}.
        assert!(specs
            .iter()
            .filter(|s| s.experiment == "fig3")
            .all(|s| s.nodes <= 4));
        // The shapes the smoke baseline's byte identity relies on to cover
        // every fault scenario, the sharded oracle sizes and failover.
        let group =
            |exp: &str| -> Vec<&RunSpec> { specs.iter().filter(|s| s.experiment == exp).collect() };
        assert_eq!(group("chaos").len(), 9, "smoke chaos group changed size");
        let chaos_cluster = group("chaos-cluster");
        assert_eq!(
            chaos_cluster.len(),
            3,
            "smoke chaos-cluster group changed size"
        );
        assert!(
            chaos_cluster
                .iter()
                .any(|s| s.nodes == 64 && s.knobs.faults.crash.is_some()),
            "chaos-cluster group lost its 64-node crash row"
        );
        let kv = group("kv");
        assert_eq!(kv.len(), 2, "smoke kv group changed size");
        assert!(
            kv.iter().any(|s| s.knobs.faults.crash.is_some()),
            "kv group lost its failover row"
        );
        let cluster = group("cluster");
        for nodes in [16, 64] {
            assert!(
                cluster.iter().any(|s| s.nodes == nodes),
                "cluster group lost its p{nodes} row"
            );
        }
        assert_eq!(cluster.len(), 5, "smoke cluster group changed size");
        assert_eq!(group("micro").len(), 7, "micro group changed size");
        // Every study point but the five as-built ones (the EISA study's
        // twice, DU and AU) is a row, and none repeats a configuration the
        // matrix already runs.
        let ablation = group("ablation");
        assert_eq!(ablation.len(), ablation_points(Scale::Smoke, 4).len() - 5);
        for row in &ablation {
            let repeats: Vec<String> = specs
                .iter()
                .filter(|s| s.id() != row.id() && s.config_key() == row.config_key())
                .map(RunSpec::id)
                .collect();
            assert!(repeats.is_empty(), "{} repeats {repeats:?}", row.id());
        }
    }

    /// A shared [`ConfigKey`] claims one simulation: the sweep writes a
    /// twin's row from its first occurrence's run, so each twin run on its
    /// own must give that run's record. The count pins which rows are
    /// twins (`table1/*-default`, `fig4-*`, `combining/…/comb`,
    /// `du-queue/…/duq1`).
    #[test]
    fn rows_sharing_a_config_key_share_a_record() {
        let specs = matrix(Scale::Smoke, 4);
        let keys: Vec<ConfigKey> = specs.iter().map(RunSpec::config_key).collect();
        let mut twins = 0;
        for (i, twin) in specs.iter().enumerate() {
            let Some(first) = keys[..i].iter().position(|k| *k == keys[i]) else {
                continue;
            };
            twins += 1;
            assert_eq!(
                twin.execute(),
                specs[first].execute(),
                "{} differs from {}",
                twin.id(),
                specs[first].id()
            );
        }
        assert_eq!(twins, 21, "the smoke matrix's twin count changed");
    }

    /// The seven `micro` rows' times, pinned to the picosecond values the
    /// bench target they replace measured, so that regenerating a baseline
    /// cannot bless a changed measurement.
    #[test]
    fn micro_rows_reproduce_the_retired_bench_target() {
        let expected = [
            ("micro/latency-4b-du/p2/as-built", 6_306_668),
            ("micro/latency-4b-au/p2/as-built", 2_720_001),
            ("micro/bulk-16kib-du/p2/as-built", 790_126_670),
            ("micro/bulk-16kib-au/p2/as-built", 907_613_335),
            ("micro/bulk-16kib-au/p2/nocomb", 3_090_329_398),
            ("micro/send-64b-default/p2/as-built", 800_000),
            ("micro/send-64b-default/p2/syscall", 25_800_000),
        ];
        let rows = matrix(Scale::Smoke, 4);
        let measured: Vec<(String, Time)> = rows
            .iter()
            .filter(|s| s.experiment == "micro")
            .map(|s| (s.id(), s.execute().elapsed))
            .collect();
        assert_eq!(measured, expected.map(|(id, ps)| (id.to_string(), ps)));
    }

    #[test]
    fn chaos_rows_recover_and_keep_the_answer() {
        let base = RunSpec::new("test", App::RadixVmmc, 2, Scale::Smoke).execute();
        assert!(
            base.recovery.is_none(),
            "fault-free run grew recovery metrics"
        );
        assert!(base.fields().iter().all(|(k, _)| *k != "retransmits"));
        let chaos = RunSpec::new("test", App::RadixVmmc, 2, Scale::Smoke).with_knobs(Knobs {
            reliability: true,
            faults: FaultScenario {
                seed: 11,
                drop_pct: 5,
                ..FaultScenario::none()
            },
            ..Knobs::as_built()
        });
        assert_eq!(chaos.id(), "test/radix-vmmc-default/p2/rel+drop5");
        let r = chaos.execute();
        let rec = r.recovery.expect("chaos run lacks recovery metrics");
        assert!(rec.faults_injected > 0, "5% drop injected nothing");
        assert!(
            rec.retransmits > 0,
            "drops recovered without retransmission"
        );
        assert_eq!(r.checksum, base.checksum, "faults changed the answer");
    }

    #[test]
    fn execute_is_deterministic_and_knobs_bite() {
        let spec = RunSpec::new("test", App::RadixVmmc, 2, Scale::Smoke);
        let a = spec.execute();
        let b = spec.execute();
        assert_eq!(a, b, "same spec, different metrics");
        let sys = RunSpec::new("test", App::RadixVmmc, 2, Scale::Smoke).with_knobs(Knobs {
            syscall_send: true,
            ..Knobs::as_built()
        });
        let s = sys.execute();
        assert_eq!(s.checksum, a.checksum, "knob changed the answer");
        assert!(s.syscalls > 0 && a.syscalls == 0);
        assert!(s.elapsed > a.elapsed, "syscalls cost nothing");
    }

    /// Runs `spec` unobserved under a sweep-wide shard count of `shards`.
    fn timed(spec: &RunSpec, shards: usize) -> (RunRecord, PerfSample) {
        let out = spec.run(shards, false);
        (out.record, out.perf)
    }

    fn smoke_row(id: &str) -> RunSpec {
        matrix(Scale::Smoke, 4)
            .into_iter()
            .find(|s| s.id() == id)
            .unwrap_or_else(|| panic!("matrix lost {id}"))
    }

    #[test]
    fn cluster_record_is_shard_count_invariant() {
        // The 16-node Auto row: the CLI shard count reaches the perf
        // sample but never the record.
        let auto = RunSpec::new("cluster", App::ClusterNodes, 16, Scale::Smoke);
        let (one, perf1) = timed(&auto, 1);
        let (four, perf4) = timed(&auto, 4);
        assert_eq!(one, four, "CLI shard count leaked into the record");
        assert_eq!((perf1.shards, perf4.shards), (1, 4));
        assert!(one.messages > 0 && one.notifications > 0 && one.interrupts > 0);
        // A Fixed pin beats the CLI and is visible only in the id.
        let pinned = auto.clone().with_shards(Shards::Fixed(2));
        assert_eq!(pinned.effective_shards(4), 2);
        assert_eq!(auto.effective_shards(4), 4);
        let (two, perf2) = timed(&pinned, 4);
        assert_eq!(one, two);
        assert_eq!(perf2.shards, 2);

        // One row per family, observed or not, at one shard or two: the
        // record never changes, and the perf sample reports the shards the
        // row ran on (classic rows run on one `Sim` whatever is asked).
        let rows = [
            "fig3/radix-svm-aurc/p2/as-built",
            "cluster/cluster-distributed-default/p16/as-built",
            "chaos-cluster/cluster-distributed-default/p64/crash5",
            "kv/kv-replicated-default/p16/as-built",
            "cluster/cluster-distributed-default/p64/syscall",
        ];
        for spec in rows.map(smoke_row) {
            let launch = spec.app != App::RadixSvm;
            let base = spec.run(1, false);
            for shards in [1, 2] {
                for observe in [false, true] {
                    let out = spec.run(shards, observe);
                    let what = format!("{} at {shards} shards, observe {observe}", spec.id());
                    assert_eq!(out.record, base.record, "{what}: record changed");
                    assert_eq!(out.perf.shards, if launch { shards } else { 1 }, "{what}");
                    assert_eq!(out.obs.is_some(), observe, "{what}: observation");
                    if launch {
                        // Observed launch runs yield an empty observation,
                        // deterministically.
                        assert_eq!(out.obs.unwrap_or_default(), Observation::default());
                    } else if observe {
                        assert!(!out.obs.unwrap().events.is_empty(), "{what}: no trace");
                    }
                }
            }
        }
    }

    /// The seed reaches the record of exactly the apps its doc names: one
    /// smoke row per application, at seeds 1 and 2.
    #[test]
    fn seed_moves_exactly_the_seeded_apps() {
        let specs = matrix(Scale::Smoke, 4);
        let mut seen: Vec<App> = Vec::new();
        for spec in &specs {
            if seen.contains(&spec.app) {
                continue;
            }
            seen.push(spec.app);
            let seeded = matches!(
                spec.app,
                App::RadixSvm | App::RadixVmmc | App::ClusterNodes | App::KvNodes
            );
            let one = spec.execute();
            let two = spec.clone().with_seed(2).execute();
            assert_eq!(one != two, seeded, "{}: seed 2 vs seed 1", spec.id());
        }
        assert_eq!(seen.len(), 13, "the smoke matrix's applications changed");
    }

    /// The 64-node knob rows carry the two costs onto the `launch()` path:
    /// a system call per send on one, an interrupt per message on the
    /// other, and the as-built row's answer on both.
    #[test]
    fn cluster_knob_rows_trap_or_interrupt_every_message() {
        let built = smoke_row("cluster/cluster-distributed-default/p64/as-built/sh1").execute();
        let syscall = smoke_row("cluster/cluster-distributed-default/p64/syscall").execute();
        assert!(syscall.messages > 0);
        assert_eq!(
            syscall.syscalls, syscall.messages,
            "a send skipped its trap"
        );
        assert_eq!(
            syscall.checksum, built.checksum,
            "syscalls changed the answer"
        );
        let intr = smoke_row("cluster/cluster-distributed-default/p64/intr").execute();
        assert!(intr.messages > 0);
        assert_eq!(
            intr.interrupts, intr.messages,
            "a message raised no interrupt"
        );
        assert_eq!(
            intr.checksum, built.checksum,
            "interrupts changed the answer"
        );
    }

    /// An unpinned chaos row follows `--shards` only up to its node count:
    /// a wider setting clamps instead of tripping the refusal meant for
    /// pinned rows, while a pin wider than the machine is still refused.
    #[test]
    fn unpinned_chaos_row_clamps_wide_cli_shards() {
        let spec =
            smoke_row("chaos-cluster/cluster-distributed-default/p16/rel+drop3+corrupt2+dup3");
        let (one, _) = timed(&spec, 1);
        let (wide, perf) = timed(&spec, 17);
        assert_eq!(one, wide, "--shards 17 leaked into the chaos record");
        assert_eq!(perf.shards, 16);
        let err = Cluster::builder(spec.nodes)
            .config(spec.design_config())
            .shards(Shards::Fixed(17))
            .try_launch(shrimp_core::node_program(
                distributed_params_at(Scale::Smoke).scaled_to(spec.nodes),
            ))
            .unwrap_err();
        assert!(matches!(
            err,
            shrimp_core::ShrimpError::ShardOverflow {
                shards: 17,
                nodes: 16
            }
        ));
    }

    #[test]
    fn kv_record_is_shard_count_invariant_and_carries_tail_quantiles() {
        // The 16-node Auto row follows the CLI shard count; the record —
        // KV metrics block included, since the latency histogram merges
        // commutatively across shards — must not.
        let auto = RunSpec::new("kv", App::KvNodes, 16, Scale::Smoke);
        let (one, perf1) = timed(&auto, 1);
        let (two, _) = timed(&auto, 2);
        let (four, perf4) = timed(&auto, 4);
        assert_eq!(one, two, "--shards 2 leaked into the kv record");
        assert_eq!(one, four, "--shards 4 leaked into the kv record");
        assert_eq!((perf1.shards, perf4.shards), (1, 4));
        let kv = one.kv.expect("kv row lacks its KV metrics block");
        let p = kv_params_for(Scale::Smoke, 16, 1);
        assert_eq!(kv.acked, p.clients() as u64 * p.requests as u64);
        assert_eq!(kv.verify_failures, 0);
        assert!(kv.p50_ps > 0, "no median latency measured");
        assert!(kv.p50_ps <= kv.p99_ps && kv.p99_ps <= kv.p999_ps);
        assert!(kv.throughput_rps > 0);
        assert_eq!(kv.failovers, 0, "fault-free run observed a promotion");
        // The quantiles ride the flat row schema; fault-free kv rows
        // carry no recovery block.
        assert_eq!(one.field("kv_p999_ps"), Some(kv.p999_ps));
        assert_eq!(one.field("kv_rps"), Some(kv.throughput_rps));
        assert!(one.recovery.is_none());
    }

    #[test]
    fn kv_chaos_row_reports_failover_and_loses_no_acked_write() {
        let specs = matrix(Scale::Smoke, 4);
        let spec = specs
            .iter()
            .find(|s| s.experiment == "kv" && s.knobs.faults.crash.is_some())
            .expect("kv group lost its crash row");
        let (one, _) = timed(spec, 1);
        let (four, _) = timed(spec, 4);
        assert_eq!(one, four, "--shards 4 leaked into the kv chaos row");
        let kv = one.kv.expect("kv chaos row lacks its KV metrics block");
        assert_eq!(
            kv.verify_failures, 0,
            "an acked write regressed after failover"
        );
        assert!(kv.acked > 0, "the crash starved the load phase");
        assert!(kv.failovers >= 1, "the primary crash produced no promotion");
        assert!(kv.failover_p50_ps > 0, "failover time not measured");
        let rec = one.recovery.expect("kv chaos row lacks recovery metrics");
        assert!(
            rec.detection_latency_ps > 0,
            "no detection latency recorded"
        );
    }

    /// A chaos-cluster crash row produces finite detector metrics and
    /// stays shard-count invariant, record bytes and every counter of the
    /// merged snapshot included (gauges keep per-shard maxima and are not
    /// compared).
    #[test]
    fn chaos_cluster_crash_row_reports_detection_and_is_invariant() {
        let spec = matrix(Scale::Smoke, 4)
            .into_iter()
            .find(|s| s.experiment == "chaos-cluster" && s.knobs.faults.label() == "crashres5")
            .expect("matrix lost the 64-node crash/restart row");
        let (one, _) = timed(&spec, 1);
        let r = one.recovery.as_ref().expect("chaos row without recovery");
        assert_eq!(r.faults_injected, 1);
        assert!(r.detection_latency_ps > 0, "crash went undetected");
        assert!(r.recovery_time_ps > 0, "restart went unwitnessed");
        let (four, perf4) = timed(&spec, 4);
        assert_eq!(one, four, "chaos-cluster record diverged across shards");
        assert_eq!(perf4.shards, 4);

        let mut params = distributed_params_at(spec.scale).scaled_to(spec.nodes);
        params.seed = spec.seed;
        let detector = HeartbeatConfig::for_nodes(spec.nodes);
        let counters = |k| {
            let cfg = spec.design_config();
            let mut m = run_chaos_distributed(&params, cfg, Shards::Fixed(k), detector).metrics;
            m.samples
                .retain(|s| matches!(s.value, MetricValue::Counter(_)));
            m
        };
        let base = counters(1);
        assert_eq!(base.counter(Category::Net, "crashes"), 1);
        for k in [2, 4] {
            assert_eq!(counters(k), base, "counters diverged at {k} shards");
        }
    }
}
