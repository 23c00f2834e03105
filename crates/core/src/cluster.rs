//! Cluster assembly: nodes (memory, bus, CPU, NIC), the backplane, the
//! export directory, and per-node system software (interrupt dispatch and
//! notification delivery).
//!
//! Construction goes through the typed [`ClusterBuilder`]
//! (`Cluster::builder(n)`): [`ClusterBuilder::build`] produces the classic
//! single-`Sim` machine — every node on one timeline, the contended mesh
//! with link-level `Resource` booking — while [`ClusterBuilder::launch`]
//! partitions the nodes across shards of the conservative-parallel engine
//! (`shrimp_sim::shard`): each node's memory, bus, NIC, CPU, and system
//! software are constructed on its owning shard's `Sim`, and the mesh is
//! the **only** cross-shard channel (decoupled fixed-latency transport,
//! lookahead = [`MeshConfig::min_remote_latency`]). The single-`Sim` path
//! doubles as the differential oracle: `launch` at one shard degenerates
//! to it exactly, and its outcome is byte-identical at any shard count.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use shrimp_faults::{FaultPlane, FaultScenario, Reliability, ShrimpError};
use shrimp_mem::{AddressSpace, MemBus, NodeMem, Paddr, PAGE_SIZE};
use shrimp_net::{Flit, MeshConfig, Network, NodeId};
use shrimp_nic::{IptEntry, Nic, Packet, ShrimpNetwork};
use shrimp_sim::executor::{join_all, TaskHandle};
use shrimp_sim::metrics::MetricsSnapshot;
use shrimp_sim::shard::{
    run_sharded_phased, PhasedBuilder, ShardConfig, ShardCtx, ShardPlan, Shards,
};
use shrimp_sim::{FastMap, Queue, Sim, Time};

use crate::checkpoint::NodeState;
use crate::config::DesignConfig;
use crate::cpu::Cpu;
use crate::stats::NodeStats;
use crate::vmmc::{ExportId, Vmmc};

/// The cross-shard message type of a sharded cluster: a mesh packet in
/// flight between two shards' backplane views.
pub type ClusterFlit = Flit<Packet>;

/// A per-node application program for [`ClusterBuilder::launch`]: called
/// once per node *on the node's owning shard thread* with that node's VMMC
/// handle; the returned future runs on the shard's `Sim` and its output is
/// the node's result (collected into [`LaunchOutcome::node_results`]).
///
/// The closure crosses threads (hence `Send + Sync`); the future it builds
/// never does.
pub type NodeProgram = Arc<dyn Fn(Vmmc) -> Pin<Box<dyn Future<Output = u64>>> + Send + Sync>;

/// A user-level notification delivered for an exported buffer (§2.2).
#[derive(Debug, Clone)]
pub struct Notification {
    /// Sending node.
    pub src: NodeId,
    /// Byte offset of the arriving write within the exported buffer.
    pub offset: usize,
    /// Bytes written.
    pub len: usize,
}

pub(crate) struct ExportInfo {
    pub(crate) node: usize,
    pub(crate) len: usize,
    pub(crate) phys_pages: Vec<u64>,
    pub(crate) notify_enabled: Cell<bool>,
    pub(crate) queue: Queue<Notification>,
}

pub(crate) struct Node {
    pub(crate) mem: NodeMem,
    pub(crate) bus: MemBus,
    pub(crate) nic: Nic,
    pub(crate) cpu: Cpu,
    pub(crate) space: AddressSpace,
    pub(crate) stats: Rc<NodeStats>,
    /// physical page -> (export, page index within export); set at export.
    pub(crate) page_dir: RefCell<FastMap<u64, (u32, usize)>>,
    pub(crate) notifications_blocked: Cell<bool>,
    pub(crate) pending_notifications: RefCell<Vec<(u32, Notification)>>,
}

pub(crate) struct ClusterInner {
    pub(crate) sim: Sim,
    pub(crate) cfg: DesignConfig,
    pub(crate) net: ShrimpNetwork,
    /// The nodes this `Cluster` *owns*: all of them on the classic path,
    /// the contiguous slice `[node_base, node_base + nodes.len())` on one
    /// shard of a sharded launch.
    pub(crate) nodes: Vec<Node>,
    /// Global id of `nodes[0]`.
    pub(crate) node_base: usize,
    /// Nodes in the whole machine (across all shards).
    pub(crate) total_nodes: usize,
    /// Export directory — owned-node exports only; on a sharded machine
    /// the directory is deliberately shard-local (ids never cross shards;
    /// remote imports go through [`Vmmc::import_remote`]).
    pub(crate) exports: RefCell<Vec<Rc<ExportInfo>>>,
    pub(crate) fault_plane: Option<FaultPlane>,
}

/// A simulated SHRIMP machine: `n` nodes on a Paragon-style backplane.
///
/// Cheap to clone. See the [crate-level example](crate) for usage.
#[derive(Clone)]
pub struct Cluster {
    pub(crate) inner: Rc<ClusterInner>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.inner.total_nodes)
            .field("owned", &self.inner.nodes.len())
            .finish()
    }
}

/// Typed construction of a [`Cluster`]: node count, design configuration,
/// mesh geometry, fault plane, reliability, shard count, and observation.
///
/// ```
/// use shrimp_core::{Cluster, DesignConfig};
///
/// let cluster = Cluster::builder(4)
///     .config(DesignConfig::as_built())
///     .build();
/// assert_eq!(cluster.num_nodes(), 4);
/// ```
#[derive(Clone)]
pub struct ClusterBuilder {
    nodes: usize,
    cfg: DesignConfig,
    shards: Shards,
    metrics: bool,
    trace_capacity: Option<Option<usize>>,
    capture: bool,
    start: Time,
}

impl ClusterBuilder {
    fn new(nodes: usize) -> Self {
        assert!(nodes >= 1, "cluster needs at least one node");
        ClusterBuilder {
            nodes,
            cfg: DesignConfig::as_built(),
            shards: Shards::Auto,
            metrics: false,
            trace_capacity: None,
            capture: false,
            start: 0,
        }
    }

    /// Replaces the whole design configuration (defaults to
    /// [`DesignConfig::as_built`]).
    pub fn config(mut self, cfg: DesignConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Overrides the mesh geometry (defaults to the smallest mesh that
    /// holds the node count, [`MeshConfig::for_nodes`]).
    pub fn mesh(mut self, mesh: MeshConfig) -> Self {
        self.cfg.mesh = Some(mesh);
        self
    }

    /// Sets the fault-injection scenario. Both [`ClusterBuilder::build`]
    /// and [`ClusterBuilder::launch`] draw packet fates from per-entity
    /// streams (one per directed mesh edge), so the same scenario
    /// partitions cleanly across shards with byte-identical fates at any
    /// shard count.
    pub fn faults(mut self, faults: FaultScenario) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Sets the reliable-delivery policy.
    pub fn reliability(mut self, reliability: Reliability) -> Self {
        self.cfg.reliability = reliability;
        self
    }

    /// Shard count for [`ClusterBuilder::launch`] ([`Shards::Auto`] means
    /// one shard standalone; the harness resolves it to its `--shards`
    /// flag). Ignored by [`ClusterBuilder::build`], which is always
    /// single-`Sim`.
    pub fn shards(mut self, shards: Shards) -> Self {
        self.shards = shards;
        self
    }

    /// Enables the deterministic metrics registry on the machine's
    /// simulator(s).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Enables trace capture with the given capacity (`None` = unbounded).
    pub fn trace_capacity(mut self, capacity: Option<usize>) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Captures every node's checkpoint state
    /// ([`NodeState`]) at the launch's
    /// global drain barrier and returns it in
    /// [`LaunchOutcome::node_states`]. The barrier is the quiesce point:
    /// every program has completed and no packet is in flight, so the
    /// capture is byte-identical at every shard count.
    pub fn capture_state(mut self, on: bool) -> Self {
        self.capture = on;
        self
    }

    /// Starts every shard's simulated clock at `start` instead of 0 — a
    /// run resuming from a checkpoint sets this to the checkpoint's
    /// quiesce time so restored timelines continue where the captured one
    /// stopped.
    pub fn resume_at(mut self, start: Time) -> Self {
        self.start = start;
        self
    }

    /// Effective shard count of a [`ClusterBuilder::launch`]: the
    /// [`Shards`] setting resolved standalone and clamped to the node
    /// count.
    pub fn effective_shards(&self) -> usize {
        self.shards.resolve(1).min(self.nodes)
    }

    /// Builds the classic single-`Sim` machine on a fresh simulator and
    /// starts all hardware engines and system-software processes.
    pub fn build(self) -> Cluster {
        let sim = Sim::new();
        self.build_on(sim)
    }

    /// Like [`ClusterBuilder::build`] but on a caller-provided simulator
    /// (so several machines can share one timeline, or the caller controls
    /// the run loop).
    pub fn build_on(self, sim: Sim) -> Cluster {
        let n = self.nodes;
        let cluster = self.assemble_on(sim, 0..n, |sim, mesh| Network::new(sim.clone(), mesh, n));
        for i in 0..n {
            cluster.spawn_dispatcher(i);
        }
        cluster
    }

    /// The one construction path of both [`ClusterBuilder::build_on`] and
    /// each launch shard: assembles nodes `owned` of the machine on `sim`,
    /// over the backplane `network` builds from the mesh geometry. Spawns
    /// no task, so each caller keeps its own spawn order.
    fn assemble_on(
        &self,
        sim: Sim,
        owned: std::ops::Range<usize>,
        network: impl FnOnce(&Sim, MeshConfig) -> ShrimpNetwork,
    ) -> Cluster {
        if self.metrics {
            sim.metrics().enable();
        }
        if let Some(capacity) = self.trace_capacity {
            sim.trace().enable(capacity);
        }
        let mut cfg = self.cfg.clone();
        // The Table 4 experiment is a firmware change: interrupts fire on
        // every message arrival whether or not the receiver enabled them.
        if cfg.interrupt_per_message {
            cfg.nic.force_arrival_interrupts = true;
        }
        let mesh = cfg
            .mesh
            .clone()
            .unwrap_or_else(|| MeshConfig::for_nodes(self.nodes));
        let net = network(&sim, mesh);
        // One fault plane per `Sim` (absent on fault-free runs, which
        // therefore pay nothing and replay byte-identically). Every
        // directed mesh edge draws from a stream seeded by (seed, edge) and
        // consumed in that edge's node-local send order, so each shard's
        // plane built from the shared scenario yields fates byte-identical
        // at any shard count.
        let fault_plane = cfg.faults.is_active().then(|| {
            let plane = FaultPlane::per_entity(cfg.faults);
            net.install_fault_plane(plane.clone());
            plane
        });
        let node_base = owned.start;
        let nodes = assemble(&sim, &cfg, &net, fault_plane.as_ref(), owned);
        Cluster {
            inner: Rc::new(ClusterInner {
                sim,
                cfg,
                net,
                nodes,
                node_base,
                total_nodes: self.nodes,
                exports: RefCell::new(Vec::new()),
                fault_plane,
            }),
        }
    }

    /// Runs `program` on every node of the machine under the
    /// conservative-parallel shard engine and returns the merged outcome.
    ///
    /// Nodes are partitioned contiguously across [`ClusterBuilder::shards`]
    /// shards (`shard_of`); each shard constructs its nodes on its own
    /// `Sim` and the mesh runs the decoupled fixed-latency transport with
    /// the mesh's minimum remote latency as cross-shard lookahead. At one
    /// effective shard this degenerates to the single-`Sim` executor — the
    /// differential oracle — and the outcome is byte-identical at any
    /// shard count.
    ///
    /// Shutdown is shard-safe by construction: each shard closes its NIC
    /// ingress and notification queues only at the engine's global drain
    /// barrier, when no other shard can still have packets in flight.
    ///
    /// Fault scenarios run here too: the fault plane uses per-entity RNG
    /// streams (one per directed mesh edge, owned by the sending shard),
    /// so packet fates are byte-identical at any shard count, and
    /// [`NodeCrash`](shrimp_faults::NodeCrash) faults power-cycle the
    /// node on its owning shard (see [`ClusterBuilder::try_launch`]).
    ///
    /// # Panics
    ///
    /// Panics when the application processes deadlock, or on the typed
    /// errors [`ClusterBuilder::try_launch`] returns instead.
    pub fn launch(self, program: NodeProgram) -> LaunchOutcome {
        match self.try_launch(program) {
            Ok(out) => out,
            Err(e) => panic!("cluster launch failed: {e}"),
        }
    }

    /// [`ClusterBuilder::launch`] with typed configuration errors.
    ///
    /// A chaos row's shard count is part of its experiment identity, so a
    /// fault scenario combined with a [`Shards::Fixed`] request above the
    /// node count is refused as [`ShrimpError::ShardOverflow`] rather
    /// than silently clamped to fewer shards than the row claims.
    pub fn try_launch(self, program: NodeProgram) -> Result<LaunchOutcome, ShrimpError> {
        if self.cfg.faults.is_active() {
            if let Shards::Fixed(k) = self.shards {
                if k > self.nodes {
                    return Err(ShrimpError::ShardOverflow {
                        shards: k,
                        nodes: self.nodes,
                    });
                }
            }
        }
        let n = self.nodes;
        let shards = self.effective_shards();
        let mesh = self
            .cfg
            .mesh
            .clone()
            .unwrap_or_else(|| MeshConfig::for_nodes(n));
        let mut shard_cfg = ShardConfig::new(shards, mesh.min_remote_latency());
        shard_cfg.start = self.start;
        let capture = self.capture;
        let builders: Vec<PhasedBuilder<ClusterFlit, ShardTally>> = (0..shards)
            .map(|_| {
                let builder = self.clone();
                let program = program.clone();
                let b: PhasedBuilder<ClusterFlit, ShardTally> =
                    Box::new(move |ctx| builder.build_shard_plan(ctx, program));
                b
            })
            .collect();
        let out = run_sharded_phased(&shard_cfg, builders);
        let mut node_results = vec![0u64; n];
        let mut finished_nodes = 0usize;
        for tally in &out.results {
            for &(node, result) in &tally.node_results {
                node_results[node] = result;
                finished_nodes += 1;
            }
        }
        assert_eq!(finished_nodes, n, "a node's program never completed");
        let node_states = capture.then(|| {
            let mut states: Vec<NodeState> = out
                .results
                .iter()
                .flat_map(|t| t.node_states.iter().cloned())
                .collect();
            states.sort_unstable_by_key(|s| s.node);
            assert_eq!(states.len(), n, "a node's state was never captured");
            states
        });
        let mut metrics = MetricsSnapshot::default();
        for tally in &out.results {
            metrics.merge(&tally.metrics);
        }
        let sum = |f: fn(&ShardTally) -> u64| out.results.iter().map(f).sum::<u64>();
        Ok(LaunchOutcome {
            elapsed: out.results.iter().map(|t| t.finished).max().unwrap_or(0),
            node_results,
            messages: sum(|t| t.messages),
            notifications: sum(|t| t.notifications),
            interrupts: sum(|t| t.interrupts),
            syscalls: sum(|t| t.syscalls),
            net_packets: sum(|t| t.net_packets),
            net_bytes: sum(|t| t.net_bytes),
            retransmits: sum(|t| t.retransmits),
            corrupt_detected: sum(|t| t.corrupt_detected),
            dup_suppressed: sum(|t| t.dup_suppressed),
            faults_injected: sum(|t| t.faults_injected),
            detection_latency_ps: sum(|t| t.detection_latency_ps),
            recovery_time_ps: sum(|t| t.recovery_time_ps),
            events: out.events,
            windows: out.windows,
            shards,
            node_states,
            metrics,
        })
    }

    /// Constructs this shard's slice of the machine on `ctx`'s `Sim`,
    /// spawns the owned nodes' programs, and returns the shard's
    /// shutdown/harvest plan.
    fn build_shard_plan(
        &self,
        ctx: &ShardCtx<ClusterFlit>,
        program: NodeProgram,
    ) -> ShardPlan<ShardTally> {
        let n = self.nodes;
        let (shard, shards) = (ctx.shard(), ctx.shards());
        let shard_map: Vec<usize> = (0..n).map(|i| shard_of(i, n, shards)).collect();
        let node_base = shard_map
            .iter()
            .position(|&s| s == shard)
            .expect("every shard owns at least one node");
        let owned = shard_map.iter().filter(|&&s| s == shard).count();
        let sim = ctx.sim().clone();
        let cluster = self.assemble_on(sim.clone(), node_base..node_base + owned, |sim, mesh| {
            Network::sharded(sim.clone(), mesh, n, shard_map, ctx.sender())
        });
        {
            let net = cluster.network().clone();
            ctx.on_message(move |arrival, flit| {
                // Structurally unreachable: `net` was just built sharded. The
                // typed error exists for callers that wire a contended
                // backplane by mistake; surface its message if it ever fires.
                if let Err(e) = net.deliver_remote(arrival, flit) {
                    panic!("sharded cluster backplane rejected a remote flit: {e}");
                }
            });
        }
        #[allow(clippy::type_complexity)]
        let finished: Rc<RefCell<Vec<(usize, Time, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for node in node_base..node_base + owned {
            cluster.spawn_dispatcher(node);
            let crash = cluster
                .fault_plane()
                .and_then(|p| p.crash_of(node))
                .filter(|c| c.onset() > sim.now());
            let fut = program(cluster.vmmc(node));
            let record = Rc::clone(&finished);
            let at = sim.clone();
            let Some(crash) = crash else {
                sim.spawn(async move {
                    let result = fut.await;
                    record.borrow_mut().push((node, at.now(), result));
                });
                continue;
            };
            // A crashing node's program races its scheduled power loss:
            // the incarnation is aborted at onset (its tasks stop making
            // progress; in-flight hardware requests complete against a
            // dead board), the node's volatile state is wiped, and — for
            // a transient outage — a fresh incarnation of the same
            // program boots deterministically on the same rewound
            // allocators at restart.
            let signal = Rc::new(CrashSignal::default());
            {
                let signal = Rc::clone(&signal);
                sim.spawn(async move {
                    let race = CrashRace { inner: fut, signal };
                    if let Some(result) = race.await {
                        record.borrow_mut().push((node, at.now(), result));
                    }
                });
            }
            {
                let cl = cluster.clone();
                let rec = Rc::clone(&finished);
                let at = sim.clone();
                sim.schedule(crash.onset(), move || {
                    signal.trip();
                    cl.crash_node(node);
                    // Tombstone result: the incarnation died mid-program.
                    rec.borrow_mut().push((node, at.now(), 0));
                });
            }
            if let Some(up_at) = crash.restart_at() {
                let cl = cluster.clone();
                let rec = Rc::clone(&finished);
                let program = program.clone();
                let at = sim.clone();
                sim.schedule(up_at, move || {
                    cl.restart_node(node);
                    let fut = program(cl.vmmc(node));
                    let rec = Rc::clone(&rec);
                    let done_at = at.clone();
                    at.spawn(async move {
                        let result = fut.await;
                        rec.borrow_mut().push((node, done_at.now(), result));
                    });
                });
            }
        }
        let to_shutdown = cluster.clone();
        let capture = self.capture;
        ShardPlan {
            shutdown: Box::new(move || to_shutdown.shutdown()),
            harvest: Box::new(move || {
                let mut done = finished.borrow_mut();
                // A crashed node records a tombstone at onset and — when it
                // restarts — a second, later record from the fresh
                // incarnation. Keep the record latest in time per node.
                done.sort_by_key(|&(node, t, _)| (node, t));
                let mut merged: Vec<(usize, Time, u64)> = Vec::with_capacity(owned);
                for &(node, t, r) in done.iter() {
                    match merged.last_mut() {
                        Some(last) if last.0 == node => *last = (node, t, r),
                        _ => merged.push((node, t, r)),
                    }
                }
                assert_eq!(
                    merged.len(),
                    owned,
                    "application processes deadlocked; check for missing sends/receives"
                );
                ShardTally {
                    finished: merged.iter().map(|&(_, t, _)| t).max().unwrap_or(0),
                    node_results: merged.iter().map(|&(node, _, r)| (node, r)).collect(),
                    messages: cluster.total(|s| s.messages_sent.get()),
                    notifications: cluster.total(|s| s.notifications.get()),
                    interrupts: cluster.total(|s| s.interrupts_taken.get()),
                    syscalls: cluster.total(|s| s.syscalls.get()),
                    net_packets: cluster.network().stats().packets(),
                    net_bytes: cluster.network().stats().bytes(),
                    retransmits: cluster.total(|s| s.retransmits.get()),
                    corrupt_detected: cluster.total_nic(|c| c.corrupt_detected.get()),
                    dup_suppressed: cluster.total_nic(|c| c.dup_suppressed.get()),
                    faults_injected: cluster.fault_plane().map_or(0, |p| p.stats().total()),
                    detection_latency_ps: cluster.total(|s| s.detection_latency.get()),
                    recovery_time_ps: cluster.total(|s| s.recovery_time.get()),
                    node_states: if capture {
                        // Quiesce-point capture: this closure runs at the
                        // engine's global drain barrier, after every shard
                        // is exhausted — no packet is in flight.
                        cluster
                            .owned_nodes()
                            .map(|node| cluster.capture_node(node))
                            .collect()
                    } else {
                        Vec::new()
                    },
                    metrics: cluster.sim().metrics().snapshot(),
                }
            }),
        }
    }
}

/// Abort flag raced against a crashing node's program future: tripping it
/// wakes the task, whose next poll resolves to `None` without touching the
/// aborted program again.
#[derive(Default)]
struct CrashSignal {
    tripped: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

impl CrashSignal {
    fn trip(&self) {
        self.tripped.set(true);
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

/// Races a node program against its crash signal; yields `Some(result)` on
/// completion, `None` when the node lost power first.
struct CrashRace {
    inner: Pin<Box<dyn Future<Output = u64>>>,
    signal: Rc<CrashSignal>,
}

impl Future for CrashRace {
    type Output = Option<u64>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if self.signal.tripped.get() {
            return Poll::Ready(None);
        }
        match self.inner.as_mut().poll(cx) {
            Poll::Ready(v) => Poll::Ready(Some(v)),
            Poll::Pending => {
                *self.signal.waker.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// One shard's harvest of a [`ClusterBuilder::launch`].
struct ShardTally {
    finished: Time,
    node_results: Vec<(usize, u64)>,
    messages: u64,
    notifications: u64,
    interrupts: u64,
    syscalls: u64,
    net_packets: u64,
    net_bytes: u64,
    retransmits: u64,
    corrupt_detected: u64,
    dup_suppressed: u64,
    faults_injected: u64,
    detection_latency_ps: u64,
    recovery_time_ps: u64,
    node_states: Vec<NodeState>,
    metrics: MetricsSnapshot,
}

/// The merged, shard-count-invariant outcome of a
/// [`ClusterBuilder::launch`]: everything but `events`, `windows`, and
/// `shards` is a pure function of the simulated program.
#[derive(Debug, Clone)]
pub struct LaunchOutcome {
    /// Latest per-node program completion time (simulated).
    pub elapsed: Time,
    /// Each node's program result, indexed by node.
    pub node_results: Vec<u64>,
    /// Messages sent (VMMC sends, all nodes).
    pub messages: u64,
    /// User-level notifications delivered.
    pub notifications: u64,
    /// Interrupts taken.
    pub interrupts: u64,
    /// Kernel traps performed.
    pub syscalls: u64,
    /// Mesh packets (recorded at the sending shard; loopback excluded).
    pub net_packets: u64,
    /// Mesh wire bytes including headers.
    pub net_bytes: u64,
    /// Reliable-delivery retransmissions performed (0 on fault-free runs).
    pub retransmits: u64,
    /// Packets whose payload failed the checksum at NIC ingress.
    pub corrupt_detected: u64,
    /// Sequenced packets discarded as already-delivered duplicates.
    pub dup_suppressed: u64,
    /// Faults the planes actually injected, summed across shards.
    pub faults_injected: u64,
    /// Summed failure-detector latency: per declaring node, sim time from
    /// a peer's last heartbeat to declaring it dead (ps).
    pub detection_latency_ps: u64,
    /// Summed recovery time: retransmitted-chunk recovery plus sim time
    /// from a death declaration to the heartbeat witnessing the rejoin
    /// (ps).
    pub recovery_time_ps: u64,
    /// Executor events across shards (host-dependent layout detail — never
    /// part of deterministic artifacts).
    pub events: u64,
    /// Synchronization windows (0 on the one-shard degenerate path).
    pub windows: u64,
    /// Effective shard count the launch ran with.
    pub shards: usize,
    /// Per-node checkpoint state captured at the drain barrier, indexed by
    /// node — `Some` only when [`ClusterBuilder::capture_state`] was set.
    pub node_states: Option<Vec<NodeState>>,
    /// Per-shard metric registries folded with
    /// [`MetricsSnapshot::merge`] — counters and histograms are
    /// shard-count invariant (the merge is commutative and associative);
    /// gauges keep elementwise maxima and are **not**. Empty unless
    /// [`ClusterBuilder::metrics`] enabled the plane.
    pub metrics: MetricsSnapshot,
}

/// Contiguous block assignment of nodes to shards: node `i` of `n` on
/// shard `i * shards / n`.
fn shard_of(node: usize, nodes: usize, shards: usize) -> usize {
    node * shards / nodes
}

/// Constructs and starts the nodes `range` (global ids) against `net`.
fn assemble(
    sim: &Sim,
    cfg: &DesignConfig,
    net: &ShrimpNetwork,
    fault_plane: Option<&FaultPlane>,
    range: std::ops::Range<usize>,
) -> Vec<Node> {
    let mut nodes = Vec::with_capacity(range.len());
    for i in range {
        let mem = NodeMem::new();
        let bus = MemBus::shrimp_default();
        let nic = Nic::new(
            sim.clone(),
            NodeId(i),
            cfg.nic.clone(),
            mem.clone(),
            bus.clone(),
            net.clone(),
        );
        if let Some(plane) = fault_plane {
            nic.install_fault_plane(plane.clone());
        }
        nic.start();
        let cpu = Cpu::new(sim.clone());
        let stall_cpu = cpu.clone();
        nic.set_cpu_stall_hook(move |d| stall_cpu.steal(d));
        // A scheduled CPU pause (SMI-style outage) is stolen time: the
        // node's application and handlers make no progress through it.
        if let Some((at, dur)) = fault_plane.and_then(|p| p.pause_of(i)) {
            let paused = cpu.clone();
            sim.schedule(at, move || paused.steal(dur));
        }
        nodes.push(Node {
            space: AddressSpace::new(mem.clone()),
            mem,
            bus,
            nic,
            cpu,
            stats: Rc::new(NodeStats::new()),
            page_dir: RefCell::new(FastMap::default()),
            notifications_blocked: Cell::new(false),
            pending_notifications: RefCell::new(Vec::new()),
        });
    }
    nodes
}

impl Cluster {
    /// Starts a typed [`ClusterBuilder`] for an `n`-node machine.
    pub fn builder(n: usize) -> ClusterBuilder {
        ClusterBuilder::new(n)
    }

    /// The per-node interrupt dispatch process: takes NIC interrupts,
    /// charges the kernel handler, and delivers user-level notifications
    /// when requested and enabled (§4.4).
    fn spawn_dispatcher(&self, node: usize) {
        let cluster = self.clone();
        let interrupts = self.node(node).nic.interrupts();
        let intr_delay = self.inner.cfg.faults.interrupt_delay();
        self.inner.sim.spawn(async move {
            loop {
                let Some(intr) = interrupts.recv().await else {
                    break;
                };
                // Delayed-interrupt fault: the wire between NIC and CPU is
                // slow, not the handler.
                if intr_delay > 0 {
                    cluster.inner.sim.sleep(intr_delay).await;
                }
                let n = cluster.node(node);
                NodeStats::bump(&n.stats.interrupts_taken);
                let svc_t0 = cluster.inner.sim.now();
                n.cpu.run_handler(cluster.inner.cfg.interrupt_cost).await;
                {
                    let metrics = cluster.inner.sim.metrics();
                    metrics.counter_add(shrimp_sim::Category::Core, "interrupts_taken", 1);
                    // Handler cost plus any CPU contention the dispatch paid.
                    metrics.observe(
                        shrimp_sim::Category::Core,
                        "intr_service_ps",
                        cluster.inner.sim.now() - svc_t0,
                    );
                }
                if !intr.notify {
                    continue; // forced interrupt (Table 4): null handler only
                }
                let Some(&(export_id, page_idx)) = n.page_dir.borrow().get(&intr.dst_page) else {
                    continue;
                };
                let export = cluster.inner.exports.borrow()[export_id as usize].clone();
                if !export.notify_enabled.get() {
                    continue;
                }
                let notification = Notification {
                    src: intr.src,
                    offset: page_idx * PAGE_SIZE + intr.offset,
                    len: intr.len,
                };
                if n.notifications_blocked.get() {
                    n.pending_notifications
                        .borrow_mut()
                        .push((export_id, notification));
                } else {
                    n.cpu.run_handler(cluster.inner.cfg.notification_cost).await;
                    NodeStats::bump(&n.stats.notifications);
                    export.queue.send(notification);
                }
            }
        });
    }

    /// Number of nodes in the whole machine (across all shards of a
    /// sharded launch).
    pub fn num_nodes(&self) -> usize {
        self.inner.total_nodes
    }

    /// Global ids of the nodes this `Cluster` owns: everything on the
    /// classic path, one contiguous slice per shard of a sharded launch.
    pub fn owned_nodes(&self) -> std::ops::Range<usize> {
        self.inner.node_base..self.inner.node_base + self.inner.nodes.len()
    }

    /// The simulator driving this machine (this shard's, when sharded).
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The design configuration.
    pub fn config(&self) -> &DesignConfig {
        &self.inner.cfg
    }

    /// The backplane (this shard's view, when sharded).
    pub fn network(&self) -> &ShrimpNetwork {
        &self.inner.net
    }

    /// The run's fault plane (its stats report injections actually
    /// performed); `None` when the scenario is empty.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.inner.fault_plane.as_ref()
    }

    /// The VMMC library handle for `node`'s application process.
    pub fn vmmc(&self, node: usize) -> Vmmc {
        let _ = self.index(node);
        Vmmc::new(self.clone(), node)
    }

    /// A node's NIC (experiment drivers read its counters).
    pub fn nic(&self, node: usize) -> &Nic {
        &self.node(node).nic
    }

    /// A node's CPU.
    pub fn cpu(&self, node: usize) -> &Cpu {
        &self.node(node).cpu
    }

    /// A node's software statistics.
    pub fn stats(&self, node: usize) -> Rc<NodeStats> {
        self.node(node).stats.clone()
    }

    /// Sum of a counter over the owned nodes.
    pub fn total<F: Fn(&NodeStats) -> u64>(&self, f: F) -> u64 {
        self.inner.nodes.iter().map(|n| f(&n.stats)).sum()
    }

    /// Sum of a NIC hardware counter over the owned nodes.
    pub fn total_nic<F: Fn(&shrimp_nic::NicCounters) -> u64>(&self, f: F) -> u64 {
        self.inner.nodes.iter().map(|n| f(n.nic.counters())).sum()
    }

    /// Captures an owned node's checkpoint state: memory image, allocator
    /// cursors, NIC sequence counter, and page-table images. Meaningful
    /// only at a quiesce point (the launch drain barrier — see
    /// [`ClusterBuilder::capture_state`]); capturing mid-run would race
    /// in-flight packets.
    pub fn capture_node(&self, node: usize) -> NodeState {
        let n = self.node(node);
        let tables = n.nic.tables();
        NodeState {
            node,
            pages: n.mem.dump_pages(),
            next_phys_page: n.mem.next_phys_page(),
            nic_seq: n.nic.seq_counter(),
            next_proxy: tables.next_proxy(),
            opt: tables.opt_entries(),
            // Buffer ids index the shard-local export directory; store the
            // shard-count-invariant ordinal form instead.
            ipt: crate::checkpoint::canonicalize_ipt(tables.ipt_entries()),
        }
    }

    /// Restores an owned node from a captured [`NodeState`], after the
    /// resuming program has replayed its allocation and export/import
    /// preamble.
    ///
    /// The restore is *verified*: the replayed allocator cursors and
    /// OPT/IPT images must equal the captured ones — they are pure
    /// functions of the preamble, so a mismatch means the resuming program
    /// (or its configuration) diverged from the one that produced the
    /// checkpoint. Only then are the memory image and the NIC sequence
    /// counter (state the preamble cannot reproduce) written back.
    ///
    /// # Panics
    ///
    /// Panics on any divergence between the replayed preamble and the
    /// captured state.
    pub fn restore_node(&self, node: usize, state: &NodeState) {
        assert_eq!(state.node, node, "checkpoint state is for another node");
        let n = self.node(node);
        assert_eq!(
            n.mem.next_phys_page(),
            state.next_phys_page,
            "node {node}: replayed page allocator diverged from the checkpoint"
        );
        let tables = n.nic.tables();
        assert_eq!(
            tables.next_proxy(),
            state.next_proxy,
            "node {node}: replayed proxy allocator diverged from the checkpoint"
        );
        assert_eq!(
            tables.opt_entries(),
            state.opt,
            "node {node}: replayed OPT image diverged from the checkpoint"
        );
        assert_eq!(
            crate::checkpoint::canonicalize_ipt(tables.ipt_entries()),
            state.ipt,
            "node {node}: replayed IPT image diverged from the checkpoint"
        );
        for (page, data) in &state.pages {
            n.mem.write_raw(Paddr::from_parts(*page, 0), data);
        }
        n.nic.set_seq_counter(state.nic_seq);
    }

    /// Crashes a node with full loss of volatile state: the NIC loses
    /// power (page tables, dedup window and in-flight work gone; traffic
    /// to the dead board is absorbed), memory and the address space rewind
    /// to their post-construction allocators, and the system software's
    /// page directory and queued notifications are dropped. The NIC's
    /// sequence counter deliberately survives — it is the incarnation
    /// guard that keeps a restarted node's sequences distinct from its
    /// pre-crash ones in peers' dedup tables.
    pub(crate) fn crash_node(&self, node: usize) {
        let n = self.node(node);
        n.nic.power_off();
        n.mem.reset();
        n.space.reset();
        n.page_dir.borrow_mut().clear();
        n.pending_notifications.borrow_mut().clear();
        n.notifications_blocked.set(false);
        if let Some(plane) = self.fault_plane() {
            plane.record_crash();
        }
    }

    /// Restores power to a crashed node's NIC. The caller boots a fresh
    /// program incarnation, which reproduces the node's canonical memory
    /// map on the rewound allocators.
    pub(crate) fn restart_node(&self, node: usize) {
        self.node(node).nic.power_on();
    }

    /// Closes NIC queues so hardware/system processes terminate once idle,
    /// and closes the owned exports' notification queues.
    ///
    /// On a sharded launch each shard's shutdown runs at the engine's
    /// global drain barrier — after every shard is exhausted — so no
    /// packet can still be in flight toward a queue being closed here.
    pub fn shutdown(&self) {
        for n in &self.inner.nodes {
            n.nic.shutdown();
        }
        for e in self.inner.exports.borrow().iter() {
            e.queue.close();
        }
    }

    /// Runs the simulation until the given application processes complete,
    /// then shuts the machine down, drains remaining events and releases
    /// the processes left blocked forever (see [`Sim::release_blocked`]).
    /// Returns the simulated completion time of the *applications* and
    /// their outputs.
    ///
    /// # Panics
    ///
    /// Panics if the applications deadlock.
    pub fn run_until_complete<T: 'static>(&self, handles: Vec<TaskHandle<T>>) -> (Time, Vec<T>) {
        let sim = self.inner.sim.clone();
        let s2 = sim.clone();
        let joiner = sim.spawn(async move {
            let out = join_all(handles).await;
            (s2.now(), out)
        });
        sim.run();
        let (t, out) = joiner
            .try_take()
            .expect("application processes deadlocked; check for missing sends/receives");
        self.shutdown();
        sim.run();
        // Whatever still waits now waits forever (an acceptor loop, a
        // dispatch loop); it holds this cluster, so release it.
        sim.release_blocked();
        (t, out)
    }

    // ----- internal accessors used by the Vmmc library -------------------

    /// Index of a *global* node id within the owned slice.
    fn index(&self, node: usize) -> usize {
        assert!(
            node >= self.inner.node_base && node < self.inner.node_base + self.inner.nodes.len(),
            "node {node} is not owned by this cluster (owns {:?} of {} nodes)",
            self.owned_nodes(),
            self.inner.total_nodes,
        );
        node - self.inner.node_base
    }

    pub(crate) fn node(&self, i: usize) -> &Node {
        &self.inner.nodes[self.index(i)]
    }

    pub(crate) fn register_export(
        &self,
        node: usize,
        len: usize,
        phys_pages: Vec<u64>,
    ) -> ExportId {
        let id = self.inner.exports.borrow().len() as u32;
        {
            let mut dir = self.node(node).page_dir.borrow_mut();
            for (idx, &p) in phys_pages.iter().enumerate() {
                dir.insert(p, (id, idx));
            }
        }
        self.inner.exports.borrow_mut().push(Rc::new(ExportInfo {
            node,
            len,
            phys_pages,
            notify_enabled: Cell::new(false),
            queue: Queue::new(),
        }));
        // IPT: accept packets for every page of the buffer.
        let info = self.inner.exports.borrow()[id as usize].clone();
        for &p in &info.phys_pages {
            self.node(node).nic.ipt_set(
                p,
                IptEntry {
                    accept: true,
                    interrupt_enable: false,
                    buffer_id: id,
                },
            );
        }
        ExportId(id)
    }

    pub(crate) fn export_info(&self, id: ExportId) -> Rc<ExportInfo> {
        self.inner.exports.borrow()[id.0 as usize].clone()
    }

    /// Delivers notifications that were queued while blocked (§2.2 allows
    /// blocking/unblocking, with queueing of multiple notifications).
    pub(crate) async fn flush_pending_notifications(&self, node: usize) {
        loop {
            let next = self.node(node).pending_notifications.borrow_mut().pop();
            let Some((export_id, notification)) = next else {
                break;
            };
            let n = self.node(node);
            n.cpu.run_handler(self.inner.cfg.notification_cost).await;
            NodeStats::bump(&n.stats.notifications);
            let export = self.inner.exports.borrow()[export_id as usize].clone();
            export.queue.send(notification);
        }
    }
}
