//! Per-layer costs and counts.
//!
//! A *cost* is a microbenchmark: it times calls into one crate's public
//! functions and reports host nanoseconds per operation, plus the
//! simulator events each operation dispatched. A *count* is the number of
//! such operations a workload's traced pass performed, read from its
//! records, its `LaunchOutcome`s and its metrics registries. The cost
//! model multiplies the two.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use shrimp_bench::RunSpec;
use shrimp_core::{Cluster, DesignConfig, ExportId, ProxyBuffer, Vmmc};
use shrimp_mem::PAGE_SIZE;
use shrimp_net::{MeshConfig, Network, NodeId};
use shrimp_sim::{
    run_sharded, time, Builder, Category, MetricValue, MetricsSnapshot, ShardConfig, ShardCtx, Sim,
};
use shrimp_svm::{Protocol, Svm, SvmConfig};

use crate::spans::{median, Spans};
use crate::workload::{Observed, Row, SCALE};

/// One microbenchmark execution: operations done, simulator events they
/// dispatched, host nanoseconds taken.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ops: u64,
    events: u64,
    wall_ns: u64,
}

/// The measured cost of one layer operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cost {
    /// Host nanoseconds per operation, simulator events included.
    pub(crate) ns: f64,
    /// Simulator events one operation dispatched.
    pub(crate) events: f64,
}

impl Cost {
    /// Nanoseconds per operation beyond its own simulator events, so the
    /// `sim` layer alone carries the event loop. Floored at zero.
    fn exclusive_ns(&self, event_ns: f64) -> f64 {
        (self.ns - self.events * event_ns).max(0.0)
    }
}

/// Times `f` `reps` times and keeps the median per-operation figures.
fn measure(spans: &mut Spans, name: &str, reps: usize, f: impl Fn() -> Sample) -> Cost {
    let mut ns = Vec::with_capacity(reps);
    let mut events = Vec::with_capacity(reps);
    for _ in 0..reps {
        let s = spans.time(name, &f);
        ns.push(s.wall_ns as f64 / s.ops as f64);
        events.push(s.events as f64 / s.ops as f64);
    }
    Cost {
        ns: median(&mut ns),
        events: median(&mut events),
    }
}

/// Runs `body` on a fresh `Sim` to completion and times the whole run.
fn on_sim(ops: u64, body: impl FnOnce(&Sim)) -> Sample {
    let sim = Sim::new();
    let start = Instant::now();
    body(&sim);
    sim.run_to_completion();
    Sample {
        ops,
        events: sim.events(),
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// `sim`: one timer event — a task sleeping in a loop. Events per op is
/// 1 by construction: the op *is* an executor event.
fn sim_sleep() -> Sample {
    let mut s = on_sim(1, |sim| {
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..20_000 {
                s.sleep(time::ns(100)).await;
            }
        });
    });
    s.ops = s.events;
    s
}

/// `sim`: one message through `queue::unbounded`, send plus receive.
fn sim_queue() -> Sample {
    const N: u64 = 20_000;
    on_sim(N, |sim| {
        let (tx, rx) = shrimp_sim::unbounded();
        sim.spawn(async move {
            for i in 0..N {
                tx.send(i);
            }
            tx.close();
        });
        sim.spawn(async move { while rx.recv().await.is_some() {} });
    })
}

/// `shard`: one synchronization window of `run_sharded` on two shard
/// threads, each sending the other one message per lookahead.
fn shard_window() -> Sample {
    const STEPS: u64 = 2_000;
    let lookahead = MeshConfig::for_nodes(16).min_remote_latency();
    let builders: Vec<Builder<u64, u64>> = (0..2)
        .map(|_| {
            let b: Builder<u64, u64> = Box::new(move |ctx: &ShardCtx<u64>| {
                let got = Rc::new(Cell::new(0u64));
                let seen = got.clone();
                ctx.on_message(move |_, _| seen.set(seen.get() + 1));
                let (tx, sim) = (ctx.sender(), ctx.sim().clone());
                let peer = 1 - ctx.shard();
                ctx.sim().spawn(async move {
                    for i in 0..STEPS {
                        sim.sleep(tx.lookahead()).await;
                        tx.send(peer, sim.now() + tx.lookahead(), i);
                    }
                });
                Box::new(move || got.get())
            });
            b
        })
        .collect();
    let start = Instant::now();
    let out = run_sharded(&ShardConfig::new(2, lookahead), builders);
    let wall_ns = start.elapsed().as_nanos() as u64;
    assert_eq!(out.results.iter().sum::<u64>(), 2 * STEPS, "lost messages");
    Sample {
        ops: out.windows.max(1),
        events: out.events,
        wall_ns,
    }
}

/// The mesh send loop both transports share: `N` packets of 64 bytes
/// between spread node pairs, one every 50 ns.
const MESH_SENDS: u64 = 20_000;

fn send_loop(sim: &Sim, net: Network<u64>) {
    let s = sim.clone();
    sim.spawn(async move {
        for i in 0..MESH_SENDS {
            let src = (i % 16) as usize;
            let dst = (src + 1 + (i as usize * 7) % 15) % 16;
            net.send(NodeId(src), NodeId(dst), 64, i);
            s.sleep(time::ns(50)).await;
        }
    });
}

/// `net`: one contended mesh send (`Network::new`).
fn net_contended() -> Sample {
    on_sim(MESH_SENDS, |sim| {
        let net = Network::new(sim.clone(), MeshConfig::for_nodes(16), 16);
        send_loop(sim, net);
    })
}

/// `net`: one decoupled mesh send (`Network::sharded`, one shard).
fn net_decoupled() -> Sample {
    let b: Builder<shrimp_net::Flit<u64>, ()> = Box::new(|ctx| {
        let mesh = MeshConfig::for_nodes(16);
        let net = Network::sharded(ctx.sim().clone(), mesh, 16, vec![0; 16], ctx.sender());
        send_loop(ctx.sim(), net);
        Box::new(|| ())
    });
    let lookahead = MeshConfig::for_nodes(16).min_remote_latency();
    let start = Instant::now();
    let out = run_sharded(&ShardConfig::new(1, lookahead), vec![b]);
    Sample {
        ops: MESH_SENDS,
        events: out.events,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// A 2-node cluster with node 1 exporting one page that node 0 imports.
fn two_nodes() -> (Cluster, Vmmc, ProxyBuffer, ExportId) {
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let b = cluster.vmmc(1);
    let export = b.export(b.space().alloc(1), PAGE_SIZE);
    let a = cluster.vmmc(0);
    let proxy = a.import(export);
    (cluster, a, proxy, export)
}

/// Runs one task on node 0 of `cluster` and times the whole run.
fn on_cluster(cluster: &Cluster, ops: u64, task: impl Future<Output = ()> + 'static) -> Sample {
    let start = Instant::now();
    let h = cluster.sim().spawn(task);
    cluster.run_until_complete(vec![h]);
    Sample {
        ops,
        events: cluster.sim().events(),
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// `vmmc`/`nic`: one deliberate-update `Vmmc::send` of `len` bytes.
fn vmmc_send(len: usize) -> Sample {
    const N: u64 = 2_000;
    let (cluster, a, proxy, _) = two_nodes();
    let src = a.space().alloc(1);
    on_cluster(&cluster, N, async move {
        for _ in 0..N {
            a.send(src, &proxy, 0, len).await;
        }
    })
}

/// `nic`: one `Vmmc::store_u64` into a page bound for automatic update
/// (combining off, so each store is one AU packet).
fn nic_au_store() -> Sample {
    const N: u64 = 5_000;
    let (cluster, a, proxy, _) = two_nodes();
    let local = a.space().alloc(1);
    a.bind(local, &proxy, 0, PAGE_SIZE, false, false);
    let mut s = on_cluster(&cluster, N, async move {
        for i in 0..N {
            a.store_u64(local.add((i % 512) * 8), i).await;
        }
    });
    s.ops = cluster.nic(0).counters().au_packets.get().max(1);
    s
}

/// `notify`: one notifying 64-byte send into a buffer whose receiver
/// enabled notifications, delivered to the user-level queue.
fn notify_dispatch() -> Sample {
    const N: u64 = 2_000;
    let (cluster, a, proxy, export) = two_nodes();
    let queue = cluster.vmmc(1).enable_notifications(export);
    cluster.sim().spawn(async move {
        for _ in 0..N {
            queue.recv().await;
        }
    });
    let src = a.space().alloc(1);
    on_cluster(&cluster, N, async move {
        for _ in 0..N {
            a.send_notify(src, &proxy, 0, 64).await;
        }
    })
}

/// `svm`: one first-touch `SvmNode::read_u32` of a page homed on the
/// other node (one read fault).
fn svm_fault() -> Sample {
    const PAGES: usize = 256;
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let svm = Svm::create(&cluster, SvmConfig::new(Protocol::Aurc));
    let region = svm.create_region(PAGES * PAGE_SIZE, |_| 1);
    let node = svm.node(0);
    on_cluster(&cluster, PAGES as u64, async move {
        for p in 0..PAGES {
            node.read_u32(region, p * PAGE_SIZE).await;
        }
    })
}

/// The app kernels: each classic row's application on one node, where
/// it computes without communicating.
pub(crate) fn app_rows(rows: &[Row]) -> Vec<(&'static str, RunSpec)> {
    rows.iter()
        .map(|r| {
            let spec = RunSpec::new("fig3", r.spec.app, 1, SCALE)
                .with_variant(r.spec.variant)
                .with_seed(r.spec.seed);
            (r.name, spec)
        })
        .collect()
}

/// Every layer cost a traced run measures.
#[derive(Debug, Clone)]
pub(crate) struct Costs {
    /// `sim.sleep_ns`: one executor event.
    pub(crate) sim_event: Cost,
    /// `sim.queue_msg_ns`: one queue message.
    pub(crate) sim_queue: Cost,
    /// `shard.window_ns`: one window at two shards.
    pub(crate) shard_window: Cost,
    /// `net.send_contended_ns`.
    pub(crate) net_contended: Cost,
    /// `net.send_decoupled_ns`.
    pub(crate) net_decoupled: Cost,
    /// `nic.du_page_ns`: a 4 KB deliberate-update send.
    pub(crate) nic_du_page: Cost,
    /// `nic.au_store_ns`: one automatic-update store.
    pub(crate) nic_au_store: Cost,
    /// `vmmc.send_small_ns`: a 64-byte send.
    pub(crate) vmmc_small: Cost,
    /// `notify.dispatch_ns`: one notification.
    pub(crate) notify: Cost,
    /// `svm.fault_ns`: one remote read fault.
    pub(crate) svm_fault: Cost,
    /// `apps.<app>.p1_ms` as a per-run cost (ns per run).
    pub(crate) apps: Vec<(&'static str, Cost)>,
}

/// Measures every layer cost: the median of 5 repetitions, 3 for the
/// 1-node application rows in `apps`.
pub(crate) fn measure_costs(spans: &mut Spans, apps: &[(&'static str, RunSpec)]) -> Costs {
    const REPS: usize = 5;
    spans.open("microbench");
    let costs = Costs {
        sim_event: measure(spans, "sim.sleep", REPS, sim_sleep),
        sim_queue: measure(spans, "sim.queue_msg", REPS, sim_queue),
        shard_window: measure(spans, "shard.window", REPS, shard_window),
        net_contended: measure(spans, "net.send_contended", REPS, net_contended),
        net_decoupled: measure(spans, "net.send_decoupled", REPS, net_decoupled),
        nic_du_page: measure(spans, "nic.du_page", REPS, || vmmc_send(PAGE_SIZE)),
        nic_au_store: measure(spans, "nic.au_store", REPS, nic_au_store),
        vmmc_small: measure(spans, "vmmc.send_small", REPS, || vmmc_send(64)),
        notify: measure(spans, "notify.dispatch", REPS, notify_dispatch),
        svm_fault: measure(spans, "svm.fault", REPS, svm_fault),
        apps: apps
            .iter()
            .map(|(name, spec)| {
                let cost = measure(spans, &format!("apps.{name}.p1"), 3, || {
                    let start = Instant::now();
                    let (_, perf) = spec.execute_timed();
                    Sample {
                        ops: 1,
                        events: perf.events,
                        wall_ns: start.elapsed().as_nanos() as u64,
                    }
                });
                (*name, cost)
            })
            .collect(),
    };
    spans.close();
    costs
}

/// The deterministic per-layer counts of one traced pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Executor events.
    pub events: u64,
    /// Shard windows.
    pub windows: u64,
    /// Events of the rows that ran windows.
    pub windowed_events: u64,
    /// Mesh packets on the contended transport (classic rows).
    pub packets_contended: u64,
    /// Mesh packets on the decoupled transport (launch rows).
    pub packets_decoupled: u64,
    /// Mesh wire bytes, headers included.
    pub wire_bytes: u64,
    /// Simulated ps packets waited for busy mesh channels.
    pub contention_wait_ps: u64,
    /// Deliberate-update transfers.
    pub du_transfers: u64,
    /// Deliberate-update payload bytes.
    pub du_bytes: u64,
    /// Automatic-update packets.
    pub au_packets: u64,
    /// Outgoing-FIFO threshold interrupts.
    pub fifo_threshold_interrupts: u64,
    /// VMMC messages.
    pub messages: u64,
    /// User-level notifications.
    pub notifications: u64,
    /// Host interrupts taken.
    pub interrupts: u64,
    /// SVM read faults.
    pub read_faults: u64,
    /// SVM write faults.
    pub write_faults: u64,
    /// Faults the fault plane injected.
    pub faults_injected: u64,
    /// Summed failure-detection latency (simulated ps).
    pub detection_latency_ps: u64,
}

/// A counter's value, or a histogram's sum, from a registry snapshot.
fn registry(m: &MetricsSnapshot, category: Category, name: &str) -> u64 {
    match m.get(category, name) {
        Some(MetricValue::Counter(v)) => *v,
        Some(MetricValue::Histogram(h)) => h.sum,
        _ => 0,
    }
}

impl Counts {
    /// Adds one row's observed execution.
    pub fn add(&mut self, row: &Row, o: &Observed) {
        let m = &o.metrics;
        let r = &o.record;
        self.events += o.events;
        self.windows += o.windows;
        if o.windows > 0 {
            self.windowed_events += o.events;
        }
        if row.is_launch() {
            self.packets_decoupled += r.net_packets;
        } else {
            self.packets_contended += r.net_packets;
        }
        self.wire_bytes += registry(m, Category::Net, "wire_bytes");
        self.contention_wait_ps += registry(m, Category::Net, "contention_wait_ps");
        self.du_transfers += registry(m, Category::Nic, "du_transfers");
        self.du_bytes += registry(m, Category::Nic, "du_bytes");
        self.au_packets += registry(m, Category::Nic, "au_packets");
        self.fifo_threshold_interrupts += registry(m, Category::Nic, "fifo_threshold_interrupts");
        self.messages += r.messages;
        self.notifications += r.notifications;
        self.interrupts += r.interrupts;
        self.read_faults += registry(m, Category::Svm, "read_faults");
        self.write_faults += registry(m, Category::Svm, "write_faults");
        if let Some(rec) = &r.recovery {
            self.faults_injected += rec.faults_injected;
            self.detection_latency_ps += rec.detection_latency_ps;
        }
    }
}

/// Each layer's estimated share of a pass, in ms: count × exclusive cost.
///
/// Microbenchmarks nest — a 4 KB send includes a small send's fixed cost,
/// a notification includes a send, an AU store includes its mesh packet,
/// an SVM fault includes a request and a page reply — so each layer's
/// cost drops what the layers it calls already charge, and every cost
/// drops its own simulator events, which the `sim` layer charges.
pub(crate) fn estimates(c: &Counts, k: &Costs, rows: &[Row]) -> Vec<(&'static str, f64)> {
    let ev = k.sim_event.ns;
    let x = |cost: &Cost| cost.exclusive_ns(ev);
    let small = x(&k.vmmc_small);
    let per_byte = ((x(&k.nic_du_page) - small) / (PAGE_SIZE - 64) as f64).max(0.0);
    let au = (x(&k.nic_au_store) - x(&k.net_contended)).max(0.0);
    let notify = (x(&k.notify) - small).max(0.0);
    let fault = (x(&k.svm_fault) - small - x(&k.nic_du_page)).max(0.0);
    let ms = |count: u64, ns: f64| count as f64 * ns / 1e6;
    let apps = rows
        .iter()
        .filter_map(|r| k.apps.iter().find(|(name, _)| *name == r.name))
        .fold(0.0, |sum, (_, cost)| sum + x(cost) / 1e6);
    vec![
        ("sim", ms(c.events, ev)),
        ("shard", ms(c.windows, x(&k.shard_window))),
        (
            "net",
            ms(c.packets_contended, x(&k.net_contended))
                + ms(c.packets_decoupled, x(&k.net_decoupled)),
        ),
        ("nic", ms(c.du_bytes, per_byte) + ms(c.au_packets, au)),
        ("vmmc", ms(c.messages, small)),
        ("notify", ms(c.notifications, notify)),
        ("svm", ms(c.read_faults + c.write_faults, fault)),
        ("apps", apps),
    ]
}
