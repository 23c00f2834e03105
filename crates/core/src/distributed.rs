//! The distributed cluster workload: the full SHRIMP software stack —
//! VMMC exports/imports, deliberate-update DMA, arrival interrupts, and
//! user-level notifications — driven through
//! [`ClusterBuilder::launch`](crate::ClusterBuilder::launch) so the same
//! program runs on one `Sim` or on many shards with bit-identical results.
//!
//! # Shape
//!
//! Every node exports one receive buffer with a fixed slot per peer,
//! enables notifications on it, and imports every peer's buffer. Because
//! each node's memory map is built by the identical allocation sequence on
//! a fresh `NodeMem`, a node computes its peers' physical pages from its
//! *own* — no bootstrap traffic — and imports them with
//! [`Vmmc::import_remote`](crate::Vmmc::import_remote). The work loop is
//! `steps` rounds of deterministic compute plus one deliberate-update send
//! to a seeded peer; a closing round sends one *notifying* message to every
//! peer, and each node returns a checksum of its receive buffer once all
//! `nodes - 1` closing notifications arrived (per-pair FIFO ordering makes
//! the notification the happens-after witness for that peer's data).
//!
//! # Invariance
//!
//! Each node's timeline is a pure function of its own deterministic
//! program and the totally-ordered `(arrival, source)` delivery sequence of
//! the decoupled mesh transport, so every [`LaunchOutcome`] field that
//! feeds a `RunRecord` is identical at every shard count — asserted here
//! and, at the artifact-byte level, by the harness shard-identity tests.
//!
//! The workload is *proportional*: per-node work is constant, so total
//! work scales linearly with the node count — the shape the 64- and
//! 256-node speedup rows in `EXPERIMENTS.md` rely on.
//!
//! # Chaos
//!
//! [`run_chaos_distributed`] runs a fault-tolerant variant of the same
//! workload: every node additionally exports a small control buffer,
//! gossips a heartbeat counter round-robin to its peers, and runs a
//! lease-based failure detector ([`HeartbeatConfig`]) that declares silent
//! peers dead after seeded-backoff probe extensions, routes data sends
//! around them, and witnesses deterministic restarts. Detection latency
//! and recovery time land in [`LaunchOutcome::detection_latency_ps`] and
//! [`LaunchOutcome::recovery_time_ps`].

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use shrimp_faults::{node_backoff, NodeCrash};
use shrimp_mem::{Vaddr, PAGE_SIZE};
use shrimp_net::NodeId;
use shrimp_sim::rng::splitmix64;
use shrimp_sim::shard::Shards;
use shrimp_sim::{time, Queue, Time};

use crate::cluster::{Cluster, LaunchOutcome, NodeProgram, Notification};
use crate::config::DesignConfig;
use crate::vmmc::{ProxyBuffer, Vmmc};

/// One round of SplitMix64 keyed by node and step — the deterministic
/// per-(node, step) choice stream of every workload in this module.
fn choice(seed: u64, node: usize, step: u32, salt: u64) -> u64 {
    let mut st = seed
        ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (step as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ salt;
    splitmix64(&mut st)
}

/// Workload shape for one distributed cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedParams {
    /// Simulated nodes (one full SHRIMP node each).
    pub nodes: usize,
    /// Compute/send rounds per node (excluding the closing notify round).
    pub steps: u32,
    /// Bytes per message; also the per-peer slot size in the receive
    /// buffer.
    pub payload: usize,
    /// Simulated compute time per round (before jitter).
    pub compute: Time,
    /// Workload seed; every derived choice is a pure function of it.
    pub seed: u64,
}

impl DistributedParams {
    /// The default 16-node shape at a given round count.
    pub fn with_steps(steps: u32) -> Self {
        DistributedParams {
            nodes: 16,
            steps,
            payload: 256,
            compute: time::us(2),
            seed: 1,
        }
    }

    /// The same per-node work on a different node count (proportional
    /// scaling: total work grows linearly with `nodes`).
    pub fn scaled_to(self, nodes: usize) -> Self {
        DistributedParams { nodes, ..self }
    }
}

/// Runs the workload on a sharded cluster and returns the merged,
/// shard-count-invariant outcome.
///
/// Fault scenarios are welcome here: `launch` runs them on per-entity RNG
/// streams that partition cleanly across shards. For runs that must also
/// *recover* — crashed peers detected, restarts witnessed — use
/// [`run_chaos_distributed`], whose workload carries a failure detector.
///
/// # Panics
///
/// Panics when `params.nodes == 0` or `params.payload == 0`.
pub fn run_distributed(
    params: &DistributedParams,
    cfg: DesignConfig,
    shards: Shards,
) -> LaunchOutcome {
    assert!(params.nodes >= 1, "workload needs at least one node");
    assert!(params.payload >= 1, "workload needs a non-empty payload");
    Cluster::builder(params.nodes)
        .config(cfg)
        .shards(shards)
        .launch(node_program(*params))
}

/// The per-node program of the workload, reusable under a caller-built
/// [`ClusterBuilder`](crate::ClusterBuilder).
pub fn node_program(p: DistributedParams) -> NodeProgram {
    Arc::new(move |vmmc: Vmmc| Box::pin(run_node(vmmc, p)))
}

/// The deterministic buffer map every incarnation of the workload builds
/// in [`setup_node`].
struct NodeSetup {
    recv: Vaddr,
    stage: Vaddr,
    inbox: Queue<Notification>,
    proxies: Vec<Option<ProxyBuffer>>,
}

/// The workload preamble: receive buffer, export + notifications, peer
/// page map, stage buffer, proxy imports. Pure allocation and table
/// programming: no sends, no awaits.
fn setup_node(vmmc: &Vmmc, p: &DistributedParams) -> NodeSetup {
    let me = vmmc.node_id().0;
    let n = p.nodes;
    let slot = p.payload;
    let len = n * slot;
    let npages = len.div_ceil(PAGE_SIZE);

    // The receive buffer is every node's FIRST allocation, so its physical
    // pages are the same deterministic sequence on every fresh node — the
    // fact import_remote relies on below.
    let recv = vmmc.space().alloc(npages);
    let export = vmmc.export(recv, len);
    let inbox = vmmc.enable_notifications(export);
    let peer_pages: Vec<u64> = (0..npages as u64)
        .map(|i| vmmc.space().phys_page(recv.page() + i))
        .collect();
    let stage = vmmc.space().alloc(slot.div_ceil(PAGE_SIZE).max(1));

    let proxies: Vec<_> = (0..n)
        .map(|peer| (peer != me).then(|| vmmc.import_remote(NodeId(peer), &peer_pages, len)))
        .collect();
    NodeSetup {
        recv,
        stage,
        inbox,
        proxies,
    }
}

/// Writes the `len`-byte seeded payload of `node`'s round `step` into the
/// stage buffer at `stage`: byte `i` is the low byte of `choice(seed, node,
/// step, i)`. Filled through a stack buffer, so a send allocates nothing
/// for its payload.
fn stage_payload(vmmc: &Vmmc, stage: Vaddr, len: usize, seed: u64, node: usize, step: u32) {
    const CHUNK: usize = 256;
    let mut chunk = [0u8; CHUNK];
    for off in (0..len).step_by(CHUNK) {
        let part = &mut chunk[..(len - off).min(CHUNK)];
        for (i, b) in part.iter_mut().enumerate() {
            *b = (choice(seed, node, step, (off + i) as u64) & 0xff) as u8;
        }
        vmmc.space().write_raw(stage.add(off as u64), part);
    }
}

/// One compute/send round of the workload: seeded jitter, then one
/// deliberate-update send to a seeded peer.
async fn work_step(vmmc: &Vmmc, p: &DistributedParams, s: &NodeSetup, step: u32) {
    let me = vmmc.node_id().0;
    let n = p.nodes;
    let slot = p.payload;
    let jitter = choice(p.seed, me, step, 0x6a69) % 1024;
    vmmc.compute(p.compute + jitter).await;
    if n == 1 {
        return;
    }
    let pick = choice(p.seed, me, step, 0x7065) as usize;
    let dst = (me + 1 + pick % (n - 1)) % n;
    stage_payload(vmmc, s.stage, slot, p.seed, me, step);
    let proxy = s.proxies[dst].as_ref().expect("never send to self");
    vmmc.send(s.stage, proxy, me * slot, slot).await;
}

/// The closing notify round plus the receive-buffer checksum that is the
/// node's program result.
async fn finish_node(vmmc: &Vmmc, p: &DistributedParams, s: &NodeSetup) -> u64 {
    let me = vmmc.node_id().0;
    let n = p.nodes;
    let slot = p.payload;
    let len = n * slot;

    if n > 1 {
        // Closing round: one notifying send per peer. It follows every
        // data send on the same (src, dst) pair, so its notification
        // witnesses that all of this node's data has landed there.
        stage_payload(vmmc, s.stage, slot, p.seed, me, p.steps);
        for proxy in s.proxies.iter().flatten() {
            vmmc.send_notify(s.stage, proxy, me * slot, slot).await;
        }
        let mut checked_in = 0;
        while checked_in < n - 1 {
            s.inbox
                .recv()
                .await
                .expect("notification queue closed before all peers checked in");
            checked_in += 1;
        }
    }

    // Checksum the receive buffer (node-local reads of a now-final buffer;
    // the scan is charged as a local copy).
    checksum_recv(
        vmmc,
        s.recv,
        len,
        p.seed ^ ((me as u64) << 32) ^ 0x5348_524d_5044_4953,
    )
    .await
}

/// Hashes the `len`-byte receive buffer at `recv` as it stands now, a page
/// at a time, then charges the scan as a local copy.
async fn checksum_recv(vmmc: &Vmmc, recv: Vaddr, len: usize, mut st: u64) -> u64 {
    // The page buffer is scoped so the future does not carry it across
    // the await.
    let h = {
        let mut page = [0u8; PAGE_SIZE];
        let mut h = 0u64;
        for off in (0..len).step_by(PAGE_SIZE) {
            let chunk = &mut page[..PAGE_SIZE.min(len - off)];
            vmmc.space().read(recv.add(off as u64), chunk);
            for &b in chunk.iter() {
                st ^= u64::from(b);
                h = h.wrapping_add(splitmix64(&mut st));
            }
        }
        h
    };
    vmmc.local_copy(len).await;
    h
}

async fn run_node(vmmc: Vmmc, p: DistributedParams) -> u64 {
    let setup = setup_node(&vmmc, &p);
    for step in 0..p.steps {
        work_step(&vmmc, &p, &setup, step).await;
    }
    finish_node(&vmmc, &p, &setup).await
}

/// Bytes of one node's slot in every peer's control buffer:
/// `[heartbeat counter: u64][done flag: u64]`, little-endian.
const CTRL_SLOT: usize = 16;

/// Knobs of the lease-based heartbeat failure detector run by the chaos
/// workload. Every node gossips a monotonically increasing counter to one
/// peer per `period`, rotating round-robin, so each peer hears from it
/// once per *cycle* (`period * (nodes - 1)`). A peer silent past its
/// `lease` gets up to `max_probes` deadline extensions of
/// [`node_backoff`] length (seeded exponential backoff with deterministic
/// jitter) before it is declared dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Gap between consecutive heartbeat sends (to rotating targets).
    pub period: Time,
    /// Silence tolerated from one peer before probing begins.
    pub lease: Time,
    /// Base of the probe-extension backoff schedule.
    pub backoff_base: Time,
    /// Cap of the probe-extension backoff schedule.
    pub backoff_cap: Time,
    /// Probes granted past the lease before declaring a peer dead.
    pub max_probes: u32,
}

impl HeartbeatConfig {
    /// The default detector for an `n`-node cluster: 1 µs heartbeat
    /// period, a lease of three full gossip cycles, and three probes on a
    /// 5 µs-base / 40 µs-cap backoff.
    pub fn for_nodes(n: usize) -> Self {
        let period = time::us(1);
        HeartbeatConfig {
            period,
            lease: 3 * period * n.saturating_sub(1).max(1) as Time,
            backoff_base: time::us(5),
            backoff_cap: time::us(40),
            max_probes: 3,
        }
    }

    /// One full gossip rotation: the gap between two heartbeats arriving
    /// at the *same* peer.
    pub fn cycle(&self, n: usize) -> Time {
        self.period * n.saturating_sub(1).max(1) as Time
    }
}

/// Runs the fault-tolerant chaos workload on a sharded cluster: the
/// distributed workload plus a heartbeat failure detector, with the
/// configured fault scenario injected from per-entity RNG streams.
///
/// When the scenario restarts a crashed node, the run is held open for
/// two gossip cycles past the restart so every survivor witnesses the
/// rejoin and records its recovery time.
///
/// # Panics
///
/// Panics when `params.nodes == 0`, `params.payload == 0`, or the launch
/// fails (deadlock, or `Shards::Fixed` above the node count — see
/// [`ClusterBuilder::try_launch`](crate::ClusterBuilder::try_launch)).
pub fn run_chaos_distributed(
    params: &DistributedParams,
    cfg: DesignConfig,
    shards: Shards,
    detector: HeartbeatConfig,
) -> LaunchOutcome {
    assert!(params.nodes >= 1, "workload needs at least one node");
    assert!(params.payload >= 1, "workload needs a non-empty payload");
    let run_until = cfg
        .faults
        .crash
        .as_ref()
        .and_then(NodeCrash::restart_at)
        .map_or(0, |t| t + 2 * detector.cycle(params.nodes));
    Cluster::builder(params.nodes)
        .config(cfg)
        .shards(shards)
        .launch(chaos_node_program(*params, detector, run_until))
}

/// The per-node program of the chaos workload, reusable under a
/// caller-built [`ClusterBuilder`](crate::ClusterBuilder). `run_until`
/// holds every node's completion open until that sim time (0 for no
/// hold), so late events — a restarted peer's rejoin — are witnessed.
pub fn chaos_node_program(
    p: DistributedParams,
    detector: HeartbeatConfig,
    run_until: Time,
) -> NodeProgram {
    Arc::new(move |vmmc: Vmmc| Box::pin(run_chaos_node(vmmc, p, detector, run_until)))
}

/// What one node's detector believes about one peer. Shared between the
/// worker, the heartbeat sender, and the monitor subtasks.
#[derive(Default)]
struct PeerView {
    dead: Cell<bool>,
    declared_at: Cell<Time>,
    done: Cell<bool>,
}

struct ChaosShared {
    /// Set by the worker once the run is complete; stops the subtasks.
    halt: Cell<bool>,
    /// This node's done flag, gossiped inside its heartbeats.
    my_done: Cell<bool>,
    peers: Vec<PeerView>,
}

async fn run_chaos_node(
    vmmc: Vmmc,
    p: DistributedParams,
    det: HeartbeatConfig,
    run_until: Time,
) -> u64 {
    let me = vmmc.node_id().0;
    let n = p.nodes;
    let sim = vmmc.sim().clone();
    let slot = p.payload;
    let len = n * slot;
    let npages = len.div_ceil(PAGE_SIZE);
    let ctrl_len = n * CTRL_SLOT;
    let ctrl_pages = ctrl_len.div_ceil(PAGE_SIZE);

    // If this node is scheduled to crash ahead, its subtasks self-abort at
    // the onset; a restarted incarnation (booted at or after the onset)
    // sees no future crash and runs clean.
    let abort_at = vmmc
        .cluster()
        .fault_plane()
        .and_then(|plane| plane.crash_of(me))
        .map(|c| c.onset())
        .filter(|&t| t > sim.now())
        .unwrap_or(Time::MAX);

    // Allocation order is the node-map contract (see `run_node`): data
    // receive buffer first, control buffer second, so peers compute both
    // from their own layout. A restarted incarnation repeats the same
    // sequence on rewound allocators and lands on the same pages.
    let recv = vmmc.space().alloc(npages);
    let _ = vmmc.export(recv, len);
    let ctrl = vmmc.space().alloc(ctrl_pages);
    let _ = vmmc.export(ctrl, ctrl_len);
    let hb_stage = vmmc.space().alloc(1);
    let stage = vmmc.space().alloc(slot.div_ceil(PAGE_SIZE).max(1));

    let data_pages: Vec<u64> = (0..npages as u64)
        .map(|i| vmmc.space().phys_page(recv.page() + i))
        .collect();
    let ctrl_phys: Vec<u64> = (0..ctrl_pages as u64)
        .map(|i| vmmc.space().phys_page(ctrl.page() + i))
        .collect();
    let data_proxies: Vec<_> = (0..n)
        .map(|peer| (peer != me).then(|| vmmc.import_remote(NodeId(peer), &data_pages, len)))
        .collect();
    let ctrl_proxies: Rc<Vec<_>> = Rc::new(
        (0..n)
            .map(|peer| {
                (peer != me).then(|| vmmc.import_remote(NodeId(peer), &ctrl_phys, ctrl_len))
            })
            .collect(),
    );

    let shared = Rc::new(ChaosShared {
        halt: Cell::new(false),
        my_done: Cell::new(false),
        peers: (0..n).map(|_| PeerView::default()).collect(),
    });

    // Heartbeat sender: one peer per period, round-robin, carrying the
    // counter and this node's done flag. Dead peers keep receiving
    // heartbeats — a restarted incarnation must hear the world to rejoin.
    if n > 1 {
        let (sim, vmmc, sh, proxies) = (
            sim.clone(),
            vmmc.clone(),
            Rc::clone(&shared),
            Rc::clone(&ctrl_proxies),
        );
        sim.clone().spawn(async move {
            let mut counter: u64 = 0;
            let mut target = (me + 1) % n;
            loop {
                sim.sleep(det.period).await;
                if sh.halt.get() || sim.now() >= abort_at {
                    break;
                }
                counter += 1;
                let mut bytes = [0u8; CTRL_SLOT];
                bytes[..8].copy_from_slice(&counter.to_le_bytes());
                bytes[8..].copy_from_slice(&u64::from(sh.my_done.get()).to_le_bytes());
                vmmc.space().write_raw(hb_stage, &bytes);
                let proxy = proxies[target].as_ref().expect("never heartbeat self");
                vmmc.send(hb_stage, proxy, me * CTRL_SLOT, CTRL_SLOT).await;
                target = (target + 1) % n;
                if target == me {
                    target = (target + 1) % n;
                }
            }
        });
    }

    // Monitor: samples every peer's control slot each period. A counter
    // change refreshes the lease (and witnesses a rejoin); silence past
    // the deadline earns seeded-backoff probe extensions, then a death
    // declaration.
    if n > 1 {
        let (sim, vmmc, sh) = (sim.clone(), vmmc.clone(), Rc::clone(&shared));
        let stats = vmmc.stats();
        sim.clone().spawn(async move {
            let start = sim.now();
            let mut last_val = vec![0u64; n];
            let mut last_heard = vec![start; n];
            let mut deadline = vec![start + det.lease; n];
            let mut attempt = vec![0u32; n];
            let mut slots = vec![0u8; ctrl_len];
            loop {
                sim.sleep(det.period).await;
                let now = sim.now();
                if sh.halt.get() || now >= abort_at {
                    break;
                }
                // One read of the whole control buffer: nothing below
                // awaits, so every slot is sampled at this same instant.
                vmmc.space().read(ctrl, &mut slots);
                for (q, b) in slots.chunks_exact(CTRL_SLOT).enumerate() {
                    if q == me {
                        continue;
                    }
                    let hb = u64::from_le_bytes(b[..8].try_into().unwrap());
                    let done = u64::from_le_bytes(b[8..].try_into().unwrap());
                    let view = &sh.peers[q];
                    if hb != last_val[q] {
                        last_val[q] = hb;
                        last_heard[q] = now;
                        attempt[q] = 0;
                        deadline[q] = now + det.lease;
                        if view.dead.get() {
                            view.dead.set(false);
                            let rec = now - view.declared_at.get();
                            stats.recovery_time.update(|c| c + rec);
                        }
                        if done != 0 {
                            view.done.set(true);
                        }
                    } else if !view.dead.get() && now >= deadline[q] {
                        if attempt[q] >= det.max_probes {
                            view.dead.set(true);
                            view.declared_at.set(now);
                            let lat = now - last_heard[q];
                            stats.detection_latency.update(|c| c + lat);
                        } else {
                            deadline[q] = now
                                + node_backoff(
                                    p.seed,
                                    q,
                                    attempt[q],
                                    det.backoff_base,
                                    det.backoff_cap,
                                );
                            attempt[q] += 1;
                        }
                    }
                }
            }
        });
    }

    // Worker: same compute/send rounds as `run_node`, but data sends
    // route around peers the detector has declared dead.
    for step in 0..p.steps {
        let jitter = choice(p.seed, me, step, 0x6a69) % 1024;
        vmmc.compute(p.compute + jitter).await;
        if n == 1 {
            continue;
        }
        let pick = choice(p.seed, me, step, 0x7065) as usize;
        let mut dst = (me + 1 + pick % (n - 1)) % n;
        let mut hops = 0;
        while (dst == me || shared.peers[dst].dead.get()) && hops < n {
            dst = (dst + 1) % n;
            hops += 1;
        }
        if hops >= n {
            continue; // every peer is dead; nothing to send to
        }
        stage_payload(&vmmc, stage, slot, p.seed, me, step);
        let proxy = data_proxies[dst].as_ref().expect("never send to self");
        vmmc.send(stage, proxy, me * slot, slot).await;
    }
    shared.my_done.set(true);

    // Completion: every peer has either gossiped its done flag or been
    // declared dead, and the hold-open window (for witnessing restarts)
    // has elapsed. Because the done flag rides the same per-pair FIFO as
    // the data sends, seeing it means that peer's data has landed.
    loop {
        let settled = (0..n)
            .filter(|&q| q != me)
            .all(|q| shared.peers[q].done.get() || shared.peers[q].dead.get());
        if settled && sim.now() >= run_until {
            break;
        }
        sim.sleep(det.period).await;
    }
    shared.halt.set(true);

    checksum_recv(
        &vmmc,
        recv,
        len,
        p.seed ^ ((me as u64) << 32) ^ 0x4348_414f_5344_4953,
    )
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn small() -> DistributedParams {
        DistributedParams {
            nodes: 8,
            steps: 4,
            payload: 64,
            compute: time::us(1),
            seed: 7,
        }
    }

    fn fields(o: &LaunchOutcome) -> (Time, Vec<u64>, u64, u64, u64, u64, u64, u64) {
        (
            o.elapsed,
            o.node_results.clone(),
            o.messages,
            o.notifications,
            o.interrupts,
            o.syscalls,
            o.net_packets,
            o.net_bytes,
        )
    }

    #[test]
    fn outcome_is_invariant_across_shard_counts() {
        let p = small();
        let base = run_distributed(&p, DesignConfig::as_built(), Shards::Fixed(1));
        assert_eq!(base.shards, 1);
        assert_eq!(base.windows, 0, "one shard must run windowless");
        let n = p.nodes as u64;
        assert_eq!(base.messages, n * u64::from(p.steps) + n * (n - 1));
        assert_eq!(base.notifications, n * (n - 1));
        for shards in [2, 4, 8] {
            let out = run_distributed(&p, DesignConfig::as_built(), Shards::Fixed(shards));
            assert_eq!(out.shards, shards);
            assert!(out.windows > 0, "{shards} shards ran without windows");
            assert_eq!(
                fields(&out),
                fields(&base),
                "outcome diverged at {shards} shards"
            );
        }
    }

    /// The NIC's output bound sets the window count: 240 windows at the
    /// fixed 360 ns lookahead, 108 with the bound. A bound that quietly
    /// fell back to the lookahead would show here.
    #[test]
    fn two_shard_windows_are_pinned() {
        let out = run_distributed(&small(), DesignConfig::as_built(), Shards::Fixed(2));
        assert_eq!(out.windows, 108);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_distributed(&small(), DesignConfig::as_built(), Shards::Fixed(2));
        let b = run_distributed(
            &DistributedParams { seed: 8, ..small() },
            DesignConfig::as_built(),
            Shards::Fixed(2),
        );
        assert_ne!(a.node_results, b.node_results);
    }

    #[test]
    fn single_node_runs_computation_only() {
        let p = DistributedParams {
            nodes: 1,
            ..small()
        };
        let out = run_distributed(&p, DesignConfig::as_built(), Shards::Auto);
        assert_eq!(out.messages, 0);
        assert_eq!(out.notifications, 0);
        assert_eq!(out.node_results.len(), 1);
    }

    /// Shutdown regression: a node whose program finishes immediately must
    /// keep its NIC and notification queues open until the engine's global
    /// drain barrier, so traffic arriving from *other shards* long after
    /// its completion is still delivered and counted.
    #[test]
    fn late_cross_shard_traffic_drains_before_queues_close() {
        let n = 4usize;
        let program: NodeProgram = Arc::new(move |vmmc: Vmmc| {
            Box::pin(async move {
                let me = vmmc.node_id().0;
                let recv = vmmc.space().alloc(1);
                let export = vmmc.export(recv, PAGE_SIZE);
                vmmc.enable_notifications(export);
                let pages = vec![vmmc.space().phys_page(recv.page())];
                if me == 0 {
                    return 1; // finishes at t=0; arrivals come much later
                }
                vmmc.compute(time::us(50)).await;
                let proxy = vmmc.import_remote(NodeId(0), &pages, PAGE_SIZE);
                let stage = vmmc.space().alloc(1);
                vmmc.space().write_raw(stage, &[me as u8; 32]);
                vmmc.send_notify(stage, &proxy, me * 32, 32).await;
                2
            })
        });
        let mut outcomes = Vec::new();
        for shards in [1usize, 2, 4] {
            let out = Cluster::builder(n)
                .shards(Shards::Fixed(shards))
                .launch(program.clone());
            assert_eq!(
                out.notifications,
                (n - 1) as u64,
                "late arrivals were dropped at {shards} shards"
            );
            outcomes.push(fields(&out));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
    }

    /// More fixed shards than nodes cannot host a fault scenario (a crash
    /// schedule needs every node on a real shard): `try_launch` returns
    /// the typed error, `launch` panics with its message.
    #[test]
    fn try_launch_rejects_shard_overflow_with_faults() {
        let mut cfg = DesignConfig::as_built();
        cfg.faults = shrimp_faults::FaultScenario {
            drop_pct: 3,
            ..Default::default()
        };
        let err = Cluster::builder(8)
            .config(cfg)
            .shards(Shards::Fixed(16))
            .try_launch(node_program(small()))
            .unwrap_err();
        assert!(matches!(
            err,
            shrimp_faults::ShrimpError::ShardOverflow {
                shards: 16,
                nodes: 8
            }
        ));
    }

    #[test]
    #[should_panic(expected = "lower the shard count")]
    fn launch_panics_on_shard_overflow_with_faults() {
        let mut cfg = DesignConfig::as_built();
        cfg.faults = shrimp_faults::FaultScenario {
            drop_pct: 3,
            ..Default::default()
        };
        let _ = Cluster::builder(8)
            .config(cfg)
            .shards(Shards::Fixed(16))
            .launch(node_program(small()));
    }

    fn chaos_fields(o: &LaunchOutcome) -> (Time, Vec<u64>, u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            o.elapsed,
            o.node_results.clone(),
            o.messages,
            o.net_packets,
            o.net_bytes,
            o.retransmits,
            o.corrupt_detected,
            o.dup_suppressed,
            o.faults_injected,
            o.detection_latency_ps,
        )
    }

    /// The tentpole guarantee: packet fates drawn from per-entity RNG
    /// streams make a chaos run byte-identical at every shard count.
    #[test]
    fn chaos_outcome_is_invariant_across_shard_counts() {
        let p = small();
        let mut cfg = DesignConfig::as_built();
        cfg.reliability = shrimp_faults::Reliability::on();
        cfg.faults = shrimp_faults::FaultScenario {
            seed: 11,
            drop_pct: 4,
            corrupt_pct: 3,
            duplicate_pct: 3,
            ..Default::default()
        };
        let det = HeartbeatConfig::for_nodes(p.nodes);
        let base = run_chaos_distributed(&p, cfg.clone(), Shards::Fixed(1), det);
        assert_eq!(base.windows, 0, "one shard must run windowless");
        assert!(base.faults_injected > 0, "scenario injected nothing");
        for shards in [2, 4] {
            let out = run_chaos_distributed(&p, cfg.clone(), Shards::Fixed(shards), det);
            assert!(out.windows > 0, "{shards} shards ran without windows");
            assert_eq!(
                chaos_fields(&out),
                chaos_fields(&base),
                "chaos outcome diverged at {shards} shards"
            );
        }
    }

    /// A permanently crashed node is declared dead by every survivor
    /// (finite detection latency) and the run still completes.
    #[test]
    fn permanent_crash_is_detected_and_run_completes() {
        let p = small();
        let mut cfg = DesignConfig::as_built();
        cfg.faults = shrimp_faults::FaultScenario {
            crash: Some(shrimp_faults::NodeCrash {
                node: 3,
                at_us: 10,
                down_us: 0,
            }),
            ..Default::default()
        };
        let det = HeartbeatConfig::for_nodes(p.nodes);
        let base = run_chaos_distributed(&p, cfg.clone(), Shards::Fixed(1), det);
        assert_eq!(base.node_results.len(), p.nodes);
        assert!(
            base.detection_latency_ps > 0,
            "no survivor declared the crashed node dead"
        );
        assert_eq!(base.recovery_time_ps, 0, "a permanent crash cannot rejoin");
        assert_eq!(base.faults_injected, 1, "the crash counts as one fault");
        for shards in [2, 4] {
            let out = run_chaos_distributed(&p, cfg.clone(), Shards::Fixed(shards), det);
            assert_eq!(
                chaos_fields(&out),
                chaos_fields(&base),
                "crash outcome diverged at {shards} shards"
            );
            assert_eq!(out.recovery_time_ps, base.recovery_time_ps);
        }
    }

    /// A crash with an outage window restarts deterministically: the
    /// survivors record both the detection and, once the restarted
    /// incarnation gossips again, the recovery.
    #[test]
    fn restart_is_witnessed_with_recovery_time() {
        let p = small();
        let mut cfg = DesignConfig::as_built();
        cfg.faults = shrimp_faults::FaultScenario {
            crash: Some(shrimp_faults::NodeCrash {
                node: 3,
                at_us: 10,
                down_us: 120,
            }),
            ..Default::default()
        };
        let det = HeartbeatConfig::for_nodes(p.nodes);
        let base = run_chaos_distributed(&p, cfg.clone(), Shards::Fixed(1), det);
        assert!(base.detection_latency_ps > 0, "crash went undetected");
        assert!(base.recovery_time_ps > 0, "rejoin went unwitnessed");
        for shards in [2, 4] {
            let out = run_chaos_distributed(&p, cfg.clone(), Shards::Fixed(shards), det);
            assert_eq!(
                chaos_fields(&out),
                chaos_fields(&base),
                "restart outcome diverged at {shards} shards"
            );
            assert_eq!(out.recovery_time_ps, base.recovery_time_ps);
        }
    }

    /// The classic path still exists and agrees with itself: build() and
    /// run_until_complete drive the same program single-Sim.
    #[test]
    fn classic_build_path_still_runs_programs() {
        let cluster = Cluster::builder(2).build();
        let a = cluster.vmmc(0);
        let b = cluster.vmmc(1);
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        a.space().write_raw(src, &[7u8; 16]);
        let got = Rc::new(Cell::new(false));
        let g2 = Rc::clone(&got);
        let h = cluster.sim().spawn(async move {
            a.send(src, &proxy, 0, 16).await;
            g2.set(true);
        });
        cluster.run_until_complete(vec![h]);
        assert!(got.get());
        let mut out = [0u8; 16];
        b.space().read(recv, &mut out);
        assert_eq!(out, [7u8; 16]);
    }
}
