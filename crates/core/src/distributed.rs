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
//! [`run_chaos_distributed`] runs a fault-tolerant variant: every node
//! also runs the heartbeat failure detector of [`crate::liveness`], routes
//! data sends around the peers it declares dead, and revives a declared
//! peer that is heard again (a restart). Detection latency and recovery
//! time land in [`LaunchOutcome::detection_latency_ps`] and
//! [`LaunchOutcome::recovery_time_ps`].

use std::rc::Rc;
use std::sync::Arc;

use shrimp_faults::NodeCrash;
use shrimp_mem::{Vaddr, PAGE_SIZE};
use shrimp_sim::rng::splitmix64;
use shrimp_sim::shard::Shards;
use shrimp_sim::{time, Time};

use crate::cluster::{Cluster, LaunchOutcome, NodeProgram};
use crate::config::DesignConfig;
pub use crate::liveness::HeartbeatConfig;
use crate::liveness::{crash_onset, Liveness, Verdict, CTRL_SLOT};
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
/// deliberate-update send to a seeded peer, or to the first peer after it
/// that is not `dead` (no send when every peer is).
async fn work_step(
    vmmc: &Vmmc,
    p: &DistributedParams,
    stage: Vaddr,
    proxies: &[Option<ProxyBuffer>],
    step: u32,
    dead: impl Fn(usize) -> bool,
) {
    let me = vmmc.node_id().0;
    let n = p.nodes;
    let slot = p.payload;
    let jitter = choice(p.seed, me, step, 0x6a69) % 1024;
    vmmc.compute(p.compute + jitter).await;
    if n == 1 {
        return;
    }
    let pick = (me + 1 + choice(p.seed, me, step, 0x7065) as usize % (n - 1)) % n;
    let mut peers = (pick..n + pick).map(|q| q % n);
    let Some(dst) = peers.find(|&q| q != me && !dead(q)) else {
        return;
    };
    stage_payload(vmmc, stage, slot, p.seed, me, step);
    let proxy = proxies[dst].as_ref().expect("never send to self");
    vmmc.send(stage, proxy, me * slot, slot).await;
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
    let me = vmmc.node_id().0;
    let n = p.nodes;
    let slot = p.payload;
    let len = n * slot;

    // The receive buffer is every node's FIRST allocation, so its physical
    // pages are the same deterministic sequence on every fresh node — the
    // fact `import_peers` relies on.
    let recv = vmmc.space().alloc(len.div_ceil(PAGE_SIZE));
    let export = vmmc.export(recv, len);
    let inbox = vmmc.enable_notifications(export);
    let stage = vmmc.space().alloc(slot.div_ceil(PAGE_SIZE).max(1));
    let proxies = vmmc.import_peers(recv, len);

    for step in 0..p.steps {
        work_step(&vmmc, &p, stage, &proxies, step, |_| false).await;
    }
    if n > 1 {
        // Closing round: one notifying send per peer. It follows every
        // data send on the same (src, dst) pair, so its notification
        // witnesses that all of this node's data has landed there.
        stage_payload(&vmmc, stage, slot, p.seed, me, p.steps);
        for proxy in proxies.iter().flatten() {
            vmmc.send_notify(stage, proxy, me * slot, slot).await;
        }
        for _ in 1..n {
            inbox
                .recv()
                .await
                .expect("notification queue closed before all peers checked in");
        }
    }
    // Checksum the now-final receive buffer: the node's program result.
    let seed = p.seed ^ ((me as u64) << 32) ^ 0x5348_524d_5044_4953;
    checksum_recv(&vmmc, recv, len, seed).await
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
    let ctrl_len = n * CTRL_SLOT;
    let abort_at = crash_onset(&vmmc);

    // Allocation order is the node-map contract (see `run_node`): data
    // receive buffer first, control buffer second, so peers compute both
    // from their own layout. A restarted incarnation repeats the same
    // sequence on rewound allocators and lands on the same pages.
    let recv = vmmc.space().alloc(len.div_ceil(PAGE_SIZE));
    let _ = vmmc.export(recv, len);
    let ctrl = vmmc.space().alloc(ctrl_len.div_ceil(PAGE_SIZE));
    let _ = vmmc.export(ctrl, ctrl_len);
    let hb_stage = vmmc.space().alloc(1);
    let stage = vmmc.space().alloc(slot.div_ceil(PAGE_SIZE).max(1));
    let data_proxies = vmmc.import_peers(recv, len);
    let ctrl_proxies = vmmc.import_peers(ctrl, ctrl_len);

    let live = Rc::new(Liveness::new(det, p.seed, 0..n, me, abort_at));

    // Heartbeat sender: one peer per period, round-robin, carrying the
    // counter and this node's done flag. Dead peers keep receiving
    // heartbeats — a restarted incarnation must hear the world to rejoin.
    if n > 1 {
        let (sim, vmmc, live) = (sim.clone(), vmmc.clone(), Rc::clone(&live));
        sim.clone().spawn(async move {
            let mut hb = live.heartbeat(hb_stage);
            loop {
                sim.sleep(det.period).await;
                if live.halt.get() || sim.now() >= abort_at {
                    break;
                }
                let target = hb.stage(&vmmc, live.my_done.get());
                hb.send(&vmmc, &ctrl_proxies, target).await;
            }
        });
    }

    // Monitor: a heard peer that was declared dead has restarted, so it
    // is revived and its outage booked as recovery time.
    if n > 1 {
        let (clock, views, stats) = (sim.clone(), Rc::clone(&live), vmmc.stats());
        sim.spawn(Rc::clone(&live).monitor(vmmc.clone(), ctrl, move |q, v| {
            if let Verdict::Heard {
                declared_at: Some(at),
                ..
            } = v
            {
                views.peer(q).revive();
                stats.recovery_time.update(|c| c + (clock.now() - at));
            }
        }));
    }

    // Worker: the compute/send rounds of `run_node`, with data sends
    // routed around peers the detector has declared dead.
    for step in 0..p.steps {
        work_step(&vmmc, &p, stage, &data_proxies, step, |q| {
            live.peer(q).is_dead()
        })
        .await;
    }
    live.my_done.set(true);

    // Completion: every peer has either gossiped its done flag or been
    // declared dead, and the hold-open window (for witnessing restarts)
    // has elapsed. Because the done flag rides the same per-pair FIFO as
    // the data sends, seeing it means that peer's data has landed.
    while !(live.settled() && sim.now() >= run_until) {
        sim.sleep(det.period).await;
    }
    live.halt.set(true);
    let seed = p.seed ^ ((me as u64) << 32) ^ 0x4348_414f_5344_4953;
    checksum_recv(&vmmc, recv, len, seed).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_net::NodeId;
    use std::cell::Cell;

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
