//! A sharded backplane behaves the same at every shard count.
//!
//! One send schedule is driven through a 16-node `Network::sharded` split
//! contiguously over 1, 2 and 4 shards, each send issued on the shard that
//! owns its source. The schedule mixes random sends, loopback included,
//! with bursts that leave every node at one mesh distance from a target at
//! the same instant with the same payload, so packets from several shards
//! reach one node at one instant. A per-entity fault plane drops,
//! duplicates and corrupts packets. Every send's returned arrival, and
//! every node's ingress sequence of `(time, src, tag)`, must be equal at
//! every shard count.

use std::cell::RefCell;
use std::rc::Rc;

use shrimp_faults::{FaultPlane, FaultScenario};
use shrimp_net::{Flit, MeshConfig, Network, NodeId};
use shrimp_sim::{run_sharded, time, Builder, ShardConfig, Time};
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert_eq, props};

const NODES: usize = 16;

/// One send: instant (ps), source, destination, payload bytes.
type Send = (Time, usize, usize, usize);

/// What one run observed: each send's arrival in schedule order, and each
/// node's ingress as `(time, src, tag)` in delivery order.
#[derive(Debug, PartialEq)]
struct Seen {
    arrivals: Vec<Time>,
    ingress: Vec<Vec<(Time, u64, u64)>>,
}

/// A packet carries its source in the high half and its send index (the
/// tag) in the low half; a corrupted one is compared as it arrives.
fn packet(src: usize, tag: usize) -> u64 {
    ((src as u64) << 32) | tag as u64
}

/// Runs `sends` on `shards` shards under `faults` and merges what every
/// shard saw.
fn run(shards: usize, sends: &[Send], faults: FaultScenario) -> Seen {
    let shard_map: Vec<usize> = (0..NODES).map(|n| n * shards / NODES).collect();
    type Share = (Vec<(usize, Time)>, Vec<(usize, Vec<(Time, u64, u64)>)>);
    let builders: Vec<Builder<Flit<u64>, Share>> = (0..shards)
        .map(|shard| {
            let (shard_map, sends) = (shard_map.clone(), sends.to_vec());
            let b: Builder<Flit<u64>, Share> = Box::new(move |ctx| {
                let sim = ctx.sim().clone();
                let cfg = MeshConfig::for_nodes(NODES);
                let net =
                    Network::sharded(sim.clone(), cfg, NODES, shard_map.clone(), ctx.sender());
                net.install_fault_plane(FaultPlane::per_entity(faults));
                let owned: Vec<usize> = (0..NODES).filter(|&n| shard_map[n] == shard).collect();
                let logs: Vec<_> = owned
                    .iter()
                    .map(|&node| {
                        let log = Rc::new(RefCell::new(Vec::new()));
                        let (ingress, at, into) =
                            (net.ingress(NodeId(node)), sim.clone(), log.clone());
                        sim.spawn(async move {
                            while let Some(pkt) = ingress.recv().await {
                                into.borrow_mut()
                                    .push((at.now(), pkt >> 32, pkt & 0xffff_ffff));
                            }
                        });
                        (node, log)
                    })
                    .collect();
                let arrivals = Rc::new(RefCell::new(Vec::new()));
                for (tag, &(at, src, dst, payload)) in sends.iter().enumerate() {
                    if shard_map[src] != shard {
                        continue;
                    }
                    let (net, arrivals) = (net.clone(), arrivals.clone());
                    sim.schedule(at, move || {
                        let arrival = net.send(NodeId(src), NodeId(dst), payload, packet(src, tag));
                        arrivals.borrow_mut().push((tag, arrival));
                    });
                }
                Box::new(move || {
                    let logs = logs.into_iter().map(|(n, log)| (n, log.take())).collect();
                    (arrivals.take(), logs)
                })
            });
            b
        })
        .collect();
    let lookahead = MeshConfig::for_nodes(NODES).min_remote_latency();
    let out = run_sharded(&ShardConfig::new(shards, lookahead), builders);
    let mut arrivals = vec![None; sends.len()];
    let mut ingress = vec![Vec::new(); NODES];
    for (sent, logs) in out.results {
        for (tag, arrival) in sent {
            arrivals[tag] = Some(arrival);
        }
        for (node, log) in logs {
            ingress[node] = log;
        }
    }
    Seen {
        arrivals: arrivals
            .into_iter()
            .map(|a| a.expect("every send ran"))
            .collect(),
        ingress,
    }
}

/// The schedule: each random pick `(instant ns, (src, dst), payload)` is
/// one send; each burst `(instant ns, (target, distance), payload)` is one
/// send from every node at that mesh distance from the target, all at the
/// same instant with the same payload, so they arrive together.
fn schedule(picks: &[(u64, (u64, u64), usize)], bursts: &[(u64, (u64, u64), usize)]) -> Vec<Send> {
    let cfg = MeshConfig::for_nodes(NODES);
    let mut sends: Vec<Send> = picks
        .iter()
        .map(|&(at_ns, (src, dst), payload)| {
            let n = NODES as u64;
            (
                time::ns(at_ns),
                (src % n) as usize,
                (dst % n) as usize,
                payload,
            )
        })
        .collect();
    for &(at_ns, (target, distance), payload) in bursts {
        let target = NodeId((target % NODES as u64) as usize);
        let (tx, ty) = cfg.coords(target);
        for src in 0..NODES {
            let (sx, sy) = cfg.coords(NodeId(src));
            if (sx.abs_diff(tx) + sy.abs_diff(ty)) as u64 == distance {
                sends.push((time::ns(at_ns), src, target.0, payload));
            }
        }
    }
    sends
}

props! {
    cases = 32;

    fn every_shard_count_sees_the_same_packets(
        picks in vec_of(
            zip3(u64_in(0..20_000), zip(u64_in(0..16), u64_in(0..16)), usize_in(0..2049)),
            0..120,
        ),
        bursts in vec_of(
            zip3(u64_in(0..20_000), zip(u64_in(0..16), u64_in(1..4)), usize_in(0..2049)),
            1..12,
        ),
        seed in any_u64(),
        pcts in zip3(u8_in(0..30), u8_in(0..30), u8_in(0..30)),
    ) {
        let sends = schedule(&picks, &bursts);
        let (drop_pct, duplicate_pct, corrupt_pct) = pcts;
        let faults = FaultScenario {
            seed,
            drop_pct,
            duplicate_pct,
            corrupt_pct,
            ..FaultScenario::none()
        };
        let one = run(1, &sends, faults);
        for shards in [2, 4] {
            prop_assert_eq!(run(shards, &sends, faults), one, "at {} shards", shards);
        }
    }
}
