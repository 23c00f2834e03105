//! The arrival floor a sharded backplane publishes is a true lower bound.
//!
//! A node announces a send before its DMA starts (`Network::announce_send`);
//! the shard engine trusts the resulting `Network::output_floor` to widen
//! its next window. So the floor must never exceed the arrival of the packet
//! actually sent at the announced instant. This drives every cross-shard
//! `(src, dst)` pair of 8×8 and 16×16 meshes, split contiguously over 2 and
//! 4 shards, at payloads of 1, 16, 256 and 4096 bytes, with no fault and
//! with a failed link that forces detours. Each pair announces, waits out a
//! short DMA, sends, and compares; the floor must then be gone. A
//! same-shard announcement sets no floor.

use std::cell::RefCell;
use std::rc::Rc;

use shrimp_faults::{FaultPlane, FaultScenario, LinkFault};
use shrimp_net::{Flit, MeshConfig, Network, NodeId};
use shrimp_sim::{run_sharded, time, Builder, ShardConfig, Time};

const PAYLOADS: [usize; 4] = [1, 16, 256, 4096];

/// What one shard saw: checks made, failures, the smallest gap between an
/// arrival and its floor, and the sends that took a detour.
type Share = (u64, Vec<String>, Time, u64);

/// Runs every announced send of a `side`×`side` mesh over `shards` shards,
/// with the middle row's central eastward link failed or not.
fn run(side: usize, shards: usize, fail_link: bool) -> Share {
    let nodes = side * side;
    let cfg = MeshConfig::for_nodes(nodes);
    assert_eq!(cfg.width, side);
    let shard_map: Vec<usize> = (0..nodes).map(|n| n * shards / nodes).collect();
    let middle = u8::try_from((side / 2) * side + side / 2 - 1).expect("router ids fit a u8");
    let faults = if fail_link {
        FaultScenario {
            link: Some(LinkFault {
                from: middle,
                to: middle + 1,
                at_us: 0,
                down_us: 0,
            }),
            ..FaultScenario::none()
        }
    } else {
        FaultScenario::none()
    };
    let builders: Vec<Builder<Flit<u64>, Share>> = (0..shards)
        .map(|shard| {
            let (shard_map, cfg) = (shard_map.clone(), cfg.clone());
            let b: Builder<Flit<u64>, Share> = Box::new(move |ctx| {
                let sim = ctx.sim().clone();
                let net =
                    Network::sharded(sim.clone(), cfg, nodes, shard_map.clone(), ctx.sender());
                let plane = faults.is_active().then(|| FaultPlane::per_entity(faults));
                if let Some(plane) = &plane {
                    net.install_fault_plane(plane.clone());
                }
                let share = Rc::new(RefCell::new((0, Vec::new(), Time::MAX, 0)));
                let out = share.clone();
                sim.clone().spawn(async move {
                    let dma = time::ns(2);
                    let owned = (0..nodes).filter(|&n| shard_map[n] == shard);
                    for src in owned {
                        for (dst, &owner) in shard_map.iter().enumerate() {
                            let (s, d) = (NodeId(src), NodeId(dst));
                            if owner == shard {
                                net.announce_send(s, d, 64, sim.now() + dma);
                                if let Some(f) = net.output_floor() {
                                    share.borrow_mut().1.push(format!(
                                        "same-shard {src} -> {dst} announced floor {f}"
                                    ));
                                }
                                continue;
                            }
                            for payload in PAYLOADS {
                                net.announce_send(s, d, payload, sim.now() + dma);
                                let floor = net.output_floor();
                                sim.sleep(dma).await;
                                let arrival = net.send(s, d, payload, 0);
                                let mut share = share.borrow_mut();
                                share.0 += 1;
                                match floor {
                                    Some(f) if f <= arrival => share.2 = share.2.min(arrival - f),
                                    _ => share.1.push(format!(
                                        "{src} -> {dst}, {payload} B: floor {floor:?}, \
                                         arrival {arrival}"
                                    )),
                                }
                                if let Some(left) = net.output_floor() {
                                    share.1.push(format!(
                                        "{src} -> {dst}, {payload} B: floor {left} \
                                         outlived its send"
                                    ));
                                }
                            }
                        }
                    }
                });
                Box::new(move || {
                    let mut share = out.take();
                    share.3 = plane.map_or(0, |p| p.stats().reroutes.get());
                    share
                })
            });
            b
        })
        .collect();
    let out = run_sharded(
        &ShardConfig::new(shards, cfg.min_remote_latency()),
        builders,
    );
    out.results.into_iter().fold(
        (0, Vec::new(), Time::MAX, 0),
        |mut all, (checks, errs, gap, detours)| {
            all.0 += checks;
            all.1.extend(errs);
            all.2 = all.2.min(gap);
            all.3 += detours;
            all
        },
    )
}

#[test]
fn announced_floor_never_exceeds_the_arrival() {
    for side in [8usize, 16] {
        let nodes = side * side;
        for shards in [2usize, 4] {
            let per_shard = nodes / shards;
            let cross_pairs = (nodes * (nodes - per_shard)) as u64;
            for fail_link in [false, true] {
                let (checks, errs, gap, detours) = run(side, shards, fail_link);
                let at = format!("{side}x{side}, {shards} shards, failed link {fail_link}");
                assert!(
                    errs.is_empty(),
                    "{at}: {} failures, first {:?}",
                    errs.len(),
                    &errs[..errs.len().min(5)]
                );
                assert_eq!(checks, cross_pairs * PAYLOADS.len() as u64, "{at}");
                if fail_link {
                    assert!(detours > 0, "{at}: no send took a detour");
                } else {
                    // Tight: a pair's first packet arrives exactly at its floor.
                    assert_eq!(gap, 0, "{at}: no floor was tight");
                }
            }
        }
    }
}

#[test]
fn a_withdrawn_or_earlier_send_handles_the_floor_right() {
    let cfg = MeshConfig::for_nodes(16);
    let lookahead = cfg.min_remote_latency();
    let b: Builder<Flit<u64>, ()> = Box::new(move |ctx| {
        let sim = ctx.sim().clone();
        // Node 0 on shard 0, node 15 on shard 1 (the map is shard 1's too).
        let map = (0..16).map(|n| n / 8).collect();
        let net = Network::sharded(sim.clone(), cfg, 16, map, ctx.sender());
        let at = time::us(2);
        net.announce_send(NodeId(0), NodeId(15), 32, at);
        let floor = at + net.config().point_latency(6, 32);
        assert_eq!(net.output_floor(), Some(floor));
        // A same-shard send before the announced instant (the node's
        // automatic-update FIFO, say) leaves the floor standing.
        net.send(NodeId(0), NodeId(1), 8, 0);
        assert_eq!(net.output_floor(), Some(floor));
        net.withdraw_send(NodeId(0));
        assert_eq!(net.output_floor(), None);
        Box::new(|| ())
    });
    let idle: Builder<Flit<u64>, ()> = Box::new(|_| Box::new(|| ()));
    run_sharded(&ShardConfig::new(2, lookahead), vec![b, idle]);
}
