//! The fidelity gap between the two mesh transports. The contended
//! transport (`Network::new`) books every channel on the route; the
//! decoupled one (`Network::sharded`, which the sharded cluster uses)
//! charges the uncongested point latency plus a per-pair no-overtake
//! clamp. One fault-free send schedule is driven through both — the
//! decoupled one at one shard inside `run_sharded` — and the arrival each
//! `send` returns is compared packet by packet:
//!
//! - when no two packets are in flight at once, the arrivals are equal;
//! - under many-to-few load, the decoupled arrival is never later.

use std::cell::RefCell;
use std::rc::Rc;

use shrimp_net::{Flit, MeshConfig, Network, NodeId};
use shrimp_sim::{run_sharded, time, Builder, ShardConfig, Sim, Time};
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert, prop_assert_eq, props};

/// One send: instant (ps), source, destination, payload bytes.
type Send = (Time, usize, usize, usize);

/// Schedules every send on `sim` through `net`; the returned list fills
/// with each send's arrival, in schedule order, as the run executes.
fn schedule(sim: &Sim, net: Network<u64>, sends: &[Send]) -> Rc<RefCell<Vec<Time>>> {
    let arrivals = Rc::new(RefCell::new(Vec::new()));
    for (i, &(at, src, dst, payload)) in sends.iter().enumerate() {
        let (net, arrivals) = (net.clone(), arrivals.clone());
        sim.schedule(at, move || {
            let arrival = net.send(NodeId(src), NodeId(dst), payload, i as u64);
            arrivals.borrow_mut().push(arrival);
        });
    }
    arrivals
}

/// Arrivals on the contended transport.
fn contended(nodes: usize, sends: &[Send]) -> Vec<Time> {
    let sim = Sim::new();
    let net = Network::new(sim.clone(), MeshConfig::for_nodes(nodes), nodes);
    let arrivals = schedule(&sim, net, sends);
    sim.run();
    arrivals.take()
}

/// Arrivals on the decoupled transport, one shard.
fn decoupled(nodes: usize, sends: &[Send]) -> Vec<Time> {
    let sends = sends.to_vec();
    let b: Builder<Flit<u64>, Vec<Time>> = Box::new(move |ctx| {
        let cfg = MeshConfig::for_nodes(nodes);
        let net = Network::sharded(ctx.sim().clone(), cfg, nodes, vec![0; nodes], ctx.sender());
        let arrivals = schedule(ctx.sim(), net, &sends);
        Box::new(move || arrivals.take())
    });
    let lookahead = MeshConfig::for_nodes(nodes).min_remote_latency();
    let mut out = run_sharded(&ShardConfig::new(1, lookahead), vec![b]);
    out.results.pop().expect("one shard")
}

/// Sends one after another: each starts no earlier than the latest any
/// earlier packet can arrive, so no two packets are ever in flight at once.
/// A pick is `((src, dst), payload, extra gap in ns)`.
fn serial_sends(nodes: usize, picks: &[((u64, u64), usize, u64)]) -> Vec<Send> {
    let cfg = MeshConfig::for_nodes(nodes);
    let mut at = 0;
    picks
        .iter()
        .map(|&((src, dst), payload, gap_ns)| {
            let n = nodes as u64;
            let send = (at, (src % n) as usize, (dst % n) as usize, payload);
            // The slowest route: corner to corner, uncontended.
            at += cfg.point_latency(cfg.width + cfg.height, payload) + time::ns(gap_ns);
            send
        })
        .collect()
}

/// Many sources into the first `few` nodes, in time order. A pick is
/// `(instant in ns, (src, dst), payload)`.
fn many_to_few(nodes: usize, few: u64, picks: &[(u64, (u64, u64), usize)]) -> Vec<Send> {
    let mut sends: Vec<Send> = picks
        .iter()
        .map(|&(at_ns, (src, dst), payload)| {
            let src = (src % nodes as u64) as usize;
            let dst = (dst % few.min(nodes as u64)) as usize;
            (time::ns(at_ns), src, dst, payload)
        })
        .collect();
    sends.sort_by_key(|s| s.0);
    sends
}

props! {
    cases = 64;

    /// Without overlap there is nothing to contend for: both transports
    /// charge exactly the uncongested latency.
    fn serial_sends_arrive_identically(
        nodes in usize_in(1..17),
        picks in vec_of(
            zip3(zip(any_u64(), any_u64()), usize_in(0..4097), u64_in(0..2_000)),
            1..200,
        ),
    ) {
        let sends = serial_sends(nodes, &picks);
        prop_assert_eq!(decoupled(nodes, &sends), contended(nodes, &sends));
    }

    /// Contention only delays: the decoupled transport, which ignores it,
    /// never delivers a packet later than the contended one. Sends bunch
    /// into three microseconds toward one to three destinations, so
    /// inject, link and eject channels all queue.
    fn decoupled_is_never_later_under_load(
        nodes in usize_in(2..17),
        few in u64_in(1..4),
        picks in vec_of(
            zip3(u64_in(0..3_000), zip(any_u64(), any_u64()), usize_in(0..4097)),
            1..300,
        ),
    ) {
        let sends = many_to_few(nodes, few, &picks);
        let (fast, slow) = (decoupled(nodes, &sends), contended(nodes, &sends));
        prop_assert_eq!(fast.len(), slow.len());
        for (i, (d, c)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!(d <= c, "packet {i} {:?}: decoupled {d} > contended {c}", sends[i]);
        }
    }
}
