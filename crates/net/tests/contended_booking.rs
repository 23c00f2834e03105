//! Differential property test of the contended transport's channel
//! booking. The network keeps each channel as one busy-until time and
//! books `start = max(busy, earliest)`; the reference below is the booking
//! it replaced — one `Resource` per channel, reserved from `now` and
//! re-booked over the gap when the channel frees before the packet's head
//! reaches it. Random sends over random meshes, with and without a
//! link-fault plane, must see the same arrival times and the same
//! `NetStats`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use shrimp_faults::{FaultPlane, FaultScenario, LinkFault};
use shrimp_net::{MeshConfig, Network, NodeId};
use shrimp_sim::{time, Category, Resource, Sim, Time};
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert_eq, props};

/// Books `duration` on `r` no earlier than `earliest`: the deleted
/// `reserve_from`, verbatim in effect.
fn reserve_from(r: &Resource, sim: &Sim, earliest: Time, duration: Time) -> Time {
    let (start, _) = r.reserve(sim, duration);
    if start >= earliest {
        start
    } else {
        // The channel frees before the head arrives: book the idle gap so
        // later packets stay behind this one.
        r.reserve(sim, earliest - start);
        earliest
    }
}

/// The reference contended transport: channels as `Resource`s keyed by
/// endpoint, plus the statistics the network keeps.
#[derive(Default)]
struct Reference {
    links: HashMap<(usize, usize), Resource>,
    inject: HashMap<usize, Resource>,
    eject: HashMap<usize, Resource>,
    loopback: HashMap<usize, Resource>,
    packets: u64,
    bytes: u64,
    wait: Time,
}

impl Reference {
    /// Books one packet and returns its arrival; `path` is the router
    /// route (`None` when a failure disconnects the pair: nothing booked).
    fn send(
        &mut self,
        sim: &Sim,
        cfg: &MeshConfig,
        src: usize,
        dst: usize,
        payload: usize,
        path: Option<Vec<usize>>,
    ) -> Time {
        let wire = (payload + cfg.header_bytes) as u64;
        let ser = time::transfer(wire, cfg.link_bytes_per_sec);
        let first = sim.now() + cfg.transceiver_latency;
        if src == dst {
            let r = self.loopback.entry(src).or_default();
            return reserve_from(r, sim, first, ser) + ser + cfg.transceiver_latency;
        }
        let Some(path) = path else {
            return sim.now();
        };
        let hops = path.len() as u64 - 1;
        let mut head = reserve_from(self.inject.entry(src).or_default(), sim, first, ser);
        for w in path.windows(2) {
            let link = self.links.entry((w[0], w[1])).or_default();
            head = reserve_from(link, sim, head + cfg.hop_latency, ser);
        }
        let eject = self.eject.entry(dst).or_default();
        head = reserve_from(eject, sim, head + cfg.hop_latency, ser);
        self.packets += 1;
        self.bytes += wire;
        self.wait += head - (first + (hops + 1) * cfg.hop_latency);
        head + ser + cfg.transceiver_latency
    }
}

/// One generated send: instant (ns), source pick, destination pick
/// (`None` = loopback), payload bytes.
type SendSpec = (u64, (u64, Option<u64>), usize);

/// Runs `sends` through a fresh network and the reference; returns both
/// arrival lists and both `(packets, bytes, contention_wait)` triples.
#[allow(clippy::type_complexity)]
fn run(
    nodes: usize,
    link: Option<LinkFault>,
    sends: &[SendSpec],
) -> ((Vec<Time>, Vec<Time>), ((u64, u64, Time), (u64, u64, Time))) {
    let sim = Sim::new();
    let cfg = MeshConfig::for_nodes(nodes);
    let net: Network<u64> = Network::new(sim.clone(), cfg.clone(), nodes);
    // The reference routes on a network of its own with a plane of its
    // own, so its route lookups leave the real plane's counters alone; it
    // sends nothing, so it adds nothing to the simulator's `net/` counters.
    let router: Network<u64> = Network::new(sim.clone(), cfg.clone(), nodes);
    let scenario = FaultScenario {
        link,
        // Packet fates never change a booking; draw them anyway.
        drop_pct: if link.is_some() { 10 } else { 0 },
        duplicate_pct: if link.is_some() { 10 } else { 0 },
        ..FaultScenario::none()
    };
    let plane = scenario
        .is_active()
        .then(|| FaultPlane::per_entity(scenario));
    if let Some(p) = &plane {
        net.install_fault_plane(p.clone());
    }
    let reference_plane = scenario
        .is_active()
        .then(|| FaultPlane::per_entity(scenario));
    let reference = Rc::new(RefCell::new(Reference::default()));
    let arrivals = Rc::new(RefCell::new(Vec::new()));
    for (i, &(at_ns, (src_pick, dst_pick), payload)) in sends.iter().enumerate() {
        let src = (src_pick % nodes as u64) as usize;
        let dst = match dst_pick {
            None => src,
            Some(d) => (d % nodes as u64) as usize,
        };
        let (sim2, net, router, cfg) = (sim.clone(), net.clone(), router.clone(), cfg.clone());
        let (reference, arrivals, reference_plane) =
            (reference.clone(), arrivals.clone(), reference_plane.clone());
        sim.schedule(time::ns(at_ns), move || {
            let path = match &reference_plane {
                Some(p) if src != dst => router.route_avoiding(NodeId(src), NodeId(dst), p),
                _ => Some(router.route(NodeId(src), NodeId(dst))),
            };
            let want = reference
                .borrow_mut()
                .send(&sim2, &cfg, src, dst, payload, path);
            let got = net.send(NodeId(src), NodeId(dst), payload, i as u64);
            arrivals.borrow_mut().push((got, want));
        });
    }
    sim.run();
    let (got, want) = arrivals.borrow().iter().copied().unzip();
    let counters = sim.metrics().snapshot();
    let count = |name| counters.counter(Category::Net, name);
    let r = reference.borrow();
    (
        (got, want),
        (
            (
                count("packets"),
                count("wire_bytes"),
                count("contention_wait_ps"),
            ),
            (r.packets, r.bytes, r.wait),
        ),
    )
}

/// A link between router `pick % capacity` and one of its neighbours.
fn some_link(cfg: &MeshConfig, pick: u64) -> Option<(u8, u8)> {
    let from = (pick % cfg.capacity() as u64) as usize;
    let (x, y) = (from % cfg.width, from / cfg.width);
    let mut nbs = Vec::new();
    if x > 0 {
        nbs.push(from - 1);
    }
    if x + 1 < cfg.width {
        nbs.push(from + 1);
    }
    if y > 0 {
        nbs.push(from - cfg.width);
    }
    if y + 1 < cfg.height {
        nbs.push(from + cfg.width);
    }
    let to = *nbs.get((pick >> 32) as usize % nbs.len().max(1))?;
    Some((from as u8, to as u8))
}

/// Sends bunched into a few microseconds, so channels contend, with
/// loopback about one send in eight.
fn sends() -> Gen<Vec<SendSpec>> {
    let dst = one_of(vec![
        just(None),
        any_u64().map(Some),
        any_u64().map(Some),
        any_u64().map(Some),
        any_u64().map(Some),
        any_u64().map(Some),
        any_u64().map(Some),
        any_u64().map(Some),
    ]);
    vec_of(
        zip3(u64_in(0..5_000), zip(any_u64(), dst), usize_in(0..4097)),
        1..300,
    )
}

props! {
    cases = 64;

    /// Fault-free meshes of every size up to the 4x4 backplane.
    fn flat_channels_book_like_resources(
        nodes in usize_in(1..17),
        sends in sends(),
    ) {
        let ((got, want), (stats, reference)) = run(nodes, None, &sends);
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats, reference);
    }

    /// The same with a transient or permanent link failure: detours are
    /// booked from the route-around path.
    fn flat_channels_book_like_resources_around_failed_links(
        nodes in usize_in(2..17),
        link_pick in any_u64(),
        at_us in u32_in(0..4),
        down_us in u32_in(0..3),
        sends in sends(),
    ) {
        let cfg = MeshConfig::for_nodes(nodes);
        let link = some_link(&cfg, link_pick).map(|(from, to)| LinkFault {
            from,
            to,
            at_us,
            down_us,
        });
        let ((got, want), (stats, reference)) = run(nodes, link, &sends);
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats, reference);
    }
}
