//! The 2-D mesh, dimension-order routing, and packet timing.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use shrimp_faults::{FaultPlane, PacketFate, ShrimpError};
use shrimp_sim::shard::ShardSender;
use shrimp_sim::sync::Resource;
use shrimp_sim::{time, FastMap, Queue, Sim, Time};

use crate::stats::NetStats;

/// Payload that the fault plane knows how to corrupt in flight.
///
/// Implementations mutate the payload the way bit errors on the wire would,
/// leaving any embedded integrity check stale so receivers can detect the
/// damage. `salt` deterministically selects what to flip.
pub trait Faultable {
    /// Corrupts the payload in place.
    fn corrupt(&mut self, salt: u64);
}

impl Faultable for u64 {
    fn corrupt(&mut self, salt: u64) {
        *self ^= salt | 1;
    }
}

/// Identifies one node (PC + network interface) of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Mesh geometry and timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshConfig {
    /// Routers per row.
    pub width: usize,
    /// Routers per column.
    pub height: usize,
    /// Per-link bandwidth in bytes/second (paper: 200 MB/s max).
    pub link_bytes_per_sec: u64,
    /// Routing decision + switch traversal per hop.
    pub hop_latency: Time,
    /// Transceiver-board crossing (differential signaling), paid once at
    /// injection and once at ejection.
    pub transceiver_latency: Time,
    /// Fixed per-packet header/framing overhead in bytes (route and control
    /// flits).
    pub header_bytes: usize,
}

impl MeshConfig {
    /// The 16-node SHRIMP backplane: 4x4 mesh, 200 MB/s links, ~40 ns router
    /// delay, ~100 ns transceiver crossing, 16-byte packet header.
    pub fn shrimp_4x4() -> Self {
        MeshConfig {
            width: 4,
            height: 4,
            link_bytes_per_sec: 200_000_000,
            hop_latency: time::ns(40),
            transceiver_latency: time::ns(100),
            header_bytes: 16,
        }
    }

    /// Smallest mesh that holds `n` nodes, with SHRIMP timing parameters.
    /// Used for the 1..16-processor speedup sweeps of Figure 3.
    pub fn for_nodes(n: usize) -> Self {
        assert!(n >= 1, "mesh must hold at least one node");
        let width = (n as f64).sqrt().ceil() as usize;
        let height = n.div_ceil(width);
        MeshConfig {
            width,
            height,
            ..MeshConfig::shrimp_4x4()
        }
    }

    /// Total routers in the mesh.
    pub fn capacity(&self) -> usize {
        self.width * self.height
    }

    /// Minimum latency any packet pays between two *distinct* nodes: the
    /// injection and ejection transceiver crossings plus one router hop.
    /// This is the cross-shard **lookahead** of the conservative parallel
    /// executor (`shrimp_sim::shard`) — no inter-node interaction can take
    /// effect sooner, so it bounds the synchronization window.
    pub fn min_remote_latency(&self) -> Time {
        2 * self.transceiver_latency + self.hop_latency
    }

    /// Uncongested end-to-end latency for a `payload_bytes` packet crossing
    /// `hops` router-to-router links: transceiver crossings at both ends,
    /// per-hop routing delay (every channel including inject/eject pays one),
    /// and one wire serialization of payload + header. Contention can only
    /// add to this.
    pub fn point_latency(&self, hops: usize, payload_bytes: usize) -> Time {
        let wire_bytes = (payload_bytes + self.header_bytes) as u64;
        2 * self.transceiver_latency
            + (hops as Time + 1) * self.hop_latency
            + time::transfer(wire_bytes, self.link_bytes_per_sec)
    }

    /// Grid coordinates of a node.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        (node.0 % self.width, node.0 / self.width)
    }
}

/// A packet in flight between two shards of a sharded backplane: the
/// cross-shard message type of the cluster's conservative-parallel runs.
#[derive(Debug)]
pub struct Flit<P> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node (owned by the destination shard).
    pub dst: NodeId,
    /// The packet payload.
    pub pkt: P,
}

/// One queued decoupled delivery; ordered by `(arrival, src)`, which the
/// per-pair no-overtake clamp makes unique per destination.
struct HeapEntry<P> {
    arrival: Time,
    src: usize,
    pkt: P,
}

impl<P> PartialEq for HeapEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.arrival, self.src) == (other.arrival, other.src)
    }
}
impl<P> Eq for HeapEntry<P> {}
impl<P> PartialOrd for HeapEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for HeapEntry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival, self.src).cmp(&(other.arrival, other.src))
    }
}

/// State of the **decoupled** transport used by sharded runs.
///
/// The contended model books shared `Resource`s (links, inject/eject
/// channels) — zero-lookahead state that cannot be split across shards. The
/// decoupled model drops contention entirely: every packet pays its
/// uncongested [`MeshConfig::point_latency`], with a per-`(src, dst)` pair
/// no-overtake clamp standing in for FIFO channel order. Deliveries into a
/// node's ingress queue are reordered through a per-destination min-heap
/// keyed `(arrival, src)` and drained once per simulated instant, so the
/// delivery order is the total order over `(arrival, src)` — a pure
/// function of the simulated program, never of the shard layout. That is
/// what keeps a sharded cluster byte-identical at any `--shards`.
struct Decoupled<P> {
    /// This backplane's shard.
    shard: usize,
    /// Owning shard of every node (the node → shard map).
    shard_map: Vec<usize>,
    /// Cross-shard channel to the peer backplanes.
    sender: ShardSender<Flit<P>>,
    /// Last granted arrival per (src, dst) pair, for the no-overtake clamp,
    /// at `src * n_nodes + dst`.
    last_arrival: RefCell<Vec<Time>>,
    /// Per-destination reorder heaps (only owned destinations are used).
    heaps: RefCell<Vec<BinaryHeap<Reverse<HeapEntry<P>>>>>,
    /// Instant for which a drain of the node's heap is already scheduled.
    drain_at: Vec<Cell<Time>>,
}

struct Channels {
    // Directed router-to-router links.
    links: FastMap<(usize, usize), Resource>,
    // Node-to-router and router-to-node channels.
    inject: Vec<Resource>,
    eject: Vec<Resource>,
    // NIC-internal loopback path (src == dst), serialized like any channel
    // so later packets cannot overtake earlier ones.
    loopback: Vec<Resource>,
}

struct NetworkInner<P> {
    sim: Sim,
    cfg: MeshConfig,
    channels: RefCell<Channels>,
    ingress: Vec<Queue<P>>,
    stats: NetStats,
    // Installed only for chaos runs; `None` is the zero-overhead fast path.
    faults: RefCell<Option<FaultPlane>>,
    // Reused by every fault-free `send` so routing allocates nothing per
    // packet in steady state.
    route_scratch: RefCell<Vec<usize>>,
    // `Some` on a sharded backplane: the decoupled fixed-latency transport
    // replaces the contended one wholesale. `Rc` so delivery closures can
    // capture the transport itself rather than re-proving its presence at
    // each hop (the old `.expect("decoupled transport")` sites).
    decoupled: Option<Rc<Decoupled<P>>>,
}

/// The routing backplane, generic over the packet payload type `P` (the NIC
/// crate defines the actual packet format).
pub struct Network<P> {
    inner: Rc<NetworkInner<P>>,
}

impl<P> Clone for Network<P> {
    fn clone(&self) -> Self {
        Network {
            inner: self.inner.clone(),
        }
    }
}

impl<P> std::fmt::Debug for Network<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.inner.ingress.len())
            .field("mesh", &(self.inner.cfg.width, self.inner.cfg.height))
            .finish()
    }
}

impl<P: 'static> Network<P> {
    /// Creates a backplane with `n_nodes` nodes attached.
    ///
    /// # Panics
    ///
    /// Panics if the mesh cannot hold `n_nodes`.
    pub fn new(sim: Sim, cfg: MeshConfig, n_nodes: usize) -> Self {
        assert!(
            n_nodes <= cfg.capacity(),
            "{n_nodes} nodes exceed mesh capacity {}",
            cfg.capacity()
        );
        let channels = Channels {
            links: FastMap::default(),
            inject: (0..n_nodes).map(|_| Resource::new()).collect(),
            eject: (0..n_nodes).map(|_| Resource::new()).collect(),
            loopback: (0..n_nodes).map(|_| Resource::new()).collect(),
        };
        Network {
            inner: Rc::new(NetworkInner {
                sim,
                cfg,
                channels: RefCell::new(channels),
                ingress: (0..n_nodes).map(|_| Queue::new()).collect(),
                stats: NetStats::new(),
                faults: RefCell::new(None),
                route_scratch: RefCell::new(Vec::new()),
                decoupled: None,
            }),
        }
    }

    /// Creates one shard's view of a sharded backplane running the
    /// **decoupled** transport (see `Decoupled`): all `n_nodes` node ids
    /// are addressable, but only nodes whose `shard_map` entry equals the
    /// sender's shard have their ingress consumed here; packets to any
    /// other node cross shards through `sender` at their arrival time.
    ///
    /// The shard's delivery handler must forward inbound flits to
    /// [`Network::deliver_remote`].
    ///
    /// # Panics
    ///
    /// Panics if the mesh cannot hold `n_nodes` or the map length differs.
    pub fn sharded(
        sim: Sim,
        cfg: MeshConfig,
        n_nodes: usize,
        shard_map: Vec<usize>,
        sender: ShardSender<Flit<P>>,
    ) -> Self {
        assert!(
            n_nodes <= cfg.capacity(),
            "{n_nodes} nodes exceed mesh capacity {}",
            cfg.capacity()
        );
        assert_eq!(shard_map.len(), n_nodes, "one owning shard per node");
        let decoupled = Decoupled {
            shard: sender.shard(),
            shard_map,
            sender,
            last_arrival: RefCell::new(vec![0; n_nodes * n_nodes]),
            heaps: RefCell::new((0..n_nodes).map(|_| BinaryHeap::new()).collect()),
            drain_at: (0..n_nodes).map(|_| Cell::new(0)).collect(),
        };
        Network {
            inner: Rc::new(NetworkInner {
                sim,
                cfg,
                channels: RefCell::new(Channels {
                    links: FastMap::default(),
                    inject: Vec::new(),
                    eject: Vec::new(),
                    loopback: Vec::new(),
                }),
                ingress: (0..n_nodes).map(|_| Queue::new()).collect(),
                stats: NetStats::new(),
                faults: RefCell::new(None),
                route_scratch: RefCell::new(Vec::new()),
                decoupled: Some(Rc::new(decoupled)),
            }),
        }
    }

    /// Installs a fault plane: subsequent [`Network::send`] calls consult it
    /// for per-packet fates and failed links. Without one (the default) the
    /// send path is exactly the fault-free fast path.
    pub fn install_fault_plane(&self, plane: FaultPlane) {
        *self.inner.faults.borrow_mut() = Some(plane);
    }

    /// Number of attached nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.ingress.len()
    }

    /// Mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.inner.cfg
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// The queue into which packets destined for `node` are delivered; the
    /// node's NIC incoming engine consumes it.
    pub fn ingress(&self, node: NodeId) -> Queue<P> {
        self.inner.ingress[node.0].clone()
    }

    /// Router index sequence for the dimension-order (X then Y) route from
    /// `src` to `dst`, inclusive of both endpoints.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<usize> {
        let mut path = Vec::new();
        self.route_into(src, dst, &mut path);
        path
    }

    /// [`Network::route`] into a caller-provided buffer (cleared first), so
    /// the hot send path can reuse one allocation across packets.
    fn route_into(&self, src: NodeId, dst: NodeId, path: &mut Vec<usize>) {
        path.clear();
        let cfg = &self.inner.cfg;
        let (mut x, mut y) = cfg.coords(src);
        let (dx, dy) = cfg.coords(dst);
        path.push(y * cfg.width + x);
        while x != dx {
            x = if dx > x { x + 1 } else { x - 1 };
            path.push(y * cfg.width + x);
        }
        while y != dy {
            y = if dy > y { y + 1 } else { y - 1 };
            path.push(y * cfg.width + x);
        }
    }

    /// Injects a packet of `payload_bytes` at `src` destined for `dst`;
    /// the packet is pushed onto `dst`'s ingress queue at the computed
    /// arrival time. Returns the arrival time.
    ///
    /// `src == dst` loops back through the NIC without touching the mesh
    /// (one transceiver crossing each way).
    ///
    /// With a fault plane installed, mesh packets may be dropped, corrupted,
    /// or duplicated per the scenario, and routing avoids failed links. A
    /// packet whose destination is unreachable (a permanent failure with no
    /// alternative route) is lost at injection and counted in the plane's
    /// stats.
    pub fn send(&self, src: NodeId, dst: NodeId, payload_bytes: usize, packet: P) -> Time
    where
        P: Clone + Faultable,
    {
        if let Some(d) = self.inner.decoupled.clone() {
            return self.send_decoupled(&d, src, dst, payload_bytes, packet);
        }
        let sim = &self.inner.sim;
        let cfg = &self.inner.cfg;
        let wire_bytes = (payload_bytes + cfg.header_bytes) as u64;
        let serialization = time::transfer(wire_bytes, cfg.link_bytes_per_sec);
        let plane = self.inner.faults.borrow().clone();

        let (arrival, fate, salt) = if src == dst {
            let channels = self.inner.channels.borrow();
            let start = reserve_from(
                &channels.loopback[src.0],
                sim,
                sim.now() + cfg.transceiver_latency,
                serialization,
            );
            // Loopback never touches the mesh, so link faults cannot reach it.
            (
                start + serialization + cfg.transceiver_latency,
                PacketFate::Deliver,
                0,
            )
        } else {
            let detour;
            let mut scratch = self.inner.route_scratch.borrow_mut();
            let path: &[usize] = match &plane {
                Some(p) if p.has_link_faults() => match self.route_avoiding(src, dst, p) {
                    Some(path) => {
                        detour = path;
                        &detour
                    }
                    None => {
                        p.record_link_reject();
                        return sim.now();
                    }
                },
                _ => {
                    self.route_into(src, dst, &mut scratch);
                    &scratch
                }
            };
            let hops = path.len() as u64 - 1;
            let mut channels = self.inner.channels.borrow_mut();
            let mut head = sim.now() + cfg.transceiver_latency;
            let ideal_start = head;
            // Injection channel.
            head = reserve_from(&channels.inject[src.0], sim, head, serialization);
            // Router-to-router links.
            for w in path.windows(2) {
                let key = (w[0], w[1]);
                let link = channels.links.entry(key).or_default().clone();
                head = reserve_from(&link, sim, head + cfg.hop_latency, serialization);
            }
            // Ejection channel.
            head = reserve_from(
                &channels.eject[dst.0],
                sim,
                head + cfg.hop_latency,
                serialization,
            );
            let waited = head - (ideal_start + (hops + 1) * cfg.hop_latency);
            self.inner.stats.record_packet(wire_bytes, hops, waited);
            let metrics = sim.metrics();
            metrics.counter_add(shrimp_sim::Category::Net, "packets", 1);
            metrics.counter_add(shrimp_sim::Category::Net, "wire_bytes", wire_bytes);
            // Channel-busy time: serialization on the inject channel, each
            // router-to-router link, and the eject channel (utilization
            // numerator; the run's elapsed time is the denominator).
            metrics.counter_add(
                shrimp_sim::Category::Net,
                "link_busy_ps",
                serialization * (hops + 2),
            );
            metrics.observe(shrimp_sim::Category::Net, "contention_wait_ps", waited);
            shrimp_sim::trace_event!(
                sim.trace(),
                sim.now(),
                shrimp_sim::Category::Net,
                [
                    ("node", src.0),
                    ("dst", dst.0),
                    ("bytes", wire_bytes),
                    ("hops", hops),
                    ("wait_ps", waited),
                ],
                "{src} -> {dst}: {wire_bytes} B over {hops} hops (waited {waited} ps)"
            );
            let (fate, salt) = fate_and_salt(plane.as_ref(), src, dst);
            (head + serialization + cfg.transceiver_latency, fate, salt)
        };

        let ingress = self.inner.ingress[dst.0].clone();
        match fate {
            PacketFate::Drop => {}
            PacketFate::Deliver | PacketFate::Corrupt | PacketFate::Duplicate => {
                let mut packet = packet;
                if fate == PacketFate::Corrupt {
                    packet.corrupt(salt);
                }
                if fate == PacketFate::Duplicate {
                    let dup = packet.clone();
                    let twice = ingress.clone();
                    sim.schedule(arrival, move || twice.send(dup));
                }
                sim.schedule(arrival, move || ingress.send(packet));
            }
        }
        arrival
    }

    /// The decoupled send path (see `Decoupled`): uncongested point
    /// latency plus the per-pair no-overtake clamp, then either a local
    /// insert into the destination's reorder heap at arrival time or a
    /// cross-shard flit through the [`ShardSender`].
    ///
    /// Fault injection here consults only sender-shard state: the fate draw
    /// comes from the `(src, dst)` edge's own stream (a per-entity plane —
    /// the only kind installable on a sharded backplane), and link-fault
    /// routing depends on the send instant, which is node-local. Every
    /// injected fault is therefore identical at any shard count.
    fn send_decoupled(
        &self,
        d: &Rc<Decoupled<P>>,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        mut packet: P,
    ) -> Time
    where
        P: Clone + Faultable,
    {
        let sim = &self.inner.sim;
        let cfg = &self.inner.cfg;
        let wire_bytes = (payload_bytes + cfg.header_bytes) as u64;
        let serialization = time::transfer(wire_bytes, cfg.link_bytes_per_sec);
        let plane = self.inner.faults.borrow().clone();
        let (sx, sy) = cfg.coords(src);
        let (dx, dy) = cfg.coords(dst);
        let mut hops = sx.abs_diff(dx) + sy.abs_diff(dy);
        // A failed link stretches (or severs) the route exactly as on the
        // contended path; the detour's extra hops feed the point latency.
        if src != dst {
            if let Some(p) = plane.as_ref().filter(|p| p.has_link_faults()) {
                match self.route_avoiding(src, dst, p) {
                    Some(path) => hops = path.len() - 1,
                    None => {
                        p.record_link_reject();
                        return sim.now();
                    }
                }
            }
        }
        let ideal = if src == dst {
            // Loopback: transceiver out and back, never touching the mesh.
            sim.now() + 2 * cfg.transceiver_latency + serialization
        } else {
            sim.now() + cfg.point_latency(hops, payload_bytes)
        };
        // No-overtake: a later packet on the same (src, dst) pair arrives at
        // least one serialization time behind its predecessor, mirroring the
        // contended model's FIFO channels — and making `(arrival, src)`
        // unique per destination, which the reorder heap's total order
        // requires.
        let arrival = {
            let mut last = d.last_arrival.borrow_mut();
            let slot = &mut last[src.0 * self.num_nodes() + dst.0];
            let granted = ideal.max(*slot + serialization);
            *slot = granted;
            granted
        };
        if src != dst {
            self.inner.stats.record_packet(wire_bytes, hops as u64, 0);
            let metrics = sim.metrics();
            metrics.counter_add(shrimp_sim::Category::Net, "packets", 1);
            metrics.counter_add(shrimp_sim::Category::Net, "wire_bytes", wire_bytes);
            metrics.counter_add(
                shrimp_sim::Category::Net,
                "link_busy_ps",
                serialization * (hops as u64 + 2),
            );
            shrimp_sim::trace_event!(
                sim.trace(),
                sim.now(),
                shrimp_sim::Category::Net,
                [
                    ("node", src.0),
                    ("dst", dst.0),
                    ("bytes", wire_bytes),
                    ("hops", hops),
                ],
                "{src} -> {dst}: {wire_bytes} B over {hops} hops (decoupled)"
            );
        }
        // Loopback never touches the mesh, so packet fates cannot reach it.
        let (fate, salt) = if src == dst {
            (PacketFate::Deliver, 0)
        } else {
            fate_and_salt(plane.as_ref(), src, dst)
        };
        if fate == PacketFate::Drop {
            // The clamp already advanced — a dropped packet still occupied
            // its channel slot, exactly as on the contended path.
            return arrival;
        }
        if fate == PacketFate::Corrupt {
            packet.corrupt(salt);
        }
        if d.shard_map[dst.0] == d.shard {
            // Deliveries are *events at the arrival instant*: the insert
            // runs at `arrival`, so its executor seq — like the seqs of the
            // cross-shard dispatches merged at the window boundary — is
            // assigned before the instant executes, and the drain scheduled
            // *during* the instant runs after every same-instant insert.
            if fate == PacketFate::Duplicate {
                let dup = packet.clone();
                let net = self.clone();
                let dd = d.clone();
                sim.schedule(arrival, move || {
                    net.insert_decoupled(&dd, arrival, src, dst, dup);
                });
            }
            let net = self.clone();
            let dd = d.clone();
            sim.schedule(arrival, move || {
                net.insert_decoupled(&dd, arrival, src, dst, packet);
            });
        } else {
            if fate == PacketFate::Duplicate {
                d.sender.send(
                    d.shard_map[dst.0],
                    arrival,
                    Flit {
                        src,
                        dst,
                        pkt: packet.clone(),
                    },
                );
            }
            d.sender.send(
                d.shard_map[dst.0],
                arrival,
                Flit {
                    src,
                    dst,
                    pkt: packet,
                },
            );
        }
        arrival
    }

    /// Hands a cross-shard flit to this (sharded) backplane; wire the
    /// shard's `on_message` handler to this. Must be called at the flit's
    /// arrival instant — which the shard engine's dispatch guarantees.
    ///
    /// # Errors
    ///
    /// [`ShrimpError::NoDecoupledTransport`] when this backplane was built
    /// with [`Network::new`] (the contended transport): it has no reorder
    /// heaps, so a cross-shard flit has nowhere to land. This is the typed
    /// form of a wiring bug — a sharded engine driving an unsharded
    /// network — and should surface as a harness error row, not a panic.
    pub fn deliver_remote(&self, arrival: Time, flit: Flit<P>) -> Result<(), ShrimpError> {
        let Some(d) = self.inner.decoupled.clone() else {
            return Err(ShrimpError::NoDecoupledTransport { dst: flit.dst.0 });
        };
        debug_assert_eq!(
            self.inner.sim.now(),
            arrival,
            "remote flit delivered off its arrival instant"
        );
        self.insert_decoupled(&d, arrival, flit.src, flit.dst, flit.pkt);
        Ok(())
    }

    /// Queues one decoupled delivery and schedules the destination's drain
    /// for this instant (once per node per instant).
    fn insert_decoupled(
        &self,
        d: &Rc<Decoupled<P>>,
        arrival: Time,
        src: NodeId,
        dst: NodeId,
        packet: P,
    ) {
        debug_assert_eq!(d.shard_map[dst.0], d.shard, "insert for an unowned node");
        d.heaps.borrow_mut()[dst.0].push(Reverse(HeapEntry {
            arrival,
            src: src.0,
            pkt: packet,
        }));
        if d.drain_at[dst.0].get() != arrival {
            d.drain_at[dst.0].set(arrival);
            let net = self.clone();
            let dd = d.clone();
            self.inner
                .sim
                .schedule(arrival, move || net.drain_decoupled(&dd, dst));
        }
    }

    /// Delivers every queued packet whose arrival is now due into the
    /// node's ingress queue, in `(arrival, src)` order.
    fn drain_decoupled(&self, d: &Decoupled<P>, dst: NodeId) {
        let now = self.inner.sim.now();
        let mut due = Vec::new();
        {
            let mut heaps = d.heaps.borrow_mut();
            let heap = &mut heaps[dst.0];
            while heap.peek().is_some_and(|e| e.0.arrival <= now) {
                if let Some(Reverse(entry)) = heap.pop() {
                    due.push(entry.pkt);
                }
            }
        }
        let ingress = self.inner.ingress[dst.0].clone();
        for pkt in due {
            ingress.send(pkt);
        }
    }

    /// A route from `src` to `dst` that avoids links failed *now*: the
    /// dimension-order route when it is clean, otherwise the first
    /// breadth-first detour (deterministic neighbor order — x−1, x+1, y−1,
    /// y+1). `None` when the failure disconnects the pair.
    ///
    /// The detour is a pure function of `(geometry, src, dst, blocked links
    /// at now)` — no transport state — which is what makes link-fault
    /// behavior identical between the contended and decoupled transports and
    /// at every shard count (pinned by the route-around property test).
    pub fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        plane: &FaultPlane,
    ) -> Option<Vec<usize>> {
        let now = self.inner.sim.now();
        let dim = self.route(src, dst);
        if dim.windows(2).all(|w| !plane.link_blocked(w[0], w[1], now)) {
            return Some(dim);
        }
        let cfg = &self.inner.cfg;
        let (start, goal) = (dim[0], *dim.last().expect("route is never empty"));
        let mut prev = vec![usize::MAX; cfg.capacity()];
        prev[start] = start;
        let mut frontier = VecDeque::from([start]);
        while let Some(r) = frontier.pop_front() {
            if r == goal {
                break;
            }
            let (x, y) = (r % cfg.width, r / cfg.width);
            let mut neighbors = [usize::MAX; 4];
            let mut n_nb = 0;
            if x > 0 {
                neighbors[n_nb] = r - 1;
                n_nb += 1;
            }
            if x + 1 < cfg.width {
                neighbors[n_nb] = r + 1;
                n_nb += 1;
            }
            if y > 0 {
                neighbors[n_nb] = r - cfg.width;
                n_nb += 1;
            }
            if y + 1 < cfg.height {
                neighbors[n_nb] = r + cfg.width;
                n_nb += 1;
            }
            for &nb in &neighbors[..n_nb] {
                if prev[nb] == usize::MAX && !plane.link_blocked(r, nb, now) {
                    prev[nb] = r;
                    frontier.push_back(nb);
                }
            }
        }
        if prev[goal] == usize::MAX {
            return None;
        }
        let mut path = vec![goal];
        let mut r = goal;
        while r != start {
            r = prev[r];
            path.push(r);
        }
        path.reverse();
        plane.record_reroute();
        self.inner
            .sim
            .metrics()
            .counter_add(shrimp_sim::Category::Net, "reroutes", 1);
        Some(path)
    }
}

/// Draws the packet fate and, for a corrupt fate, the corruption salt in one
/// step. Pairing the two draws on the same `Option` match removes the old
/// `.expect("corrupt fate without plane")` delivery-path panics: with no
/// plane installed the fate is structurally `Deliver` and no salt is ever
/// asked for.
fn fate_and_salt(plane: Option<&FaultPlane>, src: NodeId, dst: NodeId) -> (PacketFate, u64) {
    match plane {
        None => (PacketFate::Deliver, 0),
        Some(p) => {
            let fate = p.packet_fate(src.0, dst.0);
            let salt = if fate == PacketFate::Corrupt {
                p.corrupt_salt(src.0, dst.0)
            } else {
                0
            };
            (fate, salt)
        }
    }
}

/// Books `duration` on `r` starting no earlier than `earliest`; returns the
/// actual start time (>= earliest; later if the channel is busy).
fn reserve_from(r: &Resource, sim: &Sim, earliest: Time, duration: Time) -> Time {
    // The Resource reserves from max(now, busy_until); we additionally need
    // the head-arrival constraint, which we encode by taking the max with
    // `earliest` and re-booking any gap.
    let (start, _end) = r.reserve(sim, duration);
    if start >= earliest {
        start
    } else {
        // The channel was free before the head arrives; push the booking.
        // A second reservation models the idle gap; since the resource is
        // FIFO this keeps later packets behind this one.
        let (s2, _) = r.reserve(sim, earliest - start);
        let _ = s2;
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_sim::Sim;

    fn net(n: usize) -> (Sim, Network<u64>) {
        let sim = Sim::new();
        let nw = Network::new(sim.clone(), MeshConfig::shrimp_4x4(), n);
        (sim, nw)
    }

    #[test]
    fn remote_flit_on_contended_backplane_is_a_typed_error() {
        // Regression: wiring a sharded engine's on_message handler to a
        // backplane built with `Network::new` used to hit
        // `.expect("decoupled transport")` and abort. The misconfiguration
        // must surface as a `ShrimpError` the harness can report as a row.
        let (_sim, nw) = net(4);
        let flit = Flit {
            src: NodeId(0),
            dst: NodeId(3),
            pkt: 7u64,
        };
        assert_eq!(
            nw.deliver_remote(0, flit).unwrap_err(),
            ShrimpError::NoDecoupledTransport { dst: 3 }
        );
        // Nothing was queued for the addressed node.
        assert_eq!(nw.ingress(NodeId(3)).try_recv(), None);
    }

    #[test]
    fn route_is_dimension_order() {
        let (_sim, nw) = net(16);
        // Node 1 = (1,0); node 14 = (2,3). X first: 1->2, then Y: 2,6,10,14.
        assert_eq!(nw.route(NodeId(1), NodeId(14)), vec![1, 2, 6, 10, 14]);
        // Self-route.
        assert_eq!(nw.route(NodeId(5), NodeId(5)), vec![5]);
    }

    #[test]
    fn packet_arrives_and_latency_scales_with_hops() {
        let (sim, nw) = net(16);
        let t1 = nw.send(NodeId(0), NodeId(1), 64, 1); // 1 hop
        let t2 = nw.send(NodeId(0), NodeId(15), 64, 2); // 6 hops
        assert!(t2 > t1);
        sim.run();
        assert_eq!(nw.ingress(NodeId(1)).try_recv(), Some(1));
        assert_eq!(nw.ingress(NodeId(15)).try_recv(), Some(2));
        assert_eq!(nw.stats().packets(), 2);
    }

    #[test]
    fn single_word_latency_under_a_microsecond() {
        // The hardware fabric contributes well under the 3.71 us end-to-end
        // AU latency; most of that budget is in the NIC and buses.
        let (sim, nw) = net(16);
        let t = nw.send(NodeId(0), NodeId(15), 4, 9);
        sim.run();
        assert!(t < time::us(1), "fabric latency {t} too high");
    }

    #[test]
    fn loopback_skips_the_mesh() {
        let (sim, nw) = net(4);
        let t = nw.send(NodeId(2), NodeId(2), 128, 7);
        sim.run();
        assert_eq!(nw.ingress(NodeId(2)).try_recv(), Some(7));
        assert_eq!(nw.stats().packets(), 0); // no mesh traversal recorded
        assert!(t > 0);
    }

    #[test]
    fn shared_link_serializes_packets() {
        let (sim, nw) = net(16);
        // Two large packets over the same route injected back to back.
        let a = nw.send(NodeId(0), NodeId(3), 4096, 1);
        let b = nw.send(NodeId(0), NodeId(3), 4096, 2);
        sim.run();
        let ser = time::transfer(4096 + 16, 200_000_000);
        assert!(b >= a + ser, "second packet overlapped the first");
        assert!(nw.stats().contention_wait() > 0);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let (sim, nw) = net(16);
        let a = nw.send(NodeId(0), NodeId(1), 4096, 1);
        let b = nw.send(NodeId(4), NodeId(5), 4096, 2);
        sim.run();
        // Identical timing: same hop count, no shared channels.
        assert_eq!(a, b);
        assert_eq!(nw.stats().contention_wait(), 0);
    }

    #[test]
    fn many_to_one_contends_on_ejection() {
        let (sim, nw) = net(16);
        let mut arrivals = Vec::new();
        for src in 1..8 {
            arrivals.push(nw.send(NodeId(src), NodeId(0), 4096, src as u64));
        }
        sim.run();
        arrivals.sort_unstable();
        let ser = time::transfer(4096 + 16, 200_000_000);
        // Arrivals are at least a serialization time apart at the hotspot.
        for w in arrivals.windows(2) {
            assert!(w[1] >= w[0] + ser, "ejection channel cycle-shared");
        }
    }

    #[test]
    fn min_remote_latency_lower_bounds_every_send() {
        let (sim, nw) = net(16);
        let lookahead = nw.config().min_remote_latency();
        assert_eq!(lookahead, time::ns(240)); // 2 x 100 ns transceiver + 40 ns hop
        let t = nw.send(NodeId(0), NodeId(1), 0, 1);
        sim.run();
        assert!(
            t >= lookahead,
            "send arrived {t} before the lookahead bound"
        );
    }

    #[test]
    fn point_latency_matches_uncontended_send() {
        let (sim, nw) = net(16);
        // 0 -> 15 is 6 hops on the 4x4 dimension-order route.
        let t = nw.send(NodeId(0), NodeId(15), 64, 1);
        sim.run();
        assert_eq!(t, nw.config().point_latency(6, 64));
    }

    #[test]
    fn mesh_for_nodes_sizes() {
        assert_eq!(MeshConfig::for_nodes(1).capacity(), 1);
        assert!(MeshConfig::for_nodes(2).capacity() >= 2);
        assert!(MeshConfig::for_nodes(9).capacity() >= 9);
        assert!(MeshConfig::for_nodes(16).capacity() >= 16);
    }

    #[test]
    #[should_panic(expected = "exceed mesh capacity")]
    fn too_many_nodes_rejected() {
        let sim = Sim::new();
        let _ = Network::<u8>::new(sim, MeshConfig::shrimp_4x4(), 17);
    }

    use shrimp_faults::{FaultPlane, FaultScenario, LinkFault};

    #[test]
    fn fault_plane_drops_corrupts_and_duplicates() {
        let (sim, nw) = net(16);
        nw.install_fault_plane(FaultPlane::per_entity(FaultScenario {
            seed: 11,
            drop_pct: 20,
            corrupt_pct: 20,
            duplicate_pct: 20,
            ..FaultScenario::none()
        }));
        let sent = 200u64;
        for i in 0..sent {
            nw.send(NodeId(0), NodeId(5), 64, i);
        }
        sim.run();
        let mut received = Vec::new();
        while let Some(v) = nw.ingress(NodeId(5)).try_recv() {
            received.push(v);
        }
        let intact = received.iter().filter(|v| **v < sent).count() as u64;
        let mangled = received.len() as u64 - intact;
        // Drops removed packets, duplicates added them, corruption mangled
        // payloads (u64 corruption XORs in high bits, pushing values >= sent).
        assert!(intact < sent, "no packets were dropped");
        assert!(mangled > 0, "no packets were corrupted");
        assert!(
            received.len() as u64 > intact,
            "no packets were duplicated/corrupted"
        );
    }

    #[test]
    fn failed_link_routes_around() {
        let (sim, nw) = net(16);
        // Dimension-order route 0 -> 1 uses link (0,1); fail it permanently.
        nw.install_fault_plane(FaultPlane::per_entity(FaultScenario {
            link: Some(LinkFault {
                from: 0,
                to: 1,
                at_us: 0,
                down_us: 0,
            }),
            ..FaultScenario::none()
        }));
        let t = nw.send(NodeId(0), NodeId(1), 64, 42);
        sim.run();
        assert_eq!(nw.ingress(NodeId(1)).try_recv(), Some(42));
        // The detour (0 -> 4 -> 5 -> 1) is longer than the direct hop.
        let (sim2, nw2) = net(16);
        let direct = nw2.send(NodeId(0), NodeId(1), 64, 42);
        sim2.run();
        assert!(t > direct, "detour {t} not slower than direct {direct}");
    }

    #[test]
    fn transient_link_failure_recovers() {
        let (sim, nw) = net(16);
        nw.install_fault_plane(FaultPlane::per_entity(FaultScenario {
            link: Some(LinkFault {
                from: 0,
                to: 1,
                at_us: 0,
                down_us: 10,
            }),
            ..FaultScenario::none()
        }));
        // During the outage: detour. After it: direct again.
        let during = nw.send(NodeId(0), NodeId(1), 64, 1);
        sim.run();
        let resume = sim.now().max(time::us(10));
        let nw2 = nw.clone();
        sim.schedule(resume, move || {
            let _ = nw2.send(NodeId(0), NodeId(1), 64, 2);
        });
        sim.run();
        assert_eq!(nw.ingress(NodeId(1)).try_recv(), Some(1));
        assert_eq!(nw.ingress(NodeId(1)).try_recv(), Some(2));
        assert!(during > 0);
    }

    #[test]
    fn disconnected_destination_loses_packet_gracefully() {
        // A 2x1 mesh has a single link; failing it partitions the pair.
        let sim = Sim::new();
        let nw: Network<u64> = Network::new(sim.clone(), MeshConfig::for_nodes(2), 2);
        let plane = FaultPlane::per_entity(FaultScenario {
            link: Some(LinkFault {
                from: 0,
                to: 1,
                at_us: 0,
                down_us: 0,
            }),
            ..FaultScenario::none()
        });
        nw.install_fault_plane(plane.clone());
        nw.send(NodeId(0), NodeId(1), 64, 9);
        sim.run();
        assert_eq!(nw.ingress(NodeId(1)).try_recv(), None);
        assert_eq!(plane.stats().link_rejects.get(), 1);
    }

    #[test]
    fn installed_but_empty_plane_changes_nothing() {
        let (sim_a, nw_a) = net(16);
        let (sim_b, nw_b) = net(16);
        nw_b.install_fault_plane(FaultPlane::per_entity(FaultScenario::none()));
        let ta = nw_a.send(NodeId(0), NodeId(9), 256, 5);
        let tb = nw_b.send(NodeId(0), NodeId(9), 256, 5);
        sim_a.run();
        sim_b.run();
        assert_eq!(ta, tb);
        assert_eq!(nw_b.ingress(NodeId(9)).try_recv(), Some(5));
    }
}
