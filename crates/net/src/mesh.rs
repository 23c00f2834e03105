//! The 2-D mesh, dimension-order routing, and packet timing.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::{Rc, Weak};

use shrimp_faults::{FaultPlane, PacketFate};
use shrimp_sim::shard::ShardSender;
use shrimp_sim::{time, HandlerId, Parked, Queue, Sim, Time, TimerHandler};

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
    /// [`point_latency`](Self::point_latency) of a header-only packet over
    /// one router-to-router link — both transceiver crossings, the inject,
    /// link and eject hops, and the header's serialization (360 ns on the
    /// SHRIMP backplane). Every route between distinct nodes has at least
    /// one link, contention and the no-overtake clamp only add, and a
    /// detour only adds links, so no packet arrives sooner. This is the
    /// cross-shard **lookahead** of the conservative parallel executor
    /// (`shrimp_sim::shard`): no inter-node interaction can take effect
    /// sooner, so it bounds the synchronization window.
    pub fn min_remote_latency(&self) -> Time {
        self.point_latency(1, 0)
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

    /// Links on the dimension-order route from `src` to `dst`.
    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let ((sx, sy), (dx, dy)) = (self.coords(src), self.coords(dst));
        sx.abs_diff(dx) + sy.abs_diff(dy)
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
/// The contended model books shared channels (links, inject/eject
/// channels) — zero-lookahead state that cannot be split across shards. The
/// decoupled model drops contention entirely: every packet pays its
/// uncongested [`MeshConfig::point_latency`], with a per-`(src, dst)` pair
/// no-overtake clamp standing in for FIFO channel order. Every packet, local
/// or not, travels as a [`Flit`] through the shard engine, which hands it
/// back at its arrival instant to the destination shard's backplane. That
/// inserts it into a per-destination min-heap keyed `(arrival, src)`,
/// drained once per simulated instant, so the delivery order is the total
/// order over `(arrival, src)` — a pure function of the simulated program,
/// never of the shard layout. That is what keeps a sharded cluster
/// byte-identical at any `--shards`.
struct Decoupled<P> {
    /// Owning shard of every node (the node → shard map).
    shard_map: Vec<usize>,
    /// The shard engine's channel, to this shard and to its peers.
    sender: ShardSender<Flit<P>>,
    /// Last granted arrival per (src, dst) pair, for the no-overtake clamp,
    /// at `src * n_nodes + dst`.
    last_arrival: RefCell<Vec<Time>>,
    /// Per-destination reorder heaps (only owned destinations are used).
    heaps: RefCell<Vec<BinaryHeap<Reverse<HeapEntry<P>>>>>,
    /// Instant for which a drain of the node's heap is already scheduled.
    drain_at: Vec<Cell<Time>>,
    /// Per sending node, its announced packet bound for another shard:
    /// `(send instant, arrival floor)`, until that send or a withdrawal.
    announced: Vec<Cell<Option<(Time, Time)>>>,
}

impl<P> Decoupled<P> {
    /// The arrival of a packet from `src` to `dst` whose uncongested arrival
    /// is `ideal`. No-overtake: a later packet on the same pair arrives at
    /// least one serialization time behind its predecessor, mirroring the
    /// contended model's FIFO channels — and making `(arrival, src)` unique
    /// per destination, which the reorder heap's total order requires. A
    /// dropped packet still advances the clamp: it occupied its slot, as on
    /// the contended transport.
    fn grant(&self, src: NodeId, dst: NodeId, ideal: Time, serialization: Time) -> Time {
        let mut last = self.last_arrival.borrow_mut();
        let slot = &mut last[src.0 * self.shard_map.len() + dst.0];
        *slot = ideal.max(*slot + serialization);
        *slot
    }
}

/// Busy-until times of the contended transport's channels, in one flat
/// `Vec`: per node an injection, an ejection and a loopback channel, then
/// per router its 4 outgoing links. A channel serves packets in booking
/// order, one serialization time each, so a packet whose head reaches a
/// busy channel waits for it — and later packets wait behind it.
struct Channels {
    busy: Vec<Time>,
    nodes: usize,
    width: usize,
}

impl Channels {
    fn new(nodes: usize, routers: usize, width: usize) -> Self {
        Channels {
            busy: vec![0; 3 * nodes + 4 * routers],
            nodes,
            width,
        }
    }

    fn inject(&self, node: NodeId) -> usize {
        node.0
    }

    fn eject(&self, node: NodeId) -> usize {
        self.nodes + node.0
    }

    fn loopback(&self, node: NodeId) -> usize {
        2 * self.nodes + node.0
    }

    /// The link from router `from` to its mesh neighbour `to`.
    fn link(&self, from: usize, to: usize) -> usize {
        let dir = if to == from + self.width {
            0
        } else if to + self.width == from {
            1
        } else if to == from + 1 {
            2
        } else {
            debug_assert_eq!(to + 1, from, "routers {from} and {to} are not adjacent");
            3
        };
        3 * self.nodes + 4 * from + dir
    }

    /// Books channel `ch` for `duration` from `earliest` or from when it
    /// frees, whichever is later; returns the start.
    fn book(&mut self, ch: usize, earliest: Time, duration: Time) -> Time {
        let start = self.busy[ch].max(earliest);
        self.busy[ch] = start + duration;
        start
    }
}

/// One contended packet waiting for its arrival timer.
struct Parcel<P> {
    dst: NodeId,
    pkt: P,
}

/// How packets cross the mesh: the two timing policies of the one
/// backplane. They differ only in how a send's arrival is computed and how
/// the packet is handed over; [`Network::send`] does everything else once.
enum Transport<P> {
    /// The classic single-`Sim` model: every packet books the channels on
    /// its route, and waits in `in_flight` for an arrival timer of the
    /// network's own, whose token is its slot.
    Contended {
        channels: RefCell<Channels>,
        in_flight: RefCell<Parked<Parcel<P>>>,
    },
    /// The sharded model (see `Decoupled`).
    Decoupled(Decoupled<P>),
}

struct NetworkInner<P> {
    sim: Sim,
    cfg: MeshConfig,
    /// This network as the handler of its timers: contended arrivals, or
    /// decoupled drains (whose token is the node).
    timer: HandlerId,
    ingress: Vec<Queue<P>>,
    stats: NetStats,
    // Installed only for chaos runs; `None` is the zero-overhead fast path.
    faults: RefCell<Option<FaultPlane>>,
    transport: Transport<P>,
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
    /// Creates a backplane with `n_nodes` nodes attached, running the
    /// **contended** transport on one [`Sim`].
    ///
    /// # Panics
    ///
    /// Panics if the mesh cannot hold `n_nodes`.
    pub fn new(sim: Sim, cfg: MeshConfig, n_nodes: usize) -> Self {
        let transport = Transport::Contended {
            channels: RefCell::new(Channels::new(n_nodes, cfg.capacity(), cfg.width)),
            in_flight: RefCell::default(),
        };
        Self::with_transport(sim, cfg, n_nodes, transport)
    }

    /// Creates one shard's view of a sharded backplane running the
    /// **decoupled** transport (see `Decoupled`): all `n_nodes` node ids
    /// are addressable, but only nodes whose `shard_map` entry equals the
    /// sender's shard have their ingress consumed here. Every packet goes
    /// to its destination's shard through `sender`, this one included.
    ///
    /// The backplane registers itself as the shard's delivery handler, so a
    /// shard holds at most one.
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
        assert_eq!(shard_map.len(), n_nodes, "one owning shard per node");
        let delivery = sender.clone();
        let transport = Transport::Decoupled(Decoupled {
            shard_map,
            sender,
            last_arrival: RefCell::new(vec![0; n_nodes * n_nodes]),
            heaps: RefCell::new((0..n_nodes).map(|_| BinaryHeap::new()).collect()),
            drain_at: (0..n_nodes).map(|_| Cell::new(0)).collect(),
            announced: (0..n_nodes).map(|_| Cell::new(None)).collect(),
        });
        let net = Self::with_transport(sim, cfg, n_nodes, transport);
        // The handler holds the backplane, whose sender holds the shard: the
        // finished run takes the handler back, which breaks that cycle.
        let inner = Rc::clone(&net.inner);
        delivery.on_message(move |_, flit| inner.insert(flit));
        net
    }

    /// The one constructor body of both transports; registers the new
    /// backplane's counters with its simulator.
    fn with_transport(sim: Sim, cfg: MeshConfig, n_nodes: usize, transport: Transport<P>) -> Self {
        assert!(
            n_nodes <= cfg.capacity(),
            "{n_nodes} nodes exceed mesh capacity {}",
            cfg.capacity()
        );
        let inner = Rc::new_cyclic(|me: &Weak<NetworkInner<P>>| NetworkInner {
            timer: sim.register_handler(me.clone()),
            sim,
            cfg,
            ingress: (0..n_nodes).map(|_| Queue::new()).collect(),
            stats: NetStats::default(),
            faults: RefCell::new(None),
            transport,
        });
        inner.sim.metrics().register_inline(&inner, |n| &n.stats);
        Network { inner }
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

    /// The queue into which packets destined for `node` are delivered; the
    /// node's NIC incoming engine consumes it.
    pub fn ingress(&self, node: NodeId) -> Queue<P> {
        self.inner.ingress[node.0].clone()
    }

    /// Announces that `src` will send a `payload_bytes` packet to `dst` at
    /// `at` (in SHRIMP, when the deliberate-update DMA that starts now
    /// ends). On a sharded backplane, a packet bound for another shard sets
    /// `src`'s arrival floor to `at` plus its uncontended point latency over
    /// the dimension-order hops: a detour only adds links, and the
    /// no-overtake clamp only delays. A same-shard packet sets none. The
    /// floor lasts until `src` sends at or after `at`, or
    /// [`Network::withdraw_send`]. The contended transport ignores it.
    pub fn announce_send(&self, src: NodeId, dst: NodeId, payload_bytes: usize, at: Time) {
        if let Transport::Decoupled(d) = &self.inner.transport {
            let cfg = &self.inner.cfg;
            let remote = d.shard_map[dst.0] != d.shard_map[src.0];
            let floor = remote.then(|| {
                (
                    at,
                    at + cfg.point_latency(cfg.hops(src, dst), payload_bytes),
                )
            });
            d.announced[src.0].set(floor);
        }
    }

    /// Withdraws `src`'s announced send (its DMA aborted).
    pub fn withdraw_send(&self, src: NodeId) {
        if let Transport::Decoupled(d) = &self.inner.transport {
            d.announced[src.0].set(None);
        }
    }

    /// The earliest arrival floor announced by a node of this shard and not
    /// yet sent or withdrawn; `None` when there is none (and always on the
    /// contended transport). The shard's output bound.
    pub fn output_floor(&self) -> Option<Time> {
        match &self.inner.transport {
            Transport::Decoupled(d) => d
                .announced
                .iter()
                .filter_map(|a| a.get())
                .map(|(_, floor)| floor)
                .min(),
            Transport::Contended { .. } => None,
        }
    }

    /// Router index sequence for the dimension-order (X then Y) route from
    /// `src` to `dst`, inclusive of both endpoints.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<usize> {
        let mut path = vec![src.0];
        self.walk_route(src, dst, |_, to| path.push(to));
        path
    }

    /// Calls `step(from, to)` for each router-to-router hop of the
    /// dimension-order route, in order, without building the path.
    fn walk_route(&self, src: NodeId, dst: NodeId, mut step: impl FnMut(usize, usize)) {
        let w = self.inner.cfg.width;
        let (mut x, mut y) = self.inner.cfg.coords(src);
        let (dx, dy) = self.inner.cfg.coords(dst);
        let mut at = src.0;
        while x != dx {
            x = if dx > x { x + 1 } else { x - 1 };
            step(at, y * w + x);
            at = y * w + x;
        }
        while y != dy {
            y = if dy > y { y + 1 } else { y - 1 };
            step(at, y * w + x);
            at = y * w + x;
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
    ///
    /// Fault injection consults only sender-side state: the fate draw comes
    /// from the `(src, dst)` edge's own stream (on a sharded backplane the
    /// plane is per-entity), and link-fault routing depends on the send
    /// instant, which is node-local. Every injected fault is therefore
    /// identical on both transports and at any shard count.
    pub fn send(&self, src: NodeId, dst: NodeId, payload_bytes: usize, mut packet: P) -> Time
    where
        P: Clone + Faultable,
    {
        let inner = &*self.inner;
        let (sim, cfg) = (&inner.sim, &inner.cfg);
        if let Transport::Decoupled(d) = &inner.transport {
            // The announced packet leaves now. An earlier send from `src`
            // (its automatic-update FIFO) leaves the announcement standing.
            let slot = &d.announced[src.0];
            if slot.get().is_some_and(|(at, _)| sim.now() >= at) {
                slot.set(None);
            }
        }
        let wire_bytes = (payload_bytes + cfg.header_bytes) as u64;
        let serialization = time::transfer(wire_bytes, cfg.link_bytes_per_sec);
        let (arrival, fate, salt) = if src == dst {
            // Loopback crosses the transceiver out and back and never
            // touches the mesh, so neither link faults nor fates reach it.
            inner.stats.record_loopback();
            let ideal = sim.now() + 2 * cfg.transceiver_latency + serialization;
            let (arrival, _) = self.arrival(src, dst, None, ideal, serialization);
            (arrival, PacketFate::Deliver, 0)
        } else {
            let plane = inner.faults.borrow().clone();
            // A failed link sends the packet along the detour, known before
            // any channel is booked; otherwise the route is walked in place.
            let detour = match plane.as_ref().filter(|p| p.has_link_faults()) {
                None => None,
                Some(p) => match self.route_avoiding(src, dst, p) {
                    None => {
                        p.record_link_reject();
                        return sim.now();
                    }
                    detour => detour,
                },
            };
            let hops = detour
                .as_ref()
                .map_or_else(|| cfg.hops(src, dst), |path| path.len() - 1);
            let ideal = sim.now() + cfg.point_latency(hops, payload_bytes);
            let (arrival, waited) = self.arrival(src, dst, detour.as_deref(), ideal, serialization);
            let hops = hops as u64;
            inner
                .stats
                .record_packet(wire_bytes, hops, waited, serialization);
            match &inner.transport {
                Transport::Contended { .. } => {
                    sim.metrics()
                        .observe(shrimp_sim::Category::Net, "packet_wait_ps", waited);
                    shrimp_sim::trace_event!(
                        sim.trace(),
                        sim.now(),
                        shrimp_sim::Category::Net,
                        "packet",
                        node = src.0,
                        dst = dst.0,
                        bytes = wire_bytes,
                        hops = hops,
                        wait_ps = waited,
                    );
                }
                Transport::Decoupled(_) => shrimp_sim::trace_event!(
                    sim.trace(),
                    sim.now(),
                    shrimp_sim::Category::Net,
                    "packet_decoupled",
                    node = src.0,
                    dst = dst.0,
                    bytes = wire_bytes,
                    hops = hops,
                ),
            }
            let (fate, salt) = fate_and_salt(plane.as_ref(), src, dst);
            (arrival, fate, salt)
        };
        match fate {
            PacketFate::Drop => return arrival,
            PacketFate::Corrupt => packet.corrupt(salt),
            PacketFate::Duplicate => self.hand_off(arrival, src, dst, packet.clone()),
            PacketFate::Deliver => {}
        }
        self.hand_off(arrival, src, dst, packet);
        arrival
    }

    /// The arrival of a packet sent now from `src` to `dst` along `detour`
    /// (else the dimension-order route) whose uncongested arrival is
    /// `ideal`, and how long it waited for busy channels: the one step the
    /// two transports time differently. The contended transport books every
    /// channel the packet holds; the decoupled one grants `ideal` under the
    /// per-pair no-overtake clamp.
    fn arrival(
        &self,
        src: NodeId,
        dst: NodeId,
        detour: Option<&[usize]>,
        ideal: Time,
        serialization: Time,
    ) -> (Time, Time) {
        match &self.inner.transport {
            Transport::Contended { channels, .. } => {
                let channels = &mut *channels.borrow_mut();
                let arrival = self.book_route(channels, src, dst, detour, serialization);
                (arrival, arrival - ideal)
            }
            Transport::Decoupled(d) => (d.grant(src, dst, ideal, serialization), 0),
        }
    }

    /// Books the channels a contended packet holds — the loopback channel,
    /// or the injection channel, each link of the route and the ejection
    /// channel — each from when the packet's head reaches it or it frees,
    /// whichever is later; returns the packet's arrival.
    fn book_route(
        &self,
        channels: &mut Channels,
        src: NodeId,
        dst: NodeId,
        detour: Option<&[usize]>,
        serialization: Time,
    ) -> Time {
        let cfg = &self.inner.cfg;
        let mut head = self.inner.sim.now() + cfg.transceiver_latency;
        if src == dst {
            head = channels.book(channels.loopback(src), head, serialization);
        } else {
            head = channels.book(channels.inject(src), head, serialization);
            let mut hop = |channels: &mut Channels, from: usize, to: usize| {
                let link = channels.link(from, to);
                head = channels.book(link, head + cfg.hop_latency, serialization);
            };
            match detour {
                Some(path) => path.windows(2).for_each(|w| hop(channels, w[0], w[1])),
                None => self.walk_route(src, dst, |from, to| hop(channels, from, to)),
            }
            head = channels.book(channels.eject(dst), head + cfg.hop_latency, serialization);
        }
        head + serialization + cfg.transceiver_latency
    }

    /// Hands `pkt` over for delivery at `arrival`. The contended transport
    /// parks it behind an arrival timer of its own. The decoupled one sends
    /// it to the destination's shard, this one included, whose engine hands
    /// it back at `arrival` to be queued in the reorder heap: so a local
    /// packet's insert, like a cross-shard one's, is an event at the arrival
    /// instant, booked before that instant executes, and the drain booked
    /// *during* the instant runs after every same-instant insert.
    fn hand_off(&self, arrival: Time, src: NodeId, dst: NodeId, pkt: P) {
        match &self.inner.transport {
            Transport::Contended { in_flight, .. } => {
                let token = in_flight.borrow_mut().park(Parcel { dst, pkt });
                self.inner
                    .sim
                    .schedule_handler(arrival, self.inner.timer, token);
            }
            Transport::Decoupled(d) => {
                d.sender
                    .send(d.shard_map[dst.0], arrival, Flit { src, dst, pkt });
            }
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
        Some(path)
    }
}

impl<P: 'static> NetworkInner<P> {
    /// The shard's delivery handler on a sharded backplane: queues a flit,
    /// arriving now, in its destination's reorder heap, and books the
    /// node's drain for this instant (once per node per instant).
    fn insert(&self, Flit { src, dst, pkt }: Flit<P>) {
        let Transport::Decoupled(d) = &self.transport else {
            unreachable!("only a sharded backplane receives flits")
        };
        let arrival = self.sim.now();
        d.heaps.borrow_mut()[dst.0].push(Reverse(HeapEntry {
            arrival,
            src: src.0,
            pkt,
        }));
        if d.drain_at[dst.0].get() != arrival {
            d.drain_at[dst.0].set(arrival);
            let token = u32::try_from(dst.0).expect("node id fits a timer token");
            self.sim.schedule_handler(arrival, self.timer, token);
        }
    }
}

impl<P: 'static> TimerHandler for NetworkInner<P> {
    /// A contended arrival: the packet in slot `token` reaches its
    /// destination's ingress queue. Or a decoupled drain: node `token`'s
    /// due packets reach its ingress queue, in `(arrival, src)` order.
    fn fire(self: Rc<Self>, token: u32) {
        match &self.transport {
            Transport::Contended { in_flight, .. } => {
                let Parcel { dst, pkt } = in_flight.borrow_mut().take(token);
                self.ingress[dst.0].send(pkt);
            }
            Transport::Decoupled(d) => {
                let (now, dst) = (self.sim.now(), token as usize);
                let heap = &mut d.heaps.borrow_mut()[dst];
                while let Some(entry) = heap.peek_mut().filter(|e| e.0.arrival <= now) {
                    self.ingress[dst].send(PeekMut::pop(entry).0.pkt);
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_sim::Sim;

    fn net(n: usize) -> (Sim, Network<u64>) {
        let sim = Sim::new();
        let nw = Network::new(sim.clone(), MeshConfig::shrimp_4x4(), n);
        (sim, nw)
    }

    fn net_counter(sim: &Sim, name: &str) -> u64 {
        sim.metrics()
            .snapshot()
            .counter(shrimp_sim::Category::Net, name)
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
        assert_eq!(net_counter(&sim, "packets"), 2);
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
        assert_eq!(net_counter(&sim, "packets"), 0); // no mesh traversal recorded
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
        assert!(net_counter(&sim, "contention_wait_ps") > 0);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let (sim, nw) = net(16);
        let a = nw.send(NodeId(0), NodeId(1), 4096, 1);
        let b = nw.send(NodeId(4), NodeId(5), 4096, 2);
        sim.run();
        // Identical timing: same hop count, no shared channels.
        assert_eq!(a, b);
        assert_eq!(net_counter(&sim, "contention_wait_ps"), 0);
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

    /// Sends one `payload`-byte packet per `(src, dst)` pair at time 0 on a
    /// `nodes`-node mesh, with the link 0 → 1 failed or not, through the
    /// contended transport or the decoupled one at one shard; returns each
    /// send's arrival.
    fn arrivals(
        nodes: usize,
        pairs: Vec<(usize, usize)>,
        payload: usize,
        fail_link: bool,
        decoupled: bool,
    ) -> Vec<Time> {
        let send = move |nw: Network<u64>| {
            if fail_link {
                nw.install_fault_plane(FaultPlane::per_entity(FaultScenario {
                    link: Some(LinkFault {
                        from: 0,
                        to: 1,
                        at_us: 0,
                        down_us: 0,
                    }),
                    ..FaultScenario::none()
                }));
            }
            pairs
                .iter()
                .map(|&(src, dst)| nw.send(NodeId(src), NodeId(dst), payload, 0))
                .collect::<Vec<Time>>()
        };
        let cfg = MeshConfig::for_nodes(nodes);
        if !decoupled {
            let sim = Sim::new();
            let sent = send(Network::new(sim.clone(), cfg, nodes));
            sim.run();
            return sent;
        }
        let lookahead = cfg.min_remote_latency();
        let b: shrimp_sim::Builder<Flit<u64>, Vec<Time>> = Box::new(move |ctx| {
            let nw = Network::sharded(ctx.sim().clone(), cfg, nodes, vec![0; nodes], ctx.sender());
            let sent = send(nw);
            Box::new(move || sent)
        });
        let mut out = shrimp_sim::run_sharded(&shrimp_sim::ShardConfig::new(1, lookahead), vec![b]);
        out.results.pop().expect("one shard")
    }

    #[test]
    fn min_remote_latency_lower_bounds_every_send() {
        let cfg = MeshConfig::shrimp_4x4();
        assert_eq!(cfg.min_remote_latency(), cfg.point_latency(1, 0));
        // 2 x 100 ns transceiver + 2 x 40 ns hop + 16 header bytes at 200 MB/s.
        assert_eq!(cfg.min_remote_latency(), time::ns(360));
        for side in [4usize, 8] {
            let nodes = side * side;
            let lookahead = MeshConfig::for_nodes(nodes).min_remote_latency();
            let pairs: Vec<(usize, usize)> = (0..nodes)
                .flat_map(|src| (0..nodes).map(move |dst| (src, dst)))
                .filter(|&(src, dst)| src != dst)
                .collect();
            for payload in [0, 1, 4096] {
                for fail_link in [false, true] {
                    for decoupled in [false, true] {
                        let sent = arrivals(nodes, pairs.clone(), payload, fail_link, decoupled);
                        assert_eq!(sent.len(), pairs.len());
                        for (&(src, dst), &t) in pairs.iter().zip(&sent) {
                            assert!(
                                t >= lookahead,
                                "{side}x{side}, {payload} B, failed link {fail_link}, \
                                 decoupled {decoupled}: {src} -> {dst} arrived at {t}, \
                                 before the {lookahead} ps lookahead"
                            );
                        }
                    }
                }
            }
            // The bound is tight: an adjacent header-only send on an idle
            // mesh arrives exactly one lookahead after it left.
            for decoupled in [false, true] {
                let sent = arrivals(nodes, vec![(0, 1)], 0, false, decoupled);
                assert_eq!(sent, vec![lookahead], "decoupled {decoupled}");
            }
        }
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
