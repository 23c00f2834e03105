//! The 2-D mesh, dimension-order routing, and packet timing.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::{Rc, Weak};

use shrimp_faults::{FaultPlane, PacketFate, ShrimpError};
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

/// Marks an arrival-timer token as a decoupled drain of node `token & !DRAIN`
/// rather than the in-flight slot `token` (whose top bit is never set).
const DRAIN: u32 = 1 << 31;

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

/// One packet waiting for its arrival timer.
struct Parcel<P> {
    src: NodeId,
    dst: NodeId,
    pkt: P,
}

struct NetworkInner<P> {
    sim: Sim,
    cfg: MeshConfig,
    channels: RefCell<Channels>,
    /// Packets waiting for their arrival timer, whose token is the slot: on
    /// the contended transport the timer delivers into the ingress queue,
    /// on the decoupled one it inserts into the destination's reorder heap.
    in_flight: RefCell<Parked<Parcel<P>>>,
    /// This network as the handler of its arrival timers.
    arrival: HandlerId,
    ingress: Vec<Queue<P>>,
    stats: NetStats,
    // Installed only for chaos runs; `None` is the zero-overhead fast path.
    faults: RefCell<Option<FaultPlane>>,
    // `Some` on a sharded backplane: the decoupled fixed-latency transport
    // replaces the contended one wholesale.
    decoupled: Option<Decoupled<P>>,
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
        Network {
            inner: Rc::new_cyclic(|me: &Weak<NetworkInner<P>>| NetworkInner {
                arrival: sim.register_handler(me.clone()),
                sim,
                channels: RefCell::new(Channels::new(n_nodes, cfg.capacity(), cfg.width)),
                in_flight: RefCell::default(),
                cfg,
                ingress: (0..n_nodes).map(|_| Queue::new()).collect(),
                stats: NetStats::default(),
                faults: RefCell::new(None),
                decoupled: None,
            }),
        }
        .registered()
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
            inner: Rc::new_cyclic(|me: &Weak<NetworkInner<P>>| NetworkInner {
                arrival: sim.register_handler(me.clone()),
                sim,
                // The decoupled transport books no channel.
                channels: RefCell::new(Channels::new(0, 0, cfg.width)),
                in_flight: RefCell::default(),
                cfg,
                ingress: (0..n_nodes).map(|_| Queue::new()).collect(),
                stats: NetStats::default(),
                faults: RefCell::new(None),
                decoupled: Some(decoupled),
            }),
        }
        .registered()
    }

    /// Registers a new backplane's counters with its simulator.
    fn registered(self) -> Self {
        let metrics = self.inner.sim.metrics();
        metrics.register_inline(&self.inner, |n| &n.stats);
        self
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
    pub fn send(&self, src: NodeId, dst: NodeId, payload_bytes: usize, packet: P) -> Time
    where
        P: Clone + Faultable,
    {
        if let Some(d) = &self.inner.decoupled {
            return self.send_decoupled(d, src, dst, payload_bytes, packet);
        }
        let sim = &self.inner.sim;
        let cfg = &self.inner.cfg;
        let wire_bytes = (payload_bytes + cfg.header_bytes) as u64;
        let serialization = time::transfer(wire_bytes, cfg.link_bytes_per_sec);
        let plane = self.inner.faults.borrow().clone();

        let (arrival, fate, salt) = if src == dst {
            let channels = &mut *self.inner.channels.borrow_mut();
            let start = channels.book(
                channels.loopback(src),
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
            // A failed link sends the packet along the detour, known before
            // any channel is booked; otherwise the route is walked in place.
            let detour = match &plane {
                Some(p) if p.has_link_faults() => match self.route_avoiding(src, dst, p) {
                    Some(path) => Some(path),
                    None => {
                        p.record_link_reject();
                        return sim.now();
                    }
                },
                _ => None,
            };
            let mut guard = self.inner.channels.borrow_mut();
            let channels = &mut *guard;
            let ideal_start = sim.now() + cfg.transceiver_latency;
            let mut head = channels.book(channels.inject(src), ideal_start, serialization);
            let mut hops = 0;
            let mut hop = |channels: &mut Channels, from: usize, to: usize| {
                let link = channels.link(from, to);
                head = channels.book(link, head + cfg.hop_latency, serialization);
                hops += 1;
            };
            match &detour {
                Some(path) => path.windows(2).for_each(|w| hop(channels, w[0], w[1])),
                None => self.walk_route(src, dst, |from, to| hop(channels, from, to)),
            }
            head = channels.book(channels.eject(dst), head + cfg.hop_latency, serialization);
            drop(guard);
            let waited = head - (ideal_start + (hops + 1) * cfg.hop_latency);
            let (stats, metrics) = (&self.inner.stats, sim.metrics());
            stats.record_packet(wire_bytes, hops, waited, serialization);
            metrics.observe(shrimp_sim::Category::Net, "packet_wait_ps", waited);
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
            let (fate, salt) = fate_and_salt(plane.as_ref(), src, dst);
            (head + serialization + cfg.transceiver_latency, fate, salt)
        };

        match fate {
            PacketFate::Drop => {}
            PacketFate::Deliver | PacketFate::Corrupt | PacketFate::Duplicate => {
                let mut packet = packet;
                if fate == PacketFate::Corrupt {
                    packet.corrupt(salt);
                }
                if fate == PacketFate::Duplicate {
                    self.arrive_at(arrival, src, dst, packet.clone());
                }
                self.arrive_at(arrival, src, dst, packet);
            }
        }
        arrival
    }

    /// Books `packet`'s arrival timer at `at`: it then enters `dst`'s
    /// ingress queue (contended) or reorder heap (decoupled).
    fn arrive_at(&self, at: Time, src: NodeId, dst: NodeId, pkt: P) {
        let token = self
            .inner
            .in_flight
            .borrow_mut()
            .park(Parcel { src, dst, pkt });
        self.inner
            .sim
            .schedule_handler(at, self.inner.arrival, token);
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
        d: &Decoupled<P>,
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
            let stats = &self.inner.stats;
            stats.record_packet(wire_bytes, hops as u64, 0, serialization);
            shrimp_sim::trace_event!(
                sim.trace(),
                sim.now(),
                shrimp_sim::Category::Net,
                "packet_decoupled",
                node = src.0,
                dst = dst.0,
                bytes = wire_bytes,
                hops = hops,
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
                self.arrive_at(arrival, src, dst, packet.clone());
            }
            self.arrive_at(arrival, src, dst, packet);
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
        let Some(d) = &self.inner.decoupled else {
            return Err(ShrimpError::NoDecoupledTransport { dst: flit.dst.0 });
        };
        debug_assert_eq!(
            self.inner.sim.now(),
            arrival,
            "remote flit delivered off its arrival instant"
        );
        self.inner.insert_decoupled(d, flit.src, flit.dst, flit.pkt);
        Ok(())
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
    /// Queues one decoupled delivery, arriving now, and books the
    /// destination's drain for this instant (once per node per instant).
    fn insert_decoupled(&self, d: &Decoupled<P>, src: NodeId, dst: NodeId, pkt: P) {
        debug_assert_eq!(d.shard_map[dst.0], d.shard, "insert for an unowned node");
        let arrival = self.sim.now();
        d.heaps.borrow_mut()[dst.0].push(Reverse(HeapEntry {
            arrival,
            src: src.0,
            pkt,
        }));
        if d.drain_at[dst.0].get() != arrival {
            d.drain_at[dst.0].set(arrival);
            let token = u32::try_from(dst.0).expect("node id fits a drain token") | DRAIN;
            self.sim.schedule_handler(arrival, self.arrival, token);
        }
    }

    /// Delivers every queued packet whose arrival is now due into the
    /// node's ingress queue, in `(arrival, src)` order.
    fn drain_decoupled(&self, d: &Decoupled<P>, dst: usize) {
        let now = self.sim.now();
        let heap = &mut d.heaps.borrow_mut()[dst];
        while let Some(entry) = heap.peek_mut().filter(|e| e.0.arrival <= now) {
            self.ingress[dst].send(PeekMut::pop(entry).0.pkt);
        }
    }
}

impl<P: 'static> TimerHandler for NetworkInner<P> {
    /// An arrival timer: the packet in slot `token` reaches its
    /// destination's ingress queue (contended) or reorder heap (decoupled),
    /// or, with [`DRAIN`] set, a decoupled node's due packets reach its
    /// ingress queue.
    fn fire(self: Rc<Self>, token: u32) {
        match &self.decoupled {
            Some(d) if token & DRAIN != 0 => self.drain_decoupled(d, (token & !DRAIN) as usize),
            Some(d) => {
                let Parcel { src, dst, pkt } = self.in_flight.borrow_mut().take(token);
                self.insert_decoupled(d, src, dst, pkt);
            }
            None => {
                let Parcel { dst, pkt, .. } = self.in_flight.borrow_mut().take(token);
                self.ingress[dst.0].send(pkt);
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
