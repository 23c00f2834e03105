//! The seeded fault plane that turns a scenario into individual faults.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use shrimp_sim::rng::{rng_for_entity, SimRng};
use shrimp_sim::{FastMap, Time};

use crate::scenario::{FaultScenario, NodeCrash};

/// What the fault plane decided to do to one mesh packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Deliver normally.
    Deliver,
    /// Drop silently.
    Drop,
    /// Deliver with a corrupted payload (and a stale checksum).
    Corrupt,
    /// Deliver twice.
    Duplicate,
}

/// Counts of faults actually injected (as opposed to configured rates).
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Packets dropped by the plane.
    pub drops: Cell<u64>,
    /// Packets corrupted by the plane.
    pub corrupts: Cell<u64>,
    /// Packets duplicated by the plane.
    pub dups: Cell<u64>,
    /// Packet sends refused because a failed link made the destination
    /// unreachable.
    pub link_rejects: Cell<u64>,
    /// Packets detoured around a failed link.
    pub reroutes: Cell<u64>,
    /// Node crashes injected (one per crash onset, not per restart).
    pub crashes: Cell<u64>,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.drops.get()
            + self.corrupts.get()
            + self.dups.get()
            + self.link_rejects.get()
            + self.reroutes.get()
            + self.crashes.get()
    }
}

struct PlaneInner {
    scenario: FaultScenario,
    /// One RNG stream per directed mesh edge `(src, dst)`, derived lazily
    /// from `(scenario.seed, edge)` on the edge's first packet.
    edges: RefCell<FastMap<(usize, usize), SimRng>>,
    stats: FaultStats,
}

/// A shared handle to one run's fault-injection state.
///
/// Cloned into the network and every NIC. Every random decision comes from
/// the stream of the directed mesh edge `(src, dst)` the packet travels, so
/// a packet's fate depends only on how many packets that edge carried
/// before it — a per-edge count that is invariant under shard placement.
/// The plane therefore partitions across shards with byte-identical fates
/// at any shard count. Per-node faults (FIFO stalls, pauses, crashes) are
/// fixed windows that draw nothing.
#[derive(Clone)]
pub struct FaultPlane {
    inner: Rc<PlaneInner>,
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("scenario", &self.inner.scenario)
            .finish()
    }
}

impl FaultPlane {
    /// Creates a plane for `scenario` with one independent RNG stream per
    /// directed mesh edge, so fates are invariant under shard placement.
    ///
    /// Each shard constructs its own plane from the same scenario; a shard
    /// only ever draws from the edge streams of packets its own nodes send,
    /// and those draws depend only on the per-edge send order (a node-local
    /// property), never on cross-shard interleaving.
    pub fn per_entity(scenario: FaultScenario) -> Self {
        FaultPlane {
            inner: Rc::new(PlaneInner {
                scenario,
                edges: RefCell::new(FastMap::default()),
                stats: FaultStats::default(),
            }),
        }
    }

    /// Runs `f` on the stream that owns randomness for edge `(src, dst)`.
    fn with_edge<T>(&self, src: usize, dst: usize, f: impl FnOnce(&mut SimRng) -> T) -> T {
        let mut edges = self.inner.edges.borrow_mut();
        let rng = edges.entry((src, dst)).or_insert_with(|| {
            let edge = ((src as u64) << 32) | dst as u64;
            rng_for_entity("faults", self.inner.scenario.seed, edge)
        });
        f(rng)
    }

    /// The scenario this plane injects.
    pub fn scenario(&self) -> &FaultScenario {
        &self.inner.scenario
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.inner.stats
    }

    /// Draws the fate of the next mesh packet on edge `src -> dst` and
    /// records any injection.
    ///
    /// Drop, corrupt, and duplicate are mutually exclusive per packet; each
    /// packet consumes exactly one draw from the edge's own stream so fates
    /// replay with the seed.
    pub fn packet_fate(&self, src: usize, dst: usize) -> PacketFate {
        let s = &self.inner.scenario;
        if s.drop_pct == 0 && s.corrupt_pct == 0 && s.duplicate_pct == 0 {
            return PacketFate::Deliver;
        }
        let roll = self.with_edge(src, dst, |rng| rng.gen_range(0..100u64)) as u8;
        let stats = &self.inner.stats;
        if roll < s.drop_pct {
            stats.drops.set(stats.drops.get() + 1);
            PacketFate::Drop
        } else if roll < s.drop_pct + s.corrupt_pct {
            stats.corrupts.set(stats.corrupts.get() + 1);
            PacketFate::Corrupt
        } else if roll < s.drop_pct + s.corrupt_pct + s.duplicate_pct {
            stats.dups.set(stats.dups.get() + 1);
            PacketFate::Duplicate
        } else {
            PacketFate::Deliver
        }
    }

    /// A fresh random value for choosing how to corrupt a payload on edge
    /// `src -> dst` (drawn from the same stream as that edge's fates).
    pub fn corrupt_salt(&self, src: usize, dst: usize) -> u64 {
        self.with_edge(src, dst, |rng| rng.gen_u64())
    }

    /// Records a send refused because no route avoided a failed link.
    pub fn record_link_reject(&self) {
        let c = &self.inner.stats.link_rejects;
        c.set(c.get() + 1);
    }

    /// Records a packet detoured around a failed link.
    pub fn record_reroute(&self) {
        let c = &self.inner.stats.reroutes;
        c.set(c.get() + 1);
    }

    /// `true` if the scenario contains a link failure (routing must consult
    /// [`FaultPlane::link_blocked`]).
    pub fn has_link_faults(&self) -> bool {
        self.inner.scenario.link.is_some()
    }

    /// `true` if the (undirected) router link `a <-> b` is unusable at `now`.
    pub fn link_blocked(&self, a: usize, b: usize, now: Time) -> bool {
        match &self.inner.scenario.link {
            Some(l) => {
                let pair = (l.from as usize, l.to as usize);
                (pair == (a, b) || pair == (b, a)) && l.blocks_at(now)
            }
            None => false,
        }
    }

    /// If `node`'s outgoing-FIFO drain is stalled at `now`, the sim time at
    /// which the stall ends.
    pub fn fifo_stall_until(&self, node: usize, now: Time) -> Option<Time> {
        let s = self.inner.scenario.fifo_stall?;
        if s.node as usize != node {
            return None;
        }
        let at = shrimp_sim::time::us(s.at_us as u64);
        let end = at + shrimp_sim::time::us(s.dur_us as u64);
        (now >= at && now < end).then_some(end)
    }

    /// Fixed extra interrupt-delivery delay.
    pub fn interrupt_delay(&self) -> Time {
        self.inner.scenario.interrupt_delay()
    }

    /// The `(onset, duration)` of `node`'s CPU pause, if any.
    pub fn pause_of(&self, node: usize) -> Option<(Time, Time)> {
        let p = self.inner.scenario.pause?;
        (p.node as usize == node).then(|| {
            (
                shrimp_sim::time::us(p.at_us as u64),
                shrimp_sim::time::us(p.dur_us as u64),
            )
        })
    }

    /// The crash scheduled for `node`, if any.
    pub fn crash_of(&self, node: usize) -> Option<NodeCrash> {
        let c = self.inner.scenario.crash?;
        (c.node as usize == node).then_some(c)
    }

    /// Records a node crash actually injected.
    pub fn record_crash(&self) {
        let c = &self.inner.stats.crashes;
        c.set(c.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FifoStall, LinkFault};
    use shrimp_sim::time;

    #[test]
    fn fates_replay_with_the_seed() {
        let scenario = FaultScenario {
            seed: 7,
            drop_pct: 10,
            corrupt_pct: 10,
            duplicate_pct: 10,
            ..FaultScenario::none()
        };
        let a = FaultPlane::per_entity(scenario);
        let b = FaultPlane::per_entity(scenario);
        let fates_a: Vec<_> = (0..256).map(|_| a.packet_fate(0, 1)).collect();
        let fates_b: Vec<_> = (0..256).map(|_| b.packet_fate(0, 1)).collect();
        assert_eq!(fates_a, fates_b);
        assert!(fates_a.contains(&PacketFate::Drop));
        assert!(fates_a.contains(&PacketFate::Corrupt));
        assert!(fates_a.contains(&PacketFate::Duplicate));
        assert_eq!(
            a.stats().total(),
            fates_a
                .iter()
                .filter(|f| **f != PacketFate::Deliver)
                .count() as u64
        );
    }

    #[test]
    fn empty_scenario_never_touches_the_rng() {
        let plane = FaultPlane::per_entity(FaultScenario::none());
        for _ in 0..64 {
            assert_eq!(plane.packet_fate(0, 1), PacketFate::Deliver);
        }
        assert_eq!(plane.stats().total(), 0);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plane = FaultPlane::per_entity(FaultScenario {
            seed: 3,
            drop_pct: 25,
            ..FaultScenario::none()
        });
        let n = 4000;
        let drops = (0..n)
            .filter(|_| plane.packet_fate(0, 1) == PacketFate::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "drop rate {rate} off target");
    }

    #[test]
    fn link_blocking_is_undirected_and_windowed() {
        let plane = FaultPlane::per_entity(FaultScenario {
            link: Some(LinkFault {
                from: 1,
                to: 2,
                at_us: 50,
                down_us: 100,
            }),
            ..FaultScenario::none()
        });
        assert!(plane.has_link_faults());
        assert!(!plane.link_blocked(1, 2, time::us(49)));
        assert!(plane.link_blocked(1, 2, time::us(50)));
        assert!(plane.link_blocked(2, 1, time::us(149)));
        assert!(!plane.link_blocked(1, 2, time::us(150)));
        assert!(!plane.link_blocked(0, 1, time::us(60)));
    }

    #[test]
    fn per_entity_fates_are_invariant_under_interleaving() {
        let scenario = FaultScenario {
            seed: 11,
            drop_pct: 10,
            corrupt_pct: 10,
            duplicate_pct: 10,
            ..FaultScenario::none()
        };
        // Plane A serves edge (0,1) then edge (2,3); plane B interleaves the
        // two edges packet-by-packet — the per-edge fate sequences must not
        // change, which is exactly what a shard layout change does to the
        // global draw order.
        let a = FaultPlane::per_entity(scenario);
        let fates_01_a: Vec<_> = (0..128).map(|_| a.packet_fate(0, 1)).collect();
        let fates_23_a: Vec<_> = (0..128).map(|_| a.packet_fate(2, 3)).collect();
        let b = FaultPlane::per_entity(scenario);
        let mut fates_01_b = Vec::new();
        let mut fates_23_b = Vec::new();
        for _ in 0..128 {
            fates_23_b.push(b.packet_fate(2, 3));
            fates_01_b.push(b.packet_fate(0, 1));
        }
        assert_eq!(fates_01_a, fates_01_b);
        assert_eq!(fates_23_a, fates_23_b);
        // Distinct edges draw distinct streams.
        assert_ne!(fates_01_a, fates_23_a);
        // Direction matters: (1,0) is not (0,1).
        let c = FaultPlane::per_entity(scenario);
        let fates_10: Vec<_> = (0..128).map(|_| c.packet_fate(1, 0)).collect();
        assert_ne!(fates_01_a, fates_10);
    }

    #[test]
    fn per_entity_salts_ride_the_edge_stream() {
        let scenario = FaultScenario {
            seed: 5,
            corrupt_pct: 100,
            ..FaultScenario::none()
        };
        let a = FaultPlane::per_entity(scenario);
        let b = FaultPlane::per_entity(scenario);
        for _ in 0..32 {
            assert_eq!(a.packet_fate(3, 7), b.packet_fate(3, 7));
            assert_eq!(a.corrupt_salt(3, 7), b.corrupt_salt(3, 7));
        }
    }

    #[test]
    fn crash_of_matches_only_the_crashed_node() {
        use crate::scenario::NodeCrash;
        let plane = FaultPlane::per_entity(FaultScenario {
            crash: Some(NodeCrash {
                node: 5,
                at_us: 40,
                down_us: 400,
            }),
            ..FaultScenario::none()
        });
        assert_eq!(plane.crash_of(5).unwrap().at_us, 40);
        assert!(plane.crash_of(4).is_none());
        assert_eq!(plane.stats().crashes.get(), 0);
        plane.record_crash();
        assert_eq!(plane.stats().crashes.get(), 1);
        assert_eq!(plane.stats().total(), 1);
    }

    #[test]
    fn fifo_stall_reports_its_end() {
        let plane = FaultPlane::per_entity(FaultScenario {
            fifo_stall: Some(FifoStall {
                node: 2,
                at_us: 10,
                dur_us: 5,
            }),
            ..FaultScenario::none()
        });
        assert_eq!(plane.fifo_stall_until(2, time::us(12)), Some(time::us(15)));
        assert_eq!(plane.fifo_stall_until(2, time::us(15)), None);
        assert_eq!(plane.fifo_stall_until(1, time::us(12)), None);
    }
}
