//! The heartbeat failure detector of the chaos cluster workload and the
//! replicated KV service. A node watches a contiguous range of nodes, its
//! *members* (the whole machine, or its replication group): it sends a
//! counter into its [`CTRL_SLOT`] of one member's control buffer per
//! period, round-robin ([`Heartbeat`]), and its monitor
//! ([`Liveness::monitor`]) samples every member's slot once per period,
//! reporting each lease change as a [`Verdict`] to the workload's own
//! handler.

use std::cell::Cell;
use std::ops::Range;
use std::rc::Rc;

use shrimp_faults::node_backoff;
use shrimp_mem::Vaddr;
use shrimp_sim::{time, Time};

use crate::vmmc::{ProxyBuffer, Vmmc};

/// Bytes of one node's slot in every peer's control buffer:
/// `[heartbeat counter: u64][done flag: u64]`, little-endian.
pub const CTRL_SLOT: usize = 16;

/// The control-slot bytes of one heartbeat.
fn encode_slot(counter: u64, done: bool) -> [u8; CTRL_SLOT] {
    let mut b = [0u8; CTRL_SLOT];
    b[..8].copy_from_slice(&counter.to_le_bytes());
    b[8..].copy_from_slice(&u64::from(done).to_le_bytes());
    b
}

/// The `(counter, done)` pair of one control slot.
fn decode_slot(b: &[u8]) -> (u64, bool) {
    let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
    (word(0), word(8) != 0)
}

/// Knobs of the heartbeat failure detector. Each peer hears from a
/// member once per *cycle* (`period * (members - 1)`). A peer silent past
/// its `lease` gets up to `max_probes` deadline extensions of
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
    /// A detector over `members` nodes gossiping every `period`: a lease
    /// of three full gossip cycles, then three probes on a
    /// `backoff_base`/`backoff_cap` backoff.
    pub fn new(period: Time, members: usize, backoff_base: Time, backoff_cap: Time) -> Self {
        HeartbeatConfig {
            period,
            lease: 3 * period * members.saturating_sub(1).max(1) as Time,
            backoff_base,
            backoff_cap,
            max_probes: 3,
        }
    }

    /// The chaos workload's detector for an `n`-node cluster: 1 µs
    /// period and a 5 µs-base / 40 µs-cap backoff.
    pub fn for_nodes(n: usize) -> Self {
        HeartbeatConfig::new(time::us(1), n, time::us(5), time::us(40))
    }

    /// One full gossip rotation: the gap between two heartbeats arriving
    /// at the *same* peer.
    pub fn cycle(&self, n: usize) -> Time {
        self.period * n.saturating_sub(1).max(1) as Time
    }
}

/// The instant `vmmc`'s node is scheduled to crash if that lies ahead,
/// else `Time::MAX`: a restarted incarnation sees no future crash.
pub fn crash_onset(vmmc: &Vmmc) -> Time {
    vmmc.cluster()
        .fault_plane()
        .and_then(|plane| plane.crash_of(vmmc.node_id().0))
        .map(|c| c.onset())
        .filter(|&t| t > vmmc.sim().now())
        .unwrap_or(Time::MAX)
}

/// What one node's detector believes about one peer: written by the
/// monitor, read by the node's other tasks.
#[derive(Debug, Default)]
pub struct PeerView {
    declared_at: Cell<Option<Time>>,
    done: Cell<bool>,
}

impl PeerView {
    /// The peer is declared dead (and not revived since).
    pub fn is_dead(&self) -> bool {
        self.declared_at.get().is_some()
    }

    /// The peer gossiped its done flag.
    fn is_done(&self) -> bool {
        self.done.get()
    }

    /// Withdraws a death declaration: the peer rejoined.
    pub fn revive(&self) {
        self.declared_at.set(None);
    }
}

/// What one monitor sample found out about one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The peer's counter moved: its lease is renewed. `done` is its
    /// gossiped done flag; `declared_at` is the instant it was declared
    /// dead, if it still is.
    Heard {
        /// The peer's done flag.
        done: bool,
        /// When the peer was declared dead, if it is.
        declared_at: Option<Time>,
    },
    /// The peer stayed silent past its lease and every probe and is
    /// declared dead now, `silent` after it was last heard.
    Declared {
        /// Time since the peer's counter last moved.
        silent: Time,
    },
}

/// One peer's lease, private to the monitor task.
#[derive(Debug, Clone, Copy)]
struct Lease {
    last_val: u64,
    last_heard: Time,
    deadline: Time,
    attempt: u32,
}

impl Lease {
    /// The lease of a peer whose counter read `val` at `now`.
    fn heard(val: u64, now: Time, cfg: &HeartbeatConfig) -> Lease {
        Lease {
            last_val: val,
            last_heard: now,
            deadline: now + cfg.lease,
            attempt: 0,
        }
    }
}

/// One node's detector state: its flags and its view of every member.
#[derive(Debug)]
pub struct Liveness {
    /// Set once the node's run is complete; stops the monitor.
    pub halt: Cell<bool>,
    /// This node's done flag, gossiped inside its heartbeats.
    pub my_done: Cell<bool>,
    cfg: HeartbeatConfig,
    seed: u64,
    first: usize, // node id of member 0
    me: usize,    // this node's member index
    abort_at: Time,
    peers: Vec<PeerView>,
}

impl Liveness {
    /// The liveness state of node `node` among the nodes `members`, with
    /// probe backoff seeded by `seed`. The monitor stops at `abort_at`
    /// (see [`crash_onset`]).
    pub fn new(
        cfg: HeartbeatConfig,
        seed: u64,
        members: Range<usize>,
        node: usize,
        abort_at: Time,
    ) -> Self {
        Liveness {
            halt: Cell::new(false),
            my_done: Cell::new(false),
            cfg,
            seed,
            first: members.start,
            me: node - members.start,
            abort_at,
            peers: members.map(|_| PeerView::default()).collect(),
        }
    }

    /// The view of member `q` (a member index, not a node id).
    pub fn peer(&self, q: usize) -> &PeerView {
        &self.peers[q]
    }

    /// Every other member is done or declared dead.
    pub fn settled(&self) -> bool {
        self.peers
            .iter()
            .enumerate()
            .all(|(q, v)| q == self.me || v.is_done() || v.is_dead())
    }

    /// This node's heartbeat rotation, staging its beats at `stage`.
    pub fn heartbeat(&self, stage: Vaddr) -> Heartbeat {
        let members = self.peers.len();
        Heartbeat {
            stage,
            first: self.first,
            me: self.me,
            members,
            counter: 0,
            target: (self.me + 1) % members,
        }
    }

    /// The monitor task: each period until halt or `abort_at`, samples
    /// the members' slots of the control buffer at `ctrl` and steps their
    /// leases. Each [`Verdict`] reaches `on` with the member index after
    /// the view is updated and a declaration's latency booked.
    pub async fn monitor(
        self: Rc<Self>,
        vmmc: Vmmc,
        ctrl: Vaddr,
        mut on: impl FnMut(usize, Verdict),
    ) {
        let sim = vmmc.sim().clone();
        let stats = vmmc.stats();
        let mut leases = vec![Lease::heard(0, sim.now(), &self.cfg); self.peers.len()];
        let mut slots = vec![0u8; self.peers.len() * CTRL_SLOT];
        let at = ctrl.add((self.first * CTRL_SLOT) as u64);
        loop {
            sim.sleep(self.cfg.period).await;
            let now = sim.now();
            if self.halt.get() || now >= self.abort_at {
                break;
            }
            // One read of the members' slots: nothing below awaits, so
            // every slot is sampled at this same instant.
            vmmc.space().read(at, &mut slots);
            self.observe(&mut leases, now, &slots, |q, v| {
                if let Verdict::Declared { silent } = v {
                    stats.detection_latency.update(|c| c + silent);
                }
                on(q, v);
            });
        }
    }

    /// One sample at `now` of the members' `slots`: a counter change
    /// renews the lease; silence past the deadline earns a probe
    /// extension, and past the last probe a declaration.
    fn observe(
        &self,
        leases: &mut [Lease],
        now: Time,
        slots: &[u8],
        mut on: impl FnMut(usize, Verdict),
    ) {
        for (q, b) in slots.chunks_exact(CTRL_SLOT).enumerate() {
            if q == self.me {
                continue;
            }
            let (hb, done) = decode_slot(b);
            let (lease, view) = (&mut leases[q], &self.peers[q]);
            if hb != lease.last_val {
                *lease = Lease::heard(hb, now, &self.cfg);
                if done {
                    view.done.set(true);
                }
                let declared_at = view.declared_at.get();
                on(q, Verdict::Heard { done, declared_at });
            } else if !view.is_dead() && now >= lease.deadline {
                let c = &self.cfg;
                if lease.attempt >= c.max_probes {
                    view.declared_at.set(Some(now));
                    let silent = now - lease.last_heard;
                    on(q, Verdict::Declared { silent });
                } else {
                    let (node, n) = (self.first + q, lease.attempt);
                    lease.deadline =
                        now + node_backoff(self.seed, node, n, c.backoff_base, c.backoff_cap);
                    lease.attempt += 1;
                }
            }
        }
    }
}

/// The heartbeat sender's counter and round-robin target, which skips
/// the node itself.
#[derive(Debug)]
pub struct Heartbeat {
    stage: Vaddr,
    first: usize,
    me: usize,
    members: usize,
    counter: u64,
    target: usize,
}

impl Heartbeat {
    /// Stages the next beat (counter bumped, `done` flag) and moves the
    /// rotation on; returns the member index the beat is for.
    pub fn stage(&mut self, vmmc: &Vmmc, done: bool) -> usize {
        self.counter += 1;
        vmmc.space()
            .write_raw(self.stage, &encode_slot(self.counter, done));
        let target = self.target;
        self.target = (self.target + 1) % self.members;
        if self.target == self.me {
            self.target = (self.target + 1) % self.members;
        }
        target
    }

    /// Sends the staged beat into member `q`'s control buffer, imported
    /// as `ctrl[node]` ([`Vmmc::import_peers`]).
    pub async fn send(&self, vmmc: &Vmmc, ctrl: &[Option<ProxyBuffer>], q: usize) {
        let proxy = ctrl[self.first + q].as_ref().expect("never heartbeat self");
        let slot = (self.first + self.me) * CTRL_SLOT;
        vmmc.send(self.stage, proxy, slot, CTRL_SLOT).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;

    const SEED: u64 = 9;

    fn cfg() -> HeartbeatConfig {
        HeartbeatConfig::new(time::us(1), 4, time::us(5), time::us(40))
    }

    /// Node 5 among members 4..8 (member index 1).
    fn live() -> Liveness {
        Liveness::new(cfg(), SEED, 4..8, 5, Time::MAX)
    }

    /// Control slots of four members with the given counters and done
    /// flags.
    fn slots(beats: [(u64, bool); 4]) -> Vec<u8> {
        beats.iter().flat_map(|&(c, d)| encode_slot(c, d)).collect()
    }

    /// Samples every period from `from` to `to` (inclusive) with the same
    /// slots, collecting the verdicts as `(time, member, verdict)`.
    fn run(
        live: &Liveness,
        leases: &mut [Lease],
        from: Time,
        to: Time,
        s: &[u8],
    ) -> Vec<(Time, usize, Verdict)> {
        let mut got = Vec::new();
        let mut now = from;
        while now <= to {
            live.observe(leases, now, s, |q, v| got.push((now, q, v)));
            now += cfg().period;
        }
        got
    }

    /// The sample at which node `node`, last heard at `heard`, is
    /// declared: the first tick at or past its lease, then at or past
    /// each of its seeded probe extensions.
    fn declaration(node: usize, heard: Time) -> Time {
        let c = cfg();
        let tick = |t: Time| t.div_ceil(c.period) * c.period;
        let mut at = tick(heard + c.lease);
        for attempt in 0..c.max_probes {
            at = tick(at + node_backoff(SEED, node, attempt, c.backoff_base, c.backoff_cap));
        }
        at
    }

    fn declared(got: &[(Time, usize, Verdict)], q: usize) -> Vec<(Time, Verdict)> {
        got.iter()
            .filter(|&&(_, p, v)| p == q && matches!(v, Verdict::Declared { .. }))
            .map(|&(t, _, v)| (t, v))
            .collect()
    }

    #[test]
    fn slots_round_trip_and_lease_is_three_cycles() {
        assert_eq!(decode_slot(&encode_slot(7, true)), (7, true));
        assert_eq!(
            decode_slot(&encode_slot(u64::MAX, false)),
            (u64::MAX, false)
        );
        assert_eq!(cfg().lease, 3 * 3 * time::us(1));
        assert_eq!(HeartbeatConfig::for_nodes(1).lease, 3 * time::us(1));
        assert_eq!(HeartbeatConfig::for_nodes(4), cfg());
    }

    /// A peer never heard is declared at last-heard + lease + the seeded
    /// probe extensions of its own node, on the period grid.
    #[test]
    fn silent_peer_is_declared_after_lease_and_seeded_probes() {
        let live = live();
        let mut leases = vec![Lease::heard(0, 0, &cfg()); 4];
        let got = run(
            &live,
            &mut leases,
            time::us(1),
            time::us(500),
            &slots([(0, false); 4]),
        );
        assert_eq!(got.len(), 3, "each other member declared once: {got:?}");
        for (q, node) in [(0, 4), (2, 6), (3, 7)] {
            let at = declaration(node, 0);
            assert_eq!(declared(&got, q), [(at, Verdict::Declared { silent: at })]);
        }
        assert_ne!(declaration(4, 0), declaration(6, 0), "backoff is per node");
        assert!(live.peer(0).is_dead() && !live.peer(0).is_done());
        assert!(!live.peer(1).is_dead(), "a node never declares itself");
        assert!(live.settled(), "every peer declared dead");
    }

    /// A counter change resets the probes and the deadline: a peer heard
    /// mid-probing is declared a full lease plus every probe after that.
    #[test]
    fn counter_change_resets_probes_and_deadline() {
        let live = live();
        let c = cfg();
        let mut leases = vec![Lease::heard(0, 0, &cfg()); 4];
        let probing = c.lease + c.period; // past the lease: probing began
        assert!(run(
            &live,
            &mut leases,
            c.period,
            probing,
            &slots([(0, false); 4])
        )
        .is_empty());
        assert_eq!(leases[0].attempt, 1);

        let heard_at = probing + c.period;
        let moved = slots([(1, false), (0, false), (1, false), (1, false)]);
        let got = run(&live, &mut leases, heard_at, heard_at, &moved);
        let heard = Verdict::Heard {
            done: false,
            declared_at: None,
        };
        assert_eq!(
            got,
            [
                (heard_at, 0, heard),
                (heard_at, 2, heard),
                (heard_at, 3, heard)
            ]
        );
        assert_eq!(leases[0].attempt, 0);
        assert_eq!(leases[0].deadline, heard_at + c.lease);

        let got = run(
            &live,
            &mut leases,
            heard_at + c.period,
            time::us(500),
            &moved,
        );
        let at = declaration(4, heard_at);
        assert_eq!(
            declared(&got, 0),
            [(
                at,
                Verdict::Declared {
                    silent: at - heard_at
                }
            )]
        );
    }

    #[test]
    fn done_flag_is_reported() {
        let live = live();
        let mut leases = vec![Lease::heard(0, 0, &cfg()); 4];
        let s = slots([(3, true), (0, false), (1, false), (0, false)]);
        let got = run(&live, &mut leases, time::us(1), time::us(1), &s);
        let heard = |done| Verdict::Heard {
            done,
            declared_at: None,
        };
        assert_eq!(
            got,
            [
                (time::us(1), 0, heard(true)),
                (time::us(1), 2, heard(false))
            ]
        );
        assert!(live.peer(0).is_done());
        assert!(!live.peer(2).is_done());
        assert!(!live.settled(), "members 2 and 3 are neither done nor dead");
    }

    /// A dead peer heard again is reported with its declaration time and
    /// stays dead until its caller revives it.
    #[test]
    fn dead_peer_heard_again_reports_its_declaration() {
        let live = live();
        let mut leases = vec![Lease::heard(0, 0, &cfg()); 4];
        run(
            &live,
            &mut leases,
            time::us(1),
            time::us(500),
            &slots([(0, false); 4]),
        );
        let back = time::us(501);
        let s = slots([(1, false), (0, false), (0, false), (0, false)]);
        let got = run(&live, &mut leases, back, back, &s);
        let heard = Verdict::Heard {
            done: false,
            declared_at: Some(declaration(4, 0)),
        };
        assert_eq!(got, [(back, 0, heard)]);
        assert!(live.peer(0).is_dead(), "the detector never revives a peer");
        live.peer(0).revive();
        assert!(!live.peer(0).is_dead());
    }

    /// The rotation visits every other member in turn, and each beat
    /// stages the bumped counter and the done flag.
    #[test]
    fn heartbeat_rotation_skips_self() {
        let cluster = Cluster::builder(4).build();
        let vmmc = cluster.vmmc(2);
        let stage = vmmc.space().alloc(1);
        let mut hb = Liveness::new(cfg(), SEED, 0..4, 2, Time::MAX).heartbeat(stage);
        let targets: Vec<usize> = (0..6).map(|i| hb.stage(&vmmc, i == 5)).collect();
        assert_eq!(targets, [3, 0, 1, 3, 0, 1]);
        let mut b = [0u8; CTRL_SLOT];
        vmmc.space().read(stage, &mut b);
        assert_eq!(decode_slot(&b), (6, true));
    }
}
