//! A sharded, primary/backup-replicated key-value service running on the
//! full SHRIMP stack, driven by a deterministic open-loop load generator.
//!
//! # Shape
//!
//! The first `groups * replication` nodes are **servers**: `groups`
//! replication groups of `replication` contiguous nodes each, where the
//! lowest *live* rank of a group is its primary. The remaining nodes are
//! **clients**. Keys hash to groups; clients route each request to their
//! current view of the group's primary and fall back (`NOT_LEADER`
//! redirects plus timeout retries with target rotation) until they find
//! it. The primary assigns each write a monotone version, ships the log
//! entry to every live backup over the deliberate-update path, and
//! acknowledges the client only once all live backups have acknowledged
//! the entry — so an acked write survives any primary crash. Backups
//! batch their acknowledgements on a timer ([`KvParams::ack_flush`]).
//! Reads are served from the primary's *committed* store, which makes
//! them read-your-writes for every acknowledged request.
//!
//! # Load and measurement
//!
//! Each client draws keys from a [`ZipfSampler`] and request instants
//! from an [`OpenLoopArrivals`] process, both on per-entity RNG streams
//! (`rng_for_entity("kv" | "kv-load", seed, node)`), so the offered load
//! is open-loop: latency is measured from the *scheduled* arrival to the
//! acknowledgement, which keeps the tail honest when the service falls
//! behind (no coordinated omission). Latencies land in the
//! `(App, "kv_req_ps")` metrics histogram; failover times (promotion
//! instant minus the old primary's last heartbeat) land in
//! `(App, "kv_failover_ps")`. Sweep rows surface p50/p99/p999 and
//! saturation throughput from the merged [`LaunchOutcome::metrics`].
//!
//! # Failover
//!
//! Each replication group runs the shared heartbeat failure detector of
//! [`shrimp_core::liveness`] over its own replicas, on the [`kv_detector`]
//! schedule. A declared replica stays dead, and a backup whose lower ranks
//! are all declared dead promotes itself: it marks its
//! applied log committed and re-ships it (the ordinary shipping pump,
//! restarted from index zero) to the surviving peers, which deduplicate
//! by origin. Retried writes deduplicate by `(client, request)` at every
//! replica, so a client retry of an already-replicated write returns the
//! original version instead of double-applying. After the load phase each
//! client re-reads every key it successfully wrote and checks the
//! returned version has not regressed — the "no acked write lost" bit of
//! its program result.
//!
//! # Invariance
//!
//! Every decision on every node is a pure function of its own per-entity
//! RNG streams, local sim-time timers, and the `(arrival, source)`-ordered
//! notification sequence, and all shared iteration uses ordered
//! containers — so node results, message counts, and the merged metrics
//! (histogram sums) are byte-identical at every shard count.
//!
//! Packet-fault scenarios (drop/corrupt/duplicate) require
//! `cfg.reliability` on: the workload's record framing asserts per-pair
//! delivery, which only the retransmission layer restores.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use shrimp_core::{
    crash_onset, Cluster, DesignConfig, HeartbeatConfig, LaunchOutcome, Liveness, NodeProgram,
    Notification, ProxyBuffer, Verdict, Vmmc, CTRL_SLOT,
};
use shrimp_mem::{Vaddr, PAGE_SIZE};
use shrimp_sim::rng::{rng_for_entity, splitmix64, OpenLoopArrivals, ZipfSampler};
use shrimp_sim::shard::Shards;
use shrimp_sim::{time, Category, CounterSet, Queue, Time};

/// Fixed wire size of one protocol record: an eight-word header plus the
/// value payload, power-of-two so a ring of records never straddles a
/// page (one deliberate-update DMA, one notification, per record).
const REC: usize = 128;
/// Ring entries per (sender, receiver) pair; also the per-pair window cap
/// on unacknowledged in-flight records, which is what makes slot reuse
/// safe (entry `k + RING_W` is only sent after entry `k` was consumed).
const RING_W: u64 = 16;
/// Bytes of one sender's region in every receiver's ring buffer.
const REGION: usize = RING_W as usize * REC;
/// Maximum value payload carried by one record.
const VAL_MAX: usize = 64;

/// How long a client waits on an unanswered request before rotating its
/// primary hint and resending (retries are idempotent: replicas
/// deduplicate by `(client, request)`). Sized to the machine: a notified
/// record costs its receiver ~35 µs of interrupt + notification delivery,
/// so a request RTT under transient queueing is hundreds of microseconds.
const RETRY_TIMEOUT: Time = time::us(1000);
/// Scan period of the client retry task.
const RETRY_TICK: Time = time::us(200);

// Record kinds.
const K_PUT: u64 = 1;
const K_GET: u64 = 2;
const K_REPLY: u64 = 3;
const K_REP: u64 = 4;
const K_ACK: u64 = 5;
const K_DONE: u64 = 6;

/// `d`-word status of a reply: the receiver is not the group's primary.
const ST_NOT_LEADER: u64 = 1;

/// Workload shape for one replicated KV run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvParams {
    /// Total nodes: `groups * replication` servers, the rest clients.
    pub nodes: usize,
    /// Replication groups (shards of the keyspace).
    pub groups: usize,
    /// Replicas per group; the lowest live rank is the primary.
    pub replication: usize,
    /// Keyspace size; keys hash to groups.
    pub keys: usize,
    /// Load-phase requests issued per client (excluding verify reads).
    pub requests: u32,
    /// Percentage of load requests that are writes.
    pub write_pct: u8,
    /// Mean inter-arrival gap of each client's open-loop process.
    pub mean_gap: Time,
    /// Value bytes carried by each write (at most `VAL_MAX` = 64).
    pub payload: usize,
    /// Backup acknowledgement batching interval: applied-but-unacked log
    /// entries are acked at most once per this period.
    pub ack_flush: Time,
    /// Workload seed; all per-client streams derive from it.
    pub seed: u64,
}

impl KvParams {
    /// The default 16-node shape: two groups of three replicas plus ten
    /// clients, a 4096-key Zipf keyspace, 400 µs mean gap. A primary's
    /// per-request service cost is ~55 µs (a notified record costs its
    /// receiver ~35 µs, plus ship + reply sends), so five clients per
    /// group must stay above a 275 µs gap — tighter gaps starve the
    /// primary's own heartbeat task of CPU until its backups falsely
    /// declare it dead and split the group.
    pub fn smoke() -> Self {
        KvParams {
            nodes: 16,
            groups: 2,
            replication: 3,
            keys: 4096,
            requests: 40,
            write_pct: 50,
            mean_gap: time::us(400),
            payload: 32,
            ack_flush: time::us(50),
            seed: 1,
        }
    }

    /// The same per-client load on a different node count; extra nodes
    /// become clients (server count is `groups * replication`).
    pub fn scaled_to(self, nodes: usize) -> Self {
        KvParams { nodes, ..self }
    }

    /// Number of server (replica) nodes.
    pub fn servers(&self) -> usize {
        self.groups * self.replication
    }

    /// Number of client nodes.
    pub fn clients(&self) -> usize {
        self.nodes - self.servers()
    }

    /// The group a key belongs to (seeded hash partition).
    pub fn group_of_key(&self, key: u64) -> usize {
        let mut st = key
            .wrapping_add(self.seed)
            .wrapping_mul(0x6b76_6861_7368_2131);
        (splitmix64(&mut st) % self.groups as u64) as usize
    }

    /// Node id of a group member by rank.
    pub fn node_of(&self, group: usize, rank: usize) -> usize {
        group * self.replication + rank
    }

    /// The initial primary of a group (rank 0) — the node a chaos
    /// scenario crashes to exercise failover.
    pub fn primary_node(&self, group: usize) -> usize {
        self.node_of(group, 0)
    }

    fn validate(&self) {
        assert!(
            self.groups >= 1 && self.replication >= 1,
            "kv needs servers"
        );
        assert!(self.clients() >= 1, "kv needs at least one client");
        assert!(self.keys >= 1, "kv needs a non-empty keyspace");
        assert!(self.requests >= 1, "kv needs at least one request");
        assert!(self.payload <= VAL_MAX, "kv values cap at {VAL_MAX} bytes");
        assert!(
            self.mean_gap > 0 && self.ack_flush > 0,
            "kv timers must advance"
        );
    }
}

/// Runs the KV service on a sharded cluster with metrics enabled and
/// returns the merged, shard-count-invariant outcome (latency quantiles
/// live in [`LaunchOutcome::metrics`] under `(App, "kv_req_ps")`).
///
/// # Panics
///
/// Panics on degenerate shapes (no clients, no keys, zero timers) and on
/// launch failure.
pub fn run_kv(params: &KvParams, cfg: DesignConfig, shards: Shards) -> LaunchOutcome {
    params.validate();
    Cluster::builder(params.nodes)
        .config(cfg)
        .shards(shards)
        .metrics(true)
        .launch(kv_node_program(*params, kv_detector(params.replication)))
}

/// The failure-detector schedule for KV replicas, scaled to the machine:
/// a notified record costs its receiver ~35 µs (interrupt plus user-level
/// notification delivery), so a loaded primary's heartbeat task can lag
/// many service times behind. The lease tolerates that lag; the default
/// chaos-workload schedule ([`HeartbeatConfig::for_nodes`], 1 µs period)
/// would falsely declare a merely-busy primary dead and split the group.
pub fn kv_detector(replication: usize) -> HeartbeatConfig {
    HeartbeatConfig::new(time::us(100), replication, time::us(100), time::us(400))
}

/// The per-node program of the KV service, reusable under a caller-built
/// [`ClusterBuilder`](shrimp_core::ClusterBuilder). Node ids below
/// [`KvParams::servers`] run replicas; the rest run load clients.
pub fn kv_node_program(p: KvParams, det: HeartbeatConfig) -> NodeProgram {
    Arc::new(move |vmmc: Vmmc| Box::pin(run_kv_node(vmmc, p, det)))
}

/// Sums client acks out of [`LaunchOutcome::node_results`] (clients pack
/// `(verify_failures << 32) | acked` — see [`run_kv`]'s module docs).
pub fn total_acked(p: &KvParams, out: &LaunchOutcome) -> u64 {
    out.node_results[p.servers()..]
        .iter()
        .map(|r| r & 0xffff_ffff)
        .sum()
}

/// Sums client verify failures (acked writes whose re-read regressed)
/// out of [`LaunchOutcome::node_results`].
pub fn total_verify_failures(p: &KvParams, out: &LaunchOutcome) -> u64 {
    out.node_results[p.servers()..]
        .iter()
        .map(|r| r >> 32)
        .sum()
}

/// One wire record. `a..d` are kind-specific:
///
/// | kind      | a            | b   | c       | d                      |
/// |-----------|--------------|-----|---------|------------------------|
/// | `PUT/GET` | request id   | key | —       | —                      |
/// | `REPLY`   | request id   | key | version | status                 |
/// | `REP`     | ship index   | key | version | origin `(client, req)` |
/// | `ACK`     | applied upto | —   | —       | —                      |
#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: u64,
    src: u64,
    a: u64,
    b: u64,
    c: u64,
    d: u64,
    /// Per-(sender, receiver) sequence number; assigned by the sender
    /// task, asserted contiguous by the receiver, and the ring slot index
    /// modulo [`RING_W`].
    pair: u64,
    val: [u8; VAL_MAX],
}

impl Rec {
    fn new(kind: u64, src: usize) -> Rec {
        Rec {
            kind,
            src: src as u64,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            pair: 0,
            val: [0; VAL_MAX],
        }
    }

    fn encode(&self) -> [u8; REC] {
        let mut b = [0u8; REC];
        for (i, w) in [
            self.kind, self.src, self.a, self.b, self.c, self.d, self.pair, 0,
        ]
        .into_iter()
        .enumerate()
        {
            b[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        b[64..].copy_from_slice(&self.val);
        b
    }

    fn decode(b: &[u8; REC]) -> Rec {
        let w = |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let mut val = [0u8; VAL_MAX];
        val.copy_from_slice(&b[64..]);
        Rec {
            kind: w(0),
            src: w(1),
            a: w(2),
            b: w(3),
            c: w(4),
            d: w(5),
            pair: w(6),
            val,
        }
    }
}

/// The deterministic value a client writes for its request `req_id`.
fn val_bytes(me: usize, req_id: u64, payload: usize) -> [u8; VAL_MAX] {
    let mut v = [0u8; VAL_MAX];
    let mut st = ((me as u64) << 32) ^ req_id ^ 0x6b76_7661_6c75_6573;
    for chunk in v[..payload].chunks_mut(8) {
        let w = splitmix64(&mut st).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    v
}

/// Byte offset of sender `src`'s ring slot for pair-sequence `pair` in
/// every receiver's ring buffer.
fn slot_off(src: usize, pair: u64) -> usize {
    src * REGION + (pair % RING_W) as usize * REC
}

/// Everything the node's tasks share about the wire: the ring buffer, the
/// notification inbox, and the outbox draining into the single sender
/// task (which serializes pair-sequence assignment with DMA issue order).
struct Wire {
    recv: Vaddr,
    inbox: Queue<Notification>,
    outbox: Queue<(usize, Rec)>,
}

impl Wire {
    /// Receives and validates the next record. Returns `None` when the
    /// notification queue closes.
    async fn next(&self, vmmc: &Vmmc, expect: &mut [u64]) -> Option<Rec> {
        let note = self.inbox.recv().await?;
        assert_eq!(note.len, REC, "foreign write landed in the kv ring");
        let mut buf = [0u8; REC];
        vmmc.space()
            .read(self.recv.add(note.offset as u64), &mut buf);
        let rec = Rec::decode(&buf);
        let src = note.src.0;
        assert_eq!(rec.src as usize, src, "kv record forged its source");
        assert_eq!(
            rec.pair, expect[src],
            "kv pair sequence broke from node {src} (per-pair FIFO violated)"
        );
        expect[src] += 1;
        assert_eq!(
            note.offset,
            slot_off(src, rec.pair),
            "kv record landed off its ring slot"
        );
        Some(rec)
    }

    /// Ends the sender task once every queued record has been sent.
    fn shutdown(&self, me: usize) {
        self.outbox.send((usize::MAX, Rec::new(0, me)));
    }
}

async fn run_kv_node(vmmc: Vmmc, p: KvParams, det: HeartbeatConfig) -> u64 {
    let me = vmmc.node_id().0;
    let n = p.nodes;
    let sim = vmmc.sim().clone();

    // A node scheduled to crash aborts its subtasks at the onset (the
    // engine tombstones the program itself).
    let abort_at = crash_onset(&vmmc);

    // Allocation order is the node-map contract: every node performs the
    // identical sequence on a fresh address space, so peers compute each
    // other's physical pages from their own layout. Ring buffer first,
    // heartbeat control buffer second, then the two staging pages.
    let ring_len = n * REGION;
    let recv = vmmc.space().alloc(ring_len.div_ceil(PAGE_SIZE));
    let export = vmmc.export(recv, ring_len);
    let inbox = vmmc.enable_notifications(export);
    let ctrl_len = n * CTRL_SLOT;
    let ctrl = vmmc.space().alloc(ctrl_len.div_ceil(PAGE_SIZE));
    let _ = vmmc.export(ctrl, ctrl_len);
    let stage = vmmc.space().alloc(1);
    let hb_stage = vmmc.space().alloc(1);
    let ring_proxies = vmmc.import_peers(recv, ring_len);
    let ctrl_proxies = vmmc.import_peers(ctrl, ctrl_len);

    let wire = Rc::new(Wire {
        recv,
        inbox,
        outbox: Queue::new(),
    });

    // The sender task: the only issuer of ring DMA, so pair-sequence
    // assignment order *is* wire order (per-pair FIFO then preserves it
    // end to end).
    {
        let (vmmc, w) = (vmmc.clone(), Rc::clone(&wire));
        sim.spawn(async move {
            let mut sent = vec![0u64; n];
            while let Some((dst, mut rec)) = w.outbox.recv().await {
                // Past the crash onset the node's NIC is powered off and
                // its page tables are gone; stop issuing DMA.
                if dst >= n || vmmc.sim().now() >= abort_at {
                    break;
                }
                let Some(proxy) = ring_proxies[dst].as_ref() else {
                    continue;
                };
                rec.pair = sent[dst];
                sent[dst] += 1;
                vmmc.space().write_raw(stage, &rec.encode());
                vmmc.send_notify(stage, proxy, slot_off(me, rec.pair), REC)
                    .await;
            }
        });
    }

    if me < p.servers() {
        run_server(vmmc, p, det, wire, ctrl, hb_stage, ctrl_proxies, abort_at).await
    } else {
        run_client(vmmc, p, wire, abort_at).await
    }
}

/// The group's primary as this replica sees it: the lowest rank not
/// declared dead. Declarations are never withdrawn here, so a replica
/// that became primary stays primary.
fn primary_rank(live: &Liveness, my_rank: usize) -> usize {
    (0..my_rank)
        .find(|&q| !live.peer(q).is_dead())
        .unwrap_or(my_rank)
}

#[allow(clippy::too_many_arguments)]
async fn run_server(
    vmmc: Vmmc,
    p: KvParams,
    det: HeartbeatConfig,
    wire: Rc<Wire>,
    ctrl: Vaddr,
    hb_stage: Vaddr,
    ctrl_proxies: Vec<Option<ProxyBuffer>>,
    abort_at: Time,
) -> u64 {
    let me = vmmc.node_id().0;
    let sim = vmmc.sim().clone();
    let r = p.replication;
    let group = me / r;
    let my_rank = me % r;
    let first = p.node_of(group, 0);

    let live = Rc::new(Liveness::new(det, p.seed, first..first + r, me, abort_at));
    // Replicated records processed, per sending rank — what the ack-flush
    // task reports to the current primary.
    let applied_from: Rc<Vec<Cell<u64>>> = Rc::new((0..r).map(|_| Cell::new(0)).collect());

    // Heartbeat sender: one group peer per period, round-robin, carrying
    // the counter and this node's done flag.
    if r > 1 {
        let (sim, vmmc, live) = (sim.clone(), vmmc.clone(), Rc::clone(&live));
        sim.clone().spawn(async move {
            let mut hb = live.heartbeat(hb_stage);
            loop {
                sim.sleep(det.period).await;
                if sim.now() >= abort_at {
                    break;
                }
                let halting = live.halt.get();
                let target = hb.stage(&vmmc, live.my_done.get());
                if halting {
                    // Farewell round: a peer still settling must observe
                    // this node's done flag, or it waits out a false dead
                    // declaration before it can halt — so the last
                    // heartbeat broadcasts to every peer, then stops.
                    for q in (0..r).filter(|&q| q != my_rank) {
                        hb.send(&vmmc, &ctrl_proxies, q).await;
                    }
                    break;
                }
                hb.send(&vmmc, &ctrl_proxies, target).await;
            }
        });
    }

    // Failure detector over group peers. A declared replica stays dead —
    // its heartbeats after a restart do not rejoin it to the group — and
    // declaring the last live lower rank dead promotes this node; the
    // failover time (promotion minus the dead primary's last heartbeat)
    // is recorded.
    if r > 1 {
        let (clock, views) = (sim.clone(), Rc::clone(&live));
        sim.spawn(Rc::clone(&live).monitor(vmmc.clone(), ctrl, move |q, v| {
            if let Verdict::Declared { silent } = v {
                if q < my_rank && primary_rank(&views, my_rank) == my_rank {
                    let metrics = clock.metrics();
                    metrics.observe(Category::App, "kv_failover_ps", silent);
                }
            }
        }));
    }

    // Ack-flush: batches replication acknowledgements to the current
    // primary, at most one ack record per flush period.
    if r > 1 {
        let (sim, live, applied_from, w) = (
            sim.clone(),
            Rc::clone(&live),
            Rc::clone(&applied_from),
            Rc::clone(&wire),
        );
        sim.clone().spawn(async move {
            let mut last_acked = vec![0u64; r];
            loop {
                sim.sleep(p.ack_flush).await;
                if live.halt.get() || sim.now() >= abort_at {
                    break;
                }
                let lead = primary_rank(&live, my_rank);
                if lead == my_rank {
                    continue; // this node is the primary; nothing to ack
                }
                let applied = applied_from[lead].get();
                if applied > last_acked[lead] {
                    last_acked[lead] = applied;
                    let mut rec = Rec::new(K_ACK, me);
                    rec.a = applied;
                    w.outbox.send((p.node_of(group, lead), rec));
                }
            }
        });
    }

    // Replica state. The store holds *committed* data on the primary and
    // *applied* data on backups (which converge at promotion, when the
    // new primary marks its applied log committed).
    let mut store: BTreeMap<u64, (u64, [u8; VAL_MAX])> = BTreeMap::new();
    let mut log: Vec<(u64, u64, u64, [u8; VAL_MAX])> = Vec::new(); // (key, version, origin, val)
    let mut dedup: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // origin -> (log idx, version)
    let mut pending: VecDeque<(u64, usize, u64, u64, u64)> = VecDeque::new(); // (idx, client, req, key, ver)
    let mut shipped = vec![0u64; r];
    let mut acked = vec![0u64; r];
    let mut committed = 0usize;
    let mut i_lead = my_rank == 0;
    let mut done_clients: BTreeSet<usize> = BTreeSet::new();
    let mut expect = vec![0u64; p.nodes];

    while done_clients.len() < p.clients() {
        let Some(rec) = wire.next(&vmmc, &mut expect).await else {
            break;
        };
        // Promotion handoff: the detector flipped the flag; adopt the
        // applied log as the committed base. Shipping restarts from index
        // zero per peer (`shipped` was never advanced as a backup), which
        // re-ships the inherited log to survivors — they dedup by origin.
        if !i_lead && primary_rank(&live, my_rank) == my_rank {
            i_lead = true;
            for (key, version, _, val) in &log[committed..] {
                store.insert(*key, (*version, *val));
            }
            committed = log.len();
        }
        let src = rec.src as usize;
        match rec.kind {
            K_PUT | K_GET if !i_lead => {
                let mut reply = Rec::new(K_REPLY, me);
                reply.a = rec.a;
                reply.b = rec.b;
                reply.d = ST_NOT_LEADER;
                wire.outbox.send((src, reply));
            }
            K_PUT => {
                let origin = ((src as u64) << 32) | rec.a;
                match dedup.get(&origin) {
                    Some(&(idx, version)) => {
                        if idx as usize <= committed {
                            let mut reply = Rec::new(K_REPLY, me);
                            reply.a = rec.a;
                            reply.b = rec.b;
                            reply.c = version;
                            wire.outbox.send((src, reply));
                        } else {
                            pending.push_back((idx, src, rec.a, rec.b, version));
                        }
                    }
                    None => {
                        let version = log.len() as u64 + 1;
                        log.push((rec.b, version, origin, rec.val));
                        dedup.insert(origin, (log.len() as u64, version));
                        pending.push_back((log.len() as u64, src, rec.a, rec.b, version));
                    }
                }
            }
            K_GET => {
                let mut reply = Rec::new(K_REPLY, me);
                reply.a = rec.a;
                reply.b = rec.b;
                if let Some((version, val)) = store.get(&rec.b) {
                    reply.c = *version;
                    reply.val = *val;
                }
                wire.outbox.send((src, reply));
            }
            K_REP => {
                let srank = src % r;
                assert_eq!(
                    rec.a,
                    applied_from[srank].get() + 1,
                    "kv replication stream from rank {srank} skipped an entry"
                );
                applied_from[srank].set(rec.a);
                let origin = rec.d;
                if !i_lead && !dedup.contains_key(&origin) {
                    log.push((rec.b, rec.c, origin, rec.val));
                    dedup.insert(origin, (log.len() as u64, rec.c));
                    let newer = store.get(&rec.b).is_none_or(|&(v, _)| rec.c > v);
                    if newer {
                        store.insert(rec.b, (rec.c, rec.val));
                    }
                }
            }
            K_ACK => {
                let srank = src % r;
                acked[srank] = acked[srank].max(rec.a);
            }
            K_DONE => {
                done_clients.insert(src);
            }
            _ => {}
        }
        if i_lead {
            // Ship the log tail to every live peer, window-capped.
            for q in 0..r {
                if q == my_rank || live.peer(q).is_dead() {
                    continue;
                }
                while shipped[q] < log.len() as u64 && shipped[q] - acked[q] < RING_W {
                    let (key, version, origin, val) = log[shipped[q] as usize];
                    let mut rep = Rec::new(K_REP, me);
                    rep.a = shipped[q] + 1;
                    rep.b = key;
                    rep.c = version;
                    rep.d = origin;
                    rep.val = val;
                    wire.outbox.send((p.node_of(group, q), rep));
                    shipped[q] += 1;
                }
            }
            // Commit = every live backup acknowledged the prefix; with no
            // live backups the whole log commits.
            let target = (0..r)
                .filter(|&q| q != my_rank && !live.peer(q).is_dead())
                .map(|q| acked[q])
                .min()
                .unwrap_or(log.len() as u64) as usize;
            if target > committed {
                for (key, version, _, val) in &log[committed..target] {
                    store.insert(*key, (*version, *val));
                }
                committed = target;
                let mut keep = VecDeque::new();
                for entry in pending.drain(..) {
                    let (idx, client, req, key, version) = entry;
                    if idx as usize <= committed {
                        let mut reply = Rec::new(K_REPLY, me);
                        reply.a = req;
                        reply.b = key;
                        reply.c = version;
                        wire.outbox.send((client, reply));
                    } else {
                        keep.push_back(entry);
                    }
                }
                pending = keep;
            }
        }
    }
    live.my_done.set(true);

    // Settle: every group peer is done or declared dead (heartbeat done
    // flags ride the same detector samples).
    while !live.settled() {
        sim.sleep(det.period).await;
        if sim.now() >= abort_at {
            break;
        }
    }
    live.halt.set(true);
    wire.shutdown(me);

    // Program result: a deterministic digest of the final store.
    let mut st = p.seed ^ ((me as u64) << 32) ^ 0x4b56_5354_4f52_4544;
    let mut h = 0u64;
    for (key, (version, val)) in &store {
        st ^= key ^ version.rotate_left(17);
        h = h.wrapping_add(splitmix64(&mut st));
        for &b in &val[..p.payload] {
            st ^= u64::from(b);
            h = h.wrapping_add(splitmix64(&mut st));
        }
    }
    h
}

/// Client phases: issue the load, then re-read every acked write.
#[derive(PartialEq)]
enum Phase {
    Load,
    Verify,
}

/// One in-flight client request.
struct OutReq {
    kind: u64,
    verify: bool,
    key: u64,
    scheduled_at: Time,
    last_sent: Time,
    target: usize,
    needs_send: bool,
    expect_version: u64,
    val: [u8; VAL_MAX],
}

/// A client's request outcomes, registered with its shard's registry.
#[derive(Default)]
struct KvStats {
    acked: Cell<u64>,
    retries: Cell<u64>,
    not_leader: Cell<u64>,
}

impl CounterSet for KvStats {
    const CATEGORY: Category = Category::App;

    fn for_each(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("kv_acked", self.acked.get());
        f("kv_retries", self.retries.get());
        f("kv_not_leader", self.not_leader.get());
    }
}

/// Client state shared by the generator, retry, and reply tasks.
struct CliState {
    reqs: BTreeMap<u64, OutReq>,
    send_q: Vec<VecDeque<u64>>,
    inflight: BTreeSet<(usize, u64)>,
    outstanding: Vec<u64>,
    hint: Vec<usize>,
    acked_keys: BTreeMap<u64, u64>,
    next_id: u64,
    stats: Rc<KvStats>,
    verify_failures: u64,
    gen_done: bool,
    phase: Phase,
}

/// Sends every queued request whose pair window has room. Purely
/// synchronous (the sender task does the DMA), so callers hold the state
/// borrow across the whole pump.
fn pump(s: &mut CliState, wire: &Wire, p: &KvParams, me: usize, now: Time) {
    for srv in 0..p.servers() {
        while s.outstanding[srv] < RING_W {
            let Some(&id) = s.send_q[srv].front() else {
                break;
            };
            s.send_q[srv].pop_front();
            let Some(req) = s.reqs.get_mut(&id) else {
                continue; // completed while queued
            };
            if req.target != srv || !req.needs_send {
                continue; // retargeted by a retry; stale queue entry
            }
            req.needs_send = false;
            req.last_sent = now;
            s.inflight.insert((srv, id));
            s.outstanding[srv] += 1;
            let mut rec = Rec::new(req.kind, me);
            rec.a = id;
            rec.b = req.key;
            rec.val = req.val;
            wire.outbox.send((srv, rec));
        }
    }
}

/// Retargets a request to the next rank of its key's group and queues it.
fn rotate(s: &mut CliState, p: &KvParams, id: u64, now: Time) {
    let Some(req) = s.reqs.get_mut(&id) else {
        return;
    };
    let g = p.group_of_key(req.key);
    let next = (req.target % p.replication + 1) % p.replication;
    s.hint[g] = next;
    req.target = p.node_of(g, next);
    req.needs_send = true;
    req.last_sent = now;
    let target = req.target;
    s.send_q[target].push_back(id);
}

async fn run_client(vmmc: Vmmc, p: KvParams, wire: Rc<Wire>, abort_at: Time) -> u64 {
    let me = vmmc.node_id().0;
    let sim = vmmc.sim().clone();
    let halt = Rc::new(Cell::new(false));
    let stats = Rc::new(KvStats::default());
    sim.metrics().register(Rc::clone(&stats));

    let state = Rc::new(RefCell::new(CliState {
        reqs: BTreeMap::new(),
        send_q: (0..p.servers()).map(|_| VecDeque::new()).collect(),
        inflight: BTreeSet::new(),
        outstanding: vec![0; p.servers()],
        hint: vec![0; p.groups],
        acked_keys: BTreeMap::new(),
        next_id: 1,
        stats,
        verify_failures: 0,
        gen_done: false,
        phase: Phase::Load,
    }));

    // Generator: the open-loop arrival process. `gen_done` is set *before*
    // the final request is queued, so the final completion (whichever
    // request it is) always observes it — the liveness hinge of the
    // reply loop's phase transition.
    {
        let (sim, sh, st, w) = (
            sim.clone(),
            Rc::clone(&halt),
            Rc::clone(&state),
            Rc::clone(&wire),
        );
        sim.clone().spawn(async move {
            let mut ops = rng_for_entity("kv", p.seed, me as u64);
            let mut load = rng_for_entity("kv-load", p.seed, me as u64);
            let zipf = ZipfSampler::new(p.keys);
            let mut arrivals = OpenLoopArrivals::new(p.mean_gap, 0);
            for i in 0..p.requests {
                let at = arrivals.next(&mut load);
                let now = sim.now();
                if at > now {
                    sim.sleep(at - now).await;
                }
                if sh.get() || sim.now() >= abort_at {
                    break;
                }
                let key = zipf.sample(&mut ops) as u64;
                let is_put = ops.gen_range(0..100u64) < u64::from(p.write_pct);
                let mut s = st.borrow_mut();
                if i + 1 == p.requests {
                    s.gen_done = true;
                }
                let id = s.next_id;
                s.next_id += 1;
                let g = p.group_of_key(key);
                let target = p.node_of(g, s.hint[g]);
                s.reqs.insert(
                    id,
                    OutReq {
                        kind: if is_put { K_PUT } else { K_GET },
                        verify: false,
                        key,
                        scheduled_at: at,
                        last_sent: sim.now(),
                        target,
                        needs_send: true,
                        expect_version: 0,
                        val: if is_put {
                            val_bytes(me, id, p.payload)
                        } else {
                            [0; VAL_MAX]
                        },
                    },
                );
                s.send_q[target].push_back(id);
                pump(&mut s, &w, &p, me, sim.now());
            }
            st.borrow_mut().gen_done = true;
        });
    }

    // Retry: rotates the target of any request silent past the timeout.
    // Retries are idempotent (server-side dedup), so a spurious timeout
    // under load costs bandwidth, never correctness.
    {
        let (sim, sh, st, w) = (
            sim.clone(),
            Rc::clone(&halt),
            Rc::clone(&state),
            Rc::clone(&wire),
        );
        sim.clone().spawn(async move {
            loop {
                sim.sleep(RETRY_TICK).await;
                if sh.get() || sim.now() >= abort_at {
                    break;
                }
                let now = sim.now();
                let mut s = st.borrow_mut();
                let stale: Vec<u64> = s
                    .reqs
                    .iter()
                    .filter(|(_, r)| now.saturating_sub(r.last_sent) >= RETRY_TIMEOUT)
                    .map(|(&id, _)| id)
                    .collect();
                for id in stale {
                    rotate(&mut s, &p, id, now);
                    s.stats.retries.update(|c| c + 1);
                }
                pump(&mut s, &w, &p, me, now);
            }
        });
    }

    // Reply loop: completes requests, measures open-loop latency, and
    // drives the load -> verify -> done phase machine.
    let mut expect = vec![0u64; p.nodes];
    loop {
        let Some(rec) = wire.next(&vmmc, &mut expect).await else {
            break;
        };
        assert_eq!(rec.kind, K_REPLY, "client received a non-reply record");
        let now = sim.now();
        let mut finished = false;
        {
            let mut s = state.borrow_mut();
            let srv = rec.src as usize;
            if s.inflight.remove(&(srv, rec.a)) {
                s.outstanding[srv] -= 1;
            }
            let info = s.reqs.get(&rec.a).map(|r| {
                (
                    r.needs_send,
                    r.verify,
                    r.kind,
                    r.scheduled_at,
                    r.expect_version,
                )
            });
            if let Some((needs_send, verify, kind, scheduled_at, expect_version)) = info {
                if rec.d == ST_NOT_LEADER {
                    if !needs_send {
                        s.stats.not_leader.update(|c| c + 1);
                        rotate(&mut s, &p, rec.a, now);
                    }
                } else {
                    if verify {
                        if rec.c < expect_version {
                            s.verify_failures += 1;
                        }
                    } else {
                        sim.metrics()
                            .observe(Category::App, "kv_req_ps", now - scheduled_at);
                        s.stats.acked.update(|c| c + 1);
                        if kind == K_PUT {
                            let slot = s.acked_keys.entry(rec.b).or_insert(0);
                            *slot = (*slot).max(rec.c);
                        }
                    }
                    s.reqs.remove(&rec.a);
                }
            }
            match s.phase {
                Phase::Load if s.gen_done && s.reqs.is_empty() => {
                    // Verify phase: re-read every key this client wrote
                    // and got acked; the version must not have regressed.
                    let keys: Vec<(u64, u64)> =
                        s.acked_keys.iter().map(|(&k, &v)| (k, v)).collect();
                    for (key, version) in keys {
                        let id = s.next_id;
                        s.next_id += 1;
                        let g = p.group_of_key(key);
                        let target = p.node_of(g, s.hint[g]);
                        s.reqs.insert(
                            id,
                            OutReq {
                                kind: K_GET,
                                verify: true,
                                key,
                                scheduled_at: now,
                                last_sent: now,
                                target,
                                needs_send: true,
                                expect_version: version,
                                val: [0; VAL_MAX],
                            },
                        );
                        s.send_q[target].push_back(id);
                    }
                    s.phase = Phase::Verify;
                    finished = s.reqs.is_empty();
                }
                Phase::Verify if s.reqs.is_empty() => finished = true,
                _ => {}
            }
            pump(&mut s, &wire, &p, me, now);
        }
        if finished {
            break;
        }
    }

    halt.set(true);
    let s = state.borrow();
    for srv in 0..p.servers() {
        wire.outbox.send((srv, Rec::new(K_DONE, me)));
    }
    wire.shutdown(me);
    (s.verify_failures << 32) | (s.stats.acked.get() & 0xffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::{FaultScenario, NodeCrash, Reliability};
    use shrimp_sim::metrics::MetricValue;

    fn small() -> KvParams {
        KvParams {
            nodes: 10,
            groups: 2,
            replication: 2,
            keys: 64,
            requests: 12,
            write_pct: 60,
            mean_gap: time::us(200),
            payload: 16,
            ack_flush: time::us(50),
            seed: 7,
        }
    }

    fn hist(out: &LaunchOutcome, name: &'static str) -> Option<(u64, u64, u64)> {
        match out.metrics.get(Category::App, name) {
            Some(MetricValue::Histogram(h)) => Some((h.count, h.quantile(0.5), h.quantile(0.99))),
            _ => None,
        }
    }

    fn fields(o: &LaunchOutcome) -> (Time, Vec<u64>, u64, u64, u64, u64) {
        (
            o.elapsed,
            o.node_results.clone(),
            o.messages,
            o.notifications,
            o.net_packets,
            o.net_bytes,
        )
    }

    #[test]
    fn kv_completes_with_no_losses_and_is_shard_invariant() {
        let p = small();
        let base = run_kv(&p, DesignConfig::as_built(), Shards::Fixed(1));
        assert_eq!(base.node_results.len(), p.nodes);
        assert_eq!(
            total_acked(&p, &base),
            u64::from(p.requests) * p.clients() as u64,
            "every load request must be acknowledged"
        );
        assert_eq!(total_verify_failures(&p, &base), 0, "acked write regressed");
        let (count, p50, p99) = hist(&base, "kv_req_ps").expect("latency histogram");
        assert_eq!(count, total_acked(&p, &base), "every ack must be measured");
        assert!(p50 > 0 && p99 >= p50, "latency quantiles degenerate");
        // No fault was injected, so a promotion here would mean the
        // detector falsely declared a busy (or cleanly finished) peer
        // dead — the load must stay under the primaries' service
        // capacity and shutdown must not read as death.
        assert_eq!(
            hist(&base, "kv_failover_ps"),
            None,
            "fault-free run observed a promotion"
        );
        for shards in [2, 5] {
            let out = run_kv(&p, DesignConfig::as_built(), Shards::Fixed(shards));
            assert_eq!(
                fields(&out),
                fields(&base),
                "kv diverged at {shards} shards"
            );
            assert_eq!(
                hist(&out, "kv_req_ps"),
                hist(&base, "kv_req_ps"),
                "kv latency metrics diverged at {shards} shards"
            );
        }
    }

    /// Log shipping rides the PR-3 reliability layer: with mesh packet
    /// drops and retransmission on, every request still completes, every
    /// acked write survives, and the run stays shard-invariant.
    #[test]
    fn kv_survives_packet_drops_under_reliability() {
        let p = small();
        let mut cfg = DesignConfig::as_built();
        // The ack timeout must sit well inside the detector lease: a
        // dropped heartbeat stalls its stop-and-wait sender for one
        // retransmit timeout, and that silence must not read as a death.
        cfg.reliability = Reliability {
            ack_timeout: time::us(100),
            backoff_cap: time::us(800),
            ..Reliability::on()
        };
        cfg.faults = FaultScenario {
            seed: 3,
            drop_pct: 5,
            ..Default::default()
        };
        let base = run_kv(&p, cfg.clone(), Shards::Fixed(1));
        assert!(
            base.retransmits > 0,
            "drops never exercised the retransmit path"
        );
        assert_eq!(
            total_acked(&p, &base),
            u64::from(p.requests) * p.clients() as u64,
            "requests lost despite reliable delivery"
        );
        assert_eq!(total_verify_failures(&p, &base), 0, "acked write regressed");
        let out = run_kv(&p, cfg, Shards::Fixed(2));
        assert_eq!(
            fields(&out),
            fields(&base),
            "kv drop run diverged at 2 shards"
        );
    }

    #[test]
    fn kv_different_seeds_differ() {
        let a = run_kv(&small(), DesignConfig::as_built(), Shards::Fixed(2));
        let b = run_kv(
            &KvParams { seed: 8, ..small() },
            DesignConfig::as_built(),
            Shards::Fixed(2),
        );
        assert_ne!(a.node_results, b.node_results);
    }

    /// The failover guarantee: crash the primary of group 0 mid-load; a
    /// backup promotes, clients re-route, and no acknowledged write is
    /// lost — at every shard count.
    #[test]
    fn kv_primary_crash_promotes_backup_and_loses_no_acked_write() {
        let p = KvParams {
            replication: 3,
            nodes: 12, // 6 servers, 6 clients
            requests: 30,
            ..small()
        };
        // Reliability stays off: an unreliable send to the dead board is
        // absorbed (the semantics a crashed receiver should have), while a
        // reliable send would stall its sender through the whole
        // retransmit budget before failing — client retries and log
        // re-shipping are the recovery mechanism here.
        let mut cfg = DesignConfig::as_built();
        cfg.faults = FaultScenario {
            crash: Some(NodeCrash {
                node: p.primary_node(0) as u8,
                at_us: 400,
                down_us: 0,
            }),
            ..Default::default()
        };
        let base = run_kv(&p, cfg.clone(), Shards::Fixed(1));
        assert_eq!(
            total_verify_failures(&p, &base),
            0,
            "acked write lost in failover"
        );
        assert_eq!(
            total_acked(&p, &base),
            u64::from(p.requests) * p.clients() as u64,
            "load did not complete through the failover"
        );
        let (fo_count, fo_p50, _) = hist(&base, "kv_failover_ps").expect("failover histogram");
        assert!(fo_count >= 1, "no backup recorded a promotion");
        assert!(fo_p50 > 0, "failover time must be positive");
        assert!(base.detection_latency_ps > 0, "crash went undetected");
        for shards in [2, 4] {
            let out = run_kv(&p, cfg.clone(), Shards::Fixed(shards));
            assert_eq!(
                fields(&out),
                fields(&base),
                "kv failover run diverged at {shards} shards"
            );
            assert_eq!(hist(&out, "kv_failover_ps"), hist(&base, "kv_failover_ps"));
        }
    }
}
