//! The SVM runtime: regions, page state machines, the three protocols'
//! fault/release paths, centralized locks and barrier, and the per-peer
//! protocol handlers driven by notifications.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use shrimp_core::ring::{connect_ring, RingBulk, RingReceiver, RingSender};
use shrimp_core::{Cluster, ProxyBuffer, ShrimpError, Vmmc};
use shrimp_mem::{Vaddr, PAGE_SIZE};
use shrimp_sim::{trace_event, Event, FastMap, FastSet, Semaphore};

use crate::config::{Protocol, SvmConfig};
use crate::msg::{Notice, Reply, Request};
use crate::stats::SvmStats;

/// Identifier of a shared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Invalid,
    ReadOnly,
    ReadWrite,
}

struct Region {
    base: Vaddr,
    npages: usize,
    homes: Vec<u16>,
    state: RefCell<Vec<PState>>,
    twins: RefCell<FastMap<u32, Vec<u8>>>,
    bound: RefCell<Vec<bool>>,
    /// Proxy to each node's copy of this region (for AU bindings to homes).
    proxies: Vec<Option<ProxyBuffer>>,
}

/// Slot a granted waiter's notices are delivered through.
type GrantSlot = Rc<RefCell<Option<Vec<Notice>>>>;
/// A reply ring guarded against interleaved sends from concurrent handlers.
type GuardedReplyRing = Rc<(RingSender, Semaphore)>;

enum Waiter {
    Remote(u16),
    Local(GrantSlot, Event),
}

struct LockState {
    holder: Option<u16>,
    waiting: VecDeque<Waiter>,
    notices: Vec<Notice>,
    /// Per-node index into `notices`: everything before it was already
    /// delivered to that node.
    seen: Vec<usize>,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    notices: Vec<Notice>,
    remote: Vec<u16>,
    local: Vec<(GrantSlot, Event)>,
}

struct NodeShared {
    me: usize,
    n: usize,
    cfg: SvmConfig,
    vm: Vmmc,
    regions: RefCell<Vec<Rc<Region>>>,
    req_tx: Vec<Option<RingSender>>,
    rep_tx: Vec<Option<GuardedReplyRing>>,
    rep_rx: Vec<Option<RingReceiver>>,
    // Manager state hosted on this node.
    locks: RefCell<Vec<LockState>>,
    barrier: RefCell<BarrierState>,
    // AURC fences.
    fence_out: Vec<Cell<u64>>,
    fence_slot_local: Vec<Option<Vaddr>>,
    fence_in_page: Vaddr,
    // Interval tracking.
    dirty: RefCell<FastSet<(u32, u32)>>,
    rw_pages: RefCell<FastSet<(u32, u32)>>,
    touched_homes: RefCell<FastSet<usize>>,
    notices_pending: RefCell<FastSet<(u32, u32)>>,
    /// All pages this node wrote since its last barrier; a barrier acts as
    /// a global synchronization, so these are re-published there even if a
    /// lock release already carried them (scope-consistency-style notice
    /// distribution; full vector timestamps are not needed for data-race-
    /// free programs).
    notices_since_barrier: RefCell<FastSet<(u32, u32)>>,
    deferred_inval: RefCell<FastSet<(u32, u32)>>,
    stats: Rc<SvmStats>,
}

/// The cluster-wide SVM service; create regions through it and hand
/// [`SvmNode`]s to the per-node application processes.
pub struct Svm {
    nodes: Vec<SvmNode>,
}

impl std::fmt::Debug for Svm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Svm")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// One node's SVM endpoint. Cheap to clone.
#[derive(Clone)]
pub struct SvmNode {
    sh: Rc<NodeShared>,
}

impl std::fmt::Debug for SvmNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvmNode").field("me", &self.sh.me).finish()
    }
}

impl Svm {
    /// Builds the SVM runtime on a cluster: per-pair request rings (with
    /// notifications enabled — the SVM upcalls of Table 3), polled reply
    /// rings, AU fence pages, and the per-peer handler processes.
    pub fn create(cluster: &Cluster, cfg: SvmConfig) -> Svm {
        let n = cluster.num_nodes();
        let vmmcs: Vec<Vmmc> = (0..n).map(|i| cluster.vmmc(i)).collect();

        // Fence pages: every node exports one; writer `w` AU-binds a private
        // local page whose slot `w*8` lands in the home's fence page.
        let mut fence_pages = Vec::with_capacity(n);
        let mut fence_exports = Vec::with_capacity(n);
        for vm in &vmmcs {
            let p = vm.space().alloc(1);
            fence_exports.push(vm.export(p, PAGE_SIZE));
            fence_pages.push(p);
        }
        let mut fence_slots: Vec<Vec<Option<Vaddr>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for me in 0..n {
            for home in 0..n {
                if home == me {
                    continue;
                }
                let proxy = vmmcs[me].import(fence_exports[home]);
                let local = vmmcs[me].space().alloc(1);
                vmmcs[me].bind(local, &proxy, 0, PAGE_SIZE, false, false);
                fence_slots[me][home] = Some(local);
            }
        }

        // Rings.
        let mut req_tx: Vec<Vec<Option<RingSender>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut req_rx: Vec<Vec<Option<RingReceiver>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut rep_tx: Vec<Vec<Option<GuardedReplyRing>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut rep_rx: Vec<Vec<Option<RingReceiver>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (tx, rx) = connect_ring(
                    &vmmcs[a],
                    &vmmcs[b],
                    cfg.req_ring_bytes,
                    RingBulk::Deliberate,
                );
                req_tx[a][b] = Some(tx);
                req_rx[b][a] = Some(rx);
                let (tx, rx) = connect_ring(
                    &vmmcs[a],
                    &vmmcs[b],
                    cfg.rep_ring_bytes,
                    RingBulk::Deliberate,
                );
                rep_tx[a][b] = Some(Rc::new((tx, Semaphore::new(1))));
                rep_rx[b][a] = Some(rx);
            }
        }

        let mut nodes = Vec::with_capacity(n);
        for me in 0..n {
            let sh = Rc::new(NodeShared {
                me,
                n,
                cfg: cfg.clone(),
                vm: vmmcs[me].clone(),
                regions: RefCell::new(Vec::new()),
                req_tx: std::mem::take(&mut req_tx[me]),
                rep_tx: std::mem::take(&mut rep_tx[me]),
                rep_rx: std::mem::take(&mut rep_rx[me]),
                locks: RefCell::new(
                    (0..cfg.locks)
                        .map(|_| LockState {
                            holder: None,
                            waiting: VecDeque::new(),
                            notices: Vec::new(),
                            seen: vec![0; n],
                        })
                        .collect(),
                ),
                barrier: RefCell::new(BarrierState::default()),
                fence_out: (0..n).map(|_| Cell::new(0)).collect(),
                fence_slot_local: std::mem::take(&mut fence_slots[me]),
                fence_in_page: fence_pages[me],
                dirty: RefCell::new(FastSet::default()),
                rw_pages: RefCell::new(FastSet::default()),
                touched_homes: RefCell::new(FastSet::default()),
                notices_pending: RefCell::new(FastSet::default()),
                notices_since_barrier: RefCell::new(FastSet::default()),
                deferred_inval: RefCell::new(FastSet::default()),
                stats: Rc::new(SvmStats::new()),
            });
            nodes.push(SvmNode { sh });
        }

        // Handler processes: one per (node, requesting peer).
        for (me, node) in nodes.iter().enumerate() {
            for (peer, rx) in req_rx[me].iter_mut().enumerate() {
                let Some(rx) = rx.take() else { continue };
                let notif_q = vmmcs[me].enable_notifications(rx.export());
                let sh = node.sh.clone();
                vmmcs[me].sim().spawn(async move {
                    loop {
                        let Some(_n) = notif_q.recv().await else {
                            break;
                        };
                        // The notification rode the final chunk; earlier
                        // chunks arrived before it (in-order delivery).
                        let mut acc = Vec::new();
                        loop {
                            let f = rx
                                .try_recv()
                                .expect("notification without a complete request");
                            let done = f.tag == 0;
                            acc.extend(f.data);
                            if done {
                                break;
                            }
                        }
                        rx.ack().await;
                        let req = Request::decode(&acc);
                        sh.handle_request(peer, req).await;
                    }
                });
            }
        }

        Svm { nodes }
    }

    /// The endpoint for `node`'s application process.
    pub fn node(&self, node: usize) -> SvmNode {
        self.nodes[node].clone()
    }

    /// Creates a shared region of at least `bytes` bytes; `home_of` assigns
    /// each page index a home node (applications distribute homes to match
    /// their partitioning). Collective setup, performed out-of-band.
    pub fn create_region(&self, bytes: usize, home_of: impl Fn(usize) -> usize) -> RegionId {
        let n = self.nodes.len();
        let npages = bytes.div_ceil(PAGE_SIZE).max(1);
        let homes: Vec<u16> = (0..npages)
            .map(|p| {
                let h = home_of(p);
                assert!(h < n, "home {h} out of range");
                h as u16
            })
            .collect();
        // Allocate + export everywhere.
        let mut bases = Vec::with_capacity(n);
        let mut exports = Vec::with_capacity(n);
        for node in &self.nodes {
            let base = node.sh.vm.space().alloc(npages);
            exports.push(node.sh.vm.export(base, npages * PAGE_SIZE));
            bases.push(base);
        }
        let id = RegionId(self.nodes[0].sh.regions.borrow().len() as u32);
        for (me, node) in self.nodes.iter().enumerate() {
            let proxies = (0..n)
                .map(|peer| {
                    if peer == me {
                        None
                    } else {
                        Some(node.sh.vm.import(exports[peer]))
                    }
                })
                .collect();
            let state = (0..npages)
                .map(|p| {
                    if homes[p] as usize == me {
                        PState::ReadOnly
                    } else {
                        PState::Invalid
                    }
                })
                .collect();
            node.sh.regions.borrow_mut().push(Rc::new(Region {
                base: bases[me],
                npages,
                homes: homes.clone(),
                state: RefCell::new(state),
                twins: RefCell::new(FastMap::default()),
                bound: RefCell::new(vec![false; npages]),
                proxies,
            }));
        }
        id
    }

    /// Initialization backdoor: writes `data` into the *home* copies of the
    /// touched pages (no cost, no coherence actions). Use before the
    /// parallel phase.
    pub fn init_write(&self, region: RegionId, offset: usize, data: &[u8]) {
        let r = self.nodes[0].sh.region(region);
        let mut done = 0;
        while done < data.len() {
            let off = offset + done;
            let pg = off / PAGE_SIZE;
            let in_page = (PAGE_SIZE - off % PAGE_SIZE).min(data.len() - done);
            let home = r.homes[pg] as usize;
            let hr = self.nodes[home].sh.region(region);
            self.nodes[home]
                .sh
                .vm
                .space()
                .write_raw(hr.base.add(off as u64), &data[done..done + in_page]);
            done += in_page;
        }
    }

    /// Reads from the home copies (verification backdoor).
    pub fn home_read(&self, region: RegionId, offset: usize, buf: &mut [u8]) {
        let r = self.nodes[0].sh.region(region);
        let mut done = 0;
        while done < buf.len() {
            let off = offset + done;
            let pg = off / PAGE_SIZE;
            let in_page = (PAGE_SIZE - off % PAGE_SIZE).min(buf.len() - done);
            let home = r.homes[pg] as usize;
            let hr = self.nodes[home].sh.region(region);
            self.nodes[home]
                .sh
                .vm
                .space()
                .read(hr.base.add(off as u64), &mut buf[done..done + in_page]);
            done += in_page;
        }
    }
}

// ---------------------------------------------------------------------------
// Transport helpers
// ---------------------------------------------------------------------------

impl NodeShared {
    fn region(&self, id: RegionId) -> Rc<Region> {
        self.regions.borrow()[id.0 as usize].clone()
    }

    async fn send_blob(&self, tx: &RingSender, bytes: &[u8], notify: bool) {
        let maxp = tx.max_payload();
        let nchunks = bytes.len().div_ceil(maxp).max(1);
        if bytes.is_empty() {
            if notify {
                tx.send_frame_notify(0, &[]).await;
            } else {
                tx.send_frame(0, &[]).await;
            }
            return;
        }
        for (i, chunk) in bytes.chunks(maxp).enumerate() {
            let last = i == nchunks - 1;
            let tag = if last { 0 } else { 1 };
            if last && notify {
                tx.send_frame_notify(tag, chunk).await;
            } else {
                tx.send_frame(tag, chunk).await;
            }
        }
    }

    async fn recv_blob(&self, peer: usize) -> Vec<u8> {
        let rx = self.rep_rx[peer].as_ref().expect("no reply ring");
        let mut acc = Vec::new();
        loop {
            let f = rx.recv().await;
            acc.extend(f.data);
            if f.tag == 0 {
                return acc;
            }
        }
    }

    async fn request_remote(&self, to: usize, req: &Request) -> Reply {
        debug_assert_ne!(to, self.me);
        let tx = self.req_tx[to].as_ref().expect("no request ring");
        self.send_blob(tx, &req.encode(), true).await;
        Reply::decode(&self.recv_blob(to).await)
    }

    async fn reply_to(&self, peer: usize, rep: &Reply) {
        let pair = self.rep_tx[peer].as_ref().expect("no reply ring").clone();
        pair.1.acquire().await;
        self.send_blob(&pair.0, &rep.encode(), false).await;
        pair.1.release();
    }

    // -----------------------------------------------------------------
    // Handler side
    // -----------------------------------------------------------------

    async fn handle_request(self: &Rc<Self>, peer: usize, req: Request) {
        self.vm.cpu().run_handler(self.cfg.handler_cost).await;
        match req {
            Request::FetchPage { region, page } => {
                let r = self.region(RegionId(region));
                assert_eq!(
                    r.homes[page as usize] as usize, self.me,
                    "page fetch sent to non-home"
                );
                let mut data = vec![0u8; PAGE_SIZE];
                self.vm
                    .space()
                    .read(r.base.add(page as u64 * PAGE_SIZE as u64), &mut data);
                self.reply_to(peer, &Reply::PageData(data)).await;
            }
            Request::ApplyDiff {
                region,
                page,
                words,
            } => {
                let r = self.region(RegionId(region));
                assert_eq!(
                    r.homes[page as usize] as usize, self.me,
                    "diff sent to non-home"
                );
                self.vm
                    .cpu()
                    .run_handler(words.len() as u64 * self.cfg.diff_word_apply)
                    .await;
                for (idx, v) in words {
                    let addr = r.base.add(page as u64 * PAGE_SIZE as u64 + idx as u64 * 4);
                    self.vm.space().write_raw(addr, &v.to_le_bytes());
                }
                self.reply_to(peer, &Reply::Ack).await;
            }
            Request::LockAcquire { lock } => {
                let grant = {
                    let mut locks = self.locks.borrow_mut();
                    let st = &mut locks[lock as usize];
                    if st.holder.is_none() {
                        st.holder = Some(peer as u16);
                        let unseen = st.notices[st.seen[peer]..].to_vec();
                        st.seen[peer] = st.notices.len();
                        Some(unseen)
                    } else {
                        st.waiting.push_back(Waiter::Remote(peer as u16));
                        None
                    }
                };
                if let Some(notices) = grant {
                    self.reply_to(peer, &Reply::LockGrant(notices)).await;
                }
            }
            Request::LockRelease { lock, notices } => {
                let next = self.lock_release_inner(lock as usize, peer as u16, notices);
                self.reply_to(peer, &Reply::Ack).await;
                self.dispatch_grant(lock as usize, next).await;
            }
            Request::BarrierEnter { notices } => {
                self.barrier_enter(Waiter::Remote(peer as u16), notices)
                    .await;
            }
            Request::MapPage { .. } => {
                // Registering the interval's write-through mapping is pure
                // control work at the home.
                self.reply_to(peer, &Reply::Ack).await;
            }
            Request::AuFence { seq } => {
                // Wait until the peer's AU stream (which carries its fence
                // word in order) has arrived.
                let addr = self.fence_in_page.add(peer as u64 * 8);
                let gate = self.vm.write_gate(addr);
                loop {
                    if self.vm.read_u64(addr) >= seq {
                        break;
                    }
                    gate.wait().await;
                }
                self.reply_to(peer, &Reply::Ack).await;
            }
        }
    }

    /// Releases a lock and pops the next waiter (state changes only).
    fn lock_release_inner(
        &self,
        lock: usize,
        from: u16,
        notices: Vec<Notice>,
    ) -> Option<(Waiter, Vec<Notice>)> {
        let mut locks = self.locks.borrow_mut();
        let st = &mut locks[lock];
        assert_eq!(st.holder, Some(from), "release of lock not held");
        st.notices.extend(notices);
        st.holder = None;
        let next = st.waiting.pop_front()?;
        let who = match &next {
            Waiter::Remote(nd) => *nd as usize,
            Waiter::Local(_, _) => self.me,
        };
        st.holder = Some(who as u16);
        let unseen = st.notices[st.seen[who]..].to_vec();
        st.seen[who] = st.notices.len();
        Some((next, unseen))
    }

    async fn dispatch_grant(&self, _lock: usize, grant: Option<(Waiter, Vec<Notice>)>) {
        if let Some((waiter, notices)) = grant {
            match waiter {
                Waiter::Remote(nd) => {
                    self.reply_to(nd as usize, &Reply::LockGrant(notices)).await;
                }
                Waiter::Local(slot, ev) => {
                    *slot.borrow_mut() = Some(notices);
                    ev.set();
                }
            }
        }
    }

    async fn barrier_enter(&self, who: Waiter, notices: Vec<Notice>) {
        let complete = {
            let mut b = self.barrier.borrow_mut();
            b.arrived += 1;
            b.notices.extend(notices);
            match who {
                Waiter::Remote(nd) => b.remote.push(nd),
                Waiter::Local(slot, ev) => b.local.push((slot, ev)),
            }
            if b.arrived == self.n {
                let merged = std::mem::take(&mut b.notices);
                let remote = std::mem::take(&mut b.remote);
                let local = std::mem::take(&mut b.local);
                b.arrived = 0;
                Some((merged, remote, local))
            } else {
                None
            }
        };
        if let Some((merged, remote, local)) = complete {
            for nd in remote {
                self.reply_to(nd as usize, &Reply::BarrierRelease(merged.clone()))
                    .await;
            }
            for (slot, ev) in local {
                *slot.borrow_mut() = Some(merged.clone());
                ev.set();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Application side
// ---------------------------------------------------------------------------

impl SvmNode {
    /// This node's rank.
    pub fn me(&self) -> usize {
        self.sh.me
    }

    /// Number of nodes.
    pub fn nprocs(&self) -> usize {
        self.sh.n
    }

    /// The underlying VMMC handle (for compute-time charging).
    pub fn vmmc(&self) -> &Vmmc {
        &self.sh.vm
    }

    /// This node's SVM statistics.
    pub fn stats(&self) -> Rc<SvmStats> {
        self.sh.stats.clone()
    }

    /// Home node of a region page.
    pub fn home_of(&self, region: RegionId, page: usize) -> usize {
        self.sh.region(region).homes[page] as usize
    }

    fn addr(&self, region: &Region, off: usize) -> Vaddr {
        assert!(
            off < region.npages * PAGE_SIZE,
            "region offset out of range"
        );
        region.base.add(off as u64)
    }

    async fn read_fault(&self, region: RegionId, pg: u32) {
        let sh = &self.sh;
        let t0 = sh.vm.sim().now();
        SvmStats::bump(&sh.stats.faults);
        sh.vm.compute(sh.cfg.fault_cost).await;
        let r = sh.region(region);
        let home = r.homes[pg as usize] as usize;
        debug_assert_ne!(home, sh.me, "home page cannot be invalid");
        trace_event!(
            sh.vm.sim().trace(),
            sh.vm.sim().now(),
            shrimp_sim::Category::Svm,
            [
                ("node", sh.me),
                ("region", region.0),
                ("page", pg),
                ("home", home),
            ],
            "node {} fetch region {} page {} from {}",
            sh.me,
            region.0,
            pg,
            home
        );
        let rep = sh
            .request_remote(
                home,
                &Request::FetchPage {
                    region: region.0,
                    page: pg,
                },
            )
            .await;
        let Reply::PageData(data) = rep else {
            panic!(
                "{}",
                ShrimpError::BadReply {
                    wanted: "PageData",
                    got: format!("{rep:?}"),
                }
            );
        };
        sh.vm.local_copy(PAGE_SIZE).await;
        sh.vm
            .space()
            .write_raw(r.base.add(pg as u64 * PAGE_SIZE as u64), &data);
        r.state.borrow_mut()[pg as usize] = PState::ReadOnly;
        SvmStats::bump(&sh.stats.fetches);
        SvmStats::add_time(&sh.stats.fault_time, sh.vm.sim().now() - t0);
        let metrics = sh.vm.sim().metrics();
        metrics.counter_add(shrimp_sim::Category::Svm, "read_faults", 1);
        metrics.observe(
            shrimp_sim::Category::Svm,
            "read_fault_service_ps",
            sh.vm.sim().now() - t0,
        );
    }

    async fn write_fault(&self, region: RegionId, pg: u32) {
        let sh = &self.sh;
        let r = sh.region(region);
        // Fetch first if we have no valid copy. AURC skips the fetch: the
        // page becomes a write-only write-through mapping whose stores
        // stream straight to the home — no twin will ever need a base
        // version. (Reading words one did not write from such a page
        // without an intervening acquire is a data race.) This is the key
        // asymmetry behind AURC's large win on Radix: HLRC must fetch,
        // twin, and later diff every falsely-shared page.
        if r.state.borrow()[pg as usize] == PState::Invalid && sh.cfg.protocol != Protocol::Aurc {
            self.read_fault(region, pg).await;
        }
        let t0 = sh.vm.sim().now();
        SvmStats::bump(&sh.stats.faults);
        sh.vm.compute(sh.cfg.fault_cost).await;
        let home = r.homes[pg as usize] as usize;
        if home != sh.me {
            match sh.cfg.protocol {
                Protocol::Hlrc | Protocol::HlrcAu => {
                    // Twin the page.
                    let mut twin = vec![0u8; PAGE_SIZE];
                    sh.vm
                        .space()
                        .read(r.base.add(pg as u64 * PAGE_SIZE as u64), &mut twin);
                    sh.vm.local_copy(PAGE_SIZE).await;
                    r.twins.borrow_mut().insert(pg, twin);
                    sh.dirty.borrow_mut().insert((region.0, pg));
                }
                Protocol::Aurc => {
                    // Establishing a write-through mapping takes a small
                    // notified control request to the home (a sizeable part
                    // of AURC's message traffic in the paper's Table 3);
                    // the binding then persists, so re-faults after an
                    // invalidation are purely local.
                    if !r.bound.borrow()[pg as usize] {
                        let rep = sh
                            .request_remote(
                                home,
                                &Request::MapPage {
                                    region: region.0,
                                    page: pg,
                                },
                            )
                            .await;
                        assert_eq!(rep, Reply::Ack);
                        let proxy = r.proxies[home].as_ref().expect("no region proxy");
                        sh.vm.bind(
                            r.base.add(pg as u64 * PAGE_SIZE as u64),
                            proxy,
                            pg as usize * PAGE_SIZE,
                            PAGE_SIZE,
                            true, // per-binding combining (§4.5.1)
                            false,
                        );
                        r.bound.borrow_mut()[pg as usize] = true;
                    }
                    sh.touched_homes.borrow_mut().insert(home);
                }
            }
        }
        sh.notices_pending.borrow_mut().insert((region.0, pg));
        sh.rw_pages.borrow_mut().insert((region.0, pg));
        r.state.borrow_mut()[pg as usize] = PState::ReadWrite;
        SvmStats::add_time(&sh.stats.fault_time, sh.vm.sim().now() - t0);
        let metrics = sh.vm.sim().metrics();
        metrics.counter_add(shrimp_sim::Category::Svm, "write_faults", 1);
        metrics.observe(
            shrimp_sim::Category::Svm,
            "write_fault_service_ps",
            sh.vm.sim().now() - t0,
        );
    }

    async fn ensure_read(&self, region: RegionId, off: usize, len: usize) {
        let r = self.sh.region(region);
        let first = off / PAGE_SIZE;
        let last = (off + len - 1) / PAGE_SIZE;
        for pg in first..=last {
            if r.state.borrow()[pg] == PState::Invalid {
                self.read_fault(region, pg as u32).await;
            }
        }
    }

    async fn ensure_write(&self, region: RegionId, off: usize, len: usize) {
        let r = self.sh.region(region);
        let first = off / PAGE_SIZE;
        let last = (off + len - 1) / PAGE_SIZE;
        for pg in first..=last {
            if r.state.borrow()[pg] != PState::ReadWrite {
                self.write_fault(region, pg as u32).await;
            }
        }
    }

    /// Reads `buf.len()` bytes at `off`, faulting pages in as needed.
    pub async fn read_bytes(&self, region: RegionId, off: usize, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        self.ensure_read(region, off, buf.len()).await;
        let r = self.sh.region(region);
        self.sh.vm.read(self.addr(&r, off), buf);
    }

    /// Writes bytes at `off`, faulting pages to read-write as needed. In
    /// AURC, the stores stream to the home via automatic update.
    pub async fn write_bytes(&self, region: RegionId, off: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.ensure_write(region, off, data.len()).await;
        let r = self.sh.region(region);
        // vm.store charges per the page's cache mode (write-through on
        // AURC-bound pages) and triggers the NIC snoop path.
        self.sh.vm.store(self.addr(&r, off), data).await;
    }

    /// Reads a `u32` from shared memory.
    pub async fn read_u32(&self, region: RegionId, off: usize) -> u32 {
        self.ensure_read(region, off, 4).await;
        let r = self.sh.region(region);
        self.sh.vm.read_u32(self.addr(&r, off))
    }

    /// Writes a `u32` to shared memory.
    pub async fn write_u32(&self, region: RegionId, off: usize, v: u32) {
        self.write_bytes(region, off, &v.to_le_bytes()).await;
    }

    /// Reads an `f64` from shared memory.
    pub async fn read_f64(&self, region: RegionId, off: usize) -> f64 {
        self.ensure_read(region, off, 8).await;
        let r = self.sh.region(region);
        f64::from_bits(self.sh.vm.read_u64(self.addr(&r, off)))
    }

    /// Writes an `f64` to shared memory.
    pub async fn write_f64(&self, region: RegionId, off: usize, v: f64) {
        self.write_bytes(region, off, &v.to_bits().to_le_bytes())
            .await;
    }

    // -----------------------------------------------------------------
    // Release / acquire
    // -----------------------------------------------------------------

    fn compute_diff(&self, r: &Region, pg: u32) -> Vec<(u16, u32)> {
        let twin = r
            .twins
            .borrow_mut()
            .remove(&pg)
            .expect("dirty page without twin");
        let mut cur = vec![0u8; PAGE_SIZE];
        self.sh
            .vm
            .read(r.base.add(pg as u64 * PAGE_SIZE as u64), &mut cur);
        let mut words = Vec::new();
        for i in 0..PAGE_SIZE / 4 {
            let old = u32::from_le_bytes(twin[i * 4..i * 4 + 4].try_into().unwrap());
            let new = u32::from_le_bytes(cur[i * 4..i * 4 + 4].try_into().unwrap());
            if old != new {
                words.push((i as u16, new));
            }
        }
        words
    }

    /// The release operation: push this interval's modifications to their
    /// homes (diffs for HLRC, AU fences for AURC), downgrade written pages,
    /// and collect the interval's write notices.
    async fn release_all(&self) -> Vec<Notice> {
        let sh = &self.sh;
        let t0 = sh.vm.sim().now();
        let dirty: Vec<(u32, u32)> = sh.dirty.borrow_mut().drain().collect();
        let mut dirty = dirty;
        dirty.sort_unstable(); // deterministic order
        for (reg, pg) in dirty {
            let r = sh.region(RegionId(reg));
            let home = r.homes[pg as usize] as usize;
            debug_assert_ne!(home, sh.me);
            let words = self.compute_diff(&r, pg);
            // The scan walks the whole page regardless of how much changed —
            // the false-sharing overhead AURC eliminates.
            sh.vm
                .compute((PAGE_SIZE as u64 / 4) * sh.cfg.diff_word_scan)
                .await;
            SvmStats::bump(&sh.stats.diffs_sent);
            SvmStats::add(&sh.stats.diff_words, words.len() as u64);
            match sh.cfg.protocol {
                Protocol::Hlrc => {
                    let rep = sh
                        .request_remote(
                            home,
                            &Request::ApplyDiff {
                                region: reg,
                                page: pg,
                                words,
                            },
                        )
                        .await;
                    assert_eq!(rep, Reply::Ack);
                }
                Protocol::HlrcAu => {
                    // Diff words were propagated through the AU mapping as
                    // they were produced: charge the write-through stores,
                    // and deliver the data without an explicit transfer.
                    let cfg = sh.vm.cluster().config().clone();
                    sh.vm
                        .compute(words.len() as u64 * cfg.wt_store_word_cost)
                        .await;
                    let rep = sh
                        .request_remote(
                            home,
                            &Request::ApplyDiff {
                                region: reg,
                                page: pg,
                                words,
                            },
                        )
                        .await;
                    assert_eq!(rep, Reply::Ack);
                }
                Protocol::Aurc => unreachable!("AURC pages are never twinned"),
            }
        }
        // AURC: fence each home we streamed updates to.
        let homes: Vec<usize> = sh.touched_homes.borrow_mut().drain().collect();
        let mut homes = homes;
        homes.sort_unstable();
        for home in homes {
            let seq = sh.fence_out[home].get() + 1;
            sh.fence_out[home].set(seq);
            let slot = sh.fence_slot_local[home].expect("no fence slot");
            sh.vm.store_u64(slot.add(sh.me as u64 * 8), seq).await;
            sh.vm.flush_au();
            let rep = sh.request_remote(home, &Request::AuFence { seq }).await;
            assert_eq!(rep, Reply::Ack);
            SvmStats::bump(&sh.stats.fences);
        }
        // Downgrade written pages so the next interval faults afresh.
        for (reg, pg) in sh.rw_pages.borrow_mut().drain() {
            let r = sh.region(RegionId(reg));
            let mut st = r.state.borrow_mut();
            if st[pg as usize] == PState::ReadWrite {
                st[pg as usize] = PState::ReadOnly;
            }
        }
        // Apply invalidations deferred while we held the pages writable.
        for (reg, pg) in sh.deferred_inval.borrow_mut().drain() {
            let r = sh.region(RegionId(reg));
            r.state.borrow_mut()[pg as usize] = PState::Invalid;
        }
        let mut pending: Vec<(u32, u32)> = sh.notices_pending.borrow_mut().drain().collect();
        pending.sort_unstable(); // deterministic across processes
        let notices: Vec<Notice> = pending
            .into_iter()
            .map(|(region, page)| {
                sh.notices_since_barrier.borrow_mut().insert((region, page));
                Notice {
                    writer: sh.me as u16,
                    region,
                    page,
                }
            })
            .collect();
        SvmStats::add(&sh.stats.notices_sent, notices.len() as u64);
        SvmStats::add_time(&sh.stats.release_time, sh.vm.sim().now() - t0);
        notices
    }

    fn apply_notices(&self, notices: &[Notice]) {
        let sh = &self.sh;
        for n in notices {
            if n.writer as usize == sh.me {
                continue;
            }
            let r = sh.region(RegionId(n.region));
            if r.homes[n.page as usize] as usize == sh.me {
                continue; // home copies are kept current by diffs/AU
            }
            if sh.rw_pages.borrow().contains(&(n.region, n.page)) {
                // We hold this page writable (false sharing across sync
                // operations); invalidate after our own release.
                sh.deferred_inval.borrow_mut().insert((n.region, n.page));
                continue;
            }
            r.state.borrow_mut()[n.page as usize] = PState::Invalid;
            r.twins.borrow_mut().remove(&n.page);
        }
    }

    /// Acquires lock `id` (centralized manager `id % n`), applying the
    /// write notices delivered with the grant.
    pub async fn lock(&self, id: usize) {
        let sh = &self.sh;
        let t0 = sh.vm.sim().now();
        SvmStats::bump(&sh.stats.lock_ops);
        let mgr = id % sh.n;
        let notices = if mgr == sh.me {
            sh.vm.compute(sh.cfg.local_sync_cost).await;
            let immediate = {
                let mut locks = sh.locks.borrow_mut();
                let st = &mut locks[id];
                if st.holder.is_none() {
                    st.holder = Some(sh.me as u16);
                    let unseen = st.notices[st.seen[sh.me]..].to_vec();
                    st.seen[sh.me] = st.notices.len();
                    Ok(unseen)
                } else {
                    let slot = Rc::new(RefCell::new(None));
                    let ev = Event::new();
                    st.waiting
                        .push_back(Waiter::Local(slot.clone(), ev.clone()));
                    Err((slot, ev))
                }
            };
            match immediate {
                Ok(v) => v,
                Err((slot, ev)) => {
                    ev.wait().await;
                    slot.borrow_mut().take().expect("grant without notices")
                }
            }
        } else {
            match sh
                .request_remote(mgr, &Request::LockAcquire { lock: id as u32 })
                .await
            {
                Reply::LockGrant(v) => v,
                r => panic!(
                    "{}",
                    ShrimpError::BadReply {
                        wanted: "LockGrant",
                        got: format!("{r:?}"),
                    }
                ),
            }
        };
        self.apply_notices(&notices);
        SvmStats::add_time(&sh.stats.lock_wait, sh.vm.sim().now() - t0);
    }

    /// Releases lock `id`, publishing this interval's write notices.
    pub async fn unlock(&self, id: usize) {
        let sh = &self.sh;
        let notices = self.release_all().await;
        let mgr = id % sh.n;
        if mgr == sh.me {
            sh.vm.compute(sh.cfg.local_sync_cost).await;
            let next = sh.lock_release_inner(id, sh.me as u16, notices);
            sh.dispatch_grant(id, next).await;
        } else {
            let rep = sh
                .request_remote(
                    mgr,
                    &Request::LockRelease {
                        lock: id as u32,
                        notices,
                    },
                )
                .await;
            assert_eq!(rep, Reply::Ack);
        }
    }

    /// Global barrier (manager: node 0): releases this interval, waits for
    /// all nodes, and applies the merged write notices.
    pub async fn barrier(&self) {
        let sh = &self.sh;
        trace_event!(
            sh.vm.sim().trace(),
            sh.vm.sim().now(),
            shrimp_sim::Category::Svm,
            [("node", sh.me)],
            "node {} enters barrier",
            sh.me
        );
        self.release_all().await;
        // A barrier is a global synchronization point: publish every write
        // since the previous barrier, including those already published to
        // individual lock managers.
        let mut since: Vec<(u32, u32)> = sh.notices_since_barrier.borrow_mut().drain().collect();
        since.sort_unstable(); // deterministic across processes
        let notices: Vec<Notice> = since
            .into_iter()
            .map(|(region, page)| Notice {
                writer: sh.me as u16,
                region,
                page,
            })
            .collect();
        let t0 = sh.vm.sim().now();
        SvmStats::bump(&sh.stats.barriers);
        let merged = if sh.me == 0 {
            sh.vm.compute(sh.cfg.local_sync_cost).await;
            let slot = Rc::new(RefCell::new(None));
            let ev = Event::new();
            sh.barrier_enter(Waiter::Local(slot.clone(), ev.clone()), notices)
                .await;
            ev.wait().await;
            let merged = slot.borrow_mut().take();
            merged.expect("barrier release without notices")
        } else {
            match sh
                .request_remote(0, &Request::BarrierEnter { notices })
                .await
            {
                Reply::BarrierRelease(v) => v,
                r => panic!(
                    "{}",
                    ShrimpError::BadReply {
                        wanted: "BarrierRelease",
                        got: format!("{r:?}"),
                    }
                ),
            }
        };
        self.apply_notices(&merged);
        SvmStats::add_time(&sh.stats.barrier_wait, sh.vm.sim().now() - t0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::DesignConfig;
    use shrimp_sim::executor::TaskHandle;
    use shrimp_sim::Time;

    fn run_svm<F, Fut, T>(n: usize, protocol: Protocol, region_bytes: usize, f: F) -> (Time, Vec<T>)
    where
        F: Fn(SvmNode, RegionId) -> Fut,
        Fut: std::future::Future<Output = T> + 'static,
        T: 'static,
    {
        let cluster = Cluster::builder(n).config(DesignConfig::default()).build();
        let svm = Svm::create(&cluster, SvmConfig::new(protocol));
        let region = svm.create_region(region_bytes, |p| p % n);
        let handles: Vec<TaskHandle<T>> = (0..n)
            .map(|i| cluster.sim().spawn(f(svm.node(i), region)))
            .collect();
        cluster.run_until_complete(handles)
    }

    fn all_protocols() -> [Protocol; 3] {
        [Protocol::Hlrc, Protocol::HlrcAu, Protocol::Aurc]
    }

    #[test]
    fn write_then_barrier_then_read() {
        for p in all_protocols() {
            let (_t, out) = run_svm(2, p, 8192, |node, region| async move {
                if node.me() == 0 {
                    node.write_u32(region, 4096 + 16, 1234).await; // homed on 1
                    node.write_u32(region, 0, 77).await; // homed on 0
                    node.barrier().await;
                    0
                } else {
                    node.barrier().await;
                    let a = node.read_u32(region, 4096 + 16).await;
                    let b = node.read_u32(region, 0).await;
                    a + b
                }
            });
            assert_eq!(out[1], 1234 + 77, "protocol {p}");
        }
    }

    #[test]
    fn false_sharing_merges_at_home() {
        // Two nodes write different words of the same (remote-homed) page
        // in the same interval; after the barrier both see both writes.
        for p in all_protocols() {
            let (_t, out) = run_svm(3, p, 3 * 4096, |node, region| async move {
                // Page 2 is homed on node 2; nodes 0 and 1 write to it.
                if node.me() < 2 {
                    let off = 2 * 4096 + node.me() * 128;
                    node.write_u32(region, off, 100 + node.me() as u32).await;
                }
                node.barrier().await;
                let a = node.read_u32(region, 2 * 4096).await;
                let b = node.read_u32(region, 2 * 4096 + 128).await;
                (a, b)
            });
            for (i, &(a, b)) in out.iter().enumerate() {
                assert_eq!((a, b), (100, 101), "protocol {p}, node {i}");
            }
        }
    }

    #[test]
    fn locks_are_mutually_exclusive_and_propagate_data() {
        for p in all_protocols() {
            let (_t, out) = run_svm(4, p, 4096, |node, region| async move {
                // Counter at offset 0 (homed on 0), guarded by lock 1
                // (managed by node 1).
                for _ in 0..5 {
                    node.lock(1).await;
                    let v = node.read_u32(region, 0).await;
                    node.vmmc().compute(shrimp_sim::time::us(10)).await;
                    node.write_u32(region, 0, v + 1).await;
                    node.unlock(1).await;
                }
                node.barrier().await;
                node.read_u32(region, 0).await
            });
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, 20, "protocol {p}, node {i}: lost updates");
            }
        }
    }

    #[test]
    fn lock_managed_by_its_own_node_works() {
        for p in all_protocols() {
            let (_t, out) = run_svm(2, p, 4096, |node, region| async move {
                for _ in 0..3 {
                    node.lock(0).await; // manager: node 0 (includes itself)
                    let v = node.read_u32(region, 8).await;
                    node.write_u32(region, 8, v + 1).await;
                    node.unlock(0).await;
                }
                node.barrier().await;
                node.read_u32(region, 8).await
            });
            assert_eq!(out[0], 6, "protocol {p}");
        }
    }

    #[test]
    fn repeated_intervals_invalidate_and_refetch() {
        for p in all_protocols() {
            let (_t, out) = run_svm(2, p, 4096, |node, region| async move {
                let mut seen = Vec::new();
                for round in 0..4u32 {
                    if node.me() == 0 {
                        node.write_u32(region, 100, round * 10).await;
                    }
                    node.barrier().await;
                    seen.push(node.read_u32(region, 100).await);
                    node.barrier().await;
                }
                seen
            });
            assert_eq!(out[1], vec![0, 10, 20, 30], "protocol {p}");
        }
    }

    #[test]
    fn aurc_uses_fences_and_no_diffs() {
        let (_t, _out) = {
            let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
            let svm = Svm::create(&cluster, SvmConfig::new(Protocol::Aurc));
            let region = svm.create_region(8192, |_| 1); // all pages homed on 1
            let node0 = svm.node(0);
            let node1 = svm.node(1);
            let h0 = cluster.sim().spawn(async move {
                for i in 0..32 {
                    node0.write_u32(region, i * 4, i as u32).await;
                }
                node0.barrier().await;
            });
            let s1 = node1.clone();
            let h1 = cluster.sim().spawn(async move {
                s1.barrier().await;
            });
            let out = cluster.run_until_complete(vec![h0, h1]);
            let s = svm.node(0).stats();
            assert_eq!(s.diffs_sent.get(), 0, "AURC must not send diffs");
            assert!(s.fences.get() >= 1, "AURC must fence at release");
            out
        };
    }

    #[test]
    fn aurc_write_faults_register_mappings_with_notifications() {
        // The MapPage control request is a notified message per faulted
        // page per interval — the traffic behind Table 3's Radix-SVM row.
        let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
        let svm = Svm::create(&cluster, SvmConfig::new(Protocol::Aurc));
        let region = svm.create_region(4 * 4096, |_| 1); // all homed on 1
        let node0 = svm.node(0);
        let h0 = cluster.sim().spawn(async move {
            for round in 0..2 {
                for pg in 0..4usize {
                    node0
                        .write_u32(region, pg * 4096, round * 10 + pg as u32)
                        .await;
                }
                node0.barrier().await;
            }
        });
        let node1 = svm.node(1);
        let h1 = cluster.sim().spawn(async move {
            node1.barrier().await;
            node1.barrier().await;
        });
        cluster.run_until_complete(vec![h0, h1]);
        // One MapPage per page on first binding, all notified.
        assert!(
            cluster.stats(1).notifications.get() >= 4,
            "MapPage requests not notified: {}",
            cluster.stats(1).notifications.get()
        );
        // Still no diffs under AURC.
        assert_eq!(svm.node(0).stats().diffs_sent.get(), 0);
    }

    #[test]
    fn stats_partition_wall_time() {
        // The Figure 4 categories must never exceed a node's elapsed time.
        let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
        let svm = Svm::create(&cluster, SvmConfig::new(Protocol::Hlrc));
        let region = svm.create_region(8 * 4096, |p| p % 4);
        let mut handles = Vec::new();
        for i in 0..4 {
            let node = svm.node(i);
            handles.push(cluster.sim().spawn(async move {
                for r in 0..3 {
                    node.lock(2).await;
                    let off = ((i * 37 + r * 11) % 8) * 4096 + i * 8;
                    node.write_u32(region, off, r as u32).await;
                    node.unlock(2).await;
                    node.barrier().await;
                }
            }));
        }
        let (elapsed, _) = cluster.run_until_complete(handles);
        for i in 0..4 {
            let s = svm.node(i).stats();
            assert!(
                s.categorized() <= elapsed,
                "node {i}: categorized {} exceeds elapsed {elapsed}",
                s.categorized()
            );
            assert!(s.barriers.get() == 3);
            assert_eq!(s.lock_ops.get(), 3);
        }
    }

    #[test]
    fn hlrc_sends_diffs_and_no_fences() {
        let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
        let svm = Svm::create(&cluster, SvmConfig::new(Protocol::Hlrc));
        let region = svm.create_region(4096, |_| 1);
        let node0 = svm.node(0);
        let node1 = svm.node(1);
        let h0 = cluster.sim().spawn(async move {
            node0.write_u32(region, 0, 5).await;
            node0.barrier().await;
        });
        let h1 = cluster.sim().spawn(async move {
            node1.barrier().await;
            node1.read_u32(region, 0).await
        });
        cluster.run_until_complete(vec![h0]);
        assert_eq!(h1.try_take(), Some(5));
        let s = svm.node(0).stats();
        assert_eq!(s.diffs_sent.get(), 1);
        assert_eq!(s.diff_words.get(), 1);
        assert_eq!(s.fences.get(), 0);
    }

    #[test]
    fn init_write_and_home_read_backdoors() {
        let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
        let svm = Svm::create(&cluster, SvmConfig::new(Protocol::Hlrc));
        let region = svm.create_region(4 * 4096, |p| p % 4);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        svm.init_write(region, 500, &data);
        let mut got = vec![0u8; 10_000];
        svm.home_read(region, 500, &mut got);
        assert_eq!(got, data);
        // And a node reads it through the coherence protocol.
        let node = svm.node(3);
        let h = cluster.sim().spawn(async move {
            let mut buf = vec![0u8; 10_000];
            node.read_bytes(region, 500, &mut buf).await;
            buf
        });
        cluster.run_until_complete(vec![h]);
    }

    #[test]
    fn false_sharing_across_locks_defers_invalidation() {
        // Node 0 holds a page writable while node 1's write notice for the
        // same page arrives with a lock grant: the invalidation must be
        // deferred past node 0's own release, and both writes must merge at
        // the home (the deferred-invalidation path of `apply_notices`).
        for p in all_protocols() {
            let (_t, out) = run_svm(3, p, 3 * 4096, |node, region| async move {
                // Page 2 is homed on node 2.
                let off0 = 2 * 4096; // node 0's word
                let off1 = 2 * 4096 + 64; // node 1's word
                match node.me() {
                    0 => {
                        // Write outside any lock; page stays RW.
                        node.write_u32(region, off0, 11).await;
                        // Let node 1 do its locked write first.
                        node.vmmc().compute(shrimp_sim::time::ms(2)).await;
                        // Acquire the lock: grant carries node 1's notice
                        // for a page we hold writable -> deferred.
                        node.lock(5).await;
                        node.unlock(5).await; // our release: diff + deferred inval
                    }
                    1 => {
                        node.lock(5).await;
                        node.write_u32(region, off1, 22).await;
                        node.unlock(5).await;
                    }
                    _ => {}
                }
                node.barrier().await;
                let a = node.read_u32(region, off0).await;
                let b = node.read_u32(region, off1).await;
                (a, b)
            });
            for (i, &(a, b)) in out.iter().enumerate() {
                assert_eq!((a, b), (11, 22), "protocol {p}, node {i}");
            }
        }
    }

    #[test]
    fn aurc_beats_hlrc_under_false_sharing() {
        // The headline Figure 4 effect: scattered writes to falsely-shared
        // pages are much cheaper under AURC than HLRC.
        let run = |p: Protocol| -> Time {
            let (t, _) = run_svm(4, p, 16 * 4096, |node, region| async move {
                // Every node writes a strided pattern across all 16 pages.
                for round in 0..4 {
                    for pg in 0..16 {
                        let off = pg * 4096 + (node.me() * 64 + round * 16) % 4096;
                        node.write_u32(region, off, (round * 100 + pg) as u32).await;
                    }
                    node.barrier().await;
                }
            });
            t
        };
        let t_hlrc = run(Protocol::Hlrc);
        let t_aurc = run(Protocol::Aurc);
        assert!(
            t_aurc < t_hlrc,
            "AURC ({t_aurc}) should beat HLRC ({t_hlrc}) under false sharing"
        );
    }

    #[test]
    fn svm_runs_are_deterministic() {
        let run = || {
            run_svm(3, Protocol::Hlrc, 8192, |node, region| async move {
                for i in 0..8 {
                    node.write_u32(region, (node.me() * 400 + i * 4) % 8000, i as u32)
                        .await;
                    node.barrier().await;
                }
                node.stats().notices_sent.get()
            })
        };
        let (t1, o1) = run();
        let (t2, o2) = run();
        assert_eq!(t1, t2);
        assert_eq!(o1, o2);
    }
}
