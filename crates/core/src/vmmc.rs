//! The user-level VMMC library: export/import, deliberate update,
//! automatic-update bindings, notifications, and polling.

use shrimp_faults::{backoff_timeout, ShrimpError};
use shrimp_mem::{AddressSpace, CacheMode, Vaddr, PAGE_SIZE, WORD_BYTES};
use shrimp_net::NodeId;
use shrimp_nic::{DuRequest, OptEntry};
use shrimp_sim::{Event, Queue, Sim, Time};

use crate::cluster::{Cluster, Notification};
use crate::cpu::Cpu;
use crate::stats::NodeStats;

/// Identifier of an exported receive buffer (cluster-global).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExportId(pub u32);

/// A proxy receive buffer: the local representation of an imported remote
/// receive buffer (§2.2). Sends address bytes relative to the buffer base.
///
/// Fields are private; use the accessor methods. Construction goes
/// through [`Vmmc::import`].
#[derive(Debug, Clone)]
pub struct ProxyBuffer {
    export: ExportId,
    dst_node: usize,
    proxy_base: u64,
    len: usize,
}

impl ProxyBuffer {
    /// Size of the underlying receive buffer in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-length buffer (never produced by `export`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node owning the underlying receive buffer.
    pub fn dst_node(&self) -> NodeId {
        NodeId(self.dst_node)
    }

    /// The export this proxy was imported from.
    pub fn export_id(&self) -> ExportId {
        self.export
    }

    /// First OPT index of the proxy page range (diagnostics only).
    pub fn proxy_base(&self) -> u64 {
        self.proxy_base
    }
}

/// Handle returned by asynchronous sends; waiting on it confirms the source
/// memory may be reused (all data has left main memory).
#[derive(Debug, Clone)]
pub struct SendTicket {
    done: Event,
}

impl SendTicket {
    /// Waits until the transfer's data has been injected into the network.
    pub async fn wait(&self) {
        self.done.wait().await;
    }

    /// `true` once the data has left the node.
    pub fn is_done(&self) -> bool {
        self.done.is_set()
    }
}

/// The VMMC library handle held by one node's application process.
///
/// Cheap to clone; see the [crate-level example](crate).
#[derive(Clone)]
pub struct Vmmc {
    cluster: Cluster,
    node: usize,
}

impl std::fmt::Debug for Vmmc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vmmc").field("node", &self.node).finish()
    }
}

impl Vmmc {
    pub(crate) fn new(cluster: Cluster, node: usize) -> Self {
        Vmmc { cluster, node }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        NodeId(self.node)
    }

    /// The owning cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The simulator.
    pub fn sim(&self) -> &Sim {
        self.cluster.sim()
    }

    /// This node's address space.
    pub fn space(&self) -> &AddressSpace {
        &self.cluster.node(self.node).space
    }

    /// This node's CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cluster.node(self.node).cpu
    }

    /// This node's software statistics.
    pub fn stats(&self) -> std::rc::Rc<NodeStats> {
        self.cluster.stats(self.node)
    }

    /// Charges `d` of application compute time (preemptible by interrupts).
    pub async fn compute(&self, d: Time) {
        self.cpu().compute(d).await;
    }

    /// Charges `n` CPU cycles of application compute time.
    pub async fn compute_cycles(&self, n: u64) {
        let d = self.cluster.config().cycles(n);
        self.cpu().compute(d).await;
    }

    /// Charges the time of a local user-level copy of `bytes`.
    pub async fn local_copy(&self, bytes: usize) {
        let d = self.cluster.config().copy_time(bytes);
        self.cpu().compute(d).await;
    }

    // ------------------------------------------------------------------
    // Export / import
    // ------------------------------------------------------------------

    /// Exports `[base, base+len)` as a receive buffer: pins its pages and
    /// configures the IPT to accept packets for them. Returns the buffer id
    /// other nodes use to import it.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned or `len` is zero (receive
    /// buffers are page-granular in the SHRIMP implementation).
    pub fn export(&self, base: Vaddr, len: usize) -> ExportId {
        assert!(base.is_page_aligned(), "export base must be page-aligned");
        assert!(len > 0, "export of empty buffer");
        let node = self.cluster.node(self.node);
        node.space.pin_range(base, len);
        let npages = len.div_ceil(PAGE_SIZE);
        let phys_pages: Vec<u64> = (0..npages as u64)
            .map(|i| node.space.phys_page(base.page() + i))
            .collect();
        self.cluster.register_export(self.node, len, phys_pages)
    }

    /// Revokes an export: unpins its pages and withdraws packet acceptance
    /// (subsequent transfers to it are dropped by the IPT protection check).
    /// Imports held by other nodes become dangling, as on the real machine.
    pub fn unexport(&self, export: ExportId) {
        let info = self.cluster.export_info(export);
        assert_eq!(info.node, self.node, "export owned by another node");
        let node = self.cluster.node(self.node);
        for &p in &info.phys_pages {
            node.nic.ipt_set(
                p,
                shrimp_nic::IptEntry {
                    accept: false,
                    interrupt_enable: false,
                    buffer_id: export.0,
                },
            );
            node.mem.unpin(p);
        }
    }

    /// Imports an exported buffer for deliberate update (§2.3): allocates
    /// the proxy OPT range that maps it. Bind pages for automatic update
    /// with [`Vmmc::bind`].
    pub fn import(&self, export: ExportId) -> ProxyBuffer {
        let info = self.cluster.export_info(export);
        let node = self.cluster.node(self.node);
        let proxy_base = node.nic.alloc_proxy_range(info.phys_pages.len());
        for (i, &dst_page) in info.phys_pages.iter().enumerate() {
            node.nic.opt_set(
                proxy_base + i as u64,
                OptEntry {
                    dst_node: NodeId(info.node),
                    dst_page,
                    au_enable: false,
                    combine: false,
                    interrupt: false,
                },
            );
        }
        ProxyBuffer {
            export,
            dst_node: info.node,
            proxy_base,
            len: info.len,
        }
    }

    /// Imports a receive buffer on a node owned by *another shard* of a
    /// sharded launch, where the export directory is not reachable: the
    /// importer supplies the owner's physical pages and length out of band
    /// (in SHRIMP terms, the export handle travelled over a bootstrap
    /// channel). Deliberate-update only.
    ///
    /// Programs written for
    /// [`ClusterBuilder::launch`](crate::ClusterBuilder::launch)
    /// can compute remote physical pages
    /// without communicating because every node's memory map is built
    /// identically: the same allocation sequence yields the same pages.
    pub fn import_remote(&self, dst_node: NodeId, phys_pages: &[u64], len: usize) -> ProxyBuffer {
        assert!(!phys_pages.is_empty(), "import of an empty page set");
        assert!(
            len > 0 && len.div_ceil(PAGE_SIZE) == phys_pages.len(),
            "length {len} does not match {} pages",
            phys_pages.len()
        );
        let node = self.cluster.node(self.node);
        let proxy_base = node.nic.alloc_proxy_range(phys_pages.len());
        for (i, &dst_page) in phys_pages.iter().enumerate() {
            node.nic.opt_set(
                proxy_base + i as u64,
                OptEntry {
                    dst_node,
                    dst_page,
                    au_enable: false,
                    combine: false,
                    interrupt: false,
                },
            );
        }
        ProxyBuffer {
            // No shard-local directory entry backs a remote import.
            export: ExportId(u32::MAX),
            dst_node: dst_node.0,
            proxy_base,
            len,
        }
    }

    /// Imports every other node's copy of this node's `len`-byte buffer
    /// at `buf`, in node order: the same allocation sequence put each
    /// copy on the same physical pages, so they are read off this node's
    /// own map ([`Vmmc::import_remote`]). Indexed by node; `None` at this
    /// node.
    pub fn import_peers(&self, buf: Vaddr, len: usize) -> Vec<Option<ProxyBuffer>> {
        let pages: Vec<u64> = (0..len.div_ceil(PAGE_SIZE) as u64)
            .map(|i| self.space().phys_page(buf.page() + i))
            .collect();
        (0..self.cluster.num_nodes())
            .map(|peer| (peer != self.node).then(|| self.import_remote(NodeId(peer), &pages, len)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Deliberate update
    // ------------------------------------------------------------------

    /// Sends `[src, src+len)` into the proxy buffer at `dst_off` and waits
    /// until the source memory is safe to reuse.
    ///
    /// # Panics
    ///
    /// Panics on a malformed transfer or (under the reliability knob) when
    /// the retransmission budget is exhausted; [`Vmmc::try_send`] surfaces
    /// the same conditions as a [`ShrimpError`] instead.
    pub async fn send(&self, src: Vaddr, dst: &ProxyBuffer, dst_off: usize, len: usize) {
        match self.send_inner(src, dst, dst_off, len, false).await {
            Ok(t) => t.wait().await,
            Err(e) => panic!("vmmc send failed: {e}"),
        }
    }

    /// Like [`Vmmc::send`] but returns delivery errors instead of panicking
    /// (the fault-injection experiments' entry point).
    pub async fn try_send(
        &self,
        src: Vaddr,
        dst: &ProxyBuffer,
        dst_off: usize,
        len: usize,
    ) -> Result<(), ShrimpError> {
        let t = self.send_inner(src, dst, dst_off, len, false).await?;
        t.wait().await;
        Ok(())
    }

    /// Like [`Vmmc::send`] but requests a user-level notification at the
    /// receiver on arrival of the message.
    pub async fn send_notify(&self, src: Vaddr, dst: &ProxyBuffer, dst_off: usize, len: usize) {
        match self.send_inner(src, dst, dst_off, len, true).await {
            Ok(t) => t.wait().await,
            Err(e) => panic!("vmmc send_notify failed: {e}"),
        }
    }

    /// Asynchronous send: returns as soon as the transfer is initiated
    /// (queued to the DMA engine); the ticket completes when the source is
    /// reusable. Used by the §4.5.3 queueing experiment.
    pub async fn send_async(
        &self,
        src: Vaddr,
        dst: &ProxyBuffer,
        dst_off: usize,
        len: usize,
    ) -> SendTicket {
        match self.send_inner(src, dst, dst_off, len, false).await {
            Ok(t) => t,
            Err(e) => panic!("vmmc send_async failed: {e}"),
        }
    }

    /// Asynchronous send with a notification request.
    pub async fn send_async_notify(
        &self,
        src: Vaddr,
        dst: &ProxyBuffer,
        dst_off: usize,
        len: usize,
    ) -> SendTicket {
        match self.send_inner(src, dst, dst_off, len, true).await {
            Ok(t) => t,
            Err(e) => panic!("vmmc send_async_notify failed: {e}"),
        }
    }

    async fn send_inner(
        &self,
        src: Vaddr,
        dst: &ProxyBuffer,
        dst_off: usize,
        len: usize,
        notify: bool,
    ) -> Result<SendTicket, ShrimpError> {
        if len == 0 {
            return Err(ShrimpError::EmptyTransfer);
        }
        if dst_off + len > dst.len {
            return Err(ShrimpError::BufferOverrun {
                offset: dst_off,
                len,
                capacity: dst.len,
            });
        }
        let cfg = self.cluster.config();
        let node = self.cluster.node(self.node);
        node.stats.messages_sent.update(|c| c + 1);
        node.stats.bytes_sent.update(|c| c + len as u64);
        let send_t0 = self.sim().now();
        shrimp_sim::trace_event!(
            self.sim().trace(),
            self.sim().now(),
            shrimp_sim::Category::Core,
            "send",
            node = self.node,
            dst = dst.dst_node,
            len = len,
            notify = notify,
            offset = dst_off,
        );
        // Table 2 experiment: an "aggressive kernel-based implementation"
        // traps into the kernel before every message send.
        if cfg.syscall_send {
            node.stats.syscalls.update(|c| c + 1);
            node.cpu.compute(cfg.syscall_cost).await;
        }
        // The library splits the transfer at source and destination page
        // boundaries (the protection scheme forbids crossing either, §4.5.3).
        let mut sent = 0usize;
        let mut last = None;
        while sent < len {
            let s = src.add(sent as u64);
            let d = dst_off + sent;
            let step = (PAGE_SIZE - s.offset())
                .min(PAGE_SIZE - d % PAGE_SIZE)
                .min(len - sent);
            let is_last = sent + step == len;
            // The two-instruction UDMA initiation sequence (§4.3).
            node.cpu.compute(cfg.nic.udma_initiate).await;
            let req = DuRequest {
                src: node.space.translate(s),
                proxy_index: dst.proxy_base + (d / PAGE_SIZE) as u64,
                dst_offset: d % PAGE_SIZE,
                len: step,
                // Table 4 experiment: force an interrupt per message.
                interrupt: is_last && (notify || cfg.nic.interrupt_per_message),
                notify: is_last && notify,
                seq: 0,
            };
            let ev = if cfg.reliability.enabled {
                self.send_chunk_reliably(dst, req).await?
            } else {
                node.nic.deliberate_update(req).await?
            };
            last = Some(ev);
            sent += step;
        }
        // Initiation latency: syscall (if any) + per-chunk UDMA setup +
        // reliable handshakes, up to the last chunk's hand-off to the NIC.
        self.sim().metrics().observe(
            shrimp_sim::Category::Core,
            "send_latency_ps",
            self.sim().now() - send_t0,
        );
        Ok(SendTicket {
            done: last.expect("send_inner sent nothing"),
        })
    }

    /// Stop-and-wait reliable transmission of one page-bounded chunk:
    /// sequence the request, then retransmit on nack or ack timeout with
    /// exponential backoff until acked or the retry budget is exhausted.
    async fn send_chunk_reliably(
        &self,
        dst: &ProxyBuffer,
        req: DuRequest,
    ) -> Result<Event, ShrimpError> {
        let node = self.cluster.node(self.node);
        let rel = self.cluster.config().reliability;
        let seq = node.nic.next_seq();
        let t0 = self.sim().now();
        let mut attempt = 0u32;
        loop {
            // A fresh waiter per attempt: a stale timeout timer can only
            // fire the previous attempt's event, never this one's.
            let waiter = node.nic.register_ack_waiter(seq);
            let du = node
                .nic
                .deliberate_update(DuRequest { seq, ..req.clone() })
                .await;
            let ev = match du {
                Ok(ev) => ev,
                Err(e) => {
                    node.nic.clear_ack_waiter(seq);
                    return Err(e);
                }
            };
            let timeout = backoff_timeout(rel.ack_timeout, rel.backoff_cap, attempt);
            let wake = waiter.ev.clone();
            self.sim().schedule_in(timeout, move || wake.set());
            waiter.ev.wait().await;
            if waiter.acked.get() {
                node.nic.clear_ack_waiter(seq);
                if attempt > 0 {
                    let took = self.sim().now() - t0;
                    node.stats.recovery_time.update(|c| c + took);
                }
                return Ok(ev);
            }
            // Nack or timeout: retransmit (the receiver suppresses any
            // duplicate the timeout path might produce).
            attempt += 1;
            if attempt > rel.max_retries {
                node.nic.clear_ack_waiter(seq);
                return Err(ShrimpError::DeliveryFailed {
                    dst: dst.dst_node,
                    seq,
                    attempts: attempt,
                });
            }
            node.stats.retransmits.update(|c| c + 1);
        }
    }

    // ------------------------------------------------------------------
    // Automatic update
    // ------------------------------------------------------------------

    /// Binds `[local, local+len)` for automatic update into the imported
    /// buffer at `dst_off`: bound pages become write-through, and every
    /// store to them propagates to the remote buffer as a side effect.
    ///
    /// Bindings are page-aligned on both sides (§2.2's implementation
    /// restriction). `combine` enables per-binding combining (§4.5.1);
    /// `notify` attaches the AU interrupt-request bit, stored in the OPT.
    ///
    /// # Panics
    ///
    /// Panics on misaligned addresses or a binding that overruns the buffer.
    pub fn bind(
        &self,
        local: Vaddr,
        dst: &ProxyBuffer,
        dst_off: usize,
        len: usize,
        combine: bool,
        notify: bool,
    ) {
        assert!(
            local.is_page_aligned(),
            "AU binding source not page-aligned"
        );
        assert!(
            dst_off.is_multiple_of(PAGE_SIZE),
            "AU binding destination not page-aligned"
        );
        assert!(len > 0, "empty AU binding");
        assert!(dst_off + len <= dst.len, "AU binding overruns buffer");
        let info = self.cluster.export_info(dst.export);
        let node = self.cluster.node(self.node);
        let npages = len.div_ceil(PAGE_SIZE);
        for i in 0..npages {
            let local_phys = node.space.phys_page(local.page() + i as u64);
            let dst_page = info.phys_pages[dst_off / PAGE_SIZE + i];
            node.nic.opt_set(
                local_phys,
                OptEntry {
                    dst_node: NodeId(info.node),
                    dst_page,
                    au_enable: true,
                    combine,
                    interrupt: notify,
                },
            );
            node.mem.set_cache_mode(local_phys, CacheMode::WriteThrough);
        }
    }

    /// Removes an automatic-update binding, restoring write-back caching.
    pub fn unbind(&self, local: Vaddr, len: usize) {
        let node = self.cluster.node(self.node);
        for i in 0..len.div_ceil(PAGE_SIZE) {
            let local_phys = node.space.phys_page(local.page() + i as u64);
            node.nic.tables().opt_clear(local_phys);
            node.mem.set_cache_mode(local_phys, CacheMode::WriteBack);
        }
    }

    /// Performs a store that may hit automatic-update bindings: pays the
    /// write-through cost on bound pages (and occupies the memory bus),
    /// honors FIFO-overflow de-scheduling, and triggers the NIC snoop path.
    ///
    /// Write-through stores are issued a word at a time, paced by their
    /// cost, so the NIC sees the store stream at the rate the memory bus
    /// delivers it (a block store cannot outrun the outgoing FIFO's
    /// threshold interrupt).
    pub async fn store(&self, v: Vaddr, data: &[u8]) {
        let node = self.cluster.node(self.node);
        let (wb_word_cost, wt_word_cost) = {
            let cfg = self.cluster.config();
            (cfg.wb_store_word_cost, cfg.wt_store_word_cost)
        };
        // Words per pacing batch: small enough for the FIFO threshold
        // interrupt to bite, large enough to bound event counts.
        const BATCH_WORDS: usize = 16;
        let mut off = 0usize;
        while off < data.len() {
            let a = v.add(off as u64);
            let in_page = (PAGE_SIZE - a.offset()).min(data.len() - off);
            let pa = node.space.translate(a);
            if node.mem.cache_mode_of(pa.page()) == CacheMode::WriteBack {
                let words = in_page.div_ceil(WORD_BYTES) as u64;
                node.cpu.compute(words * wb_word_cost).await;
                node.space.store(a, &data[off..off + in_page]);
            } else {
                // Write-through: word-granular, snooped, paced stores.
                let mut w = 0usize;
                while w < in_page {
                    // §4.5.2: system software de-schedules AU writers while
                    // the outgoing FIFO is over threshold.
                    while node.nic.au_blocked() {
                        node.nic.drain_gate().wait().await;
                    }
                    let batch = (BATCH_WORDS * WORD_BYTES).min(in_page - w);
                    let words = batch.div_ceil(WORD_BYTES) as u64;
                    let d = words * wt_word_cost;
                    node.bus.occupy_reserve(self.sim(), d);
                    node.cpu.compute(d).await;
                    let mut x = 0usize;
                    while x < batch {
                        let step = WORD_BYTES.min(batch - x);
                        node.space.store(
                            a.add((w + x) as u64),
                            &data[off + w + x..off + w + x + step],
                        );
                        x += step;
                    }
                    w += batch;
                }
            }
            off += in_page;
        }
    }

    /// AU-aware store of a `u32`.
    pub async fn store_u32(&self, v: Vaddr, val: u32) {
        self.store(v, &val.to_le_bytes()).await;
    }

    /// AU-aware store of a `u64`.
    pub async fn store_u64(&self, v: Vaddr, val: u64) {
        self.store(v, &val.to_le_bytes()).await;
    }

    /// Flushes this node's pending combined AU packet (used before
    /// synchronization releases).
    pub fn flush_au(&self) {
        self.cluster.node(self.node).nic.flush_au();
    }

    // ------------------------------------------------------------------
    // Receiving: polling and notifications
    // ------------------------------------------------------------------

    /// Local read (no cost model; reads hit the cache).
    pub fn read(&self, v: Vaddr, buf: &mut [u8]) {
        self.cluster.node(self.node).space.read(v, buf);
    }

    /// Local read of a `u32`.
    pub fn read_u32(&self, v: Vaddr) -> u32 {
        self.cluster.node(self.node).space.read_u32(v)
    }

    /// Local read of a `u64`.
    pub fn read_u64(&self, v: Vaddr) -> u64 {
        self.cluster.node(self.node).space.read_u64(v)
    }

    /// Polls a word until `pred` holds, sleeping on incoming-DMA writes to
    /// its page between checks (the polling receive style that lets VMMC
    /// applications avoid receive interrupts entirely, §4.4).
    pub async fn poll_u32<F: Fn(u32) -> bool>(&self, v: Vaddr, pred: F) -> u32 {
        let node = self.cluster.node(self.node);
        let page = node.space.translate(v).page();
        let gate = node.mem.write_gate(page);
        loop {
            let cur = node.space.read_u32(v);
            if pred(cur) {
                return cur;
            }
            gate.wait().await;
        }
    }

    /// Polls a `u64` until `pred` holds.
    pub async fn poll_u64<F: Fn(u64) -> bool>(&self, v: Vaddr, pred: F) -> u64 {
        let node = self.cluster.node(self.node);
        let page = node.space.translate(v).page();
        let gate = node.mem.write_gate(page);
        loop {
            let cur = node.space.read_u64(v);
            if pred(cur) {
                return cur;
            }
            gate.wait().await;
        }
    }

    /// Gate notified on any incoming-DMA write to this node's memory;
    /// receive-from-any pollers sleep on it.
    pub fn any_write_gate(&self) -> shrimp_sim::Gate {
        self.cluster.node(self.node).mem.any_write_gate()
    }

    /// Gate notified on incoming-DMA writes to the page holding `v`.
    pub fn write_gate(&self, v: Vaddr) -> shrimp_sim::Gate {
        let node = self.cluster.node(self.node);
        let page = node.space.translate(v).page();
        node.mem.write_gate(page)
    }

    /// Enables notifications for an exported buffer and returns the queue
    /// its user-level handler consumes.
    ///
    /// # Panics
    ///
    /// Panics if the export belongs to another node.
    pub fn enable_notifications(&self, export: ExportId) -> Queue<Notification> {
        let info = self.cluster.export_info(export);
        assert_eq!(info.node, self.node, "export owned by another node");
        info.notify_enabled.set(true);
        let node = self.cluster.node(self.node);
        node.nic
            .tables()
            .ipt_set_interrupt_for_buffer(export.0, true);
        info.queue.clone()
    }

    /// Blocks notification delivery for this process (arrivals queue).
    pub fn block_notifications(&self) {
        self.cluster.node(self.node).notifications_blocked.set(true);
    }

    /// Unblocks notification delivery, delivering anything queued while
    /// blocked.
    pub async fn unblock_notifications(&self) {
        self.cluster
            .node(self.node)
            .notifications_blocked
            .set(false);
        self.cluster.flush_pending_notifications(self.node).await;
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // knob-flip style mirrors the experiments
mod tests {
    use super::*;
    use crate::config::DesignConfig;
    use shrimp_sim::{time, Category};

    fn two_nodes() -> (Cluster, Vmmc, Vmmc) {
        let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
        let a = cluster.vmmc(0);
        let b = cluster.vmmc(1);
        (cluster, a, b)
    }

    #[test]
    fn multi_page_send_delivers_exact_bytes() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(3);
        let export = b.export(recv, 3 * PAGE_SIZE);
        let proxy = a.import(export);
        let src = a.space().alloc(3);
        let payload: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        a.space().write_raw(src.add(100), &payload);
        let a2 = a.clone();
        let h = cluster.sim().spawn(async move {
            a2.send(src.add(100), &proxy, 300, 9000).await;
        });
        cluster.run_until_complete(vec![h]);
        let mut got = vec![0u8; 9000];
        b.space().read(recv.add(300), &mut got);
        assert_eq!(got, payload);
        // 9000 bytes from offset 100 against offset 300: split on both
        // sides' page boundaries.
        assert!(cluster.nic(0).counters().du_transfers.get() >= 3);
        assert_eq!(cluster.stats(0).messages_sent.get(), 1);
    }

    /// Counters need no observability plane: with gauges and histograms
    /// off, a snapshot still holds every count, equal to its typed cell.
    #[test]
    fn counters_reach_the_snapshot_with_metrics_off() {
        let (cluster, a, b) = two_nodes();
        let proxy = a.import(b.export(b.space().alloc(1), PAGE_SIZE));
        let src = a.space().alloc(1);
        let h = cluster
            .sim()
            .spawn(async move { a.send(src, &proxy, 0, 64).await });
        cluster.run_until_complete(vec![h]);
        let snap = cluster.sim().metrics().snapshot();
        let count = |category, name| snap.counter(category, name);
        let du = cluster.nic(0).counters().du_transfers.get();
        assert_eq!(du, 1);
        assert_eq!(count(Category::Nic, "du_transfers"), du);
        let received = cluster.nic(1).counters().packets_received.get();
        assert_eq!(count(Category::Net, "packets"), received);
        let sent = cluster.stats(0).messages_sent.get();
        assert_eq!(count(Category::Core, "messages_sent"), sent);
        assert!(snap
            .samples
            .iter()
            .all(|s| matches!(s.value, shrimp_sim::MetricValue::Counter(_))));
    }

    #[test]
    fn unexport_revokes_acceptance() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        a.space().write_raw(src, &1u32.to_le_bytes());
        let a2 = a.clone();
        let h = cluster.sim().spawn(async move {
            a2.send(src, &proxy, 0, 4).await;
        });
        // Give the first send time to land, then revoke.
        let b2 = b.clone();
        cluster
            .sim()
            .schedule(time::ms(1), move || b2.unexport(export));
        let a3 = a.clone();
        let proxy2 = a.import(export);
        let h2 = cluster.sim().spawn(async move {
            a3.sim().sleep(time::ms(2)).await;
            a3.space().write_raw(src, &2u32.to_le_bytes());
            a3.send(src, &proxy2, 8, 4).await;
        });
        cluster.run_until_complete(vec![h, h2]);
        assert_eq!(b.space().read_u32(recv), 1, "pre-revoke send lost");
        assert_eq!(
            b.space().read_u32(recv.add(8)),
            0,
            "post-revoke send landed"
        );
        assert_eq!(cluster.nic(1).counters().protection_drops.get(), 1);
    }

    #[test]
    fn send_rejects_overrun() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(1);
        let export = b.export(recv, 4096);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        let a2 = a.clone();
        let h = cluster.sim().spawn(async move {
            a2.send(src, &proxy, 4000, 200).await; // 4200 > 4096
        });
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run_until_complete(vec![h]);
        }));
        assert!(res.is_err());
    }

    #[test]
    fn automatic_update_binding_propagates_stores() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(2);
        let export = b.export(recv, 2 * PAGE_SIZE);
        let proxy = a.import(export);
        let local = a.space().alloc(2);
        a.bind(local, &proxy, 0, 2 * PAGE_SIZE, true, false);
        let a2 = a.clone();
        let h = cluster.sim().spawn(async move {
            a2.store_u32(local.add(8), 77).await;
            a2.store_u32(local.add(PAGE_SIZE as u64 + 12), 88).await;
            a2.flush_au();
        });
        cluster.run_until_complete(vec![h]);
        assert_eq!(b.space().read_u32(recv.add(8)), 77);
        assert_eq!(b.space().read_u32(recv.add(PAGE_SIZE as u64 + 12)), 88);
        assert!(cluster.nic(0).counters().au_packets.get() >= 2);
    }

    #[test]
    fn unbind_stops_automatic_update() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let local = a.space().alloc(1);
        let a2 = a.clone();
        let b2 = b.clone();
        let h = cluster.sim().spawn(async move {
            let au_packets = || a2.cluster().nic(0).counters().au_packets.get();
            let settle = time::us(100);
            a2.bind(local, &proxy, 0, PAGE_SIZE, false, false);
            a2.store_u64(local, 11).await;
            a2.sim().sleep(settle).await;
            let bound = au_packets();
            assert!(bound >= 1, "bound store sent no AU packet");
            assert_eq!(b2.space().read_u64(recv), 11);

            a2.unbind(local, PAGE_SIZE);
            a2.store_u64(local, 22).await;
            a2.sim().sleep(settle).await;
            assert_eq!(au_packets(), bound, "unbound store sent an AU packet");
            assert_eq!(b2.space().read_u64(recv), 11, "unbound store landed");
            assert_eq!(a2.space().read_u64(local), 22);

            // A combined store still pending in the NIC when the binding
            // goes away is launched by the combine timeout.
            a2.bind(local, &proxy, 0, PAGE_SIZE, true, false);
            a2.store_u64(local.add(8), 33).await;
            a2.unbind(local, PAGE_SIZE);
            a2.sim().sleep(settle).await;
            assert_eq!(au_packets(), bound + 1);
            assert_eq!(b2.space().read_u64(recv.add(8)), 33);
        });
        cluster.run_until_complete(vec![h]);
    }

    #[test]
    fn au_stores_cost_more_than_unbound_stores() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let bound = a.space().alloc(1);
        let unbound = a.space().alloc(1);
        a.bind(bound, &proxy, 0, PAGE_SIZE, true, false);
        let sim = cluster.sim().clone();
        let a2 = a.clone();
        let h = sim.spawn(async move {
            let t0 = a2.sim().now();
            for i in 0..64 {
                a2.store_u32(unbound.add(i * 4), i as u32).await;
            }
            let t1 = a2.sim().now();
            for i in 0..64 {
                a2.store_u32(bound.add(i * 4), i as u32).await;
            }
            let t2 = a2.sim().now();
            (t1 - t0, t2 - t1)
        });
        let (_, out) = cluster.run_until_complete(vec![h]);
        let (wb, wt) = out[0];
        assert!(
            wt > wb * 2,
            "write-through stores ({wt}) not much slower than write-back ({wb})"
        );
    }

    #[test]
    fn notification_delivered_only_when_requested_and_enabled() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let notif_queue = b.enable_notifications(export);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        let a2 = a.clone();
        let h = cluster.sim().spawn(async move {
            a2.send(src, &proxy, 0, 64).await; // no notify
            a2.send_notify(src, &proxy, 64, 32).await; // notify
        });
        let b2 = b.clone();
        let hb = cluster.sim().spawn(async move {
            let n = b2.cluster().export_info(export).queue.recv().await.unwrap();
            n
        });
        let _ = notif_queue;
        cluster.run_until_complete(vec![h]);
        let n = hb.try_take().expect("notification not delivered");
        assert_eq!(n.offset, 64);
        assert_eq!(n.len, 32);
        assert_eq!(cluster.stats(1).notifications.get(), 1);
        assert_eq!(cluster.stats(1).interrupts_taken.get(), 1);
    }

    #[test]
    fn syscall_send_knob_charges_and_counts() {
        let run = |syscall: bool| -> (Time, u64) {
            let mut cfg = DesignConfig::default();
            cfg.syscall_send = syscall;
            let cluster = Cluster::builder(2).config(cfg).build();
            let a = cluster.vmmc(0);
            let b = cluster.vmmc(1);
            let recv = b.space().alloc(1);
            let export = b.export(recv, PAGE_SIZE);
            let proxy = a.import(export);
            let src = a.space().alloc(1);
            let a2 = a.clone();
            let h = cluster.sim().spawn(async move {
                for i in 0..10 {
                    a2.send(src, &proxy, (i * 64) as usize, 64).await;
                }
            });
            let (t, _) = cluster.run_until_complete(vec![h]);
            (t, cluster.stats(0).syscalls.get())
        };
        let (t_udma, sc_udma) = run(false);
        let (t_sys, sc_sys) = run(true);
        assert_eq!(sc_udma, 0);
        assert_eq!(sc_sys, 10);
        assert!(
            t_sys >= t_udma + 10 * time::us(25) - time::us(1),
            "syscalls not charged: {t_udma} -> {t_sys}"
        );
    }

    #[test]
    fn interrupt_per_message_forces_null_handler_interrupts() {
        let run = |forced: bool| -> (Time, u64, u64) {
            let mut cfg = DesignConfig::default();
            cfg.nic.interrupt_per_message = forced;
            let cluster = Cluster::builder(2).config(cfg).build();
            let a = cluster.vmmc(0);
            let b = cluster.vmmc(1);
            let recv = b.space().alloc(1);
            let export = b.export(recv, PAGE_SIZE);
            let proxy = a.import(export);
            let src = a.space().alloc(1);
            let flag = recv.add(PAGE_SIZE as u64 - 8);
            let a2 = a.clone();
            let ha = cluster.sim().spawn(async move {
                for i in 0..20u32 {
                    a2.send(src, &proxy, 0, 64).await;
                    a2.space().write_raw(src, &(i + 1).to_le_bytes());
                }
                a2.send(src, &proxy, PAGE_SIZE - 8, 4).await;
            });
            let b2 = b.clone();
            let hb = cluster.sim().spawn(async move {
                // Receiver computes while messages arrive, then sees flag.
                b2.compute(time::us(500)).await;
                b2.poll_u32(flag, |v| v != 0).await;
            });
            let (t, _) = cluster.run_until_complete(vec![ha, hb]);
            (
                t,
                cluster.stats(1).interrupts_taken.get(),
                cluster.stats(1).notifications.get(),
            )
        };
        let (t_base, intr_base, notif_base) = run(false);
        let (t_forced, intr_forced, notif_forced) = run(true);
        assert_eq!(intr_base, 0);
        assert_eq!(notif_base, 0);
        assert_eq!(intr_forced, 21);
        assert_eq!(notif_forced, 0, "forced interrupts must not notify");
        assert!(t_forced > t_base, "forced interrupts cost nothing");
    }

    #[test]
    fn blocked_notifications_queue_until_unblocked() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let q = b.enable_notifications(export);
        b.block_notifications();
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        let a2 = a.clone();
        let ha = cluster.sim().spawn(async move {
            a2.send_notify(src, &proxy, 0, 16).await;
            a2.send_notify(src, &proxy, 16, 16).await;
        });
        let b2 = b.clone();
        let sim = cluster.sim().clone();
        let hb = cluster.sim().spawn(async move {
            sim.sleep(time::ms(1)).await; // messages arrive while blocked
            assert!(q.is_empty(), "delivered while blocked");
            b2.unblock_notifications().await;
            let n1 = q.recv().await.unwrap();
            let n2 = q.recv().await.unwrap();
            (n1.offset, n2.offset)
        });
        cluster.run_until_complete(vec![ha]);
        // Queued notifications flushed in arrival order (LIFO pop then
        // re-pushed; assert both arrived).
        let offs = hb.try_take().expect("receiver did not finish");
        let mut v = [offs.0, offs.1];
        v.sort_unstable();
        assert_eq!(v, [0, 16]);
        assert_eq!(cluster.stats(1).notifications.get(), 2);
    }

    #[test]
    fn poll_wakes_on_remote_write() {
        let (cluster, a, b) = two_nodes();
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        a.space().write_raw(src, &123u32.to_le_bytes());
        let sim = cluster.sim().clone();
        let a2 = a.clone();
        let ha = sim.spawn(async move {
            a2.compute(time::us(50)).await;
            a2.send(src, &proxy, 0, 4).await;
        });
        let b2 = b.clone();
        let hb = sim.spawn(async move { b2.poll_u32(recv, |v| v != 0).await });
        cluster.run_until_complete(vec![ha]);
        assert_eq!(hb.try_take(), Some(123));
    }

    #[test]
    fn reliable_send_survives_heavy_packet_drops() {
        let mut cfg = DesignConfig::default();
        cfg.reliability = crate::Reliability::on();
        cfg.faults.seed = 5;
        cfg.faults.drop_pct = 30;
        let cluster = Cluster::builder(2).config(cfg).build();
        let a = cluster.vmmc(0);
        let b = cluster.vmmc(1);
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        let payload: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
        a.space().write_raw(src, &payload);
        let a2 = a.clone();
        let h = cluster.sim().spawn(async move {
            for i in 0..16usize {
                a2.try_send(src, &proxy, i * 256, 256).await?;
            }
            Ok::<(), ShrimpError>(())
        });
        let (_, out) = cluster.run_until_complete(vec![h]);
        out[0].as_ref().expect("reliable delivery failed");
        for i in 0..16usize {
            let mut got = vec![0u8; 256];
            b.space().read(recv.add((i * 256) as u64), &mut got);
            assert_eq!(got, payload, "message {i} damaged or lost");
        }
        assert!(
            cluster.stats(0).retransmits.get() > 0,
            "30% drop over 16 messages injected no retransmission"
        );
        assert!(
            cluster.stats(0).recovery_time.get() > 0,
            "retransmissions recorded no recovery time"
        );
        let plane = cluster.fault_plane().expect("plane missing");
        assert!(plane.stats().drops.get() > 0);
    }

    #[test]
    fn reliable_send_delivers_exactly_once_under_duplicates() {
        let mut cfg = DesignConfig::default();
        cfg.reliability = crate::Reliability::on();
        cfg.faults.seed = 9;
        cfg.faults.duplicate_pct = 50;
        let cluster = Cluster::builder(2).config(cfg).build();
        let a = cluster.vmmc(0);
        let b = cluster.vmmc(1);
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        a.space().write_raw(src, &0xdead_beefu32.to_le_bytes());
        let a2 = a.clone();
        let h = cluster.sim().spawn(async move {
            for i in 0..16usize {
                a2.try_send(src, &proxy, i * 16, 4).await?;
            }
            Ok::<(), ShrimpError>(())
        });
        let (_, out) = cluster.run_until_complete(vec![h]);
        out[0].as_ref().expect("reliable delivery failed");
        for i in 0..16usize {
            assert_eq!(b.space().read_u32(recv.add((i * 16) as u64)), 0xdead_beef);
        }
        assert!(
            cluster.nic(1).counters().dup_suppressed.get() > 0,
            "50% duplication suppressed nothing"
        );
    }

    #[test]
    fn reliable_send_to_unreachable_node_fails_gracefully() {
        let mut cfg = DesignConfig::default();
        cfg.reliability = crate::Reliability::on();
        // Sever the only link of the 2-node mesh before anything is sent.
        cfg.faults.link = Some(shrimp_faults::LinkFault {
            from: 0,
            to: 1,
            at_us: 0,
            down_us: 0,
        });
        let max_retries = cfg.reliability.max_retries;
        let cluster = Cluster::builder(2).config(cfg).build();
        let a = cluster.vmmc(0);
        let b = cluster.vmmc(1);
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        let a2 = a.clone();
        let h = cluster
            .sim()
            .spawn(async move { a2.try_send(src, &proxy, 0, 64).await });
        let (_, out) = cluster.run_until_complete(vec![h]);
        match out[0] {
            Err(ShrimpError::DeliveryFailed { dst, attempts, .. }) => {
                assert_eq!(dst, 1);
                assert_eq!(attempts, max_retries + 1);
            }
            ref other => panic!("expected DeliveryFailed, got {other:?}"),
        }
        assert_eq!(
            cluster.stats(0).retransmits.get(),
            max_retries as u64,
            "every attempt after the first is a retransmission"
        );
    }

    #[test]
    fn fault_free_reliable_send_needs_no_retransmission() {
        let mut cfg = DesignConfig::default();
        cfg.reliability = crate::Reliability::on();
        let cluster = Cluster::builder(2).config(cfg).build();
        let a = cluster.vmmc(0);
        let b = cluster.vmmc(1);
        let recv = b.space().alloc(1);
        let export = b.export(recv, PAGE_SIZE);
        let proxy = a.import(export);
        let src = a.space().alloc(1);
        a.space().write_raw(src, &7u32.to_le_bytes());
        let a2 = a.clone();
        let h = cluster.sim().spawn(async move {
            a2.send(src, &proxy, 0, 4).await;
        });
        cluster.run_until_complete(vec![h]);
        assert_eq!(b.space().read_u32(recv), 7);
        assert_eq!(cluster.stats(0).retransmits.get(), 0);
        assert_eq!(cluster.stats(0).recovery_time.get(), 0);
        assert!(
            cluster.fault_plane().is_none(),
            "empty scenario built a plane"
        );
        assert!(
            cluster.nic(0).counters().acks_sent.get() > 0
                || cluster.nic(1).counters().acks_sent.get() > 0
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || -> (Time, u64) {
            let (cluster, a, b) = two_nodes();
            let recv = b.space().alloc(2);
            let export = b.export(recv, 2 * PAGE_SIZE);
            let proxy = a.import(export);
            let src = a.space().alloc(2);
            let a2 = a.clone();
            let h = cluster.sim().spawn(async move {
                for i in 0..50 {
                    a2.send(src, &proxy, (i * 100) % 4096, 100).await;
                    a2.compute(time::us(3)).await;
                }
            });
            let (t, _) = cluster.run_until_complete(vec![h]);
            (t, cluster.nic(1).counters().packets_received.get())
        };
        assert_eq!(run(), run());
    }
}
