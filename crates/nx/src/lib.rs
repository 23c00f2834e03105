//! NX-compatible message passing over SHRIMP virtual memory-mapped
//! communication.
//!
//! NX is the message-passing interface of Intel's Paragon; the paper's
//! Barnes-NX and Ocean-NX applications run on an NX-compatible library built
//! on VMMC (reference \[2\] of the paper). This crate reproduces that library:
//!
//! * typed, blocking `csend`/`crecv` with sender/type selection, plus
//!   asynchronous `isend`;
//! * per-pair receive rings exported at startup, with flow-control cursors
//!   returned through **automatic update** (the receiver's read cursor is an
//!   AU-bound word, so no explicit acknowledgment messages are needed);
//! * a choice of bulk-transfer mechanism — [`Bulk::Deliberate`] (user-level
//!   DMA) or [`Bulk::Automatic`] (stores through an AU binding) — the §4.2
//!   comparison "we have written versions of these libraries that use
//!   automatic update instead of deliberate update as the bulk data transfer
//!   mechanism";
//! * collective helpers (`gsync` dissemination barrier, broadcast,
//!   all-reduce) built from point-to-point messages, as NX programs do.
//!
//! # Wire format
//!
//! Each message occupies a frame in the destination ring:
//! `[seq u64][type u32][len u32][payload, padded to 8][seq u64]`.
//! The header lands first and the trailing sequence word last (deliberate
//! update delivers a message's chunks in ascending offset order), so a
//! receiver that has matched the trailer has the whole frame.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use shrimp_core::ring::{connect_ring, RingReceiver, RingSender};
use shrimp_core::{Cluster, Vmmc};
use shrimp_mem::PAGE_SIZE;
use shrimp_sim::{Semaphore, TaskHandle};

/// Message types at or above this are reserved for the library's
/// collectives.
pub const RESERVED_TYPE_BASE: u32 = 0xF000_0000;

/// Bulk data transfer mechanism used by sends (§4.2). Alias of the ring
/// layer's mechanism choice.
pub type Bulk = shrimp_core::ring::RingBulk;

/// NX library configuration.
#[derive(Debug, Clone)]
pub struct NxConfig {
    /// Bytes per receive ring (per ordered node pair). Must be a power of
    /// two and a multiple of the page size.
    pub ring_bytes: usize,
    /// Bulk transfer mechanism.
    pub bulk: Bulk,
}

impl Default for NxConfig {
    fn default() -> Self {
        NxConfig {
            ring_bytes: 64 * 1024,
            bulk: Bulk::Deliberate,
        }
    }
}

impl NxConfig {
    /// A configuration using automatic update for bulk data.
    pub fn automatic() -> Self {
        NxConfig {
            bulk: Bulk::Automatic,
            ..NxConfig::default()
        }
    }
}

/// A received message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NxMessage {
    /// Sending process (node) id.
    pub src: usize,
    /// Application message type.
    pub msg_type: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

struct NxInner {
    vmmc: Vmmc,
    me: usize,
    nprocs: usize,
    out: Vec<Option<RingSender>>,
    /// Per-link guards so concurrent `isend`s to one peer serialize.
    out_guards: Vec<Option<Semaphore>>,
    inl: Vec<Option<RingReceiver>>,
    pending: RefCell<VecDeque<NxMessage>>,
    barrier_epoch: Cell<u32>,
}

/// One process's NX endpoint. Cheap to clone.
#[derive(Clone)]
pub struct Nx {
    inner: Rc<NxInner>,
}

impl std::fmt::Debug for Nx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nx")
            .field("me", &self.inner.me)
            .field("nprocs", &self.inner.nprocs)
            .finish()
    }
}

/// Creates NX endpoints for every node of the cluster, performing the
/// export/import/bind handshakes (start-up work the paper does not measure).
pub fn create(cluster: &Cluster, cfg: NxConfig) -> Vec<Nx> {
    assert!(
        cfg.ring_bytes.is_power_of_two() && cfg.ring_bytes.is_multiple_of(PAGE_SIZE),
        "ring_bytes must be a power-of-two multiple of the page size"
    );
    let n = cluster.num_nodes();
    let vmmcs: Vec<Vmmc> = (0..n).map(|i| cluster.vmmc(i)).collect();

    // One ring per ordered pair (sender -> receiver).
    let mut senders: Vec<Vec<Option<RingSender>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut receivers: Vec<Vec<Option<RingReceiver>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let (tx, rx) = connect_ring(&vmmcs[src], &vmmcs[dst], cfg.ring_bytes, cfg.bulk);
            senders[src][dst] = Some(tx);
            receivers[dst][src] = Some(rx);
        }
    }

    let mut endpoints = Vec::with_capacity(n);
    for (me, (out, inl)) in senders.into_iter().zip(receivers).enumerate() {
        endpoints.push(Nx {
            inner: Rc::new(NxInner {
                vmmc: vmmcs[me].clone(),
                me,
                nprocs: n,
                out_guards: out
                    .iter()
                    .map(|o| o.as_ref().map(|_| Semaphore::new(1)))
                    .collect(),
                out,
                inl,
                pending: RefCell::new(VecDeque::new()),
                barrier_epoch: Cell::new(0),
            }),
        });
    }
    endpoints
}

impl Nx {
    /// This process's rank.
    pub fn me(&self) -> usize {
        self.inner.me
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.inner.nprocs
    }

    /// The underlying VMMC handle (for compute-time charging).
    pub fn vmmc(&self) -> &Vmmc {
        &self.inner.vmmc
    }

    /// Sends `data` with `msg_type` to process `dst`, blocking until the
    /// message is in flight and the source is reusable (NX `csend`).
    ///
    /// # Panics
    ///
    /// Panics on self-sends and on messages larger than half the ring.
    pub async fn csend(&self, msg_type: u32, data: &[u8], dst: usize) {
        assert_ne!(dst, self.inner.me, "NX self-send");
        let link = self.inner.out[dst].as_ref().expect("no link");
        let guard = self.inner.out_guards[dst].as_ref().unwrap();
        guard.acquire().await;
        link.send_frame(msg_type, data).await;
        guard.release();
    }

    /// Asynchronous send (NX `isend`): returns immediately with a handle;
    /// await it (NX `msgwait`) for completion. Concurrent sends to the
    /// same destination serialize in issue order.
    pub fn isend(&self, msg_type: u32, data: Vec<u8>, dst: usize) -> TaskHandle<()> {
        let nx = self.clone();
        self.inner.vmmc.sim().clone().spawn(async move {
            nx.csend(msg_type, &data, dst).await;
        })
    }

    /// Non-blocking check of the ring from `src`; consumes and returns the
    /// head message if fully arrived.
    fn try_pull(&self, src: usize) -> Option<NxMessage> {
        let link = self.inner.inl[src].as_ref()?;
        let f = link.try_recv()?;
        Some(NxMessage {
            src,
            msg_type: f.tag,
            data: f.data,
        })
    }

    /// Returns ring credits for `src` (one AU store).
    async fn return_cursor(&self, src: usize) {
        self.inner.inl[src].as_ref().unwrap().ack().await;
    }

    /// Receives the next message matching the selectors (NX `crecv`):
    /// `type_sel` restricts the message type, `src_sel` the sender; `None`
    /// matches anything. Non-matching arrivals are buffered.
    pub async fn crecv(&self, type_sel: Option<u32>, src_sel: Option<usize>) -> NxMessage {
        let matches = |m: &NxMessage| {
            type_sel.is_none_or(|t| m.msg_type == t) && src_sel.is_none_or(|s| m.src == s)
        };
        // Buffered first.
        {
            let mut pending = self.inner.pending.borrow_mut();
            if let Some(i) = pending.iter().position(&matches) {
                let m = pending.remove(i).unwrap();
                return m;
            }
        }
        let any_gate = self.inner.vmmc.any_write_gate();
        loop {
            let mut pulled_any = false;
            for src in 0..self.inner.nprocs {
                if src == self.inner.me {
                    continue;
                }
                if let Some(s) = src_sel {
                    if s != src {
                        continue;
                    }
                }
                while let Some(m) = self.try_pull(src) {
                    pulled_any = true;
                    self.return_cursor(src).await;
                    if matches(&m) {
                        return m;
                    }
                    self.inner.pending.borrow_mut().push_back(m);
                }
            }
            if !pulled_any {
                any_gate.wait().await;
            }
        }
    }

    /// Probes (without consuming) whether a matching message is available.
    pub fn iprobe(&self, type_sel: Option<u32>, src_sel: Option<usize>) -> bool {
        // Drain arrived frames into the pending buffer first; ring credits
        // are returned on the next `crecv`.
        for src in 0..self.inner.nprocs {
            if src == self.inner.me {
                continue;
            }
            while let Some(m) = self.try_pull(src) {
                self.inner.pending.borrow_mut().push_back(m);
            }
        }
        let matches = |m: &NxMessage| {
            type_sel.is_none_or(|t| m.msg_type == t) && src_sel.is_none_or(|s| m.src == s)
        };
        self.inner.pending.borrow().iter().any(matches)
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Global barrier (NX `gsync`): dissemination algorithm, `log2(n)`
    /// rounds of point-to-point messages.
    pub async fn gsync(&self) {
        let n = self.inner.nprocs;
        if n == 1 {
            return;
        }
        let epoch = self.inner.barrier_epoch.get();
        self.inner.barrier_epoch.set(epoch.wrapping_add(1));
        let me = self.inner.me;
        let mut k = 1usize;
        let mut round = 0u32;
        while k < n {
            let to = (me + k) % n;
            let t = RESERVED_TYPE_BASE | ((epoch & 0xFFFF) << 8) | round;
            self.csend(t, &[], to).await;
            self.crecv(Some(t), Some((me + n - k) % n)).await;
            k *= 2;
            round += 1;
        }
    }

    /// Broadcast from `root`: binomial tree over point-to-point messages.
    /// Returns the broadcast payload on every process.
    ///
    /// In round `k`, every process whose root-relative rank is below `2^k`
    /// forwards to rank `rel + 2^k` — the classic `log2(n)`-round tree.
    pub async fn broadcast(&self, root: usize, data: &[u8]) -> Vec<u8> {
        let n = self.inner.nprocs;
        if n == 1 {
            return data.to_vec();
        }
        let me = self.inner.me;
        let rel = (me + n - root) % n; // rank relative to root
        let t = RESERVED_TYPE_BASE | 0x0001_0000;
        let (buf, first_round) = if rel == 0 {
            (data.to_vec(), 0u32)
        } else {
            let recv_round = rel.ilog2();
            let parent = (rel - (1 << recv_round) + root) % n;
            let m = self.crecv(Some(t), Some(parent)).await;
            (m.data, recv_round + 1)
        };
        let mut k = first_round;
        while (1usize << k) < n {
            let child_rel = rel + (1 << k);
            if (1usize << k) > rel && child_rel < n {
                self.csend(t, &buf, (child_rel + root) % n).await;
            }
            k += 1;
        }
        buf
    }

    /// All-reduce of one `f64` by summation (NX `gdsum`): gather to rank 0,
    /// then broadcast.
    pub async fn gdsum(&self, v: f64) -> f64 {
        let n = self.inner.nprocs;
        if n == 1 {
            return v;
        }
        let t = RESERVED_TYPE_BASE | 0x0002_0000;
        if self.inner.me == 0 {
            let mut acc = v;
            for _ in 1..n {
                let m = self.crecv(Some(t), None).await;
                acc += f64::from_le_bytes(m.data[..8].try_into().unwrap());
            }
            let out = self.broadcast(0, &acc.to_le_bytes()).await;
            f64::from_le_bytes(out[..8].try_into().unwrap())
        } else {
            self.csend(t, &v.to_le_bytes(), 0).await;
            let out = self.broadcast(0, &[]).await;
            f64::from_le_bytes(out[..8].try_into().unwrap())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::DesignConfig;
    use shrimp_sim::executor::TaskHandle;
    use shrimp_sim::Time;

    fn run_nx<F, Fut, T>(n: usize, cfg: NxConfig, f: F) -> (Time, Vec<T>)
    where
        F: Fn(Nx) -> Fut,
        Fut: std::future::Future<Output = T> + 'static,
        T: 'static,
    {
        let cluster = Cluster::builder(n).config(DesignConfig::default()).build();
        let endpoints = create(&cluster, cfg);
        let handles: Vec<TaskHandle<T>> = endpoints
            .into_iter()
            .map(|nx| cluster.sim().spawn(f(nx)))
            .collect();
        cluster.run_until_complete(handles)
    }

    #[test]
    fn pingpong_roundtrip() {
        let (_t, out) = run_nx(2, NxConfig::default(), |nx| async move {
            if nx.me() == 0 {
                nx.csend(7, b"ping", 1).await;
                let m = nx.crecv(Some(8), Some(1)).await;
                m.data
            } else {
                let m = nx.crecv(Some(7), Some(0)).await;
                assert_eq!(m.data, b"ping");
                nx.csend(8, b"pong", 0).await;
                m.data
            }
        });
        assert_eq!(out[0], b"pong");
    }

    #[test]
    fn type_selection_buffers_nonmatching() {
        let (_t, out) = run_nx(2, NxConfig::default(), |nx| async move {
            if nx.me() == 0 {
                nx.csend(1, b"first", 1).await;
                nx.csend(2, b"second", 1).await;
                Vec::new()
            } else {
                // Receive type 2 first even though type 1 arrives first.
                let m2 = nx.crecv(Some(2), None).await;
                let m1 = nx.crecv(Some(1), None).await;
                vec![m2.data, m1.data]
            }
        });
        assert_eq!(out[1], vec![b"second".to_vec(), b"first".to_vec()]);
    }

    #[test]
    fn large_messages_wrap_the_ring() {
        let cfg = NxConfig {
            ring_bytes: 16 * 1024,
            bulk: Bulk::Deliberate,
        };
        let (_t, out) = run_nx(2, cfg, |nx| async move {
            let payload: Vec<u8> = (0..6000u32).map(|i| (i % 256) as u8).collect();
            if nx.me() == 0 {
                for _ in 0..8 {
                    nx.csend(3, &payload, 1).await;
                }
                true
            } else {
                let expect: Vec<u8> = (0..6000u32).map(|i| (i % 256) as u8).collect();
                for _ in 0..8 {
                    let m = nx.crecv(Some(3), Some(0)).await;
                    assert_eq!(m.data, expect);
                }
                true
            }
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn flow_control_blocks_sender_until_receiver_drains() {
        let cfg = NxConfig {
            ring_bytes: 4 * 1024,
            bulk: Bulk::Deliberate,
        };
        let (_t, out) = run_nx(2, cfg, |nx| async move {
            if nx.me() == 0 {
                // 8 x 1 KB into a 4 KB ring: must block until consumed.
                for i in 0..8u32 {
                    nx.csend(1, &vec![i as u8; 1024], 1).await;
                }
                0u64
            } else {
                let vm = nx.vmmc().clone();
                vm.compute(shrimp_sim::time::ms(2)).await; // receiver is late
                for i in 0..8u32 {
                    let m = nx.crecv(Some(1), Some(0)).await;
                    assert_eq!(m.data, vec![i as u8; 1024]);
                }
                1u64
            }
        });
        assert_eq!(out[1], 1, "the receiver took all eight messages");
    }

    #[test]
    fn automatic_bulk_delivers_same_data() {
        let (_t, out) = run_nx(2, NxConfig::automatic(), |nx| async move {
            let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
            if nx.me() == 0 {
                nx.csend(4, &payload, 1).await;
                Vec::new()
            } else {
                nx.crecv(Some(4), Some(0)).await.data
            }
        });
        let expect: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
        assert_eq!(out[1], expect);
    }

    #[test]
    fn du_bulk_beats_au_bulk_for_large_messages() {
        // §4.2: "although automatic update delivers lower latency, this
        // effect is often overridden by the DMA performance of deliberate
        // update" — large sends are faster with DU.
        let run = |cfg: NxConfig| -> Time {
            let (t, _) = run_nx(2, cfg, |nx| async move {
                let payload = vec![7u8; 16 * 1024];
                if nx.me() == 0 {
                    for _ in 0..8 {
                        nx.csend(1, &payload, 1).await;
                    }
                } else {
                    for _ in 0..8 {
                        nx.crecv(Some(1), Some(0)).await;
                    }
                }
            });
            t
        };
        let t_du = run(NxConfig::default());
        let t_au = run(NxConfig::automatic());
        assert!(
            t_au > t_du,
            "AU bulk ({t_au}) should be slower than DU bulk ({t_du}) for large messages"
        );
    }

    #[test]
    fn gsync_synchronizes_all() {
        for n in [2, 3, 4, 7, 8] {
            let (_t, out) = run_nx(n, NxConfig::default(), move |nx| async move {
                let vm = nx.vmmc().clone();
                // Stagger arrival; all must leave together.
                vm.compute(shrimp_sim::time::us(10 * (nx.me() as u64 + 1)))
                    .await;
                let arrived = vm.sim().now();
                nx.gsync().await;
                (arrived, vm.sim().now())
            });
            // No process may leave before the last one arrives, and exits
            // cluster within a small skew (message flight times).
            let last_arrival = out.iter().map(|&(a, _)| a).max().unwrap();
            let max_exit = out.iter().map(|&(_, e)| e).max().unwrap();
            for &(_, exit) in &out {
                assert!(exit >= last_arrival, "left barrier early (n={n}): {out:?}");
                assert!(
                    max_exit - exit < shrimp_sim::time::us(100),
                    "barrier exit skew too large (n={n}): {out:?}"
                );
            }
        }
    }

    #[test]
    fn broadcast_reaches_all_from_any_root() {
        for root in 0..4 {
            let (_t, out) = run_nx(4, NxConfig::default(), move |nx| async move {
                nx.broadcast(root, format!("r{root}").as_bytes()).await
            });
            for o in out {
                assert_eq!(o, format!("r{root}").as_bytes());
            }
        }
    }

    #[test]
    fn gdsum_sums_across_processes() {
        let (_t, out) = run_nx(5, NxConfig::default(), |nx| async move {
            nx.gdsum(nx.me() as f64 + 1.0).await
        });
        for o in out {
            assert!((o - 15.0).abs() < 1e-9);
        }
    }

    #[test]
    fn isend_overlaps_and_completes() {
        let (_t, out) = run_nx(3, NxConfig::default(), |nx| async move {
            if nx.me() == 0 {
                // Issue several asynchronous sends at once, then wait.
                let handles: Vec<_> = (0..6u32)
                    .map(|i| nx.isend(7, vec![i as u8; 256], 1 + (i as usize % 2)))
                    .collect();
                for h in handles {
                    h.await;
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..3 {
                    got.push(nx.crecv(Some(7), Some(0)).await.data[0]);
                }
                got
            }
        });
        // Each receiver got its three messages in issue order.
        assert_eq!(out[1], vec![0, 2, 4]);
        assert_eq!(out[2], vec![1, 3, 5]);
    }

    #[test]
    fn iprobe_sees_arrived_messages() {
        let (_t, out) = run_nx(2, NxConfig::default(), |nx| async move {
            if nx.me() == 0 {
                nx.csend(3, b"probe me", 1).await;
                true
            } else {
                // Wait for arrival, then probe without consuming.
                let vm = nx.vmmc().clone();
                vm.compute(shrimp_sim::time::ms(1)).await;
                assert!(nx.iprobe(Some(3), Some(0)), "message not probed");
                assert!(!nx.iprobe(Some(9), None), "phantom message probed");
                let m = nx.crecv(Some(3), None).await;
                m.data == b"probe me"
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn many_to_one_interleaves_sources() {
        let (_t, out) = run_nx(4, NxConfig::default(), |nx| async move {
            if nx.me() == 0 {
                let mut got = vec![0u32; 4];
                for _ in 0..9 {
                    let m = nx.crecv(Some(5), None).await;
                    got[m.src] += 1;
                }
                got
            } else {
                for _ in 0..3 {
                    nx.csend(5, &[nx.me() as u8], 0).await;
                }
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![0, 3, 3, 3]);
    }
}
