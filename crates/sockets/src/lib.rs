//! Unix-stream-sockets-compatible library over SHRIMP VMMC.
//!
//! Reproduces the stream-sockets library of the paper (reference \[17\],
//! "Stream Sockets on SHRIMP"): a connection-oriented, reliable byte-stream
//! API whose data path is sender-based buffering into a VMMC receive ring,
//! with polling receives (no interrupts — Table 3 shows the sockets
//! applications use zero notifications) and credits returned through
//! automatic update.
//!
//! The library also offers the **non-standard block-transfer extension**
//! used by the DFS application (§3): `write_block`/`read_block` move
//! page-sized blocks without the user-level staging copy.
//!
//! # Example
//!
//! ```
//! use shrimp_core::{Cluster, DesignConfig};
//! use shrimp_sockets::SocketNet;
//!
//! let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
//! let net = SocketNet::new(&cluster);
//! let listener = net.listen(1, 80); // node 1 listens on port 80
//! let client = net.connect_endpoints(0, 1, 80);
//! let sim = cluster.sim().clone();
//! let h = sim.spawn(async move {
//!     client.write(b"GET /").await;
//!     let mut buf = [0u8; 2];
//!     client.read_exact(&mut buf).await;
//!     buf
//! });
//! let hs = sim.spawn(async move {
//!     let server = listener.accept().await;
//!     let mut buf = [0u8; 5];
//!     server.read_exact(&mut buf).await;
//!     assert_eq!(&buf, b"GET /");
//!     server.write(b"OK").await;
//! });
//! let (_, out) = cluster.run_until_complete(vec![h]);
//! assert_eq!(&out[0], b"OK");
//! # let _ = hs;
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use shrimp_core::ring::{connect_ring, RingBulk, RingReceiver, RingSender};
use shrimp_core::{Cluster, Vmmc};
use shrimp_sim::{FastMap, Queue};

/// Stream data frame.
const TAG_DATA: u32 = 1;
/// Block-transfer-extension frame (no staging copies on either side).
const TAG_BLOCK: u32 = 2;
/// Orderly shutdown.
const TAG_FIN: u32 = 3;

/// Sockets library configuration.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Ring capacity per direction.
    pub ring_bytes: usize,
    /// Bulk transfer mechanism (§4.2's DU-vs-AU library comparison; the
    /// §4.5.1 combining study forces automatic update here).
    pub bulk: RingBulk,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            ring_bytes: 64 * 1024,
            bulk: RingBulk::Deliberate,
        }
    }
}

struct SocketInner {
    vm: Vmmc,
    peer: usize,
    tx: RingSender,
    rx: RingReceiver,
    /// Bytes pulled from frames but not yet read by the application.
    rx_buf: RefCell<VecDeque<u8>>,
    /// Whole blocks received via the extension, kept out of the stream.
    rx_blocks: RefCell<VecDeque<Vec<u8>>>,
    fin_seen: RefCell<bool>,
}

/// One endpoint of an established stream connection. Cheap to clone.
#[derive(Clone)]
pub struct Socket {
    inner: Rc<SocketInner>,
}

impl std::fmt::Debug for Socket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Socket")
            .field("peer", &self.inner.peer)
            .finish()
    }
}

/// A passive listening socket.
pub struct Listener {
    backlog: Queue<Socket>,
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Listener").finish_non_exhaustive()
    }
}

impl Listener {
    /// Accepts the next incoming connection.
    pub async fn accept(&self) -> Socket {
        self.backlog
            .recv()
            .await
            .expect("listener closed while accepting")
    }
}

struct SocketNetInner {
    cluster: Cluster,
    cfg: SocketConfig,
    listeners: RefCell<FastMap<(usize, u16), Queue<Socket>>>,
}

/// The cluster-wide sockets service (listener registry). Cheap to clone.
#[derive(Clone)]
pub struct SocketNet {
    inner: Rc<SocketNetInner>,
}

impl std::fmt::Debug for SocketNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketNet").finish_non_exhaustive()
    }
}

impl SocketNet {
    /// Creates the sockets service with default configuration.
    pub fn new(cluster: &Cluster) -> Self {
        Self::with_config(cluster, SocketConfig::default())
    }

    /// Creates the sockets service.
    pub fn with_config(cluster: &Cluster, cfg: SocketConfig) -> Self {
        SocketNet {
            inner: Rc::new(SocketNetInner {
                cluster: cluster.clone(),
                cfg,
                listeners: RefCell::new(FastMap::default()),
            }),
        }
    }

    /// Starts listening on `(node, port)`.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on that node.
    pub fn listen(&self, node: usize, port: u16) -> Listener {
        let q = Queue::new();
        let prev = self
            .inner
            .listeners
            .borrow_mut()
            .insert((node, port), q.clone());
        assert!(prev.is_none(), "port {port} already bound on node {node}");
        Listener { backlog: q }
    }

    /// Establishes a connection from `src` to the listener at
    /// `(dst, port)`, building both directions' rings. The accepted socket
    /// appears in the listener's backlog.
    ///
    /// Connection setup is performed out-of-band (the paper does not
    /// measure it); data transfer is fully simulated.
    ///
    /// # Panics
    ///
    /// Panics if nothing listens at `(dst, port)`.
    pub fn connect_endpoints(&self, src: usize, dst: usize, port: u16) -> Socket {
        let backlog = self
            .inner
            .listeners
            .borrow()
            .get(&(dst, port))
            .unwrap_or_else(|| panic!("connection refused: node {dst} port {port}"))
            .clone();
        let a = self.inner.cluster.vmmc(src);
        let b = self.inner.cluster.vmmc(dst);
        let (tx_ab, rx_ab) = connect_ring(&a, &b, self.inner.cfg.ring_bytes, self.inner.cfg.bulk);
        let (tx_ba, rx_ba) = connect_ring(&b, &a, self.inner.cfg.ring_bytes, self.inner.cfg.bulk);
        let client = Socket {
            inner: Rc::new(SocketInner {
                vm: a,
                peer: dst,
                tx: tx_ab,
                rx: rx_ba,
                rx_buf: RefCell::new(VecDeque::new()),
                rx_blocks: RefCell::new(VecDeque::new()),
                fin_seen: RefCell::new(false),
            }),
        };
        let server = Socket {
            inner: Rc::new(SocketInner {
                vm: b,
                peer: src,
                tx: tx_ba,
                rx: rx_ab,
                rx_buf: RefCell::new(VecDeque::new()),
                rx_blocks: RefCell::new(VecDeque::new()),
                fin_seen: RefCell::new(false),
            }),
        };
        backlog.send(server);
        client
    }
}

impl Socket {
    /// Peer node id.
    pub fn peer(&self) -> usize {
        self.inner.peer
    }

    /// Writes the whole buffer to the stream (blocking, like a `write`
    /// loop on a blocking socket). Splits into ring frames as needed.
    pub async fn write(&self, data: &[u8]) {
        let max = self.inner.tx.max_payload();
        for chunk in data.chunks(max) {
            self.inner.tx.send_frame(TAG_DATA, chunk).await;
        }
    }

    /// Block-transfer extension: sends `data` as one block with no staging
    /// copy on the send side and no stream-buffer copy at the receiver.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the ring's frame limit.
    pub async fn write_block(&self, data: &[u8]) {
        self.inner.tx.send_frame_zero_copy(TAG_BLOCK, data).await;
    }

    /// Signals end-of-stream; subsequent reads at the peer return 0 once
    /// buffered data is drained.
    pub async fn shutdown(&self) {
        self.inner.tx.send_frame(TAG_FIN, &[]).await;
    }

    async fn pump(&self) -> bool {
        // Pull one frame into the appropriate buffer; true if progress.
        if *self.inner.fin_seen.borrow() {
            return false;
        }
        let Some(f) = self.inner.rx.try_recv() else {
            return false;
        };
        self.inner.rx.ack().await;
        match f.tag {
            TAG_DATA => {
                // Stream data is copied into the socket buffer (the cost a
                // normal read path pays and the block extension avoids).
                self.inner.vm.local_copy(f.data.len()).await;
                self.inner.rx_buf.borrow_mut().extend(f.data);
            }
            TAG_BLOCK => self.inner.rx_blocks.borrow_mut().push_back(f.data),
            TAG_FIN => *self.inner.fin_seen.borrow_mut() = true,
            t => panic!("corrupt stream frame tag {t}"),
        }
        true
    }

    /// Reads up to `buf.len()` bytes, blocking until at least one byte (or
    /// end-of-stream). Returns the byte count; 0 means the peer shut down.
    pub async fn read(&self, buf: &mut [u8]) -> usize {
        let gate = self.inner.vm.any_write_gate();
        loop {
            while self.pump().await {}
            {
                let mut rx = self.inner.rx_buf.borrow_mut();
                if !rx.is_empty() {
                    let n = buf.len().min(rx.len());
                    for b in buf[..n].iter_mut() {
                        *b = rx.pop_front().unwrap();
                    }
                    return n;
                }
            }
            if *self.inner.fin_seen.borrow() {
                return 0;
            }
            gate.wait().await;
        }
    }

    /// Reads exactly `buf.len()` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the peer shuts down mid-read.
    pub async fn read_exact(&self, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let n = self.read(&mut buf[done..]).await;
            assert!(n > 0, "peer closed during read_exact");
            done += n;
        }
    }

    /// Block-transfer extension: receives one whole block sent with
    /// [`Socket::write_block`].
    ///
    /// # Panics
    ///
    /// Panics if the peer closes first; use [`Socket::read_block_opt`] when
    /// disconnection is an expected outcome.
    pub async fn read_block(&self) -> Vec<u8> {
        self.read_block_opt()
            .await
            .expect("peer closed while awaiting block")
    }

    /// Like [`Socket::read_block`], returning `None` if the peer shuts the
    /// stream down before a block arrives (e.g. a crashed worker).
    pub async fn read_block_opt(&self) -> Option<Vec<u8>> {
        let gate = self.inner.vm.any_write_gate();
        loop {
            while self.pump().await {}
            if let Some(b) = self.inner.rx_blocks.borrow_mut().pop_front() {
                return Some(b);
            }
            if *self.inner.fin_seen.borrow() {
                return None;
            }
            gate.wait().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::DesignConfig;
    use shrimp_sim::Time;

    fn setup(cfg: SocketConfig) -> (Cluster, Socket, Socket) {
        let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
        let net = SocketNet::with_config(&cluster, cfg);
        let listener = net.listen(1, 7000);
        let client = net.connect_endpoints(0, 1, 7000);
        // Accept synchronously: the backlog already holds the server end.
        let server = listener.backlog.try_recv().expect("no pending accept");
        (cluster, client, server)
    }

    #[test]
    fn stream_bytes_in_order_across_many_writes() {
        let (cluster, client, server) = setup(SocketConfig::default());
        let h = cluster.sim().spawn(async move {
            for i in 0..50u32 {
                let chunk: Vec<u8> = (0..97).map(|j| ((i * 97) as usize + j) as u8).collect();
                client.write(&chunk).await;
            }
            client.shutdown().await;
        });
        let hr = cluster.sim().spawn(async move {
            let mut all = Vec::new();
            let mut buf = [0u8; 64];
            loop {
                let n = server.read(&mut buf).await;
                if n == 0 {
                    break;
                }
                all.extend_from_slice(&buf[..n]);
            }
            all
        });
        cluster.run_until_complete(vec![h]);
        let got = hr.try_take().unwrap();
        let expect: Vec<u8> = (0..50u32)
            .flat_map(|i| (0..97).map(move |j| ((i * 97) as usize + j) as u8))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn large_write_fragments_and_reassembles() {
        let (cluster, client, server) = setup(SocketConfig::default());
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let h = cluster.sim().spawn(async move {
            client.write(&payload).await;
        });
        let hr = cluster.sim().spawn(async move {
            let mut buf = vec![0u8; 200_000];
            server.read_exact(&mut buf).await;
            buf
        });
        cluster.run_until_complete(vec![h]);
        assert_eq!(hr.try_take().unwrap(), expect);
    }

    #[test]
    fn block_transfer_roundtrip_and_is_faster() {
        let run = |use_blocks: bool| -> Time {
            let (cluster, client, server) = setup(SocketConfig::default());
            let h = cluster.sim().spawn(async move {
                let block = vec![42u8; 8192];
                for _ in 0..16 {
                    if use_blocks {
                        client.write_block(&block).await;
                    } else {
                        client.write(&block).await;
                    }
                }
            });
            let hr = cluster.sim().spawn(async move {
                for _ in 0..16 {
                    if use_blocks {
                        let b = server.read_block().await;
                        assert_eq!(b.len(), 8192);
                        assert!(b.iter().all(|&x| x == 42));
                    } else {
                        let mut b = vec![0u8; 8192];
                        server.read_exact(&mut b).await;
                        assert!(b.iter().all(|&x| x == 42));
                    }
                }
            });
            let (t, _) = cluster.run_until_complete(vec![h, hr]);
            t
        };
        let t_block = run(true);
        let t_stream = run(false);
        assert!(
            t_block < t_stream,
            "block extension ({t_block}) not faster than stream copies ({t_stream})"
        );
    }

    #[test]
    fn bidirectional_request_reply() {
        let (cluster, client, server) = setup(SocketConfig::default());
        let h = cluster.sim().spawn(async move {
            for i in 0..20u8 {
                client.write(&[i]).await;
                let mut r = [0u8; 1];
                client.read_exact(&mut r).await;
                assert_eq!(r[0], i.wrapping_mul(2));
            }
            true
        });
        let hs = cluster.sim().spawn(async move {
            for _ in 0..20 {
                let mut r = [0u8; 1];
                server.read_exact(&mut r).await;
                server.write(&[r[0].wrapping_mul(2)]).await;
            }
        });
        let (_, out) = cluster.run_until_complete(vec![h]);
        drop(hs); // detached server process
        assert!(out[0]);
    }

    #[test]
    fn several_connections_one_listener() {
        let cluster = Cluster::builder(4).config(DesignConfig::default()).build();
        let net = SocketNet::new(&cluster);
        let listener = net.listen(0, 9000);
        let clients: Vec<Socket> = (1..4).map(|i| net.connect_endpoints(i, 0, 9000)).collect();
        let mut handles = Vec::new();
        for (i, c) in clients.into_iter().enumerate() {
            handles.push(cluster.sim().spawn(async move {
                c.write(&[i as u8 + 1]).await;
                let mut r = [0u8; 1];
                c.read_exact(&mut r).await;
                r[0]
            }));
        }
        let server = cluster.sim().spawn(async move {
            for _ in 0..3 {
                let s = listener.accept().await;
                let sk = s.clone();
                s.inner.vm.sim().spawn(async move {
                    let mut r = [0u8; 1];
                    sk.read_exact(&mut r).await;
                    sk.write(&[r[0] + 100]).await;
                });
            }
        });
        let (_, out) = cluster.run_until_complete(handles);
        drop(server); // detached acceptor process
        let mut got = out;
        got.sort_unstable();
        assert_eq!(got, vec![101, 102, 103]);
    }

    #[test]
    #[should_panic(expected = "connection refused")]
    fn connect_to_unbound_port_panics() {
        let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
        let net = SocketNet::new(&cluster);
        let _ = net.connect_endpoints(0, 1, 1234);
    }
}
