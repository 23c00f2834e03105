//! Remote procedure call over SHRIMP virtual memory-mapped communication.
//!
//! §3 of the paper lists two RPC systems built on VMMC (reference \[7\],
//! "Fast RPC on the SHRIMP Virtual Memory Mapped Network Interface"):
//! a Sun-RPC-compatible library and a *specialized* RPC path. This crate
//! reproduces both styles:
//!
//! * [`RpcClient::call`] — the compatible path: arguments are marshaled
//!   into a staging buffer (a charged user-level copy), sent by deliberate
//!   update into the server's request ring, and the reply is polled the
//!   same way. The server dispatches registered procedures by number.
//! * [`RpcClient::call_fast`] — the specialized path: no marshaling copy;
//!   the caller's bytes go straight from its buffer into the request ring
//!   frame (and the reply frame is handed back without a copy), the
//!   optimization the SHRIMP RPC paper uses VMMC's direct data transfer
//!   for.
//!
//! Servers poll (no interrupts, like the paper's VMMC applications); a
//! server's dispatch loop serves many clients, each over its own ring
//! pair.
//!
//! # Example
//!
//! ```
//! use shrimp_core::{Cluster, DesignConfig};
//! use shrimp_rpc::RpcSystem;
//!
//! let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
//! let rpc = RpcSystem::new(&cluster);
//! // Node 1 serves procedure 7: add one to each byte.
//! let server = rpc.serve(1);
//! server.register(7, |args| args.iter().map(|b| b + 1).collect());
//! server.start();
//! let client = rpc.connect(0, 1);
//! let h = cluster.sim().spawn(async move {
//!     client.call(7, b"\x01\x02\x03").await
//! });
//! let (_, out) = cluster.run_until_complete(vec![h]);
//! assert_eq!(out[0], vec![2, 3, 4]);
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use shrimp_core::ring::{connect_ring, RingBulk, RingReceiver, RingSender};
use shrimp_core::{Cluster, Vmmc};
use shrimp_sim::FastMap;

/// A registered procedure: bytes in, bytes out.
pub type Procedure = Box<dyn Fn(&[u8]) -> Vec<u8>>;

/// RPC transport configuration.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Ring capacity per direction per connection.
    pub ring_bytes: usize,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            ring_bytes: 32 * 1024,
        }
    }
}

struct ServerInner {
    vm: Vmmc,
    procedures: RefCell<FastMap<u32, Procedure>>,
    pending_conns: RefCell<Vec<(RingReceiver, RingSender)>>,
    started: std::cell::Cell<bool>,
    calls_served: std::cell::Cell<u64>,
}

/// An RPC server endpoint on one node. Cheap to clone.
#[derive(Clone)]
pub struct RpcServer {
    inner: Rc<ServerInner>,
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("calls_served", &self.inner.calls_served.get())
            .finish()
    }
}

struct SystemInner {
    cluster: Cluster,
    cfg: RpcConfig,
    servers: RefCell<FastMap<usize, RpcServer>>,
}

/// The cluster-wide RPC service registry. Cheap to clone.
#[derive(Clone)]
pub struct RpcSystem {
    inner: Rc<SystemInner>,
}

impl std::fmt::Debug for RpcSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcSystem").finish_non_exhaustive()
    }
}

/// A connected RPC client (one connection to one server).
pub struct RpcClient {
    vm: Vmmc,
    tx: RingSender,
    rx: RingReceiver,
    next_xid: std::cell::Cell<u32>,
}

impl std::fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient").finish_non_exhaustive()
    }
}

impl RpcSystem {
    /// Creates the RPC service with default transport configuration.
    pub fn new(cluster: &Cluster) -> Self {
        Self::with_config(cluster, RpcConfig::default())
    }

    /// Creates the RPC service.
    pub fn with_config(cluster: &Cluster, cfg: RpcConfig) -> Self {
        RpcSystem {
            inner: Rc::new(SystemInner {
                cluster: cluster.clone(),
                cfg,
                servers: RefCell::new(FastMap::default()),
            }),
        }
    }

    /// Creates (or returns) the server endpoint for `node`. Register
    /// procedures, then [`RpcServer::start`] it.
    pub fn serve(&self, node: usize) -> RpcServer {
        self.inner
            .servers
            .borrow_mut()
            .entry(node)
            .or_insert_with(|| RpcServer {
                inner: Rc::new(ServerInner {
                    vm: self.inner.cluster.vmmc(node),
                    procedures: RefCell::new(FastMap::default()),
                    pending_conns: RefCell::new(Vec::new()),
                    started: std::cell::Cell::new(false),
                    calls_served: std::cell::Cell::new(0),
                }),
            })
            .clone()
    }

    /// Connects `client_node` to the server on `server_node`, building the
    /// request/reply rings (out-of-band setup, as with the other
    /// libraries).
    ///
    /// # Panics
    ///
    /// Panics if no server endpoint exists on `server_node`.
    pub fn connect(&self, client_node: usize, server_node: usize) -> RpcClient {
        let server = self
            .inner
            .servers
            .borrow()
            .get(&server_node)
            .expect("no RPC server on that node")
            .clone();
        let cvm = self.inner.cluster.vmmc(client_node);
        let svm = self.inner.cluster.vmmc(server_node);
        let (req_tx, req_rx) =
            connect_ring(&cvm, &svm, self.inner.cfg.ring_bytes, RingBulk::Deliberate);
        let (rep_tx, rep_rx) =
            connect_ring(&svm, &cvm, self.inner.cfg.ring_bytes, RingBulk::Deliberate);
        server.attach(req_rx, rep_tx);
        RpcClient {
            vm: cvm,
            tx: req_tx,
            rx: rep_rx,
            next_xid: std::cell::Cell::new(1),
        }
    }
}

impl RpcServer {
    /// Registers `proc_num` with its handler.
    pub fn register(&self, proc_num: u32, f: impl Fn(&[u8]) -> Vec<u8> + 'static) {
        self.inner
            .procedures
            .borrow_mut()
            .insert(proc_num, Box::new(f));
    }

    /// Total calls served so far.
    pub fn calls_served(&self) -> u64 {
        self.inner.calls_served.get()
    }

    fn attach(&self, rx: RingReceiver, tx: RingSender) {
        if self.inner.started.get() {
            self.spawn_dispatch(rx, tx);
        } else {
            self.inner.pending_conns.borrow_mut().push((rx, tx));
        }
    }

    /// Starts the dispatch processes (one per connection; later
    /// connections start their own).
    pub fn start(&self) {
        self.inner.started.set(true);
        let conns: Vec<_> = self.inner.pending_conns.borrow_mut().drain(..).collect();
        for (rx, tx) in conns {
            self.spawn_dispatch(rx, tx);
        }
    }

    fn spawn_dispatch(&self, rx: RingReceiver, tx: RingSender) {
        let inner = self.inner.clone();
        self.inner.vm.sim().clone().spawn(async move {
            loop {
                let frame = rx.recv().await;
                // Frame tag carries the procedure number; payload is
                // [xid u32][args...].
                let xid = u32::from_le_bytes(frame.data[0..4].try_into().unwrap());
                let args = &frame.data[4..];
                let reply = {
                    let procedures = inner.procedures.borrow();
                    match procedures.get(&frame.tag) {
                        Some(p) => p(args),
                        None => {
                            // Unknown procedure: error reply (empty, tag 0
                            // at the client means fault).
                            Vec::new()
                        }
                    }
                };
                inner.calls_served.set(inner.calls_served.get() + 1);
                // Dispatch cost: decode + table lookup + reply setup.
                inner.vm.compute(shrimp_sim::time::us(5)).await;
                let mut out = Vec::with_capacity(4 + reply.len());
                out.extend_from_slice(&xid.to_le_bytes());
                out.extend_from_slice(&reply);
                tx.send_frame(frame.tag, &out).await;
            }
        });
    }
}

impl RpcClient {
    /// The underlying VMMC handle (timing helpers, compute charging).
    pub fn vmmc(&self) -> &Vmmc {
        &self.vm
    }

    async fn call_inner(&self, proc_num: u32, args: &[u8], zero_copy: bool) -> Vec<u8> {
        let xid = self.next_xid.get();
        self.next_xid.set(xid + 1);
        let mut req = Vec::with_capacity(4 + args.len());
        req.extend_from_slice(&xid.to_le_bytes());
        req.extend_from_slice(args);
        if zero_copy {
            self.tx.send_frame_zero_copy(proc_num, &req).await;
        } else {
            // Sun-RPC-style marshaling copy.
            self.vm.local_copy(args.len()).await;
            self.tx.send_frame(proc_num, &req).await;
        }
        let frame = self.rx.recv().await;
        assert_eq!(frame.tag, proc_num, "reply for a different procedure");
        let rxid = u32::from_le_bytes(frame.data[0..4].try_into().unwrap());
        assert_eq!(rxid, xid, "reply transaction id mismatch");
        if !zero_copy {
            self.vm.local_copy(frame.data.len() - 4).await;
        }
        frame.data[4..].to_vec()
    }

    /// A synchronous RPC through the Sun-RPC-compatible path (marshaling
    /// copies on both ends).
    pub async fn call(&self, proc_num: u32, args: &[u8]) -> Vec<u8> {
        self.call_inner(proc_num, args, false).await
    }

    /// A synchronous RPC through the specialized fast path: no marshaling
    /// copies — arguments move directly via deliberate update.
    pub async fn call_fast(&self, proc_num: u32, args: &[u8]) -> Vec<u8> {
        self.call_inner(proc_num, args, true).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::DesignConfig;
    use shrimp_sim::Time;

    fn setup() -> (Cluster, RpcSystem) {
        let cluster = Cluster::builder(3).config(DesignConfig::default()).build();
        let rpc = RpcSystem::new(&cluster);
        (cluster, rpc)
    }

    #[test]
    fn call_roundtrip_and_dispatch_by_number() {
        let (cluster, rpc) = setup();
        let server = rpc.serve(1);
        server.register(1, |a| a.to_vec());
        server.register(2, |a| a.iter().rev().copied().collect());
        server.start();
        let client = rpc.connect(0, 1);
        let h = cluster.sim().spawn(async move {
            let echo = client.call(1, b"abc").await;
            let rev = client.call(2, b"abc").await;
            (echo, rev)
        });
        let (_, out) = cluster.run_until_complete(vec![h]);
        assert_eq!(out[0].0, b"abc");
        assert_eq!(out[0].1, b"cba");
        assert_eq!(server.calls_served(), 2);
    }

    #[test]
    fn multiple_clients_one_server() {
        let (cluster, rpc) = setup();
        let server = rpc.serve(0);
        server.register(9, |a| vec![a[0] * 2]);
        server.start();
        let mut handles = Vec::new();
        for c in 1..3 {
            let client = rpc.connect(c, 0);
            handles.push(cluster.sim().spawn(async move {
                let mut sum = 0u32;
                for i in 0..10u8 {
                    sum += client.call(9, &[i]).await[0] as u32;
                }
                sum
            }));
        }
        let (_, out) = cluster.run_until_complete(handles);
        assert_eq!(out, vec![90, 90]);
        assert_eq!(server.calls_served(), 20);
    }

    #[test]
    fn connect_after_start_also_serves() {
        let (cluster, rpc) = setup();
        let server = rpc.serve(2);
        server.register(5, |_| b"late".to_vec());
        server.start();
        let client = rpc.connect(0, 2); // after start
        let h = cluster
            .sim()
            .spawn(async move { client.call(5, &[]).await });
        let (_, out) = cluster.run_until_complete(vec![h]);
        assert_eq!(out[0], b"late");
    }

    #[test]
    fn fast_path_is_faster_and_equivalent() {
        let run = |fast: bool| -> (Time, Vec<u8>) {
            let (cluster, rpc) = setup();
            let server = rpc.serve(1);
            server.register(3, |a| a.to_vec());
            server.start();
            let client = rpc.connect(0, 1);
            let h = cluster.sim().spawn(async move {
                let args = vec![7u8; 8000];
                let mut last = Vec::new();
                for _ in 0..8 {
                    last = if fast {
                        client.call_fast(3, &args).await
                    } else {
                        client.call(3, &args).await
                    };
                }
                last
            });
            let (t, mut out) = cluster.run_until_complete(vec![h]);
            (t, out.remove(0))
        };
        let (t_std, r_std) = run(false);
        let (t_fast, r_fast) = run(true);
        assert_eq!(r_std, r_fast);
        assert!(
            t_fast < t_std,
            "specialized RPC ({t_fast}) not faster than compatible ({t_std})"
        );
    }

    #[test]
    fn unknown_procedure_yields_empty_fault_reply() {
        let (cluster, rpc) = setup();
        let server = rpc.serve(1);
        server.start();
        let client = rpc.connect(0, 1);
        let h = cluster
            .sim()
            .spawn(async move { client.call(99, b"x").await });
        let (_, out) = cluster.run_until_complete(vec![h]);
        assert!(out[0].is_empty());
    }

    #[test]
    fn rpc_latency_is_tens_of_microseconds() {
        // The SHRIMP fast-RPC paper reports null-RPC round trips in the
        // ~10-20 us range on this hardware class.
        let (cluster, rpc) = setup();
        let server = rpc.serve(1);
        server.register(1, |_| Vec::new());
        server.start();
        let client = rpc.connect(0, 1);
        let h = cluster.sim().spawn(async move {
            let t0 = client.vm.sim().now();
            for _ in 0..10 {
                client.call_fast(1, &[]).await;
            }
            (client.vm.sim().now() - t0) / 10
        });
        let (_, out) = cluster.run_until_complete(vec![h]);
        let rtt = out[0];
        assert!(
            rtt > shrimp_sim::time::us(10) && rtt < shrimp_sim::time::us(80),
            "null RPC rtt {} us out of range",
            shrimp_sim::time::to_us(rtt)
        );
    }
}
