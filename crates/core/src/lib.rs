//! Virtual Memory-Mapped Communication (VMMC) — the SHRIMP system's
//! communication model and user-level library (§2.2–2.3 of the paper).
//!
//! VMMC's primitives:
//!
//! * **Export / import** — a receiving process *exports* a region of its
//!   virtual memory as a receive buffer (pages pinned, IPT configured); any
//!   process with permission *imports* it, obtaining a *proxy receive
//!   buffer* (OPT entries pointing at the remote physical pages).
//! * **Deliberate update** — explicit transfers from local memory into a
//!   proxy buffer, initiated by user-level DMA with a two-instruction
//!   sequence; no system call, no kernel copy (§4.3).
//! * **Automatic update** — local virtual memory *bound* to an imported
//!   buffer so every store propagates as a side effect of the write; bound
//!   pages are write-through and snooped by the NIC (§4.2).
//! * **Notifications** — optional per-buffer control transfers to a
//!   user-level handler on message arrival, with queueing and
//!   block/unblock, similar to Unix signals (§4.4).
//!
//! The [`DesignConfig`] knobs re-run the paper's what-if experiments:
//! forcing a system call before every send (Table 2), forcing an interrupt
//! on every message arrival (Table 4), removing automatic-update combining
//! (§4.5.1), shrinking the outgoing FIFO (§4.5.2), and deepening the
//! deliberate-update request queue (§4.5.3).
//!
//! # Example
//!
//! ```
//! use shrimp_core::{Cluster, DesignConfig};
//!
//! let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
//! let a = cluster.vmmc(0);
//! let b = cluster.vmmc(1);
//!
//! // Node 1 exports a one-page receive buffer; node 0 imports and sends.
//! let recv = b.space().alloc(1);
//! let export = b.export(recv, 4096);
//! let proxy = a.import(export);
//!
//! let src = a.space().alloc(1);
//! a.space().write_raw(src, b"greetings");
//! let sim = cluster.sim().clone();
//! let h = sim.spawn(async move {
//!     a.send(src, &proxy, 0, 9).await;
//! });
//! let (t, _) = cluster.run_until_complete(vec![h]);
//! assert!(t > 0);
//! let mut got = [0u8; 9];
//! b.space().read(recv, &mut got);
//! assert_eq!(&got, b"greetings");
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod cpu;
pub mod distributed;
pub mod ring;
pub mod stats;
pub mod vmmc;
pub mod warm;

pub use checkpoint::{ClusterCheckpoint, NodeState};
pub use cluster::{Cluster, ClusterBuilder, ClusterFlit, LaunchOutcome, NodeProgram, Notification};
pub use config::DesignConfig;
pub use cpu::Cpu;
pub use distributed::{
    chaos_node_program, node_program, run_chaos_distributed, run_distributed, DistributedParams,
    HeartbeatConfig,
};
pub use ring::{connect_ring, RingBulk, RingFrame, RingReceiver, RingSender};
pub use shrimp_faults::{node_backoff, FaultScenario, NodeCrash, Reliability, ShrimpError};
pub use shrimp_net::NodeId;
pub use shrimp_sim::shard::Shards;
pub use stats::NodeStats;
pub use vmmc::{ExportId, ImportBuilder, ProxyBuffer, SendTicket, UpdatePolicy, Vmmc};
pub use warm::{run_cold, run_warm, warm_checkpoint, WarmParams};
