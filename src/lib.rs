//! # SHRIMP reproduction — facade crate
//!
//! A production-quality Rust reproduction of *"Design Choices in the SHRIMP
//! System: An Empirical Study"* (ISCA 1998). The original study ran on a
//! 16-node cluster with a custom network interface; this workspace rebuilds
//! the entire system as a deterministic discrete-event simulation and re-runs
//! every experiment (see `DESIGN.md` and `EXPERIMENTS.md` at the repository
//! root).
//!
//! This crate re-exports the workspace crates under one roof:
//!
//! * [`sim`] — discrete-event simulation kernel
//! * [`mem`] — node memory system (pages, address spaces, memory bus)
//! * [`net`] — Paragon-style 2-D mesh routing backplane
//! * [`nic`] — the SHRIMP network interface model
//! * [`vmmc`] — virtual memory-mapped communication (the paper's core)
//! * [`nx`] — NX-compatible message passing
//! * [`sockets`] — stream sockets over VMMC
//! * [`svm`] — shared virtual memory (HLRC, HLRC-AU, AURC)
//! * [`apps`] — the eight workloads of the study
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`:
//!
//! ```
//! use shrimp::vmmc::{Cluster, DesignConfig};
//!
//! // A 2-node SHRIMP machine with the paper's default design.
//! let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
//! assert_eq!(cluster.num_nodes(), 2);
//! ```

pub use shrimp_apps as apps;
pub use shrimp_core as vmmc;
pub use shrimp_mem as mem;
pub use shrimp_net as net;
pub use shrimp_nic as nic;
pub use shrimp_nx as nx;
pub use shrimp_sim as sim;
pub use shrimp_sockets as sockets;
pub use shrimp_svm as svm;
