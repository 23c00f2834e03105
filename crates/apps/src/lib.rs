//! The eight workloads of the SHRIMP empirical study (Table 1).
//!
//! | Application | API | Paper problem size |
//! |---|---|---|
//! | Barnes-SVM | SVM | 16 K bodies |
//! | Ocean-SVM | SVM | 514 x 514 |
//! | Radix-SVM | SVM | 2 M keys, 3 iters |
//! | Radix-VMMC | VMMC | 2 M keys, 3 iters |
//! | Barnes-NX | NX | 4 K bodies, 20 iters |
//! | Ocean-NX | NX | 258 x 258 |
//! | DFS-sockets | sockets | 4 clients |
//! | Render-sockets | sockets | 128 x 128 image |
//!
//! Every workload does *real* computation — real radix sorts, real
//! Barnes-Hut force evaluation on an octree, real red-black relaxation,
//! real ray marching — with CPU time charged through a cost model
//! calibrated to the 60 MHz Pentium nodes, while all communication flows
//! through the simulated SHRIMP stack. Each application that the paper
//! measures in both automatic-update and deliberate-update versions is
//! implemented in both (selected by [`Mechanism`] / the SVM
//! [`Protocol`](shrimp_svm::Protocol)), and versions are checked against
//! each other for bit-identical numerical results.
//!
//! [`micro`] holds the §4.1–4.3 microbenchmarks (latency, bandwidth and
//! send overhead on two nodes), and [`kv`] the replicated key-value
//! service; neither is a Table 1 application.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the papers' pseudocode

pub mod barnes;
pub mod dfs;
pub mod kv;
pub mod micro;
pub mod ocean;
pub mod radix;
pub mod render;
pub mod util;

pub use kv::{run_kv, KvParams};
pub use util::{vmmc_barrier_group, Mechanism, RunOutcome, VmmcBarrier};
