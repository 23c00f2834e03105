//! Intel Paragon-style routing backplane model.
//!
//! The SHRIMP backplane (§2.1) is a two-dimensional mesh supporting
//! oblivious, wormhole routing with 200 Mbytes/s maximum link bandwidth,
//! connected to each node's network interface through a differential-signal
//! transceiver board.
//!
//! # Model
//!
//! Packets are routed dimension-order (X then Y — oblivious). Each directed
//! link, plus each node's injection and ejection channel, is a channel with
//! a FIFO reservation discipline (a busy-until time: a packet starts when
//! both its head and the channel are free), so many-to-one traffic
//! patterns produce the ejection-channel contention the paper describes in
//! §4.5.2. Wormhole pipelining is approximated at packet
//! granularity (virtual cut-through with elastic buffering): the head pays
//! one routing delay per hop and each channel is occupied for the packet's
//! serialization time. This reproduces latency/bandwidth/contention trends
//! without flit-level simulation; the approximation is noted in `DESIGN.md`.

#![warn(missing_docs)]

pub mod mesh;
pub mod stats;

pub use mesh::{Faultable, Flit, MeshConfig, Network, NodeId};
pub use stats::NetStats;
