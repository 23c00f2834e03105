//! Deterministic discrete-event simulation kernel for the SHRIMP reproduction.
//!
//! The SHRIMP empirical study (ISCA 1998) was performed on real hardware by
//! reprogramming network-interface firmware. This crate provides the synthetic
//! substrate on which we re-run those experiments: a single-threaded,
//! picosecond-resolution, *deterministic* discrete-event simulator whose
//! processes are ordinary Rust `async` functions.
//!
//! # Model
//!
//! * Simulated time is a [`Time`] in picoseconds.
//! * A [`Sim`] owns an event queue and a set of *processes* (futures).
//! * Processes advance simulated time only by awaiting [`Sim::sleep`],
//!   [`Sim::sleep_until`], or synchronization primitives ([`Queue`],
//!   [`Event`], [`Gate`], [`Resource`]).
//! * The run loop is deterministic: ready processes run in FIFO wake order and
//!   timers fire in `(time, sequence)` order, so two runs of the same program
//!   produce bit-identical schedules.
//!
//! # Example
//!
//! ```
//! use shrimp_sim::{Sim, time};
//!
//! let sim = Sim::new();
//! let (tx, rx) = shrimp_sim::queue::unbounded();
//! sim.spawn({
//!     let sim = sim.clone();
//!     async move {
//!         sim.sleep(time::us(5)).await;
//!         tx.send(42u32);
//!     }
//! });
//! let got = sim.spawn(async move { rx.recv().await });
//! let end = sim.run();
//! assert_eq!(end, time::us(5));
//! assert_eq!(got.try_take(), Some(Some(42)));
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod fastmap;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod snapshot;
pub mod sync;
pub mod time;
pub mod trace;
pub mod wheel;

pub use executor::{Sim, TaskHandle};
pub use fastmap::{FastMap, FastSet};
pub use metrics::{HistogramSnapshot, MetricSample, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use queue::{unbounded, Queue, QueueReceiver, QueueSender};
pub use rng::SimRng;
pub use shard::{
    run_sharded, run_sharded_phased, Builder, PhasedBuilder, ShardConfig, ShardCtx, ShardOutcome,
    ShardPlan, ShardSender, Shards,
};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use sync::{Event, Gate, Resource, Semaphore};
pub use time::Time;
pub use trace::{Category, TraceEvent, TraceSink};
