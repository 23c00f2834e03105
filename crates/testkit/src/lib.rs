//! Hermetic, deterministic test infrastructure for the SHRIMP reproduction.
//!
//! The whole methodology of the reproduction is deterministic what-if
//! replay: rerun the same workload with one design knob changed and compare
//! schedules. That only holds if the repository is self-contained — every
//! byte of randomness and every property-test case must be derivable from
//! `(experiment, seed)` with no external crates in the loop. This crate is
//! the workspace's only test substrate and has **zero dependencies**:
//!
//! * [`config`] — the typed [`HarnessConfig`]: every knob the
//!   infrastructure once read from `SHRIMP_*` environment variables,
//!   parsed once at entry (the env vars remain a compatibility shim).
//! * [`rng`] — a SplitMix64-seeded xoshiro256++ generator ([`rng::DetRng`])
//!   used as `shrimp_sim::SimRng` by every workload.
//! * [`prop`] — a minimal property-testing engine: generator combinators,
//!   a seeded case runner, and iterative choice-stream shrinking, driven by
//!   the [`props!`] macro. Case counts are tunable via `SHRIMP_PROP_CASES`.
//! * [`sample`] — deterministic workload samplers (Zipf key popularity,
//!   open-loop Poisson arrivals) built on [`rng::DetRng`] with no libm in
//!   the loop, for bit-reproducible load generation.

#![warn(missing_docs)]

pub mod config;
pub mod prop;
pub mod rng;
pub mod sample;

pub use config::HarnessConfig;
pub use rng::DetRng;
pub use sample::{OpenLoopArrivals, ZipfSampler};
