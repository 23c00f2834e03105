//! Every finished run frees what it allocated.
//!
//! A run builds a whole simulated machine — each node owns real
//! byte-addressable memory — so a run that leaks leaks all of it, and a
//! sweep's memory grows with every row. This binary counts live heap bytes
//! with its own global allocator and runs one single `#[test]`, so no
//! concurrent test moves the counter.
//!
//! Each row executes twice to warm up (the bounded thread-local payload
//! pool and metric-name interning fill there), then three more times; the
//! live bytes after the last execution must be within [`ALLOWANCE`] of
//! the live bytes after the warm-up.
//!
//! ```text
//! cargo test --release --offline -p shrimp-bench --test runs_return_memory
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use shrimp_bench::spec::{matrix, RunSpec, Scale, Shards};
use shrimp_bench::App;

/// The system allocator, keeping a count of the bytes currently allocated.
struct Counting;

// Relaxed suffices: the count publishes no other data, and a run joins its
// shard threads before the test reads it.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the count has no effect on them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live-byte drift tolerated over the three measured executions of a row.
const ALLOWANCE: isize = 16 * 1024;

/// One smoke row per application — the 16-node Table 1 row of each paper
/// application (`dfs-sockets` among them), the 64-node cluster syscall
/// row, the kv primary-crash row and the first row of each microbenchmark — plus
/// the 16-node cluster row and the chaos-cluster crash and crash/restart
/// rows at one and two shards.
fn rows() -> Vec<RunSpec> {
    let specs = matrix(Scale::Smoke, 16);
    let mut rows: Vec<RunSpec> = specs
        .iter()
        .filter(|s| s.experiment == "table1" && s.nodes == 16)
        .cloned()
        .collect();
    rows.extend(
        specs
            .iter()
            .find(|s| s.id() == "cluster/cluster-distributed-default/p64/syscall")
            .cloned(),
    );
    rows.extend(
        specs
            .iter()
            .find(|s| s.app == App::KvNodes && s.knobs.faults.crash.is_some())
            .cloned(),
    );
    for app in [App::MicroLatency, App::MicroBulk, App::MicroSendOverhead] {
        rows.extend(specs.iter().find(|s| s.app == app).cloned());
    }
    let launch_rows = specs.iter().filter(|s| {
        (s.experiment == "cluster" && s.nodes == 16)
            || (s.experiment == "chaos-cluster" && s.knobs.faults.crash.is_some())
    });
    for spec in launch_rows {
        for shards in [1, 2] {
            rows.push(spec.clone().with_shards(Shards::Fixed(shards)));
        }
    }
    for spec in &specs {
        assert!(
            rows.iter().any(|r| r.app == spec.app),
            "no row covers {:?}",
            spec.app
        );
    }
    rows
}

#[test]
fn finished_runs_return_their_memory() {
    let rows = rows();
    assert_eq!(rows.len(), 19, "row selection changed");
    let mut growth: Vec<(String, isize)> = Vec::with_capacity(rows.len());
    for spec in &rows {
        for _ in 0..2 {
            spec.execute();
        }
        let warm = LIVE.load(Ordering::Relaxed);
        for _ in 0..3 {
            spec.execute();
        }
        let grew = LIVE.load(Ordering::Relaxed) - warm;
        growth.push((spec.id(), grew));
    }
    let leaks: Vec<_> = growth.iter().filter(|(_, g)| *g > ALLOWANCE).collect();
    assert!(
        leaks.is_empty(),
        "runs kept memory after warm-up (bytes over three executions): {leaks:?}"
    );
}
