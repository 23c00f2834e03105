//! Recording a trace event allocates nothing.
//!
//! A trace event is a fixed-size `Copy` record, so the only heap traffic of
//! a traced run is the sink's own ring buffer growing to its bound. This
//! binary counts allocations with its own global allocator and runs one
//! single `#[test]`, so no concurrent test moves the counter.
//!
//! ```text
//! cargo test --release --offline -p shrimp-sim --test trace_alloc
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use shrimp_sim::{trace_event, Category, Sim, TraceEvent};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the count has no effect on them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CAPACITY: usize = 1_024;
const EVENTS: u64 = 10_000;

#[test]
fn recording_allocates_only_the_buffer() {
    assert!(std::mem::size_of::<TraceEvent>() <= 64);
    let sim = Sim::new();
    sim.trace().enable(Some(CAPACITY));
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..EVENTS {
        trace_event!(
            sim.trace(),
            i,
            Category::Nic,
            "au_packet",
            node = i % 16,
            len = 64,
            dst = 3,
            page = i,
            offset = 8,
            fifo = i % 4096,
        );
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    // The ring buffer doubles up to its bound: at most log2(1024) + 1 steps.
    let growth = CAPACITY.ilog2() as usize + 1;
    assert!(
        allocs <= growth,
        "{allocs} allocations for {EVENTS} events (buffer growth allows {growth})"
    );
    let events = sim.trace().take();
    assert_eq!(events.len(), CAPACITY);
    assert_eq!(sim.trace().dropped(), EVENTS - CAPACITY as u64);
    assert_eq!(events[0].field("page"), Some(EVENTS - CAPACITY as u64));
}
