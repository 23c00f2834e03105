//! Simulated memory costs only what a run writes.
//!
//! A node's physical page keeps no bytes until the first write that is not
//! all zeros, so mapping and reading pages that are never written must not
//! allocate their 4 KiB each. This binary counts live heap bytes with its
//! own global allocator and runs one single `#[test]`, so no concurrent
//! test moves the counter.
//!
//! ```text
//! cargo test --release --offline -p shrimp-mem --test frames_cost
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use shrimp_mem::{NodeMem, Paddr, PAGE_SIZE};

/// The system allocator, keeping a count of the bytes currently allocated.
struct Counting;

// Relaxed suffices: the count publishes no other data, and the test is
// single-threaded.
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

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const PAGE: isize = PAGE_SIZE as isize;

#[test]
fn pages_cost_heap_only_once_written() {
    const PAGES: u64 = 4096; // 16 MiB of simulated memory
    let mem = NodeMem::new();
    let start = live();

    let first = mem.alloc_pages(PAGES as usize);
    let mut buf = [0xEEu8; PAGE_SIZE];
    for p in first..first + PAGES {
        mem.read(Paddr::from_parts(p, 0), &mut buf);
        assert_eq!(
            buf, [0; PAGE_SIZE],
            "page {p} never written must read as zeros"
        );
    }
    let grown = live() - start;
    assert!(
        grown < 1 << 20,
        "mapping and reading {PAGES} unwritten pages kept {grown} live bytes"
    );

    let before = live();
    for i in 0..10 {
        mem.cpu_store(Paddr::from_parts(first + i * 97, 5), &[1]);
    }
    let added = live() - before;
    assert!(
        (10 * PAGE..11 * PAGE).contains(&added),
        "10 one-byte stores to 10 pages added {added} live bytes, not 10 pages' worth"
    );
}
