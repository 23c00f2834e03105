//! The decoupled transport allocates nothing per packet.
//!
//! A sharded backplane hands every packet, local or cross-shard, to the
//! shard engine, which parks it in a slab behind a handler timer; the
//! backplane's own delivery handler queues it in the destination's reorder
//! heap, and each node's drain pops the heap straight into the ingress
//! queue. Once those buffers have grown to their peak, a packet costs no
//! allocation. This binary
//! counts allocations with its own global allocator and drives `N` paced
//! sends through `Network::sharded`, at one shard (every delivery local)
//! and at two (every delivery crosses shards): the allocations made after
//! warm-up must not grow with `N`. It runs one single `#[test]`, so no
//! concurrent test moves the counter.
//!
//! ```text
//! cargo test --release --offline -p shrimp-net --test decoupled_alloc
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use shrimp_net::{Flit, MeshConfig, Network, NodeId};
use shrimp_sim::{run_sharded, time, Builder, ShardConfig};

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

const NODES: usize = 16;

/// Sends after which the buffers have reached their peak.
const WARMUP: u64 = 500;

/// Runs `sends` packets from nodes 0–7 to nodes 8–15, one every 50 ns, on a
/// 16-node backplane split over `shards` shards (nodes 0–7 on shard 0), and
/// returns the allocations made from the `WARMUP`th send to the end of the
/// run.
fn allocs_after_warmup(shards: usize, sends: u64) -> usize {
    let shard_map: Vec<usize> = (0..NODES).map(|n| n * shards / NODES).collect();
    let builders: Vec<Builder<Flit<u64>, Option<usize>>> = (0..shards)
        .map(|_| {
            let shard_map = shard_map.clone();
            let b: Builder<Flit<u64>, Option<usize>> = Box::new(move |ctx| {
                let sim = ctx.sim().clone();
                let mesh = MeshConfig::for_nodes(NODES);
                let net =
                    Network::sharded(sim.clone(), mesh, NODES, shard_map.clone(), ctx.sender());
                for node in (8..NODES).filter(|&n| shard_map[n] == ctx.shard()) {
                    let ingress = net.ingress(NodeId(node));
                    sim.spawn(async move { while ingress.recv().await.is_some() {} });
                }
                let start = Rc::new(Cell::new(None));
                if ctx.shard() == 0 {
                    let start = start.clone();
                    let s = sim.clone();
                    sim.spawn(async move {
                        for i in 0..sends {
                            if i == WARMUP {
                                start.set(Some(ALLOCS.load(Ordering::Relaxed)));
                            }
                            let src = (i % 8) as usize;
                            let dst = 8 + (i as usize * 3) % 8;
                            net.send(NodeId(src), NodeId(dst), 64, i);
                            s.sleep(time::ns(50)).await;
                        }
                    });
                }
                Box::new(move || start.get())
            });
            b
        })
        .collect();
    let lookahead = MeshConfig::for_nodes(NODES).min_remote_latency();
    let out = run_sharded(&ShardConfig::new(shards, lookahead), builders);
    let end = ALLOCS.load(Ordering::Relaxed);
    let start = out.results[0].expect("the sender reached its warm-up mark");
    end - start
}

#[test]
fn decoupled_sends_allocate_nothing_per_packet() {
    for shards in [1, 2] {
        let short = allocs_after_warmup(shards, 2_000);
        let long = allocs_after_warmup(shards, 8_000);
        assert!(
            long <= short,
            "{shards} shard(s): {short} allocations after warm-up for 1,500 sends, \
             {long} for 7,500"
        );
    }
}
