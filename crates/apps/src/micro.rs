//! The §4.1–4.3 microbenchmarks: one-way transfer time of the two
//! transfer mechanisms, and the CPU-side overhead of initiating a send.
//!
//! Each runs on a two-node cluster and returns the measured time as the
//! [`RunOutcome`]'s `elapsed`; the checksum digests the bytes that landed
//! in the receiver's buffer. The cluster's configuration chooses the
//! variant: `nic.combining` for automatic update, `syscall_send` for the
//! send overhead.
//!
//! Paper numbers: deliberate-update latency ~6 us; automatic-update
//! single-word end-to-end latency 3.71 us; user-level DMA send overhead
//! under 2 us (vs a syscall-based send).

use shrimp_core::Cluster;
use shrimp_mem::{Vaddr, PAGE_SIZE};
use shrimp_sim::{TaskHandle, Time};

use crate::util::digest;
use crate::{Mechanism, RunOutcome};

/// Payload of the one-word latency runs.
pub const WORD_BYTES: usize = 4;

/// Payload of the bulk-transfer runs.
pub const BULK_BYTES: usize = 16 * 1024;

/// Message size of the send-overhead runs.
pub const SEND_BYTES: usize = 64;

fn page_round(b: usize) -> usize {
    b.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// One-way time for `bytes` from node 0 to node 1 under `mechanism`: from
/// time zero until the receiver, polling the buffer's trailing word, sees
/// the flag written after the payload.
pub fn run_latency(cluster: &Cluster, bytes: usize, mechanism: Mechanism) -> RunOutcome {
    let (elapsed, recv) = match mechanism {
        Mechanism::DeliberateUpdate => du_latency(cluster, bytes),
        Mechanism::AutomaticUpdate => au_latency(cluster, bytes),
    };
    outcome(cluster, elapsed, recv, bytes)
}

/// DU: the sender writes the payload and a trailing flag word, then
/// sends both with explicit transfers.
fn du_latency(cluster: &Cluster, bytes: usize) -> (Time, Vaddr) {
    let a = cluster.vmmc(0);
    let b = cluster.vmmc(1);
    let recv = b.space().alloc(page_round(bytes + 8) / PAGE_SIZE);
    let export = b.export(recv, page_round(bytes + 8));
    let proxy = a.import(export);
    let src = a.space().alloc(page_round(bytes + 8) / PAGE_SIZE);
    a.space().write_raw(src, &vec![0xA5u8; bytes]);
    a.space()
        .write_raw(src.add(page_round(bytes) as u64 - 8), &1u64.to_le_bytes());
    let ha = cluster.sim().spawn(async move {
        a.send(src, &proxy, 0, bytes).await;
        // Trailing flag in a separate word right after the payload (same
        // message when it fits the page).
        a.send(
            src.add(page_round(bytes) as u64 - 8),
            &proxy,
            page_round(bytes) - 8,
            8,
        )
        .await;
    });
    let flag = recv.add(page_round(bytes) as u64 - 8);
    (time_to_flag(cluster, ha, flag), recv)
}

/// AU: the sender stores the payload and the flag through an
/// automatic-update binding.
fn au_latency(cluster: &Cluster, bytes: usize) -> (Time, Vaddr) {
    let a = cluster.vmmc(0);
    let b = cluster.vmmc(1);
    let pages = page_round(bytes + 8) / PAGE_SIZE;
    let recv = b.space().alloc(pages);
    let export = b.export(recv, pages * PAGE_SIZE);
    let proxy = a.import(export);
    let img = a.space().alloc(pages);
    a.bind(img, &proxy, 0, pages * PAGE_SIZE, true, false);
    let ha = cluster.sim().spawn(async move {
        a.store(img, &vec![0x5Au8; bytes]).await;
        a.store_u64(img.add((pages * PAGE_SIZE) as u64 - 8), 1)
            .await;
        a.flush_au();
    });
    let flag = recv.add((pages * PAGE_SIZE) as u64 - 8);
    (time_to_flag(cluster, ha, flag), recv)
}

/// Runs `sender` to completion beside a node-1 receiver polling `flag`;
/// returns the instant the receiver saw the flag set.
fn time_to_flag(cluster: &Cluster, sender: TaskHandle<()>, flag: Vaddr) -> Time {
    let b = cluster.vmmc(1);
    let receiver = cluster.sim().spawn(async move {
        b.poll_u64(flag, |v| v != 0).await;
        b.sim().now()
    });
    cluster.run_until_complete(vec![sender]);
    receiver.try_take().expect("receiver never saw the flag")
}

/// CPU-side overhead of a `bytes` deliberate-update send: the time until
/// `send_async` returns control to the sender.
pub fn run_send_overhead(cluster: &Cluster, bytes: usize) -> RunOutcome {
    let a = cluster.vmmc(0);
    let b = cluster.vmmc(1);
    let recv = b.space().alloc(1);
    let export = b.export(recv, PAGE_SIZE);
    let proxy = a.import(export);
    let src: Vaddr = a.space().alloc(1);
    let h = cluster.sim().spawn(async move {
        let t0 = a.sim().now();
        let _ticket = a.send_async(src, &proxy, 0, bytes).await;
        a.sim().now() - t0
    });
    cluster.run_until_complete::<()>(vec![]);
    let elapsed = h.try_take().expect("send did not complete");
    outcome(cluster, elapsed, recv, bytes)
}

fn outcome(cluster: &Cluster, elapsed: Time, recv: Vaddr, bytes: usize) -> RunOutcome {
    let mut landed = vec![0u8; bytes];
    cluster.vmmc(1).space().read(recv, &mut landed);
    RunOutcome::collect(cluster, elapsed, digest(&landed))
}
