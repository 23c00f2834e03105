//! Quickstart: bring up a two-node SHRIMP machine and use every VMMC
//! primitive once — export/import, deliberate update, an automatic-update
//! binding, polling, and a notification.
//!
//! Run with: `cargo run --release --example quickstart`

use shrimp::sim::{time, Category};
use shrimp::vmmc::{Cluster, DesignConfig};

fn main() {
    // A 2-node SHRIMP: PCs + NICs + the mesh backplane, as built.
    let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
    let sender = cluster.vmmc(0);
    let receiver = cluster.vmmc(1);

    // The receiver exports a one-page receive buffer (pins it, sets up the
    // incoming page table) and enables notifications on it.
    let buffer = receiver.space().alloc(1);
    let export = receiver.export(buffer, 4096);
    let notifications = receiver.enable_notifications(export);

    // The sender imports it, obtaining a proxy buffer whose outgoing page
    // table entries point at the remote physical pages.
    let proxy = sender.import(export);

    // --- Deliberate update: explicit user-level DMA ---------------------
    let src = sender.space().alloc(1);
    sender.space().write_raw(src, b"deliberate update says hi");
    let s = sender.clone();
    let p = proxy.clone();
    let send_task = cluster.sim().spawn(async move {
        let t0 = s.sim().now();
        s.send(src, &p, 0, 25).await;
        println!(
            "[sender]   deliberate update initiated and drained in {:.2} us",
            time::to_us(s.sim().now() - t0)
        );
        // A second send with a notification attached.
        s.send_notify(src, &p, 100, 25).await;
    });

    // --- Automatic update: stores propagate as a side effect ------------
    let bound = sender.space().alloc(1);
    sender.bind(bound, &proxy, 0, 4096, true, false);
    let s = sender.clone();
    let au_task = cluster.sim().spawn(async move {
        s.sim().sleep(time::ms(1)).await;
        let t0 = s.sim().now();
        s.store_u32(bound.add(2048), 0xBEEF).await;
        s.flush_au();
        println!(
            "[sender]   automatic-update store issued at t={:.2} us (cost {:.2} us)",
            time::to_us(t0),
            time::to_us(s.sim().now() - t0)
        );
    });

    // Receiver: take the notification, then poll for the AU word.
    let r = receiver.clone();
    let recv_task = cluster.sim().spawn(async move {
        let n = notifications
            .recv()
            .await
            .expect("notification queue closed");
        println!(
            "[receiver] notification: {} bytes at offset {} from {} at t={:.2} us",
            n.len,
            n.offset,
            n.src,
            time::to_us(r.sim().now())
        );
        let mut msg = [0u8; 25];
        r.read(buffer.add(100), &mut msg);
        println!(
            "[receiver] notified message: {:?}",
            std::str::from_utf8(&msg).unwrap()
        );
        let v = r.poll_u32(buffer.add(2048), |v| v != 0).await;
        println!(
            "[receiver] polled automatic-update word {v:#x} at t={:.2} us",
            time::to_us(r.sim().now())
        );
    });

    let (elapsed, _) = cluster.run_until_complete(vec![send_task, au_task, recv_task]);
    let counters = cluster.sim().metrics().snapshot();
    println!(
        "\nsimulated time: {:.2} us; messages sent: {}; notifications: {}",
        time::to_us(elapsed),
        counters.counter(Category::Core, "messages_sent"),
        counters.counter(Category::Core, "notifications"),
    );
}
