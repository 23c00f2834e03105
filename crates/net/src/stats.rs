//! Aggregate network statistics.

use std::cell::Cell;

use shrimp_sim::{Category, CounterSet, Time};

/// Counters accumulated by a [`Network`](crate::Network) over a run.
#[derive(Debug, Default)]
pub struct NetStats {
    packets: Cell<u64>,
    /// Node-to-self sends, which loop back through the NIC and never enter
    /// the mesh (so `packets` leaves them out).
    loopback_packets: Cell<u64>,
    bytes: Cell<u64>,
    hops: Cell<u64>,
    /// Total time packets spent waiting for busy channels.
    contention_wait: Cell<Time>,
    /// Channel-busy time: serialization on every channel a packet holds
    /// (inject, each link, eject); the utilization numerator.
    link_busy: Cell<Time>,
}

impl NetStats {
    pub(crate) fn record_packet(&self, bytes: u64, hops: u64, waited: Time, serialization: Time) {
        self.packets.update(|c| c + 1);
        self.bytes.update(|c| c + bytes);
        self.hops.update(|c| c + hops);
        self.contention_wait.update(|c| c + waited);
        self.link_busy.update(|c| c + serialization * (hops + 2));
    }

    pub(crate) fn record_loopback(&self) {
        self.loopback_packets.update(|c| c + 1);
    }
}

impl CounterSet for NetStats {
    const CATEGORY: Category = Category::Net;

    fn for_each(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("packets", self.packets.get());
        f("loopback_packets", self.loopback_packets.get());
        f("wire_bytes", self.bytes.get());
        f("hops", self.hops.get());
        f("contention_wait_ps", self.contention_wait.get());
        f("link_busy_ps", self.link_busy.get());
    }
}
