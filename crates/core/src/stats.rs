//! Per-node software-level statistics — the raw numbers behind Tables 2–4.

use std::cell::Cell;

use shrimp_sim::{Category, CounterSet};

/// Counters maintained by one node's VMMC library and system software.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Messages sent (explicit VMMC transfers; the unit of Tables 2–4).
    pub messages_sent: Cell<u64>,
    /// Payload bytes sent by deliberate update.
    pub bytes_sent: Cell<u64>,
    /// System calls performed on the send path (Table 2 experiment).
    pub syscalls: Cell<u64>,
    /// Interrupts taken by system software.
    pub interrupts_taken: Cell<u64>,
    /// User-level notifications delivered (Table 3).
    pub notifications: Cell<u64>,
    /// Reliable-delivery retransmissions performed (chaos experiments).
    pub retransmits: Cell<u64>,
    /// Summed sim time (picoseconds) spent recovering chunks that needed at
    /// least one retransmission, from first injection to final ack — and,
    /// on the chaos-cluster path, from a peer's death declaration to the
    /// heartbeat that witnessed its rejoin.
    pub recovery_time: Cell<u64>,
    /// Summed sim time (picoseconds) from a peer's last heartbeat to this
    /// node's failure detector declaring it dead (chaos-cluster runs).
    pub detection_latency: Cell<u64>,
}

impl CounterSet for NodeStats {
    const CATEGORY: Category = Category::Core;

    fn for_each(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("messages_sent", self.messages_sent.get());
        f("bytes_sent", self.bytes_sent.get());
        f("syscalls", self.syscalls.get());
        f("interrupts_taken", self.interrupts_taken.get());
        f("notifications", self.notifications.get());
        f("retransmits", self.retransmits.get());
        f("recovery_time_ps", self.recovery_time.get());
        f("detection_latency_ps", self.detection_latency.get());
    }
}
