//! Per-NIC event counters; the raw material for Table 3 and the
//! combining/FIFO studies.

use std::cell::Cell;

use shrimp_sim::{Category, CounterSet};

/// Counters maintained by one NIC.
#[derive(Debug, Default)]
pub struct NicCounters {
    /// Deliberate-update transfers completed by the DMA engine.
    pub du_transfers: Cell<u64>,
    /// Bytes moved by deliberate update.
    pub du_bytes: Cell<u64>,
    /// Snooped stores that hit an AU-enabled OPT entry.
    pub au_stores: Cell<u64>,
    /// Automatic-update packets launched.
    pub au_packets: Cell<u64>,
    /// Bytes moved by automatic update.
    pub au_bytes: Cell<u64>,
    /// Stores merged into an already-pending combined packet.
    pub au_combined_stores: Cell<u64>,
    /// Packets received and DMA'd to memory.
    pub packets_received: Cell<u64>,
    /// Acks and nacks received by a powered board (`packets_received`
    /// leaves them out).
    pub control_received: Cell<u64>,
    /// Packets dropped by the IPT protection check.
    pub protection_drops: Cell<u64>,
    /// Host interrupts raised by arriving packets (header bit AND IPT bit).
    pub interrupts_raised: Cell<u64>,
    /// Outgoing-FIFO threshold interrupts.
    pub fifo_threshold_interrupts: Cell<u64>,
    /// Packets whose payload failed the header checksum at ingress.
    pub corrupt_detected: Cell<u64>,
    /// Sequenced packets discarded as already-delivered duplicates.
    pub dup_suppressed: Cell<u64>,
    /// Acknowledgment packets generated.
    pub acks_sent: Cell<u64>,
    /// Negative acknowledgments generated (corrupt sequenced packet).
    pub nacks_sent: Cell<u64>,
    /// Summed wire time (picoseconds) from injection to corruption
    /// detection, over all detected-corrupt packets.
    pub detection_latency: Cell<u64>,
}

impl CounterSet for NicCounters {
    const CATEGORY: Category = Category::Nic;

    fn for_each(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("du_transfers", self.du_transfers.get());
        f("du_bytes", self.du_bytes.get());
        f("au_stores", self.au_stores.get());
        f("au_packets", self.au_packets.get());
        f("au_bytes", self.au_bytes.get());
        f("au_combined_stores", self.au_combined_stores.get());
        f("packets_received", self.packets_received.get());
        f("control_received", self.control_received.get());
        f("protection_drops", self.protection_drops.get());
        f("interrupts_raised", self.interrupts_raised.get());
        f(
            "fifo_threshold_interrupts",
            self.fifo_threshold_interrupts.get(),
        );
        f("corrupt_detected", self.corrupt_detected.get());
        f("dup_suppressed", self.dup_suppressed.get());
        f("acks_sent", self.acks_sent.get());
        f("nacks_sent", self.nacks_sent.get());
        f("detection_latency_ps", self.detection_latency.get());
    }
}
