//! Network-interface configuration: the hardware parameters and "firmware"
//! policy knobs the paper's experiments vary.

use shrimp_sim::{time, Time};

/// Hardware and firmware parameters of one SHRIMP network interface.
///
/// The defaults ([`NicConfig::shrimp_default`]) model the machine as built;
/// each §4 experiment flips exactly one field.
#[derive(Debug, Clone, PartialEq)]
pub struct NicConfig {
    /// EISA-bus DMA bandwidth (both DMA directions share the I/O bus).
    /// EISA burst transfers peak at ~33 MB/s; SHRIMP measured slightly less.
    pub eisa_bytes_per_sec: u64,
    /// Fixed setup charged by the DMA engines per transfer.
    pub dma_setup: Time,
    /// CPU-side cost of the two-instruction user-level DMA initiation
    /// sequence (§4.3 reports total send overhead under 2 us).
    pub udma_initiate: Time,
    /// Depth of the deliberate-update request queue. 1 models the machine as
    /// built (initiation blocks while the engine is busy); 2 is the §4.5.3
    /// queueing experiment.
    pub du_queue_depth: usize,
    /// Whether automatic-update combining is available (§4.5.1). Per-binding
    /// enablement lives in the OPT; this master switch models the firmware
    /// with combining removed.
    pub combining: bool,
    /// Combining flush timeout: a pending combined packet is launched this
    /// long after its first store even if stores keep arriving.
    pub combine_timeout: Time,
    /// Combining sub-page boundary: a combined packet never spans one.
    pub combine_subpage: usize,
    /// Outgoing FIFO capacity in bytes (as built: 4 K-deep, 8 bytes wide =
    /// 32 KB; the §4.5.2 experiment shrinks it to 1 KB).
    pub out_fifo_capacity: usize,
    /// Outgoing FIFO threshold at which the overflow interrupt is raised.
    pub out_fifo_threshold: usize,
    /// Delay between the threshold crossing and software de-scheduling AU
    /// writers (interrupt recognition latency).
    pub fifo_interrupt_latency: Time,
    /// Per-packet processing at the receiving NIC before the DMA to memory
    /// (header decode, IPT lookup, DMA arm).
    pub incoming_packet_overhead: Time,
    /// Table 4 firmware what-if: raise a host interrupt for every arriving
    /// packet whose header interrupt bit is set, regardless of the receiving
    /// page's IPT interrupt-enable bit.
    pub force_arrival_interrupts: bool,
    /// Fraction (0..=1) of a DMA transfer's duration stolen from the CPU,
    /// because the memory bus cannot cycle-share between the CPU and the
    /// NIC (§2.1); this is what nullifies the §4.5.3 queueing benefit.
    pub dma_cpu_stall_fraction: f64,
}

impl NicConfig {
    /// The network interface as built in 1994.
    pub fn shrimp_default() -> Self {
        NicConfig {
            eisa_bytes_per_sec: 30_000_000,
            dma_setup: time::ns(1500),
            udma_initiate: time::ns(800),
            du_queue_depth: 1,
            combining: true,
            combine_timeout: time::us(2),
            combine_subpage: 256,
            out_fifo_capacity: 32 * 1024,
            out_fifo_threshold: 16 * 1024,
            fifo_interrupt_latency: time::us(5),
            incoming_packet_overhead: time::ns(400),
            force_arrival_interrupts: false,
            dma_cpu_stall_fraction: 0.6,
        }
    }
}

impl Default for NicConfig {
    fn default() -> Self {
        Self::shrimp_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_machine_as_built() {
        let c = NicConfig::default();
        assert_eq!(c.out_fifo_capacity, 32 * 1024);
        assert_eq!(c.du_queue_depth, 1);
        assert!(c.combining);
        assert!(c.out_fifo_threshold < c.out_fifo_capacity);
    }
}
