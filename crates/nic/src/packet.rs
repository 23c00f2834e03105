//! The on-wire packet format.

use shrimp_net::{Faultable, NodeId};
use shrimp_sim::Time;

/// How a packet was produced; drives per-kind statistics and the receiver's
/// handling (both data kinds take the same incoming-DMA path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Produced by the deliberate-update DMA engine.
    DeliberateUpdate,
    /// Produced by the automatic-update snoop/packetizing path.
    AutomaticUpdate,
    /// Reliability control: acknowledges receipt of the sequence number in
    /// the header. Carries no payload DMA.
    Ack,
    /// Reliability control: the sequenced packet named in the header arrived
    /// damaged; the sender should retransmit immediately.
    Nack,
}

impl PacketKind {
    /// `true` for the reliability control kinds (no payload DMA).
    pub fn is_control(&self) -> bool {
        matches!(self, PacketKind::Ack | PacketKind::Nack)
    }
}

/// The per-packet integrity check carried in the header: the payload length,
/// then the payload as 8-byte little-endian words (the tail zero-padded),
/// each folded in as `h = (h ^ w) * K`. With `K` odd every step is a
/// bijection of `h`, so any change confined to one word changes the result.
pub fn payload_checksum(data: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0xcbf2_9ce4_8422_2325 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")))
            .wrapping_mul(K);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(K);
    }
    h
}

/// A packet on the routing backplane.
///
/// Destination addressing is *physical* (destination page number + offset):
/// the sending OPT entry translated the mapping at import/bind time, so the
/// receiving NIC can DMA directly to memory with no software on the critical
/// path — the core idea of virtual memory-mapped communication.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Destination *physical* page number on the receiving node.
    pub dst_page: u64,
    /// Byte offset within the destination page.
    pub offset: usize,
    /// Payload bytes (real data; receivers check contents in tests).
    pub data: Vec<u8>,
    /// Sender's interrupt-request bit (header bit; for deliberate update it
    /// is set per transfer, for automatic update it comes from the OPT).
    pub interrupt: bool,
    /// Software header bit: the sender requested a user-level notification
    /// for this message (distinct from the hardware interrupt bit, which the
    /// interrupt-per-message experiment of Table 4 forces on).
    pub notify: bool,
    /// Producing mechanism.
    pub kind: PacketKind,
    /// Reliable-delivery sequence number; `0` marks the unsequenced fast
    /// path (no ack expected, no duplicate suppression).
    pub seq: u64,
    /// Header integrity check over `data` ([`payload_checksum`]); stale
    /// after in-flight corruption, which is how receivers detect damage.
    pub checksum: u64,
    /// Injection timestamp, for the receiver's detection-latency metric.
    pub sent_at: Time,
}

impl Packet {
    /// A sealed deliberate-update data packet with default header bits and
    /// physical destination 0 — the common case for engine-level drivers
    /// and tests that form packets directly rather than through a NIC
    /// engine.
    pub fn data(src: NodeId, dst: NodeId, data: Vec<u8>, sent_at: Time) -> Self {
        Packet {
            src,
            dst,
            dst_page: 0,
            offset: 0,
            data,
            interrupt: false,
            notify: false,
            kind: PacketKind::DeliberateUpdate,
            seq: 0,
            checksum: 0,
            sent_at,
        }
        .seal()
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for an (illegal) empty packet; the NIC never produces one.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Stamps the header checksum from the current payload.
    pub fn seal(mut self) -> Self {
        self.checksum = payload_checksum(&self.data);
        self
    }

    /// `true` if the payload still matches the header checksum.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == payload_checksum(&self.data)
    }
}

impl Faultable for Packet {
    /// In-flight bit error: flips one payload byte (chosen by `salt`),
    /// leaving the header checksum stale so ingress can detect it.
    fn corrupt(&mut self, salt: u64) {
        if self.data.is_empty() {
            self.checksum ^= salt | 1;
            return;
        }
        let idx = (salt as usize) % self.data.len();
        self.data[idx] ^= ((salt >> 32) as u8) | 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet() -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            dst_page: 7,
            offset: 16,
            data: vec![1, 2, 3],
            interrupt: false,
            notify: false,
            kind: PacketKind::DeliberateUpdate,
            seq: 0,
            checksum: 0,
            sent_at: 0,
        }
        .seal()
    }

    #[test]
    fn packet_len_reports_payload() {
        let p = packet();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn sealed_checksum_verifies_and_corruption_breaks_it() {
        let p = packet();
        assert!(p.checksum_ok());
        let mut damaged = p.clone();
        damaged.corrupt(0x1234_5678_9abc_def0);
        assert!(!damaged.checksum_ok(), "corruption went undetected");
        assert_eq!(damaged.len(), p.len(), "corruption must not resize");
    }

    #[test]
    fn control_kinds_are_control() {
        assert!(PacketKind::Ack.is_control());
        assert!(PacketKind::Nack.is_control());
        assert!(!PacketKind::DeliberateUpdate.is_control());
        assert!(!PacketKind::AutomaticUpdate.is_control());
    }
}
