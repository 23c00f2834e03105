//! Framed receive rings over VMMC — the building block of the NX and
//! stream-sockets libraries.
//!
//! A ring is a receive buffer exported by the consumer and imported by the
//! single producer. Frames carry a sequence number in both header and
//! trailer; because deliberate update delivers a message's chunks in
//! ascending offset order (and packets between one node pair stay in order
//! on the oblivious mesh), a matched trailer guarantees the whole frame has
//! landed — the polling receive discipline that lets these libraries avoid
//! receive interrupts entirely (§4.4).
//!
//! Flow control costs no messages: the consumer's read cursor is a word
//! bound for **automatic update** back to the producer, so credits return as
//! a side effect of a single store.

use std::cell::Cell;

use shrimp_mem::{Vaddr, PAGE_SIZE};

use crate::vmmc::{ExportId, ProxyBuffer, Vmmc};

/// Frame header bytes: `[seq-word u64][tag u32][len u32]`.
pub const FRAME_HDR: usize = 16;
/// Frame trailer bytes: `[seq-word u64]`.
pub const FRAME_TRL: usize = 8;

/// Header sequence words are the sequence number XORed with this magic, so
/// stale payload bytes recycled at a ring position (small integers are
/// common in payloads) cannot alias the next expected frame. The trailer
/// uses a different magic, so a header can never pass as a trailer.
const HDR_MAGIC: u64 = 0x5348_524D_5000_0000; // "SHRMP"
/// Trailer magic; see [`HDR_MAGIC`].
const TRL_MAGIC: u64 = 0xA5A5_5A5A_0000_0000;

/// Bulk data transfer mechanism for ring frames (the §4.2 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingBulk {
    /// User-level DMA deliberate-update transfers (the library default).
    #[default]
    Deliberate,
    /// Stores through an automatic-update binding covering the ring.
    Automatic,
}

/// A frame pulled from a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingFrame {
    /// Application tag (message type, stream flags, ...).
    pub tag: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// Pads a payload length to the 8-byte frame alignment.
pub fn pad8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

/// Ring bytes occupied by a frame with `len` payload bytes.
pub fn frame_len(len: usize) -> usize {
    FRAME_HDR + pad8(len) + FRAME_TRL
}

/// Producer end of a ring.
#[derive(Debug)]
pub struct RingSender {
    vm: Vmmc,
    proxy: ProxyBuffer,
    au_image: Option<Vaddr>,
    staging: Vaddr,
    capacity: usize,
    write_pos: Cell<u64>,
    peer_cursor: Vaddr,
    next_seq: Cell<u64>,
    bytes: Cell<u64>,
}

/// Consumer end of a ring.
#[derive(Debug)]
pub struct RingReceiver {
    vm: Vmmc,
    export: ExportId,
    ring: Vaddr,
    capacity: usize,
    read_pos: Cell<u64>,
    cursor_out: Vaddr,
    next_seq: Cell<u64>,
}

/// Builds a ring carrying frames from `producer` to `consumer`.
///
/// Performs the export/import/bind handshakes synchronously (start-up work
/// the paper does not measure).
///
/// # Panics
///
/// Panics unless `capacity` is a power-of-two multiple of the page size.
pub fn connect_ring(
    producer: &Vmmc,
    consumer: &Vmmc,
    capacity: usize,
    bulk: RingBulk,
) -> (RingSender, RingReceiver) {
    assert!(
        capacity.is_power_of_two() && capacity.is_multiple_of(PAGE_SIZE),
        "ring capacity must be a power-of-two multiple of the page size"
    );
    // Consumer side: the ring itself.
    let ring = consumer.space().alloc(capacity / PAGE_SIZE);
    let ring_export = consumer.export(ring, capacity);
    let ring_proxy = producer.import(ring_export);
    let _ = &ring_export;
    // Producer side: the cursor word the consumer writes back via AU.
    let cursor_page = producer.space().alloc(1);
    let cursor_export = producer.export(cursor_page, PAGE_SIZE);
    let cursor_proxy = consumer.import(cursor_export);
    let cursor_out = consumer.space().alloc(1);
    consumer.bind(cursor_out, &cursor_proxy, 0, PAGE_SIZE, false, false);
    // Optional AU image of the ring on the producer.
    let au_image = match bulk {
        RingBulk::Deliberate => None,
        RingBulk::Automatic => {
            let img = producer.space().alloc(capacity / PAGE_SIZE);
            producer.bind(img, &ring_proxy, 0, capacity, true, false);
            Some(img)
        }
    };
    let staging = producer.space().alloc(capacity / PAGE_SIZE);
    (
        RingSender {
            vm: producer.clone(),
            proxy: ring_proxy,
            au_image,
            staging,
            capacity,
            write_pos: Cell::new(0),
            peer_cursor: cursor_page,
            next_seq: Cell::new(1),
            bytes: Cell::new(0),
        },
        RingReceiver {
            vm: consumer.clone(),
            export: ring_export,
            ring,
            capacity,
            read_pos: Cell::new(0),
            cursor_out,
            next_seq: Cell::new(1),
        },
    )
}

impl RingSender {
    /// Largest payload a single frame may carry (frames are limited to half
    /// the ring so flow control can always make progress).
    pub fn max_payload(&self) -> usize {
        self.capacity / 2 - FRAME_HDR - FRAME_TRL
    }

    /// Payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.get()
    }

    /// Sends one frame, blocking on ring space. Charges the user-level
    /// staging copy (ordinary library path).
    pub async fn send_frame(&self, tag: u32, data: &[u8]) {
        self.send_inner(tag, data, true, false).await;
    }

    /// Sends one frame and requests a user-level notification at the
    /// consumer on arrival — the upcall style SVM protocol requests use
    /// (§4.4). The consumer must have enabled notifications on
    /// [`RingReceiver::export`].
    pub async fn send_frame_notify(&self, tag: u32, data: &[u8]) {
        self.send_inner(tag, data, true, true).await;
    }

    /// Sends one frame without the staging-copy charge — the sockets
    /// library's non-standard block-transfer extension (§3, DFS-sockets).
    pub async fn send_frame_zero_copy(&self, tag: u32, data: &[u8]) {
        self.send_inner(tag, data, false, false).await;
    }

    async fn send_inner(&self, tag: u32, data: &[u8], charge_copy: bool, notify: bool) {
        let fl = frame_len(data.len());
        assert!(
            fl <= self.capacity / 2,
            "frame of {} bytes exceeds half the {}-byte ring",
            data.len(),
            self.capacity
        );
        let cap = self.capacity as u64;
        // Flow control: watch the AU-propagated consumer cursor.
        let gate = self.vm.write_gate(self.peer_cursor);
        loop {
            let consumed = self.vm.read_u64(self.peer_cursor);
            if self.write_pos.get() + fl as u64 - consumed <= cap {
                break;
            }
            gate.wait().await;
        }

        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        self.bytes.set(self.bytes.get() + data.len() as u64);

        let mut frame = Vec::with_capacity(fl);
        frame.extend_from_slice(&(seq ^ HDR_MAGIC).to_le_bytes());
        frame.extend_from_slice(&tag.to_le_bytes());
        frame.extend_from_slice(&(data.len() as u32).to_le_bytes());
        frame.extend_from_slice(data);
        frame.resize(FRAME_HDR + pad8(data.len()), 0);
        frame.extend_from_slice(&(seq ^ TRL_MAGIC).to_le_bytes());

        let pos = (self.write_pos.get() % cap) as usize;
        self.write_pos.set(self.write_pos.get() + fl as u64);

        match self.au_image {
            None => {
                if charge_copy {
                    self.vm.local_copy(fl).await;
                }
                self.vm.space().write_raw(self.staging, &frame);
                let first = fl.min(self.capacity - pos);
                if first < fl {
                    self.vm.send(self.staging, &self.proxy, pos, first).await;
                    if notify {
                        self.vm
                            .send_notify(self.staging.add(first as u64), &self.proxy, 0, fl - first)
                            .await;
                    } else {
                        self.vm
                            .send(self.staging.add(first as u64), &self.proxy, 0, fl - first)
                            .await;
                    }
                } else if notify {
                    self.vm
                        .send_notify(self.staging, &self.proxy, pos, first)
                        .await;
                } else {
                    self.vm.send(self.staging, &self.proxy, pos, first).await;
                }
            }
            Some(img) => {
                assert!(!notify, "AU bulk frames cannot request notifications");
                let first = fl.min(self.capacity - pos);
                self.vm.store(img.add(pos as u64), &frame[..first]).await;
                if first < fl {
                    self.vm.store(img, &frame[first..]).await;
                }
                self.vm.flush_au();
            }
        }
    }
}

impl RingReceiver {
    /// The ring's export id, for enabling arrival notifications.
    pub fn export(&self) -> ExportId {
        self.export
    }

    fn at(&self, off: usize) -> Vaddr {
        self.ring.add((off % self.capacity) as u64)
    }

    /// Non-blocking: pulls the head frame if it has fully arrived. The
    /// caller must [`RingReceiver::ack`] (possibly batched) to return
    /// credits.
    pub fn try_recv(&self) -> Option<RingFrame> {
        let pos = (self.read_pos.get() % self.capacity as u64) as usize;
        let seq = self.next_seq.get();
        if self.vm.read_u64(self.at(pos)) != seq ^ HDR_MAGIC {
            return None;
        }
        let mut w = [0u8; 8];
        self.vm.read(self.at(pos + 8), &mut w);
        let tag = u32::from_le_bytes(w[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(w[4..8].try_into().unwrap()) as usize;
        let fl = frame_len(len);
        // The header word and the tag/len word may arrive in different
        // deliberate-update chunks (a destination page boundary can fall
        // between them), so `len` may not be valid yet. An implausible
        // length, or a trailer that does not carry this sequence number's
        // magic, both mean "frame not fully here" — stale trailer bytes can
        // never alias, because sequence numbers are never reused and the
        // trailer magic differs from the header magic.
        if fl > self.capacity / 2 {
            return None;
        }
        if self.vm.read_u64(self.at(pos + fl - FRAME_TRL)) != seq ^ TRL_MAGIC {
            return None; // payload still in flight
        }
        let mut data = vec![0u8; len];
        let start = (pos + FRAME_HDR) % self.capacity;
        let first = len.min(self.capacity - start);
        self.vm.read(self.at(start), &mut data[..first]);
        if first < len {
            self.vm.read(self.ring, &mut data[first..]);
        }
        self.read_pos.set(self.read_pos.get() + fl as u64);
        self.next_seq.set(seq + 1);
        Some(RingFrame { tag, data })
    }

    /// Returns the read cursor to the producer (one AU store).
    pub async fn ack(&self) {
        self.vm
            .store_u64(self.cursor_out, self.read_pos.get())
            .await;
        self.vm.flush_au();
    }

    /// Blocking receive of the next frame; acks automatically.
    pub async fn recv(&self) -> RingFrame {
        let gate = self.vm.any_write_gate();
        loop {
            if let Some(f) = self.try_recv() {
                self.ack().await;
                return f;
            }
            gate.wait().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, DesignConfig};

    fn pair(bulk: RingBulk, capacity: usize) -> (Cluster, RingSender, RingReceiver) {
        let cluster = Cluster::builder(2).config(DesignConfig::default()).build();
        let a = cluster.vmmc(0);
        let b = cluster.vmmc(1);
        let (tx, rx) = connect_ring(&a, &b, capacity, bulk);
        (cluster, tx, rx)
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let (cluster, tx, rx) = pair(RingBulk::Deliberate, 8192);
        let h = cluster.sim().spawn(async move {
            for i in 0..20u32 {
                tx.send_frame(i, &vec![i as u8; (i * 37 % 300) as usize + 1])
                    .await;
            }
        });
        let hr = cluster.sim().spawn(async move {
            let mut tags = Vec::new();
            for _ in 0..20 {
                let f = rx.recv().await;
                assert_eq!(f.data, vec![f.tag as u8; f.data.len()]);
                tags.push(f.tag);
            }
            tags
        });
        cluster.run_until_complete(vec![h]);
        assert_eq!(hr.try_take().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn wrapping_frames_preserved() {
        let (cluster, tx, rx) = pair(RingBulk::Deliberate, 4096);
        let h = cluster.sim().spawn(async move {
            for i in 0..30u32 {
                // 1000-byte frames in a 4096 ring: wraps repeatedly.
                let payload: Vec<u8> = (0..1000).map(|j| ((i as usize + j) % 256) as u8).collect();
                tx.send_frame(i, &payload).await;
            }
        });
        let hr = cluster.sim().spawn(async move {
            for i in 0..30u32 {
                let f = rx.recv().await;
                assert_eq!(f.tag, i);
                let expect: Vec<u8> = (0..1000).map(|j| ((i as usize + j) % 256) as u8).collect();
                assert_eq!(f.data, expect);
            }
            true
        });
        cluster.run_until_complete(vec![h]);
        assert_eq!(hr.try_take(), Some(true));
    }

    #[test]
    fn automatic_bulk_equivalent_data() {
        let (cluster, tx, rx) = pair(RingBulk::Automatic, 8192);
        let h = cluster.sim().spawn(async move {
            tx.send_frame(9, b"via automatic update").await;
        });
        let hr = cluster.sim().spawn(async move { rx.recv().await });
        cluster.run_until_complete(vec![h]);
        let f = hr.try_take().unwrap();
        assert_eq!(
            (f.tag, f.data.as_slice()),
            (9, b"via automatic update".as_slice())
        );
    }

    #[test]
    fn zero_copy_send_skips_copy_charge() {
        let run = |zero_copy: bool| {
            let (cluster, tx, rx) = pair(RingBulk::Deliberate, 65536);
            let h = cluster.sim().spawn(async move {
                let data = vec![1u8; 16384];
                for _ in 0..8 {
                    if zero_copy {
                        tx.send_frame_zero_copy(1, &data).await;
                    } else {
                        tx.send_frame(1, &data).await;
                    }
                }
            });
            let hr = cluster.sim().spawn(async move {
                for _ in 0..8 {
                    rx.recv().await;
                }
            });
            let (t, _) = cluster.run_until_complete(vec![h]);
            drop(hr); // receiver checked via run_until_complete
            t
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn header_split_across_page_boundary_is_safe() {
        // Position a frame so the destination page boundary falls between
        // its header word and its tag/len word: the header chunk arrives
        // first, and a receiver polling between the chunks must treat the
        // frame as not-yet-arrived (regression test for the stale-length
        // desync bug).
        let (cluster, tx, rx) = pair(RingBulk::Deliberate, 8192);
        let h = cluster.sim().spawn(async move {
            // First frame: frame_len = 24 + 4064 = 4088, so the second
            // frame's header starts at ring offset 4088 and its tag/len
            // word crosses the 4096 page boundary.
            let a: Vec<u8> = (0..4064u32).map(|i| (i % 251) as u8).collect();
            tx.send_frame(1, &a).await;
            let b: Vec<u8> = (0..100u32).map(|i| (i % 13) as u8).collect();
            tx.send_frame(2, &b).await;
        });
        let hr = cluster.sim().spawn(async move {
            // recv() polls on every incoming write, so it runs try_recv
            // between the split chunks' arrivals.
            let f1 = rx.recv().await;
            let f2 = rx.recv().await;
            (f1, f2)
        });
        cluster.run_until_complete(vec![h]);
        let (f1, f2) = hr.try_take().unwrap();
        assert_eq!(f1.tag, 1);
        assert_eq!(f1.data.len(), 4064);
        assert_eq!(f2.tag, 2);
        assert_eq!(
            f2.data,
            (0..100u32).map(|i| (i % 13) as u8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn frame_len_accounts_padding() {
        assert_eq!(frame_len(0), 24);
        assert_eq!(frame_len(1), 32);
        assert_eq!(frame_len(8), 32);
        assert_eq!(frame_len(9), 40);
    }
}
