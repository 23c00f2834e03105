//! Cluster checkpoints: the versioned per-node state image a warm-start
//! run forks from.
//!
//! A checkpoint is captured at a **quiesce point** — the shard engine's
//! global drain barrier, after every node program of the warmup phase has
//! completed and no packet is in flight — so the image is a pure function
//! of the workload, byte-identical at every shard count. It stores, per
//! node: the allocated physical memory pages, the page and proxy allocator
//! cursors, the NIC's packet sequence counter, and the full OPT/IPT table
//! images.
//!
//! Restore is **replay-verified**: a restored node re-runs its allocation
//! and export/import preamble (the node map is deterministic by
//! construction), then [`Cluster::restore_node`](crate::Cluster::restore_node)
//! checks the replayed allocator cursors and table images against the
//! captured ones before overwriting memory — a silent divergence between
//! the checkpoint's program and the resuming one fails loudly instead of
//! corrupting the run.
//!
//! Artifacts use the `shrimp_sim::snapshot` codec. Decoding checks the
//! memory image's shape — pages `1..next_phys_page`, in order, each
//! `PAGE_SIZE` bytes, exactly what capture writes — so an edited artifact
//! fails with [`SnapshotError::Corrupt`] before any run starts.

use shrimp_mem::PAGE_SIZE;
use shrimp_net::NodeId;
use shrimp_nic::{IptEntry, OptEntry};
use shrimp_sim::{SnapshotError, SnapshotReader, SnapshotWriter, Time};

/// Everything one node needs beyond its deterministic preamble: memory
/// image, allocator cursors, NIC sequence counter, and page-table images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeState {
    /// Global node id this state belongs to.
    pub node: usize,
    /// Every allocated physical page, `1..next_phys_page` in order, with
    /// its `PAGE_SIZE` bytes.
    pub pages: Vec<(u64, Vec<u8>)>,
    /// The memory allocator cursor (verified, not restored — the resuming
    /// preamble must replay the identical allocation sequence).
    pub next_phys_page: u64,
    /// The NIC's outgoing packet sequence counter (restored; it is the
    /// incarnation guard peers' dedup windows key on).
    pub nic_seq: u64,
    /// The proxy-index allocator cursor (verified like `next_phys_page`).
    pub next_proxy: u64,
    /// The full OPT image, sorted by index (verified).
    pub opt: Vec<(u64, OptEntry)>,
    /// The full IPT image, sorted by page (verified).
    pub ipt: Vec<(u64, IptEntry)>,
}

impl NodeState {
    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.node as u64);
        w.put_u64(self.pages.len() as u64);
        for (page, data) in &self.pages {
            w.put_u64(*page);
            w.put_bytes(data);
        }
        w.put_u64(self.next_phys_page);
        w.put_u64(self.nic_seq);
        w.put_u64(self.next_proxy);
        w.put_u64(self.opt.len() as u64);
        for (index, e) in &self.opt {
            w.put_u64(*index);
            w.put_u64(e.dst_node.0 as u64);
            w.put_u64(e.dst_page);
            w.put_bool(e.au_enable);
            w.put_bool(e.combine);
            w.put_bool(e.interrupt);
        }
        w.put_u64(self.ipt.len() as u64);
        for (page, e) in &self.ipt {
            w.put_u64(*page);
            w.put_bool(e.accept);
            w.put_bool(e.interrupt_enable);
            w.put_u32(e.buffer_id);
        }
    }

    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let node = r.get_u64()? as usize;
        let npages = r.get_len()?;
        let mut pages = Vec::with_capacity(npages);
        for want in 1..=npages as u64 {
            let page = r.get_u64()?;
            let data = r.get_bytes()?;
            if page != want {
                return Err(SnapshotError::Corrupt(
                    "checkpoint pages are not 1..next_phys_page in order",
                ));
            }
            if data.len() != PAGE_SIZE {
                return Err(SnapshotError::Corrupt(
                    "checkpoint page is not PAGE_SIZE bytes",
                ));
            }
            pages.push((page, data.to_vec()));
        }
        let next_phys_page = r.get_u64()?;
        if next_phys_page != npages as u64 + 1 {
            return Err(SnapshotError::Corrupt(
                "checkpoint page count disagrees with the page allocator cursor",
            ));
        }
        let nic_seq = r.get_u64()?;
        let next_proxy = r.get_u64()?;
        let nopt = r.get_len()?;
        let mut opt = Vec::with_capacity(nopt);
        for _ in 0..nopt {
            let index = r.get_u64()?;
            opt.push((
                index,
                OptEntry {
                    dst_node: NodeId(r.get_u64()? as usize),
                    dst_page: r.get_u64()?,
                    au_enable: r.get_bool()?,
                    combine: r.get_bool()?,
                    interrupt: r.get_bool()?,
                },
            ));
        }
        let nipt = r.get_len()?;
        let mut ipt = Vec::with_capacity(nipt);
        for _ in 0..nipt {
            let page = r.get_u64()?;
            ipt.push((
                page,
                IptEntry {
                    accept: r.get_bool()?,
                    interrupt_enable: r.get_bool()?,
                    buffer_id: r.get_u32()?,
                },
            ));
        }
        Ok(NodeState {
            node,
            pages,
            next_phys_page,
            nic_seq,
            next_proxy,
            opt,
            ipt,
        })
    }
}

/// Rewrites an IPT image's buffer ids to node-local ordinals (order of
/// first appearance over ascending pages). Raw `buffer_id`s index the
/// *shard-local* export directory, so they depend on how many nodes share
/// the shard; the ordinal form is shard-count-invariant while still
/// pinning which pages belong to the same buffer. Capture stores this
/// form, and restore canonicalizes the replayed image before comparing.
pub(crate) fn canonicalize_ipt(mut entries: Vec<(u64, IptEntry)>) -> Vec<(u64, IptEntry)> {
    let mut ordinals: Vec<u32> = Vec::new();
    for (_, e) in entries.iter_mut() {
        let ord = match ordinals.iter().position(|&id| id == e.buffer_id) {
            Some(i) => i as u32,
            None => {
                ordinals.push(e.buffer_id);
                ordinals.len() as u32 - 1
            }
        };
        e.buffer_id = ord;
    }
    entries
}

/// A whole machine's quiesce-point image plus the identity of the run that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterCheckpoint {
    /// The quiesce time the resuming run starts its clocks at.
    pub time: Time,
    /// Nodes in the checkpointed machine.
    pub total_nodes: usize,
    /// Opaque fingerprint of the producing workload (shape, seed, warmup
    /// depth). Restore refuses a checkpoint whose tag differs from the
    /// resuming run's expectation.
    pub tag: Vec<u8>,
    /// Per-node state, indexed by node id.
    pub nodes: Vec<NodeState>,
}

impl ClusterCheckpoint {
    /// Serializes the checkpoint into a versioned artifact.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.time);
        w.put_u64(self.total_nodes as u64);
        w.put_bytes(&self.tag);
        w.put_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            n.encode_into(&mut w);
        }
        w.finish()
    }

    /// Decodes an artifact produced by [`ClusterCheckpoint::encode`],
    /// validating the magic, version, and structure.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let time = r.get_u64()?;
        let total_nodes = r.get_u64()? as usize;
        let tag = r.get_bytes()?.to_vec();
        let n = r.get_len()?;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(NodeState::decode_from(&mut r)?);
        }
        if nodes.len() != total_nodes {
            return Err(SnapshotError::Corrupt(
                "checkpoint node count disagrees with its header",
            ));
        }
        for (i, st) in nodes.iter().enumerate() {
            if st.node != i {
                return Err(SnapshotError::Corrupt(
                    "checkpoint node states are not indexed by node id",
                ));
            }
        }
        r.finish()?;
        Ok(ClusterCheckpoint {
            time,
            total_nodes,
            tag,
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterCheckpoint {
        let node = |i: usize| NodeState {
            node: i,
            pages: vec![(1, vec![i as u8; PAGE_SIZE]), (2, vec![0xAA; PAGE_SIZE])],
            next_phys_page: 3,
            nic_seq: 5 + i as u64,
            next_proxy: shrimp_nic::tables::PROXY_INDEX_BASE + 3,
            opt: vec![(
                7,
                OptEntry {
                    dst_node: NodeId(1 - i),
                    dst_page: 9,
                    au_enable: false,
                    combine: true,
                    interrupt: i == 0,
                },
            )],
            ipt: vec![(
                0,
                IptEntry {
                    accept: true,
                    interrupt_enable: i == 1,
                    buffer_id: 0,
                },
            )],
        };
        ClusterCheckpoint {
            time: 123_456,
            total_nodes: 2,
            tag: b"tag".to_vec(),
            nodes: vec![node(0), node(1)],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let ck = sample();
        let bytes = ck.encode();
        let back = ClusterCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn rejects_header_disagreement_and_misindexed_nodes() {
        let mut ck = sample();
        ck.total_nodes = 3;
        assert!(matches!(
            ClusterCheckpoint::decode(&ck.encode()),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut ck = sample();
        ck.nodes.swap(0, 1);
        assert!(matches!(
            ClusterCheckpoint::decode(&ck.encode()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_page_lists_capture_never_writes() {
        let decodes_corrupt = |edit: fn(&mut NodeState)| {
            let mut ck = sample();
            edit(&mut ck.nodes[1]);
            matches!(
                ClusterCheckpoint::decode(&ck.encode()),
                Err(SnapshotError::Corrupt(_))
            )
        };
        assert!(
            decodes_corrupt(|n| n.pages[1].0 += 1_000),
            "page past the cursor"
        );
        assert!(decodes_corrupt(|n| n.pages[1].1.truncate(8)), "short page");
        assert!(decodes_corrupt(|n| n.pages.swap(0, 1)), "swapped order");
        assert!(decodes_corrupt(|n| drop(n.pages.pop())), "missing page");
    }

    #[test]
    fn rejects_truncated_artifacts() {
        let bytes = sample().encode();
        assert!(ClusterCheckpoint::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(ClusterCheckpoint::decode(&bytes[..12]).is_err());
    }
}
