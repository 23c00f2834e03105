//! The typed error taxonomy for delivery paths.

/// An error surfaced by the communication stack.
///
/// These replace the `panic!`/`assert!` calls that used to guard the
/// delivery paths of `vmmc`, `svm/system`, and `nic/engine`, so that a run
/// under fault injection reports a structured outcome instead of aborting
/// with an opaque message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShrimpError {
    /// A zero-length transfer was requested.
    EmptyTransfer,
    /// A transfer would run past the end of the destination buffer.
    BufferOverrun {
        /// Requested destination offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Destination buffer capacity.
        capacity: usize,
    },
    /// A single deliberate-update request crossed a destination page
    /// boundary (the VMMC library must split such sends).
    PageCrossing {
        /// Destination offset within the page.
        offset: usize,
        /// Requested length.
        len: usize,
    },
    /// A deliberate-update request named an OPT proxy index with no mapping.
    UnmappedProxy {
        /// The unmapped outgoing-page-table index.
        index: u64,
    },
    /// The reliable send path exhausted its retransmission budget.
    DeliveryFailed {
        /// Destination node index.
        dst: usize,
        /// Sequence number of the failed transfer.
        seq: u64,
        /// Total transmission attempts made (1 + retries).
        attempts: u32,
    },
    /// A protocol message failed to decode (unknown kind tag).
    CorruptMessage {
        /// Which decoder rejected the message (`"request"` / `"reply"`).
        context: &'static str,
        /// The unrecognized kind tag.
        kind: u64,
    },
    /// A protocol exchange returned a reply of the wrong variant.
    BadReply {
        /// The reply variant the caller needed.
        wanted: &'static str,
        /// Debug rendering of what actually arrived.
        got: String,
    },
    /// A fault scenario was combined with a fixed shard count larger than
    /// the node count, which the fault plane cannot partition.
    ShardOverflow {
        /// The fixed shard count requested.
        shards: usize,
        /// The cluster's node count.
        nodes: usize,
    },
}

impl std::fmt::Display for ShrimpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShrimpError::EmptyTransfer => write!(f, "zero-length transfer"),
            ShrimpError::BufferOverrun {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "transfer of {len} bytes at offset {offset} overruns buffer of {capacity} bytes"
            ),
            ShrimpError::PageCrossing { offset, len } => write!(
                f,
                "deliberate update of {len} bytes at page offset {offset} crosses destination page boundary"
            ),
            ShrimpError::UnmappedProxy { index } => {
                write!(f, "deliberate update names unmapped OPT proxy {index}")
            }
            ShrimpError::DeliveryFailed { dst, seq, attempts } => write!(
                f,
                "delivery of seq {seq} to node {dst} failed after {attempts} attempts"
            ),
            ShrimpError::CorruptMessage { context, kind } => {
                write!(f, "corrupt SVM {context}: unknown kind {kind}")
            }
            ShrimpError::BadReply { wanted, got } => {
                write!(f, "SVM protocol expected {wanted} reply, got {got}")
            }
            ShrimpError::ShardOverflow { shards, nodes } => write!(
                f,
                "fault scenarios cannot run on {shards} fixed shards with only {nodes} nodes; \
                 lower the shard count to at most the node count"
            ),
        }
    }
}

impl std::error::Error for ShrimpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_structured_and_specific() {
        let e = ShrimpError::DeliveryFailed {
            dst: 3,
            seq: 41,
            attempts: 13,
        };
        assert_eq!(
            e.to_string(),
            "delivery of seq 41 to node 3 failed after 13 attempts"
        );
        let e = ShrimpError::PageCrossing {
            offset: 4000,
            len: 200,
        };
        assert!(e.to_string().contains("crosses destination page boundary"));
    }
}
