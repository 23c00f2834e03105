//! Versioned binary snapshot codec for deterministic checkpoint/restore.
//!
//! The workspace's one checkpoint artifact, the cluster-level warm-start
//! checkpoint (`shrimp_core::checkpoint`), is framed by this module, and so
//! is the warm-start tag it carries: an 8-byte magic (`SHRIMPCK`), a `u32`
//! format version, then a flat little-endian stream of primitive fields
//! written through [`SnapshotWriter`] and read back through
//! [`SnapshotReader`].
//!
//! The format is deliberately boring: fixed-width integers, `u64`
//! length-prefixed byte strings, no alignment, no compression. Byte
//! determinism is the contract — the same logical state must always encode
//! to the same bytes, so container iteration order is normalized by the
//! *callers* (heaps are serialized as sorted vectors, hash maps as sorted
//! entry lists) before anything reaches the writer. CI `cmp`s checkpoint
//! artifacts produced by independent runs, so any nondeterminism here is a
//! loud failure, not a latent one.
//!
//! Decoding is total: every reader method returns a typed
//! [`SnapshotError`] instead of panicking, and [`SnapshotReader::finish`]
//! rejects trailing garbage so a truncated or over-long artifact can never
//! be silently accepted.

use std::error::Error;
use std::fmt;

/// Magic bytes opening every snapshot artifact.
pub const MAGIC: [u8; 8] = *b"SHRIMPCK";

/// Current snapshot format version.
///
/// Bump this when the field layout of any serialized structure changes;
/// readers reject artifacts from other versions rather than guessing.
pub const VERSION: u32 = 1;

/// A decoding failure on the snapshot plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The artifact does not start with [`MAGIC`].
    BadMagic,
    /// The artifact's format version is not [`VERSION`].
    UnsupportedVersion(u32),
    /// The artifact ended before a field could be read.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes left in the artifact.
        remaining: usize,
    },
    /// A field decoded to a value that violates a structural invariant.
    Corrupt(&'static str),
    /// The checkpoint was produced by an incompatible run configuration.
    FingerprintMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot does not start with SHRIMPCK magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "snapshot truncated: field needs {needed} bytes, {remaining} remain"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::FingerprintMismatch => {
                write!(
                    f,
                    "checkpoint fingerprint does not match this run's configuration"
                )
            }
        }
    }
}

impl Error for SnapshotError {}

/// Appends primitive fields to a framed snapshot artifact.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a new artifact: magic plus format version.
    pub fn new() -> SnapshotWriter {
        let mut w = SnapshotWriter {
            buf: Vec::with_capacity(256),
        };
        w.buf.extend_from_slice(&MAGIC);
        w.put_u32(VERSION);
        w
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a byte string with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Finishes the artifact and returns its bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

/// Reads primitive fields back out of a framed snapshot artifact.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens an artifact, validating magic and format version.
    pub fn new(buf: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let mut r = SnapshotReader { buf, pos: 0 };
        let magic = r.take(MAGIC.len()).map_err(|_| SnapshotError::BadMagic)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                remaining,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any byte other than 0 or 1 is corrupt.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool byte outside {0, 1}")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` that must fit in `usize` and stay within the artifact
    /// (a cheap bound that rejects absurd length prefixes before any
    /// allocation).
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if v > remaining {
            return Err(SnapshotError::Corrupt(
                "length prefix exceeds artifact size",
            ));
        }
        Ok(v as usize)
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Asserts the whole artifact was consumed.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Corrupt("trailing bytes after final field"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_bytes(b"payload");
        w.put_str("name");
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_bytes().unwrap(), b"name");
        r.finish().unwrap();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert_eq!(
            SnapshotReader::new(b"NOTMAGIC____").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SnapshotReader::new(b"SHRI").unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut bytes = SnapshotWriter::new().finish();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SnapshotReader::new(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let mut w = SnapshotWriter::new();
        w.put_u64(42);
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            r.get_u64(),
            Err(SnapshotError::Truncated {
                needed: 8,
                remaining: 7
            })
        ));

        let r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.finish().unwrap_err(),
            SnapshotError::Corrupt("trailing bytes after final field")
        );
    }

    #[test]
    fn rejects_absurd_length_prefix() {
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX); // length prefix far beyond the artifact
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.get_bytes().unwrap_err(),
            SnapshotError::Corrupt("length prefix exceeds artifact size")
        );
    }

    #[test]
    fn rejects_non_bool_byte() {
        let mut w = SnapshotWriter::new();
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.get_bool().unwrap_err(),
            SnapshotError::Corrupt("bool byte outside {0, 1}")
        );
    }
}
