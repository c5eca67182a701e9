//! Serialized extent tables for incremental (delta) checkpoint slots.
//!
//! A delta checkpoint persists only the byte ranges that changed since its
//! base checkpoint. The slot payload is laid out as
//! `[extent table][packed extent bytes]`: the table comes first so
//! recovery can decode it from the payload prefix without knowing the
//! dirty geometry in advance, and the extent bytes follow back to back in
//! table order. Each [`ExtentRecord`] names the range's offset/length in
//! the *full* state and carries an FNV-1a digest of its packed bytes;
//! the table header records the full state's length and digest so chained
//! recovery can verify the reconstructed state end to end.
//!
//! The table is self-checking: a trailing FNV-1a checksum covers the
//! header and every record, so a torn table write is detected before any
//! extent is trusted.

use crate::error::DeviceError;
use crate::Result;

/// Table magic: ASCII `XTB1` (little-endian `u32`).
pub const EXTENT_TABLE_MAGIC: u32 = u32::from_le_bytes(*b"XTB1");

/// Encoded table header size: magic, count, `full_len`, `full_digest`.
pub const EXTENT_TABLE_HEADER: usize = 24;

/// Encoded size of one [`ExtentRecord`].
pub const EXTENT_RECORD_SIZE: usize = 24;

// Canonical digest implementations live in `pccheck_util::fnv`; re-export
// them here so the historical `pccheck_device::{FNV_SEED, fnv1a, ...}`
// import paths keep working for every downstream crate.
pub use pccheck_util::fnv::{chunk_digest, fnv1a, fnv1a_fold, FNV_SEED};

/// One dirty range of the full state, with a digest of its packed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentRecord {
    /// Byte offset of the range in the full serialized state.
    pub offset: u64,
    /// Length of the range in bytes.
    pub len: u64,
    /// FNV-1a digest of the range's packed bytes.
    pub digest: u64,
}

/// The extent table at the head of a delta slot's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentTable {
    /// Length of the full state this delta applies to.
    pub full_len: u64,
    /// `StateDigest` of the full state *after* this delta is applied.
    pub full_digest: u64,
    /// The dirty ranges, in ascending offset order; their packed bytes
    /// follow the table back to back in this order.
    pub extents: Vec<ExtentRecord>,
}

impl ExtentTable {
    /// Encoded size of a table holding `count` extents.
    pub fn encoded_len_for(count: usize) -> u64 {
        (EXTENT_TABLE_HEADER + count * EXTENT_RECORD_SIZE + 8) as u64
    }

    /// Encoded size of this table.
    pub fn encoded_len(&self) -> u64 {
        Self::encoded_len_for(self.extents.len())
    }

    /// Total packed extent bytes the table describes.
    pub fn dirty_bytes(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Serializes the table: header, records, trailing FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&EXTENT_TABLE_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.extents.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.full_len.to_le_bytes());
        out.extend_from_slice(&self.full_digest.to_le_bytes());
        for e in &self.extents {
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.digest.to_le_bytes());
        }
        let crc = fnv1a(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a table from the head of `buf` (extra trailing bytes — the
    /// packed extents — are ignored).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CorruptExtentTable`] on a bad magic, an
    /// impossible count, or a checksum mismatch (torn write).
    pub fn decode(buf: &[u8]) -> Result<ExtentTable> {
        if buf.len() < EXTENT_TABLE_HEADER + 8 {
            return Err(DeviceError::CorruptExtentTable);
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        if magic != EXTENT_TABLE_MAGIC {
            return Err(DeviceError::CorruptExtentTable);
        }
        let count = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
        let table_len = Self::encoded_len_for(count) as usize;
        if table_len > buf.len() {
            return Err(DeviceError::CorruptExtentTable);
        }
        let crc_off = table_len - 8;
        let stored = u64::from_le_bytes(buf[crc_off..table_len].try_into().expect("8 bytes"));
        if fnv1a(&buf[..crc_off]) != stored {
            return Err(DeviceError::CorruptExtentTable);
        }
        let full_len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let full_digest = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        let mut extents = Vec::with_capacity(count);
        let mut off = EXTENT_TABLE_HEADER;
        for _ in 0..count {
            extents.push(ExtentRecord {
                offset: u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes")),
                len: u64::from_le_bytes(buf[off + 8..off + 16].try_into().expect("8 bytes")),
                digest: u64::from_le_bytes(buf[off + 16..off + 24].try_into().expect("8 bytes")),
            });
            off += EXTENT_RECORD_SIZE;
        }
        Ok(ExtentTable {
            full_len,
            full_digest,
            extents,
        })
    }

    /// Decodes the table at the head of a delta slot's `payload` and binds
    /// it to its commit: `None` unless it decodes and the FNV-1a of the
    /// serialized table equals the commit's `digest`.
    pub fn decode_bound(payload: &[u8], digest: u64) -> Option<ExtentTable> {
        let table = ExtentTable::decode(payload).ok()?;
        let table_len = usize::try_from(table.encoded_len()).ok()?;
        (fnv1a(payload.get(..table_len)?) == digest).then_some(table)
    }

    /// Patches `state` with this delta's packed extents, read from the
    /// slot `payload` the table heads, checking every extent against its
    /// digest. `None` — with `state` possibly half patched — when `state`
    /// is not `full_len` bytes, the payload is short, an extent falls
    /// outside the state, or a digest does not match.
    pub fn apply(&self, payload: &[u8], state: &mut [u8]) -> Option<()> {
        if state.len() as u64 != self.full_len {
            return None;
        }
        let mut src = usize::try_from(self.encoded_len()).ok()?;
        for rec in &self.extents {
            let len = usize::try_from(rec.len).ok()?;
            let packed = payload.get(src..src.checked_add(len)?)?;
            if fnv1a(packed) != rec.digest {
                return None;
            }
            let dst = usize::try_from(rec.offset).ok()?;
            state
                .get_mut(dst..dst.checked_add(len)?)?
                .copy_from_slice(packed);
            src += len;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExtentTable {
        ExtentTable {
            full_len: 4096,
            full_digest: 0xdead_beef_cafe_f00d,
            extents: vec![
                ExtentRecord {
                    offset: 0,
                    len: 100,
                    digest: 7,
                },
                ExtentRecord {
                    offset: 1000,
                    len: 24,
                    digest: 9,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample();
        let buf = t.encode();
        assert_eq!(buf.len() as u64, t.encoded_len());
        assert_eq!(ExtentTable::decode(&buf).unwrap(), t);
    }

    #[test]
    fn decode_ignores_trailing_extent_bytes() {
        let t = sample();
        let mut buf = t.encode();
        buf.extend_from_slice(&[0xAB; 124]); // the packed extents
        assert_eq!(ExtentTable::decode(&buf).unwrap(), t);
    }

    #[test]
    fn empty_table_round_trips() {
        let t = ExtentTable {
            full_len: 0,
            full_digest: 0,
            extents: Vec::new(),
        };
        assert_eq!(ExtentTable::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut buf = sample().encode();
        buf[0] ^= 0xFF;
        assert_eq!(
            ExtentTable::decode(&buf),
            Err(DeviceError::CorruptExtentTable)
        );
    }

    #[test]
    fn decode_rejects_any_single_bitflip() {
        let good = sample().encode();
        for pos in 0..good.len() {
            let mut buf = good.clone();
            buf[pos] ^= 0x10;
            assert!(
                ExtentTable::decode(&buf).is_err(),
                "bitflip at {pos} not detected"
            );
        }
    }

    #[test]
    fn decode_rejects_impossible_count() {
        let mut buf = sample().encode();
        buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ExtentTable::decode(&buf),
            Err(DeviceError::CorruptExtentTable)
        );
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert_eq!(
            ExtentTable::decode(&[0u8; 8]),
            Err(DeviceError::CorruptExtentTable)
        );
    }

    #[test]
    fn apply_patches_only_verified_extents() {
        let full = vec![7u8; 64];
        let mut patched = full.clone();
        patched[8..16].copy_from_slice(&[1u8; 8]);
        let table = ExtentTable {
            full_len: 64,
            full_digest: 0,
            extents: vec![ExtentRecord {
                offset: 8,
                len: 8,
                digest: fnv1a(&[1u8; 8]),
            }],
        };
        let mut payload = table.encode();
        let digest = fnv1a(&payload);
        payload.extend_from_slice(&[1u8; 8]);
        assert_eq!(
            ExtentTable::decode_bound(&payload, digest),
            Some(table.clone())
        );
        assert!(ExtentTable::decode_bound(&payload, digest ^ 1).is_none());
        let mut state = full.clone();
        assert_eq!(table.apply(&payload, &mut state), Some(()));
        assert_eq!(state, patched);
        // A flipped packed byte, a short payload, or a state of another
        // length is refused.
        let mut torn = payload.clone();
        *torn.last_mut().unwrap() ^= 1;
        assert!(table.apply(&torn, &mut full.clone()).is_none());
        assert!(table
            .apply(&payload[..payload.len() - 1], &mut full.clone())
            .is_none());
        assert!(table.apply(&payload, &mut [7u8; 63]).is_none());
    }

    #[test]
    fn dirty_bytes_sums_extent_lengths() {
        assert_eq!(sample().dirty_bytes(), 124);
        assert_eq!(sample().encoded_len(), 24 + 2 * 24 + 8);
    }

    #[test]
    fn fnv_matches_meta_checksum_convention() {
        // Same seed/prime as `pccheck::meta::checksum` — delta payload
        // digests computed here must verify over there.
        assert_eq!(fnv1a(&[]), FNV_SEED);
        assert_eq!(fnv1a_fold(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
    }
}
