//! The slot format every committed checkpoint shares — a *frame log* —
//! and the persist-path codec that picks each record's kind:
//! entropy-gated LZ compression and content-addressed dedup.
//!
//! # Frame layout
//!
//! This module is the only one that knows where a frame's parts sit. A
//! slot's payload area holds the packed records, then the frame table:
//!
//! ```text
//! slot payload area (store.rs: slot_size + table room)
//! +--------------------------------------+  0
//! | packed records                       |  Raw/Lz bytes at their `a`
//! | (meta.payload_len bytes)             |  (physical) offsets
//! +--------------------------------------+  meta.payload_len
//! | frame table                          |  header, records, FNV CRC —
//! | (FrameTable::encoded_len)            |  written after the records
//! +--------------------------------------+
//! | unused table room                    |  sized by `frame_capacity`
//! +--------------------------------------+
//! ```
//!
//! The table is written *after* the records it describes and is bound to
//! its commit by the checkpoint counter; the commit record's digest is the
//! end-to-end digest of the reconstructed state. A frame is read back with
//! [`read_frame`], planned into [`RecordRead`]s with [`FrameTable::reads`],
//! and each read resolved and verified with [`RecordRead::resolve`] — the
//! one resolver both recovery and the forensic auditor call.
//!
//! Each [`FrameRecord`] describes one logical chunk, in logical order:
//!
//! - [`ChunkEncoding::Raw`] — stored verbatim at `a..a+b` of the slot's
//!   payload area (`b == logical_len`).
//! - [`ChunkEncoding::Lz`] — stored LZ-compressed (`b < logical_len`); see
//!   the block format below.
//! - [`ChunkEncoding::DedupSelf`] — byte-identical to an *earlier*
//!   materialized chunk of this same frame; stores only its index.
//! - [`ChunkEncoding::DedupBase`] — byte-identical to a materialized chunk
//!   of an earlier checkpoint on the chain of the commit's
//!   [`DeltaLink`](crate::DeltaLink); the store pins every slot on that
//!   chain, so the referenced bytes cannot be recycled while this
//!   checkpoint is live.
//!
//! A checkpoint persisted without the codec is an all-`Raw` frame whose
//! records sit at their logical offsets ([`RawFrame`]), so its packed
//! region *is* the state image. The codec only chooses record kinds; it
//! never changes the format.
//!
//! An incremental checkpoint is a frame too ([`plan_delta`]): the base's
//! untouched records are forwarded as `DedupBase` references to wherever
//! their bytes already live, and the records the dirty extents touch are
//! split at the extent boundaries and materialized. Every reference still
//! lands on a materialized record, in a checkpoint on the commit's
//! `DeltaLink` chain, which pins every slot on it.
//!
//! Every record carries the [`chunk_digest`] content address of its
//! logical bytes: restore verifies each record as it materializes, so a
//! stale or torn reference is detected (and the candidate discarded) —
//! never silently accepted.
//!
//! # LZ block format
//!
//! A dependency-free LZ77 byte stream in the LZ4 style: each sequence is
//! `token | literal-run | literals | offset(2B LE) | match-run`, where the
//! token's high nibble is the literal count and the low nibble the match
//! length minus [`MIN_MATCH`], both extended by 255-continuation bytes
//! when they saturate at 15. The final sequence is literals-only. Matches
//! reference a 64 KiB window. The compressor is greedy over a 4-byte
//! hash table — built for persist-path throughput, not ratio.
//!
//! # Entropy gate
//!
//! Compressing dense fp16/fp32 noise wastes CPU for zero gain, so
//! [`compress_gated`] first estimates Shannon entropy over a sampled 4 KiB
//! byte histogram and skips the compressor entirely above
//! [`ENTROPY_SKIP_BITS`] bits/byte. A compressed chunk is kept only when
//! it actually saves ≥ 1/16 of the logical bytes; otherwise the chunk
//! stays raw and restore never pays a decompress.
//!
//! # Dedup index lifetime
//!
//! The [`DedupIndex`] holds one *generation* per job: the content
//! addresses of the **materialized** (Raw/Lz) chunks of that job's latest
//! frame. Installing the next commit's generation evicts the
//! previous one wholesale, so a reference produced by a lookup is always
//! depth-≤1: it points at bytes physically present in the immediate base
//! checkpoint, never at a chain of references. Entries are capped per
//! generation; overflow chunks simply stay materialized.

use std::collections::HashMap;

use pccheck_util::fnv::{chunk_digest, fnv1a, fnv1a_fold, ChunkDigester, FNV_SEED};

use crate::meta::CheckMeta;

/// Frame table magic: ASCII `PCFRAME2` (little-endian `u64`).
pub const FRAME_MAGIC: u64 = u64::from_le_bytes(*b"PCFRAME2");

/// Encoded frame header size: magic, count, version, counter,
/// `logical_len`.
pub const FRAME_HEADER: usize = 32;

/// Encoded size of one [`FrameRecord`].
pub const FRAME_RECORD_SIZE: usize = 40;

/// Frame format version.
pub const FRAME_VERSION: u32 = 2;

/// A slot of `s` packed bytes has table room for `ceil(s / 4096)` records
/// (about 1% of the slot), and never fewer than [`MIN_FRAME_RECORDS`].
const RECORD_GRAIN: u64 = 4096;

/// Table capacity floor, so small slots cut into small chunks still get a
/// record per chunk.
const MIN_FRAME_RECORDS: usize = 64;

/// Record granularity of the frames the whole-buffer baselines write, and
/// the piece size of a whole-buffer delta
/// ([`CheckpointStore::write_delta_frame`](crate::CheckpointStore::write_delta_frame)).
pub const WHOLE_RECORD: u64 = 1 << 20;

/// Shortest match the LZ coder emits.
pub const MIN_MATCH: usize = 4;

/// LZ match window (2-byte offsets).
const MAX_OFFSET: usize = 65_535;

/// Sampled-entropy threshold (bits/byte) above which compression is
/// skipped outright: dense random bytes sit at ~8.0, text and sparse
/// tensors well below 7.
pub const ENTROPY_SKIP_BITS: f64 = 7.2;

/// A kept compressed chunk must save at least `logical/16` bytes.
const MIN_GAIN_SHIFT: u32 = 4;

/// Records a frame table may hold in a slot of `slot_size` packed bytes.
pub fn frame_capacity(slot_size: u64) -> usize {
    usize::try_from(slot_size.div_ceil(RECORD_GRAIN))
        .unwrap_or(usize::MAX)
        .max(MIN_FRAME_RECORDS)
}

/// Bytes a slot reserves after its packed region for a table of
/// `capacity` records.
pub fn table_room(capacity: usize) -> u64 {
    FrameTable::encoded_len_for(capacity)
}

/// How one logical chunk is stored in the frame's packed region (the
/// discriminant is the record's on-device kind word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ChunkEncoding {
    /// Verbatim bytes at `a..a+b`.
    Raw = 0,
    /// LZ-compressed bytes at `a..a+b`.
    Lz = 1,
    /// Byte-identical to an earlier materialized chunk of this frame.
    DedupSelf = 2,
    /// Byte-identical to a materialized chunk of an earlier checkpoint
    /// on the commit's `DeltaLink` chain.
    DedupBase = 3,
}

impl ChunkEncoding {
    fn from_u32(v: u32) -> Option<ChunkEncoding> {
        [
            ChunkEncoding::Raw,
            ChunkEncoding::Lz,
            ChunkEncoding::DedupSelf,
            ChunkEncoding::DedupBase,
        ]
        .get(usize::try_from(v).ok()?)
        .copied()
    }

    /// Whether the chunk's bytes are physically present in this frame.
    pub fn is_materialized(self) -> bool {
        matches!(self, ChunkEncoding::Raw | ChunkEncoding::Lz)
    }
}

/// One logical chunk's entry in a [`FrameTable`].
///
/// Field meaning depends on `kind`:
///
/// | kind       | `aux`             | `a`            | `b`                  |
/// |------------|-------------------|----------------|----------------------|
/// | Raw / Lz   | 0                 | phys offset    | phys len             |
/// | DedupSelf  | referenced index  | 0              | 0                    |
/// | DedupBase  | base slot         | base counter   | base logical offset  |
///
/// Physical offsets are relative to the start of the slot's payload area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecord {
    /// Storage class of this chunk.
    pub kind: ChunkEncoding,
    /// Kind-dependent 32-bit field (see table above).
    pub aux: u32,
    /// Length of the chunk's logical (uncompressed) bytes.
    pub logical_len: u64,
    /// Kind-dependent field (see table above).
    pub a: u64,
    /// Kind-dependent field (see table above).
    pub b: u64,
    /// [`chunk_digest`] content address of the logical bytes.
    pub digest: u64,
}

impl FrameRecord {
    /// A chunk of `logical_len` bytes stored (`Raw` or `Lz`) at
    /// `off..off+len` of the slot's payload area.
    pub fn stored(kind: ChunkEncoding, off: u64, len: u64, logical_len: u64, digest: u64) -> Self {
        debug_assert!(kind.is_materialized());
        FrameRecord {
            kind,
            aux: 0,
            logical_len,
            a: off,
            b: len,
            digest,
        }
    }

    /// A chunk that repeats materialized record `index` of the same frame.
    pub fn dedup_self(index: usize, logical_len: u64, digest: u64) -> Self {
        FrameRecord {
            kind: ChunkEncoding::DedupSelf,
            aux: index as u32,
            logical_len,
            a: 0,
            b: 0,
            digest,
        }
    }

    /// A chunk that repeats the materialized record of an earlier
    /// checkpoint that `hit` names.
    pub fn dedup_base(hit: DedupHit, logical_len: u64, digest: u64) -> Self {
        FrameRecord {
            kind: ChunkEncoding::DedupBase,
            aux: hit.slot,
            logical_len,
            a: hit.counter,
            b: hit.logical_off,
            digest,
        }
    }
}

/// The frame table after a slot's packed records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTable {
    /// Checkpoint counter this frame belongs to (binds table to commit).
    pub counter: u64,
    /// Total logical payload length the records reconstruct.
    pub logical_len: u64,
    /// Per-chunk records in logical order.
    pub records: Vec<FrameRecord>,
}

impl FrameTable {
    /// Encoded size of a table holding `count` records.
    pub fn encoded_len_for(count: usize) -> u64 {
        (FRAME_HEADER + count * FRAME_RECORD_SIZE + 8) as u64
    }

    /// Encoded size of this table.
    pub fn encoded_len(&self) -> u64 {
        Self::encoded_len_for(self.records.len())
    }

    /// Bytes of packed physical chunk data the records reference.
    pub fn packed_len(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind.is_materialized())
            .map(|r| r.a.saturating_add(r.b))
            .max()
            .unwrap_or(0)
    }

    /// Whether any record references an earlier checkpoint (the commit
    /// must then carry a `DeltaLink` whose chain pins it).
    pub fn references_base(&self) -> bool {
        self.records
            .iter()
            .any(|r| r.kind == ChunkEncoding::DedupBase)
    }

    /// Whether every record is stored verbatim — a frame the codec did
    /// not touch, which per-record content addresses verify completely.
    pub fn is_raw(&self) -> bool {
        self.records.iter().all(|r| r.kind == ChunkEncoding::Raw)
    }

    /// How many distinct earlier checkpoints the records reference.
    pub fn base_checkpoints(&self) -> usize {
        let mut bases: Vec<(u32, u64)> = self
            .records
            .iter()
            .filter(|r| r.kind == ChunkEncoding::DedupBase)
            .map(|r| (r.aux, r.a))
            .collect();
        bases.sort_unstable();
        bases.dedup();
        bases.len()
    }

    /// Serializes the table: header, records, trailing FNV-1a CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        out.extend_from_slice(&self.counter.to_le_bytes());
        out.extend_from_slice(&self.logical_len.to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&(r.kind as u32).to_le_bytes());
            out.extend_from_slice(&r.aux.to_le_bytes());
            out.extend_from_slice(&r.logical_len.to_le_bytes());
            out.extend_from_slice(&r.a.to_le_bytes());
            out.extend_from_slice(&r.b.to_le_bytes());
            out.extend_from_slice(&r.digest.to_le_bytes());
        }
        let crc = fnv1a(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Writes the encoded table where [`read_frame`] looks for it: right
    /// after `packed_len` bytes of records. `write(offset, bytes)` takes a
    /// payload-area offset. Returns the table's encoded length.
    ///
    /// # Errors
    ///
    /// Propagates `write`'s error.
    pub fn write_after<E>(
        &self,
        packed_len: u64,
        write: impl FnOnce(u64, &[u8]) -> Result<(), E>,
    ) -> Result<u64, E> {
        let bytes = self.encode();
        write(packed_len, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Decodes a table from the head of `buf` (trailing bytes are
    /// ignored). `None` on bad magic, impossible count, CRC mismatch, an
    /// unknown record kind, a self-reference that is not a backward
    /// pointer at a materialized chunk of equal length and digest, or
    /// records whose logical lengths do not sum to `logical_len` —
    /// callers fall back rather than trust a damaged frame.
    pub fn decode(buf: &[u8]) -> Option<FrameTable> {
        if buf.len() < FRAME_HEADER + 8 {
            return None;
        }
        let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
        if word(0) != FRAME_MAGIC || half(12) != FRAME_VERSION {
            return None;
        }
        let count = half(8) as usize;
        let table_len = usize::try_from(Self::encoded_len_for(count)).ok()?;
        if table_len > buf.len() {
            return None;
        }
        let crc_off = table_len - 8;
        if fnv1a(&buf[..crc_off]) != word(crc_off) {
            return None;
        }
        let counter = word(16);
        let logical_len = word(24);
        let mut records: Vec<FrameRecord> = Vec::with_capacity(count);
        let mut logical_sum = 0u64;
        for i in 0..count {
            let off = FRAME_HEADER + i * FRAME_RECORD_SIZE;
            let r = FrameRecord {
                kind: ChunkEncoding::from_u32(half(off))?,
                aux: half(off + 4),
                logical_len: word(off + 8),
                a: word(off + 16),
                b: word(off + 24),
                digest: word(off + 32),
            };
            if r.kind == ChunkEncoding::DedupSelf {
                let t = records.get(r.aux as usize)?;
                if !t.kind.is_materialized()
                    || t.logical_len != r.logical_len
                    || t.digest != r.digest
                {
                    return None;
                }
            }
            logical_sum = logical_sum.checked_add(r.logical_len)?;
            records.push(r);
        }
        (logical_sum == logical_len).then_some(FrameTable {
            counter,
            logical_len,
            records,
        })
    }

    /// Each record's logical offset, in record order.
    fn logical_offsets(&self) -> Vec<u64> {
        let mut off = 0u64;
        self.records
            .iter()
            .map(|r| {
                let at = off;
                off += r.logical_len;
                at
            })
            .collect()
    }

    /// Plans the reads that reconstruct this frame (stored in `slot`):
    /// one per materialized record — carrying the offsets of every
    /// `DedupSelf` record that copies it — plus one per distinct base
    /// record a `DedupBase` record names. `base(slot, counter)` returns the
    /// committed frame of the named base checkpoint (`None` when there is
    /// none); it is asked once per base.
    ///
    /// `None` when a base is missing, or a base reference does not land
    /// on a materialized base record of equal length and digest — a
    /// reference is depth-≤1 by construction, so anything else is forged
    /// or stale.
    pub fn reads(
        &self,
        slot: u32,
        base: &mut dyn FnMut(u32, u64) -> Option<FrameTable>,
    ) -> Option<Vec<RecordRead>> {
        let mut reads: Vec<RecordRead> = self
            .records
            .iter()
            .zip(self.logical_offsets())
            .filter(|(r, _)| r.kind.is_materialized())
            .map(|(r, off)| RecordRead {
                slot,
                kind: r.kind,
                phys_off: r.a,
                phys_len: r.b,
                len: r.logical_len,
                digest: r.digest,
                targets: vec![off],
            })
            .collect();
        let mut read_of_record = Vec::with_capacity(self.records.len());
        // A base frame with each record's logical offset.
        type Indexed = (FrameTable, Vec<u64>);
        let mut bases: HashMap<(u32, u64), Option<Indexed>> = HashMap::new();
        let mut base_reads: HashMap<(u32, u64, u64), usize> = HashMap::new();
        let mut materialized = 0usize;
        for (r, off) in self.records.iter().zip(self.logical_offsets()) {
            read_of_record.push(materialized);
            match r.kind {
                ChunkEncoding::Raw | ChunkEncoding::Lz => materialized += 1,
                // Decode checked the target is an earlier materialized
                // record with this length and digest.
                ChunkEncoding::DedupSelf => reads[read_of_record[r.aux as usize]].targets.push(off),
                ChunkEncoding::DedupBase => {
                    let key = (r.aux, r.a, r.b);
                    let at = match base_reads.get(&key) {
                        Some(&at) => at,
                        None => {
                            let (table, offsets) = bases
                                .entry((r.aux, r.a))
                                .or_insert_with(|| {
                                    base(r.aux, r.a).map(|t| {
                                        let offsets = t.logical_offsets();
                                        (t, offsets)
                                    })
                                })
                                .as_ref()?;
                            let src = &table.records[offsets.binary_search(&r.b).ok()?];
                            if !src.kind.is_materialized()
                                || src.logical_len != r.logical_len
                                || src.digest != r.digest
                            {
                                return None;
                            }
                            reads.push(RecordRead {
                                slot: r.aux,
                                kind: src.kind,
                                phys_off: src.a,
                                phys_len: src.b,
                                len: r.logical_len,
                                digest: r.digest,
                                targets: Vec::new(),
                            });
                            base_reads.insert(key, reads.len() - 1);
                            reads.len() - 1
                        }
                    };
                    reads[at].targets.push(off);
                }
            }
        }
        Some(reads)
    }
}

/// One record of a delta frame planned by [`plan_delta`], in logical
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaRecord {
    /// An untouched base record, forwarded as a reference to the bytes it
    /// already names.
    Forward(FrameRecord),
    /// This many touched bytes, to be copied from the snapshot and
    /// materialized.
    Copy(u64),
}

/// Plans the records of a delta frame over `base`, the bound frame of
/// checkpoint `base_counter` in `base_slot`, for a state whose bytes
/// changed only inside `dirty` (sorted, non-overlapping `(offset, len)`
/// ranges).
///
/// A base record no dirty range touches is forwarded without re-hashing:
/// a materialized record becomes a `DedupBase` reference to it, a
/// `DedupBase` is copied verbatim (it already names where its bytes
/// live), and a `DedupSelf` becomes a `DedupBase` at the base record it
/// repeats. A touched record is split at the dirty-extent boundaries into
/// pieces of at most `chunk` bytes, each to be copied and materialized.
/// Every forwarded reference lands on a materialized record of equal
/// length and digest, so [`FrameTable::reads`] resolves it in one hop.
pub fn plan_delta(
    base: &FrameTable,
    base_slot: u32,
    base_counter: u64,
    dirty: &[(u64, u64)],
    chunk: u64,
) -> Vec<DeltaRecord> {
    let chunk = chunk.max(1);
    let offsets = base.logical_offsets();
    let reference = |logical_off: u64, r: &FrameRecord| {
        let hit = DedupHit {
            counter: base_counter,
            slot: base_slot,
            logical_off,
        };
        DeltaRecord::Forward(FrameRecord::dedup_base(hit, r.logical_len, r.digest))
    };
    let mut out = Vec::with_capacity(base.records.len());
    let mut next = 0usize; // first dirty range not wholly before the record
    for (r, &start) in base.records.iter().zip(&offsets) {
        let end = start + r.logical_len;
        while dirty
            .get(next)
            .is_some_and(|&(off, len)| off + len <= start)
        {
            next += 1;
        }
        if dirty.get(next).is_none_or(|&(off, _)| off >= end) {
            out.push(match r.kind {
                ChunkEncoding::Raw | ChunkEncoding::Lz => reference(start, r),
                ChunkEncoding::DedupBase => DeltaRecord::Forward(*r),
                ChunkEncoding::DedupSelf => reference(offsets[r.aux as usize], r),
            });
            continue;
        }
        let mut cuts = vec![start];
        cuts.extend(
            dirty[next..]
                .iter()
                .take_while(|&&(off, _)| off < end)
                .flat_map(|&(off, len)| [off, off + len])
                .filter(|&at| start < at && at < end),
        );
        cuts.push(end);
        for piece in cuts.windows(2) {
            let mut at = piece[0];
            while at < piece[1] {
                let n = chunk.min(piece[1] - at);
                out.push(DeltaRecord::Copy(n));
                at += n;
            }
        }
    }
    out
}

/// Reads durable slot bytes for the frame resolver: `read(slot, offset,
/// buf)` fills `buf` from `offset` bytes into `slot`'s payload area and
/// returns `false` on a device fault.
pub type SlotRead<'a> = dyn FnMut(u32, u64, &mut [u8]) -> bool + 'a;

/// Reads the frame table of the committed checkpoint `meta` from right
/// after its packed records and binds it to the commit: `None` unless it
/// decodes (magic, CRC, record invariants), holds at most `capacity`
/// records, carries `meta`'s counter, and keeps every materialized record
/// inside the `meta.payload_len` packed bytes. A slot that holds no frame,
/// a torn table, or a stale table from an earlier checkpoint in the slot
/// all read as `None`.
pub fn read_frame(
    read: &mut SlotRead<'_>,
    meta: &CheckMeta,
    capacity: usize,
) -> Option<FrameTable> {
    let mut head = [0u8; FRAME_HEADER];
    if !read(meta.slot, meta.payload_len, &mut head) {
        return None;
    }
    let count = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes")) as usize;
    if u64::from_le_bytes(head[..8].try_into().expect("8 bytes")) != FRAME_MAGIC || count > capacity
    {
        return None;
    }
    let mut buf = vec![0u8; usize::try_from(FrameTable::encoded_len_for(count)).ok()?];
    buf[..FRAME_HEADER].copy_from_slice(&head);
    if !read(
        meta.slot,
        meta.payload_len + FRAME_HEADER as u64,
        &mut buf[FRAME_HEADER..],
    ) {
        return None;
    }
    let table = FrameTable::decode(&buf)?;
    (table.counter == meta.counter && table.packed_len() <= meta.payload_len).then_some(table)
}

/// One verified restore read: a materialized record's bytes — in this
/// frame's slot, or in the base checkpoint's for a base reference —
/// fetched once and delivered to every logical offset that holds them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordRead {
    /// Slot holding the stored bytes.
    pub slot: u32,
    /// `Raw` or `Lz`.
    pub kind: ChunkEncoding,
    /// Offset of the stored bytes in the slot's payload area.
    pub phys_off: u64,
    /// Stored length.
    pub phys_len: u64,
    /// Logical length.
    pub len: u64,
    /// Content address the logical bytes must match.
    pub digest: u64,
    /// Logical offsets (in the frame being restored) that hold these bytes.
    pub targets: Vec<u64>,
}

impl RecordRead {
    /// Reads the stored bytes (into `scratch` when they are `Lz`, and
    /// decompresses them), then checks the content address. On `true`,
    /// `buf` holds exactly the record's verified logical bytes. Both
    /// buffers keep their allocations across calls.
    pub fn resolve(
        &self,
        read: &mut SlotRead<'_>,
        scratch: &mut Vec<u8>,
        buf: &mut Vec<u8>,
    ) -> bool {
        let (Ok(phys), Ok(len)) = (usize::try_from(self.phys_len), usize::try_from(self.len))
        else {
            return false;
        };
        let lz = self.kind == ChunkEncoding::Lz;
        let stored = if lz { &mut *scratch } else { &mut *buf };
        stored.resize(phys, 0);
        if !read(self.slot, self.phys_off, stored)
            || (lz && lz_decompress_into(scratch, len, buf).is_none())
        {
            return false;
        }
        buf.len() == len && chunk_digest(buf) == self.digest
    }
}

/// Builds the table of an all-`Raw` frame whose records sit at their
/// logical offsets — what every checkpoint persisted without the codec
/// writes — digesting the bytes as they stream past in logical order.
#[derive(Debug)]
pub struct RawFrame {
    record_len: u64,
    total: u64,
    fed: u64,
    digester: ChunkDigester,
    records: Vec<FrameRecord>,
}

impl RawFrame {
    /// A frame of `total` logical bytes cut into records of the smallest
    /// multiple of `grain` that keeps the record count within `capacity`.
    pub fn new(total: u64, grain: u64, capacity: usize) -> RawFrame {
        let grain = grain.max(1);
        let record_len = grain
            * total
                .div_ceil(grain)
                .div_ceil(capacity.max(1) as u64)
                .max(1);
        RawFrame {
            record_len,
            total,
            fed: 0,
            digester: ChunkDigester::new(record_len.min(total)),
            records: Vec::new(),
        }
    }

    /// Folds the next `data` bytes of the state, in logical order.
    pub fn feed(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let start = self.records.len() as u64 * self.record_len;
            let end = (start + self.record_len).min(self.total);
            debug_assert!(self.fed < end, "fed past the frame's logical length");
            let take = usize::try_from(end - self.fed).map_or(data.len(), |t| t.min(data.len()));
            self.digester.update(&data[..take]);
            self.fed += take as u64;
            data = &data[take..];
            if self.fed == end {
                let next = ChunkDigester::new(self.record_len.min(self.total - end));
                let digest = std::mem::replace(&mut self.digester, next).finish();
                let len = end - start;
                self.records.push(FrameRecord::stored(
                    ChunkEncoding::Raw,
                    start,
                    len,
                    len,
                    digest,
                ));
            }
        }
    }

    /// The finished table, bound to checkpoint `counter`.
    pub fn finish(self, counter: u64) -> FrameTable {
        debug_assert_eq!(self.fed, self.total, "frame fed short of its length");
        FrameTable {
            counter,
            logical_len: self.total,
            records: self.records,
        }
    }
}

/// Estimates Shannon entropy (bits/byte) from an evenly strided sample of
/// at most 4 KiB.
pub fn entropy_estimate(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let stride = (data.len() / 4096).max(1);
    let mut hist = [0u32; 256];
    let mut n = 0u32;
    let mut i = 0;
    while i < data.len() {
        hist[data[i] as usize] += 1;
        n += 1;
        i += stride;
    }
    let n = f64::from(n);
    let mut bits = 0.0;
    for &c in &hist {
        if c > 0 {
            let p = f64::from(c) / n;
            bits -= p * p.log2();
        }
    }
    bits
}

/// Compresses `src`, or `None` when the result would not be worth keeping.
///
/// `None` means "store raw": the sampled entropy exceeded
/// [`ENTROPY_SKIP_BITS`], the input was shorter than a match, or the
/// compressed form failed the minimum-gain bar (≥ 1/16 smaller).
pub fn compress_gated(src: &[u8]) -> Option<Vec<u8>> {
    if src.len() < MIN_MATCH * 2 || entropy_estimate(src) > ENTROPY_SKIP_BITS {
        return None;
    }
    let limit = src.len() - (src.len() >> MIN_GAIN_SHIFT);
    lz_compress_limit(src, limit)
}

/// Greedy LZ compression of `src`; `None` when the output would reach
/// `limit` bytes (not worth keeping).
fn lz_compress_limit(src: &[u8], limit: usize) -> Option<Vec<u8>> {
    const HASH_BITS: u32 = 13;
    let mut table = [0usize; 1 << HASH_BITS]; // position + 1; 0 = empty
    let hash = |w: u32| -> usize { (w.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize };
    let word_at =
        |i: usize| -> u32 { u32::from_le_bytes(src[i..i + 4].try_into().expect("4-byte window")) };

    let mut out = Vec::with_capacity(limit.min(src.len()));
    let mut lit_start = 0usize;
    let mut i = 0usize;
    // Leave a 4-byte tail so `word_at` never reads past the end.
    let search_end = src.len().saturating_sub(MIN_MATCH);
    while i < search_end {
        let w = word_at(i);
        let h = hash(w);
        let cand = table[h];
        table[h] = i + 1;
        let matched = cand > 0 && {
            let c = cand - 1;
            i - c <= MAX_OFFSET && word_at(c) == w
        };
        if !matched {
            i += 1;
            continue;
        }
        let c = cand - 1;
        // Extend the match forward.
        let mut mlen = MIN_MATCH;
        while i + mlen < src.len() && src[c + mlen] == src[i + mlen] {
            mlen += 1;
        }
        emit_sequence(&mut out, &src[lit_start..i], (i - c) as u16, mlen);
        if out.len() >= limit {
            return None;
        }
        i += mlen;
        lit_start = i;
    }
    emit_literals_only(&mut out, &src[lit_start..]);
    (out.len() < limit).then_some(out)
}

fn write_run(out: &mut Vec<u8>, mut run: usize) {
    while run >= 255 {
        out.push(255);
        run -= 255;
    }
    out.push(run as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    let lit_nib = literals.len().min(15) as u8;
    let m = match_len - MIN_MATCH;
    let m_nib = m.min(15) as u8;
    out.push((lit_nib << 4) | m_nib);
    if lit_nib == 15 {
        write_run(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if m_nib == 15 {
        write_run(out, m - 15);
    }
}

fn emit_literals_only(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_nib = literals.len().min(15) as u8;
    out.push(lit_nib << 4); // match nibble 0 + no offset = terminal
    if lit_nib == 15 {
        write_run(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Decompresses an LZ block produced by this module into exactly
/// `logical_len` bytes. `None` on any malformed input (truncated stream,
/// out-of-window offset, wrong output length) — restore treats that as a
/// corrupt chunk and fails the candidate.
pub fn lz_decompress(src: &[u8], logical_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    lz_decompress_into(src, logical_len, &mut out).map(|()| out)
}

/// [`lz_decompress`] into `out`, replacing its contents but keeping its
/// allocation.
fn lz_decompress_into(src: &[u8], logical_len: usize, out: &mut Vec<u8>) -> Option<()> {
    out.clear();
    out.reserve(logical_len);
    let mut i = 0usize;
    loop {
        let token = *src.get(i)?;
        i += 1;
        let mut lit = usize::from(token >> 4);
        if lit == 15 {
            loop {
                let b = *src.get(i)?;
                i += 1;
                lit += usize::from(b);
                if b != 255 {
                    break;
                }
            }
        }
        if i + lit > src.len() {
            return None;
        }
        out.extend_from_slice(&src[i..i + lit]);
        i += lit;
        if i == src.len() {
            // Terminal literals-only sequence (match nibble must be 0).
            if token & 0x0F != 0 {
                return None;
            }
            break;
        }
        if i + 2 > src.len() {
            return None;
        }
        let offset = usize::from(u16::from_le_bytes(
            src[i..i + 2].try_into().expect("2 bytes"),
        ));
        i += 2;
        if offset == 0 || offset > out.len() {
            return None;
        }
        let mut mlen = usize::from(token & 0x0F);
        if mlen == 15 {
            loop {
                let b = *src.get(i)?;
                i += 1;
                mlen += usize::from(b);
                if b != 255 {
                    break;
                }
            }
        }
        mlen += MIN_MATCH;
        // Overlapping copy: byte-by-byte on purpose (offset < mlen is the
        // run-length case).
        let start = out.len() - offset;
        for k in 0..mlen {
            let b = out[start + k];
            out.push(b);
        }
        if out.len() > logical_len {
            return None;
        }
    }
    (out.len() == logical_len).then_some(())
}

/// Where a deduplicated chunk's materialized bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupHit {
    /// Checkpoint counter of the generation the entry belongs to.
    pub counter: u64,
    /// Slot holding the materialized bytes.
    pub slot: u32,
    /// Logical byte offset of the chunk within that checkpoint's payload.
    pub logical_off: u64,
}

#[derive(Debug, Default)]
struct Generation {
    counter: u64,
    slot: u32,
    by_digest: HashMap<u64, (u64, u64)>, // digest -> (logical_off, len)
}

/// Content-addressed index over the *materialized* chunks of each job's
/// latest framed commit.
///
/// One generation per job: installing a new commit's chunks evicts the
/// prior generation wholesale, which is exactly the lifetime the depth-≤1
/// reference rule needs — a lookup can only ever name bytes physically
/// present in the current base checkpoint. Generations are keyed by the
/// namespace's job id, so a store never dedups across namespaces.
#[derive(Debug, Default)]
pub struct DedupIndex {
    generations: HashMap<u64, Generation>,
    /// Max entries kept per generation; overflow chunks stay materialized.
    cap: usize,
}

/// Default per-generation entry cap.
pub const DEDUP_DEFAULT_CAP: usize = 8192;

impl DedupIndex {
    /// An index bounded to `cap` entries per job generation.
    pub fn with_capacity(cap: usize) -> DedupIndex {
        DedupIndex {
            generations: HashMap::new(),
            cap,
        }
    }

    /// Replaces `job`'s generation with the materialized chunks of the
    /// just-committed checkpoint `counter` in `slot`. `chunks` yields
    /// `(digest, logical_off, len)` per materialized chunk.
    pub fn install(
        &mut self,
        job: u64,
        counter: u64,
        slot: u32,
        chunks: impl IntoIterator<Item = (u64, u64, u64)>,
    ) {
        let cap = if self.cap == 0 {
            DEDUP_DEFAULT_CAP
        } else {
            self.cap
        };
        let mut by_digest = HashMap::new();
        for (digest, off, len) in chunks {
            if by_digest.len() >= cap {
                break;
            }
            by_digest.entry(digest).or_insert((off, len));
        }
        self.generations.insert(
            job,
            Generation {
                counter,
                slot,
                by_digest,
            },
        );
    }

    /// Looks up a chunk by content address, only answering from `job`'s
    /// generation when it is exactly checkpoint `base_counter` — a lookup
    /// against any other generation would reference bytes the commit's
    /// `DeltaLink` does not pin.
    pub fn lookup(&self, job: u64, base_counter: u64, digest: u64, len: u64) -> Option<DedupHit> {
        let g = self.generations.get(&job)?;
        if g.counter != base_counter {
            return None;
        }
        let &(logical_off, entry_len) = g.by_digest.get(&digest)?;
        (entry_len == len).then_some(DedupHit {
            counter: g.counter,
            slot: g.slot,
            logical_off,
        })
    }

    /// The checkpoint counter of `job`'s current generation, if any.
    pub fn generation_counter(&self, job: u64) -> Option<u64> {
        self.generations.get(&job).map(|g| g.counter)
    }

    /// Drops `job`'s generation (e.g., its namespace was released).
    pub fn evict_job(&mut self, job: u64) {
        self.generations.remove(&job);
    }

    /// Drops every generation.
    pub fn clear(&mut self) {
        self.generations.clear();
    }
}

/// Whether `state` matches the commit digest of the checkpoint it was
/// restored from, under either digest discipline: the state fold
/// (`FNV_SEED ^ iteration`) or the raw checksum.
pub fn payload_digest_matches(state: &[u8], iteration: u64, digest: u64) -> bool {
    fnv1a_fold(FNV_SEED ^ iteration, state) == digest || fnv1a(state) == digest
}

/// Convenience: the content address of a chunk (re-exported so persist and
/// restore provably share one digest).
pub fn content_address(chunk: &[u8]) -> u64 {
    chunk_digest(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::prop;

    fn sample_table() -> FrameTable {
        FrameTable {
            counter: 42,
            logical_len: 300,
            records: vec![
                FrameRecord::stored(ChunkEncoding::Raw, 0, 100, 100, 11),
                FrameRecord::stored(ChunkEncoding::Lz, 100, 40, 100, 22),
                FrameRecord::dedup_self(0, 100, 11),
            ],
        }
    }

    #[test]
    fn frame_encode_decode_round_trip() {
        let t = sample_table();
        let buf = t.encode();
        assert_eq!(buf.len() as u64, t.encoded_len());
        assert_eq!(FrameTable::decode(&buf).unwrap(), t);
        assert_eq!(t.packed_len(), 140);
        assert!(!t.references_base());
    }

    #[test]
    fn frame_decode_ignores_trailing_packed_bytes() {
        let t = sample_table();
        let mut buf = t.encode();
        buf.extend_from_slice(&[0x5A; 140]);
        assert_eq!(FrameTable::decode(&buf).unwrap(), t);
    }

    #[test]
    fn frame_decode_rejects_any_single_bitflip() {
        let good = sample_table().encode();
        for pos in 0..good.len() {
            let mut buf = good.clone();
            buf[pos] ^= 0x08;
            assert!(
                FrameTable::decode(&buf).is_none(),
                "bitflip at {pos} not detected"
            );
        }
    }

    #[test]
    fn frame_decode_rejects_bad_self_references() {
        let mut t = sample_table();
        t.records[2].aux = 2; // self-reference (not a backward pointer)
        assert!(FrameTable::decode(&t.encode()).is_none());
        t.records[2].aux = 5; // forward/out-of-range
        assert!(FrameTable::decode(&t.encode()).is_none());
        t.records[2].aux = 0;
        t.records[2].digest = 12; // not the referenced record's bytes
        assert!(FrameTable::decode(&t.encode()).is_none());
    }

    /// The dedup hit naming the base record at `logical_off` of checkpoint
    /// `counter` in `slot`.
    fn base_record(counter: u64, slot: u32, logical_off: u64) -> DedupHit {
        DedupHit {
            counter,
            slot,
            logical_off,
        }
    }

    /// A store-less slot image: `slots[s]` is slot `s`'s payload area.
    fn slot_reader(slots: &[Vec<u8>]) -> impl FnMut(u32, u64, &mut [u8]) -> bool + '_ {
        move |slot, off, buf| {
            let Some(area) = slots.get(slot as usize) else {
                return false;
            };
            let off = off as usize;
            match area.get(off..off + buf.len()) {
                Some(src) => {
                    buf.copy_from_slice(src);
                    true
                }
                None => false,
            }
        }
    }

    fn meta(slot: u32, counter: u64, payload_len: u64) -> CheckMeta {
        CheckMeta {
            counter,
            slot,
            iteration: counter,
            payload_len,
            digest: 0,
            delta: None,
        }
    }

    #[test]
    fn raw_frame_places_records_at_their_logical_offsets() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        // Grain 64 would need 16 records; capacity 4 coalesces to 256.
        let mut raw = RawFrame::new(1000, 64, 4);
        for piece in data.chunks(100) {
            raw.feed(piece);
        }
        let table = raw.finish(9);
        assert_eq!(table.records.len(), 4);
        assert!(table.is_raw());
        assert_eq!(table.packed_len(), 1000);
        for (r, off) in table.records.iter().zip([0u64, 256, 512, 768]) {
            assert_eq!((r.a, r.logical_len), (off, r.b));
            let end = (off + r.b) as usize;
            assert_eq!(r.digest, chunk_digest(&data[off as usize..end]));
        }
    }

    #[test]
    fn read_frame_binds_the_table_to_its_commit() {
        let data = vec![5u8; 300];
        let mut raw = RawFrame::new(300, 100, 64);
        raw.feed(&data);
        let table = raw.finish(7);
        let mut area = data.clone();
        table
            .write_after(300, |off, bytes| {
                assert_eq!(off, 300);
                area.extend_from_slice(bytes);
                Ok::<(), ()>(())
            })
            .unwrap();
        area.resize(4096, 0);
        let slots = vec![area];
        let mut read = slot_reader(&slots);
        assert_eq!(read_frame(&mut read, &meta(0, 7, 300), 64), Some(table));
        // Another counter (a stale table), a shorter packed length (the
        // table is not where the commit says), or a tiny capacity: no frame.
        assert!(read_frame(&mut read, &meta(0, 8, 300), 64).is_none());
        assert!(read_frame(&mut read, &meta(0, 7, 200), 64).is_none());
        assert!(read_frame(&mut read, &meta(0, 7, 300), 2).is_none());
    }

    #[test]
    fn reads_resolve_every_record_kind() {
        // Base frame in slot 0 (counter 3): two Raw records, `a` then `b`.
        let (a, b) = (vec![1u8; 64], (0..64u8).collect::<Vec<u8>>());
        let mut raw = RawFrame::new(128, 64, 64);
        raw.feed(&[a.clone(), b.clone()].concat());
        let base = raw.finish(3);
        // Frame in slot 1: Lz(a), DedupSelf(0), DedupBase(base record 1).
        let lz = compress_gated(&a).unwrap();
        let frame = FrameTable {
            counter: 4,
            logical_len: 192,
            records: vec![
                FrameRecord::stored(ChunkEncoding::Lz, 0, lz.len() as u64, 64, chunk_digest(&a)),
                FrameRecord::dedup_self(0, 64, chunk_digest(&a)),
                FrameRecord::dedup_base(base_record(3, 0, 64), 64, chunk_digest(&b)),
            ],
        };
        let slots = vec![[a.clone(), b.clone()].concat(), lz];
        let mut base_of = |slot, counter| ((slot, counter) == (0, 3)).then(|| base.clone());
        let reads = frame.reads(1, &mut base_of).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].targets, vec![0, 64]);
        assert_eq!((reads[1].slot, reads[1].targets.clone()), (0, vec![128]));
        let mut out = vec![0u8; 192];
        let mut read = slot_reader(&slots);
        let (mut scratch, mut buf) = (Vec::new(), Vec::new());
        for r in &reads {
            assert!(r.resolve(&mut read, &mut scratch, &mut buf));
            for &t in &r.targets {
                out[t as usize..t as usize + 64].copy_from_slice(&buf);
            }
        }
        assert_eq!(out, [a.clone(), a, b].concat());
        // A base reference into the middle of a record, or with no base
        // frame at all, plans nothing.
        let mut forged = frame.clone();
        forged.records[2].b = 32;
        assert!(forged.reads(1, &mut base_of).is_none());
        assert!(frame.reads(1, &mut |_, _| None).is_none());
    }

    #[test]
    fn frame_decode_rejects_logical_len_mismatch() {
        let mut t = sample_table();
        t.logical_len = 299;
        assert!(FrameTable::decode(&t.encode()).is_none());
    }

    #[test]
    fn frame_decode_rejects_impossible_count() {
        let mut buf = sample_table().encode();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(FrameTable::decode(&buf).is_none());
    }

    #[test]
    fn lz_round_trips_compressible_data() {
        let mut src = Vec::new();
        for i in 0..4096u32 {
            src.push((i % 7) as u8);
        }
        let comp = compress_gated(&src).expect("repetitive data compresses");
        assert!(comp.len() < src.len() / 2);
        assert_eq!(lz_decompress(&comp, src.len()).unwrap(), src);
    }

    #[test]
    fn lz_skips_incompressible_data() {
        let mut src = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut src, 99);
        assert!(compress_gated(&src).is_none());
    }

    #[test]
    fn entropy_gate_orders_payload_classes() {
        let zeros = vec![0u8; 4096];
        let mut noise = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut noise, 3);
        assert!(entropy_estimate(&zeros) < 0.1);
        assert!(entropy_estimate(&noise) > ENTROPY_SKIP_BITS);
    }

    #[test]
    fn lz_decompress_rejects_truncation_and_bad_offsets() {
        let src = vec![7u8; 600];
        let comp = compress_gated(&src).unwrap();
        for cut in 1..comp.len() {
            // Any strict prefix either fails outright or yields the wrong
            // length; never a silent wrong answer.
            if let Some(out) = lz_decompress(&comp[..cut], src.len()) {
                assert_eq!(out, src);
            }
        }
        // A match before any literals (offset into an empty window).
        assert!(lz_decompress(&[0x01, 0x01, 0x00], 5).is_none());
    }

    #[test]
    fn dedup_index_answers_only_current_generation() {
        let mut idx = DedupIndex::default();
        idx.install(0, 7, 2, vec![(111, 0, 64), (222, 64, 64)]);
        assert_eq!(
            idx.lookup(0, 7, 111, 64),
            Some(DedupHit {
                counter: 7,
                slot: 2,
                logical_off: 0,
            })
        );
        // Wrong base counter: the caller's link would not pin gen 7.
        assert!(idx.lookup(0, 6, 111, 64).is_none());
        // Length mismatch is a digest collision, not a hit.
        assert!(idx.lookup(0, 7, 111, 32).is_none());
        // Installing the next generation evicts the old one.
        idx.install(0, 8, 0, vec![(333, 0, 64)]);
        assert!(idx.lookup(0, 8, 111, 64).is_none());
        assert_eq!(idx.lookup(0, 8, 333, 64).unwrap().slot, 0);
        assert_eq!(idx.generation_counter(0), Some(8));
    }

    #[test]
    fn dedup_index_is_per_job() {
        let mut idx = DedupIndex::default();
        idx.install(1, 5, 0, vec![(42, 0, 128)]);
        idx.install(2, 9, 1, vec![(42, 0, 128)]);
        assert_eq!(idx.lookup(1, 5, 42, 128).unwrap().counter, 5);
        assert_eq!(idx.lookup(2, 9, 42, 128).unwrap().counter, 9);
        assert!(idx.lookup(3, 5, 42, 128).is_none());
        idx.evict_job(1);
        assert!(idx.lookup(1, 5, 42, 128).is_none());
        assert!(idx.lookup(2, 9, 42, 128).is_some());
    }

    #[test]
    fn dedup_index_caps_generation_size() {
        let mut idx = DedupIndex::with_capacity(2);
        idx.install(0, 1, 0, vec![(1, 0, 8), (2, 8, 8), (3, 16, 8)]);
        assert!(idx.lookup(0, 1, 1, 8).is_some());
        assert!(idx.lookup(0, 1, 2, 8).is_some());
        assert!(idx.lookup(0, 1, 3, 8).is_none());
    }

    #[test]
    fn lz_round_trips_arbitrary_bytes() {
        prop::check("lz_round_trips_arbitrary_bytes", 256, |g| {
            let src = g.bytes(0..2048);
            // Bypass the gates: force a compression attempt with no limit,
            // and require exact reconstruction whenever one is produced.
            if let Some(comp) = lz_compress_limit(&src, usize::MAX) {
                assert_eq!(lz_decompress(&comp, src.len()).unwrap(), src);
            }
        });
    }

    #[test]
    fn lz_round_trips_low_entropy_bytes() {
        prop::check("lz_round_trips_low_entropy_bytes", 256, |g| {
            let src = g.vec(64..2048, |g| g.range(0u8..4));
            if let Some(comp) = compress_gated(&src) {
                assert!(comp.len() < src.len());
                assert_eq!(lz_decompress(&comp, src.len()).unwrap(), src);
            }
        });
    }

    #[test]
    fn frame_round_trips_arbitrary_raw_geometry() {
        prop::check("frame_round_trips_arbitrary_raw_geometry", 256, |g| {
            let lens = g.vec(1..40, |g| g.range(1u64..10_000));
            let counter = g.range(1u64..1_000_000);
            let mut records = Vec::new();
            let mut phys = 0u64;
            for (i, &len) in lens.iter().enumerate() {
                let digest = (i as u64) * 31 + 7;
                records.push(FrameRecord::stored(
                    ChunkEncoding::Raw,
                    phys,
                    len,
                    len,
                    digest,
                ));
                phys += len;
            }
            let t = FrameTable {
                counter,
                logical_len: lens.iter().sum(),
                records,
            };
            assert_eq!(FrameTable::decode(&t.encode()).unwrap(), t);
        });
    }
}
