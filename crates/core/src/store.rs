//! The persistent checkpoint store: device layout and the concurrent
//! commit protocol of Listing 1.
//!
//! # Device layout
//!
//! ```text
//! +--------------------+  offset 0
//! | store header (64B) |  magic "PCcheCk4", slot count, slot size, ring
//! |                    |  records, directory capacity
//! +--------------------+  offset 64
//! | slot 0 meta (64B)  |
//! | slot 0 payload     |  slot_size bytes of packed frame records, then
//! |   + table room     |  room for the frame table (codec.rs layout)
//! +--------------------+
//! | slot 1 meta ...    |
//! +--------------------+  offset 64 + slots·(64 + slot_size + room)
//! | flight ring        |  optional crash-safe telemetry ring
//! | (header + records) |  (`flight_records` > 0)
//! +--------------------+
//! | namespace directory|  one entry per namespace: descriptor +
//! | (max_ns · 128B)    |  that namespace's CHECK_ADDR record
//! +--------------------+
//! | slot state words   |  per-slot commit-state records (the lattice
//! | (slots · 64B)      |  Free → Claimed{c} → Committed{c})
//! +--------------------+
//! ```
//!
//! The header's magic is the layout version: a store of any other layout
//! fails to open instead of being misread.
//!
//! Every committed slot holds a frame log ([`crate::codec`]): packed
//! records followed by a frame table bound to the commit. The table room
//! each slot reserves comes from the slot size alone
//! ([`codec::frame_capacity`]), so the header records no table geometry.
//! A frame whose records reference earlier checkpoints (a delta, or a
//! codec frame deduplicated against its base) commits with a
//! [`DeltaLink`], and every slot on that link chain stays pinned while it
//! is the committed checkpoint.
//!
//! With `N` allowed concurrent checkpoints a namespace holds `N+1` slots —
//! the `(N+1)·m` storage footprint of Table 1 — guaranteeing one fully
//! persisted checkpoint exists at all times once the first commit lands.
//!
//! # Namespaces
//!
//! Every store carves its slot array into contiguous per-job
//! **namespaces**. Each namespace owns a private free-slot queue and a
//! private `CHECK_ADDR` (in memory and in its directory entry), so the
//! full Listing 1 commit protocol runs independently per tenant: jobs
//! never race each other's CAS, never lease each other's slots, and
//! recover independently. The global counter stays store-wide, keeping
//! every checkpoint's counter unique across tenants (forensics and the
//! flight ring rely on that).
//!
//! [`CheckpointStore::format`] carves one *owner* namespace
//! ([`OWNER_JOB`]) over every slot at format time — a single-tenant store
//! is a store with one namespace, and job arguments of `None` name it.
//! [`CheckpointStore::format_service`] leaves the directory empty for
//! [`CheckpointStore::allocate_namespace`] to fill.
//!
//! # Commit protocol (Listing 1, lock-free)
//!
//! 1. read the namespace's current `CHECK_ADDR` (`last_check`),
//! 2. `atomic_add` the global counter → `curr_counter`,
//! 3. dequeue a free slot from the namespace's lock-free queue (spinning
//!    if none), CAS its in-memory state word Free → Claimed{counter}, and
//!    publish the durable claim word (best-effort),
//! 4. write + persist the payload (the engine does this with `p` writer
//!    threads),
//! 5. write + persist the slot's meta record (`BARRIER(cur_check)`),
//! 6. CAS the in-memory `CHECK_ADDR` from `last_check` to
//!    `(curr_counter, slot)`:
//!    * success → publish the durable Committed{counter} state word,
//!      publish `CHECK_ADDR` (lock-free: device write + `fetch_max`
//!      watermark), store Free into each displaced slot's in-memory
//!      word, and enqueue the displaced slot(s),
//!    * failure with a newer counter installed → publish `CHECK_ADDR`
//!      (helping), store Free + enqueue *our own* slot (our checkpoint
//!      is obsolete),
//!    * failure with an older counter → reload and retry the CAS.
//!
//! No step ever holds a mutex — and in particular no mutex is held
//! across device I/O. The durable `CHECK_ADDR` write is made idempotent
//! by a `fetch_max` watermark over the last-persisted counter (the
//! private `CommitPointer`); a racing publisher can at worst re-persist a
//! *stale* record, which recovery tolerates because the slot scan takes
//! the max valid counter and a newer commit's slot record is always
//! durable before its `CHECK_ADDR` publish (see DESIGN §13).
//!
//! The invariant maintained: the slot referenced by the durable
//! `CHECK_ADDR` is never in the free queue, so no concurrent checkpoint
//! can overwrite the latest committed state.
//!
//! # The per-slot commit-state lattice
//!
//! Every slot carries one durable [`SlotState`] word. The claim step
//! publishes Claimed{counter}; the commit winner publishes
//! Committed{counter}; recycling deliberately leaves the durable word
//! alone (counters rank claims). After a crash every slot's outcome is
//! decidable from its state word plus the meta record's CRC —
//! [`RawStoreView::slot_outcome`] is the decision procedure — which is
//! what makes the lock-free commit *detectable* in the memento sense.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_device::PersistentDevice;
use pccheck_telemetry::{FlightEventKind, FlightRecorder, FlightRing};
use pccheck_util::sync::RwLock;
use pccheck_util::ByteSize;

use crate::codec::{self, FrameRecord, FrameTable};
use crate::error::PccheckError;
use crate::meta::{
    CheckMeta, DeltaLink, NamespaceDesc, PackedCheckAddr, SlotState, META_RECORD_SIZE,
    NS_DESC_SIZE, SLOT_STATE_SIZE,
};
use crate::queue::SlotQueue;

/// Identifier of a tenant job in a multi-tenant store (matches the sim's
/// fluid-model job ids so fairness oracles line up).
pub type JobId = u64;

/// The job of the owner namespace [`CheckpointStore::format`] carves over
/// every slot. Job arguments of `None` resolve to it.
pub const OWNER_JOB: JobId = 0;

const STORE_MAGIC: u64 = 0x5043_6368_6543_6B34; // "PCcheCk4"
const HEADER_SIZE: u64 = 64;

/// Stride of one namespace-directory entry: the 64-byte descriptor
/// followed by that namespace's own 64-byte CHECK_ADDR record.
const NS_ENTRY_SIZE: u64 = NS_DESC_SIZE + META_RECORD_SIZE;

/// The geometry a store header records, and every region offset derived
/// from it (regions follow each other in the order of the module diagram).
#[derive(Debug, Clone, Copy)]
struct Layout {
    slots: u32,
    slot_size: ByteSize,
    flight_records: u32,
    max_namespaces: u32,
}

impl Layout {
    fn new(slot_size: ByteSize, slots: u32, flight_records: u32, max_namespaces: u32) -> Layout {
        Layout {
            slots,
            slot_size,
            flight_records,
            max_namespaces,
        }
    }

    fn encode(&self) -> [u8; HEADER_SIZE as usize] {
        let mut header = [0u8; HEADER_SIZE as usize];
        header[0..8].copy_from_slice(&STORE_MAGIC.to_le_bytes());
        header[8..12].copy_from_slice(&self.slots.to_le_bytes());
        header[12..20].copy_from_slice(&self.slot_size.as_u64().to_le_bytes());
        header[20..24].copy_from_slice(&self.flight_records.to_le_bytes());
        header[24..28].copy_from_slice(&self.max_namespaces.to_le_bytes());
        header
    }

    /// Reads the durable header of the store on `device`.
    fn read(device: &dyn PersistentDevice) -> Result<Layout, PccheckError> {
        let mut header = [0u8; HEADER_SIZE as usize];
        device.read_durable_at(0, &mut header)?;
        if header[0..8] != STORE_MAGIC.to_le_bytes() {
            return Err(PccheckError::InvalidConfig(
                "device holds no PCcheck store of this layout (bad magic)".into(),
            ));
        }
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        Ok(Layout {
            slots: word(8),
            slot_size: ByteSize::from_bytes(u64::from_le_bytes(
                header[12..20].try_into().expect("8 bytes"),
            )),
            flight_records: word(20),
            max_namespaces: word(24),
        })
    }

    /// Records a slot's frame table may hold.
    fn frame_capacity(&self) -> usize {
        codec::frame_capacity(self.slot_size.as_u64())
    }

    /// Bytes of one slot's payload area: packed records plus table room.
    fn slot_area(&self) -> u64 {
        self.slot_size.as_u64() + codec::table_room(self.frame_capacity())
    }

    fn slot_meta(&self, slot: u32) -> u64 {
        HEADER_SIZE + u64::from(slot) * (META_RECORD_SIZE + self.slot_area())
    }

    fn flight_base(&self) -> u64 {
        self.slot_meta(self.slots)
    }

    fn ns_entry(&self, index: u32) -> u64 {
        let ring = if self.flight_records == 0 {
            0
        } else {
            FlightRing::required_capacity(self.flight_records)
        };
        self.flight_base() + ring + u64::from(index) * NS_ENTRY_SIZE
    }

    /// Reads `meta`'s frame table from the durable bytes of `device`.
    fn read_frame(&self, device: &dyn PersistentDevice, meta: &CheckMeta) -> Option<FrameTable> {
        let mut read = |slot: u32, off: u64, buf: &mut [u8]| {
            device
                .read_durable_at(self.slot_meta(slot) + META_RECORD_SIZE + off, buf)
                .is_ok()
        };
        codec::read_frame(&mut read, meta, self.frame_capacity())
    }

    fn slot_state(&self, slot: u32) -> u64 {
        self.ns_entry(self.max_namespaces) + u64::from(slot) * SLOT_STATE_SIZE
    }

    /// Total device bytes the layout spans.
    fn end(&self) -> u64 {
        self.slot_state(self.slots)
    }

    /// Reads directory entry `index`, returning the descriptor when it
    /// decodes and names a nonempty slot range inside the store.
    fn read_ns_desc(
        &self,
        device: &dyn PersistentDevice,
        index: u32,
    ) -> Result<Option<NamespaceDesc>, PccheckError> {
        let mut buf = [0u8; NS_DESC_SIZE as usize];
        device.read_durable_at(self.ns_entry(index), &mut buf)?;
        // An undecodable entry is unallocated (or torn mid-allocate: no
        // data yet); an out-of-range one is corrupt and treated the same.
        Ok(NamespaceDesc::decode(&buf)
            .filter(|d| d.slot_count > 0 && d.slot_start + d.slot_count <= self.slots))
    }
}

/// Outcome of a commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// This checkpoint became the latest committed one.
    Committed,
    /// A newer checkpoint won the race; this one was discarded (its slot
    /// returned to the free queue). Still a success: a *newer* state is
    /// durable.
    SupersededBy {
        /// Counter of the newer committed checkpoint.
        counter: u64,
    },
}

/// A checkpoint slot leased from the store for writing.
///
/// Obtained from [`CheckpointStore::begin_checkpoint`]; the holder writes
/// the payload at [`CheckpointStore::slot_payload_offset`] of its slot and
/// then calls [`CheckpointStore::commit`].
#[derive(Debug)]
pub struct SlotLease {
    /// The global counter assigned to this checkpoint.
    pub counter: u64,
    /// The slot index leased.
    pub slot: u32,
    /// The `CHECK_ADDR` observed before the counter was taken (Listing 1
    /// line 3) — the CAS baseline.
    last_check: PackedCheckAddr,
    /// The namespace the lease was drawn from: commit routes its CAS,
    /// durable CHECK_ADDR write, and slot recycling through it.
    ns: Arc<Namespace>,
}

impl SlotLease {
    /// The job whose namespace this lease belongs to.
    pub fn job(&self) -> JobId {
        self.ns.desc.job
    }
}

/// The pair of atomics behind one `CHECK_ADDR`: the in-memory pointer
/// the commit CAS swings, and the `fetch_max` watermark of the highest
/// counter whose durable record has been persisted. The watermark is
/// what lets concurrent committers publish the durable record without a
/// lock: a publish is skipped when an equal-or-newer record is already
/// durable, and racing publishes are resolved by `fetch_max` — the
/// flight-ring Commit witness is recorded only by the publisher that
/// actually advanced the watermark.
#[derive(Debug)]
struct CommitPointer {
    /// In-memory CHECK_ADDR (packed counter+slot).
    addr: AtomicU64,
    /// Highest counter whose CHECK_ADDR record is known durable.
    persisted: AtomicU64,
}

impl CommitPointer {
    fn new(addr: PackedCheckAddr, persisted_counter: u64) -> Self {
        CommitPointer {
            addr: AtomicU64::new(addr.0),
            persisted: AtomicU64::new(persisted_counter),
        }
    }
}

/// One tenant's slice of the store: a contiguous slot range with its own
/// free queue and commit pointer.
#[derive(Debug)]
pub(crate) struct Namespace {
    desc: NamespaceDesc,
    /// This namespace's CHECK_ADDR pointer + durable-publish watermark.
    commit: CommitPointer,
    free_slots: SlotQueue,
    /// Device offset of this namespace's directory entry (descriptor at
    /// +0, CHECK_ADDR record at +[`NS_DESC_SIZE`]).
    dir_offset: u64,
}

impl Namespace {
    fn check_rec_offset(&self) -> u64 {
        self.dir_offset + NS_DESC_SIZE
    }
}

/// The persistent checkpoint store.
///
/// Thread-safe: any number of checkpoints proceed concurrently; the
/// whole commit protocol — slot claim, meta publish, head advance, slot
/// recycle — is lock-free, and no mutex is ever held across device I/O.
#[derive(Debug)]
pub struct CheckpointStore {
    device: Arc<dyn PersistentDevice>,
    layout: Layout,
    global_counter: AtomicU64,
    /// In-memory per-slot commit-state words (packed [`SlotState`]), the
    /// volatile half of the lattice. A dequeued slot is CASed
    /// Free → Claimed{counter}; every release path stores Free *before*
    /// enqueueing, so the claim CAS can never lose.
    slot_states: Vec<AtomicU64>,
    /// Persistent flight recorder appending lifecycle milestones to the
    /// ring after the slots (disabled when the store was formatted with
    /// `flight_records = 0`).
    flight: FlightRecorder,
    /// Allocated namespaces, in directory order. Appended under the write
    /// lock by [`allocate_namespace`](Self::allocate_namespace); the hot
    /// commit path never takes this lock (the lease carries its `Arc`).
    namespaces: RwLock<Vec<Arc<Namespace>>>,
    /// Next unallocated slot (the namespaces' bump allocator).
    next_free_slot: AtomicU32,
}

impl CheckpointStore {
    /// Bytes of device space a [`format`](Self::format)ted store of
    /// `slots` slots of `slot_size` each needs without a flight ring.
    pub fn required_capacity(slot_size: ByteSize, slots: u32) -> ByteSize {
        Self::required_capacity_service(slot_size, slots, 0, 1)
    }

    /// Bytes of device space a store needs with a flight ring of
    /// `flight_records` records (0 = none) and a namespace directory of
    /// `max_namespaces` entries (1 for a [`format`](Self::format)ted
    /// store).
    pub fn required_capacity_service(
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
        max_namespaces: u32,
    ) -> ByteSize {
        ByteSize::from_bytes(Layout::new(slot_size, slots, flight_records, max_namespaces).end())
    }

    /// Device offset of `slot`'s durable commit-state word.
    pub fn slot_state_offset(&self, slot: u32) -> u64 {
        self.layout.slot_state(slot)
    }

    /// Formats a single-tenant store on `device`: `slots` slots of
    /// `slot_size` bytes (use `N+1` slots for `N` concurrent checkpoints)
    /// in one owner namespace, plus a persistent flight-recorder ring of
    /// `flight_records` 64-byte records after the slots (0 = no ring).
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if geometry is invalid or the
    /// device is too small, or a device error if formatting I/O fails.
    pub fn format(
        device: Arc<dyn PersistentDevice>,
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
    ) -> Result<Self, PccheckError> {
        let store = Self::format_service(device, slot_size, slots, flight_records, 1)?;
        store.allocate_namespace(OWNER_JOB, slots)?;
        Ok(store)
    }

    /// Formats a *multi-tenant* store: `slots` slots shared by up to
    /// `max_namespaces` per-job namespaces (allocated later via
    /// [`allocate_namespace`](Self::allocate_namespace)). No slot is
    /// usable until a namespace claims it.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if geometry is invalid
    /// (fewer than 2 slots or 1 namespace, zero slot size) or the device
    /// is too small; propagates device errors.
    pub fn format_service(
        device: Arc<dyn PersistentDevice>,
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
        max_namespaces: u32,
    ) -> Result<Self, PccheckError> {
        if slots < 2 || max_namespaces < 1 {
            return Err(PccheckError::InvalidConfig(
                "store needs at least 2 slots (N>=1 concurrent + 1 committed) and 1 namespace"
                    .into(),
            ));
        }
        if slot_size.is_zero() {
            return Err(PccheckError::InvalidConfig(
                "slot size must be nonzero".into(),
            ));
        }
        let layout = Layout::new(slot_size, slots, flight_records, max_namespaces);
        if ByteSize::from_bytes(layout.end()) > device.capacity() {
            return Err(PccheckError::InvalidConfig(format!(
                "device capacity {} < required {}",
                device.capacity(),
                ByteSize::from_bytes(layout.end())
            )));
        }
        device.write_at(0, &layout.encode())?;
        device.persist(0, HEADER_SIZE)?;
        // Zero the directory: every entry reads as unallocated.
        let base = layout.ns_entry(0);
        let zeros = vec![0u8; (NS_ENTRY_SIZE * u64::from(max_namespaces)) as usize];
        device.write_at(base, &zeros)?;
        device.persist(base, zeros.len() as u64)?;
        // Every slot starts with a valid durable Free state word.
        let state_region = SlotState::Free.encode().repeat(slots as usize);
        device.write_at(layout.slot_state(0), &state_region)?;
        device.persist(layout.slot_state(0), state_region.len() as u64)?;

        let flight = if flight_records > 0 {
            let ring =
                FlightRing::create(Arc::clone(&device), layout.flight_base(), flight_records)
                    .map_err(PccheckError::InvalidConfig)?;
            FlightRecorder::new(Arc::new(ring))
        } else {
            FlightRecorder::disabled()
        };
        flight.record_run(FlightEventKind::RunStart, 0);

        Ok(CheckpointStore {
            device,
            layout,
            global_counter: AtomicU64::new(1),
            slot_states: (0..slots)
                .map(|_| AtomicU64::new(SlotState::Free.pack()))
                .collect(),
            flight,
            namespaces: RwLock::new(Vec::new()),
            next_free_slot: AtomicU32::new(0),
        })
    }

    /// Reopens a store previously formatted on `device` (the recovery
    /// path). Rebuilds each namespace independently: its committed
    /// checkpoint (and delta chain) stays leased, all its other slots go
    /// back to its free queue; the global counter resumes above the
    /// highest counter found in a meta record or a durable slot-state
    /// word, so a crashed claim's counter is never reissued.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if no valid store header is
    /// found, or a device error if reads fail.
    pub fn open(device: Arc<dyn PersistentDevice>) -> Result<Self, PccheckError> {
        let layout = Layout::read(device.as_ref())?;

        // Reattach the flight ring, resuming sequence numbers past the
        // crash survivors. A torn ring header downgrades to a disabled
        // recorder rather than failing recovery: forensics are
        // best-effort, the checkpoints are not.
        let flight = if layout.flight_records > 0 {
            match FlightRing::open(Arc::clone(&device), layout.flight_base()) {
                Ok(ring) => FlightRecorder::new(Arc::new(ring)),
                Err(_) => FlightRecorder::disabled(),
            }
        } else {
            FlightRecorder::disabled()
        };

        let mut namespaces: Vec<Arc<Namespace>> = Vec::new();
        let mut max_counter = 0u64;
        let mut next_free_slot = 0u32;
        let mut pinned_all: Vec<u32> = Vec::new();
        for i in 0..layout.max_namespaces {
            let Some(desc) = layout.read_ns_desc(device.as_ref(), i)? else {
                continue;
            };
            let dir_offset = layout.ns_entry(i);
            // Find the committed checkpoint: trust the namespace's
            // CHECK_ADDR, fall back to a slot scan if the record is torn
            // or its payload fails validation. The committed checkpoint's
            // slot stays leased — and if it is linked, so does every slot
            // on its chain down to the root: its references name bytes in
            // them.
            let committed = Self::find_committed_range(
                device.as_ref(),
                &layout,
                desc.slot_range(),
                dir_offset + NS_DESC_SIZE,
            )?;
            let pinned: Vec<u32> = committed
                .as_ref()
                .map(|m| Self::chain_slots_static(device.as_ref(), &layout, m.slot, m.counter))
                .unwrap_or_default();
            let free: Vec<u32> = desc.slot_range().filter(|s| !pinned.contains(s)).collect();
            let ns_counter = committed.as_ref().map_or(0, |m| m.counter);
            max_counter = max_counter.max(ns_counter);
            next_free_slot = next_free_slot.max(desc.slot_start + desc.slot_count);
            let check_addr = committed
                .as_ref()
                .map(|m| PackedCheckAddr::pack(m.counter, m.slot))
                .unwrap_or(crate::meta::CHECK_ADDR_NONE);
            pinned_all.extend_from_slice(&pinned);
            namespaces.push(Arc::new(Namespace {
                desc,
                commit: CommitPointer::new(check_addr, ns_counter),
                free_slots: free.into_iter().collect(),
                dir_offset,
            }));
        }
        let (slot_states, claimed_max) =
            Self::initial_slot_states(device.as_ref(), &layout, &pinned_all)?;
        Ok(CheckpointStore {
            device,
            layout,
            global_counter: AtomicU64::new(max_counter.max(claimed_max) + 1),
            slot_states,
            flight,
            namespaces: RwLock::new(namespaces),
            next_free_slot: AtomicU32::new(next_free_slot),
        })
    }

    /// Finds the committed checkpoint within a slot range: trusts the
    /// CHECK_ADDR record at `check_rec_offset`, falls back to scanning the
    /// range's slots if the record is torn or fails validation.
    fn find_committed_range(
        device: &dyn PersistentDevice,
        layout: &Layout,
        range: std::ops::Range<u32>,
        check_rec_offset: u64,
    ) -> Result<Option<CheckMeta>, PccheckError> {
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        device.read_durable_at(check_rec_offset, &mut rec)?;
        let mut best: Option<CheckMeta> = None;
        if let Some(meta) = CheckMeta::decode(&rec) {
            if Self::validate_slot(device, layout, &meta, range.clone())? {
                best = Some(meta);
            }
        }
        // Scan the slots too: the durable CHECK_ADDR may lag a fully
        // persisted checkpoint whose commit raced the crash. A valid slot
        // record implies its payload persisted first (the engine orders
        // payload persist before the meta barrier), and a *recycled* slot
        // mid-overwrite always carries a counter below the durable
        // CHECK_ADDR (commit persists CHECK_ADDR before freeing the
        // displaced slot), so taking the max counter is safe.
        for s in range.clone() {
            device.read_durable_at(layout.slot_meta(s), &mut rec)?;
            if let Some(meta) = CheckMeta::decode(&rec) {
                if meta.slot == s
                    && Self::validate_slot(device, layout, &meta, range.clone())?
                    && best.is_none_or(|b| meta.counter > b.counter)
                {
                    best = Some(meta);
                }
            }
        }
        Ok(best)
    }

    fn validate_slot(
        device: &dyn PersistentDevice,
        layout: &Layout,
        meta: &CheckMeta,
        range: std::ops::Range<u32>,
    ) -> Result<bool, PccheckError> {
        if !range.contains(&meta.slot) || ByteSize::from_bytes(meta.payload_len) > layout.slot_size
        {
            return Ok(false);
        }
        // Check the slot's own meta record matches the commit record.
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        device.read_durable_at(layout.slot_meta(meta.slot), &mut rec)?;
        Ok(CheckMeta::decode(&rec).as_ref() == Some(meta))
    }

    /// The slots a checkpoint occupies: its own, plus — when it is a delta
    /// — every slot on the base chain down to the full root. Walks the
    /// durable slot records, stopping (leniently) at the first record that
    /// fails to decode or disagrees with the expected (slot, counter), and
    /// guards against pointer cycles; the head slot is always included.
    fn chain_slots_static(
        device: &dyn PersistentDevice,
        layout: &Layout,
        head_slot: u32,
        head_counter: u64,
    ) -> Vec<u32> {
        let mut chain = vec![head_slot];
        let mut expect = (head_slot, head_counter);
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        loop {
            let (s, c) = expect;
            if device
                .read_durable_at(layout.slot_meta(s), &mut rec)
                .is_err()
            {
                break;
            }
            let Some(meta) = CheckMeta::decode(&rec) else {
                break;
            };
            if meta.slot != s || meta.counter != c {
                break;
            }
            let Some(link) = meta.delta else {
                break;
            };
            if chain.contains(&link.base_slot) || chain.len() as u32 >= layout.slots {
                break;
            }
            chain.push(link.base_slot);
            expect = (link.base_slot, link.base_counter);
        }
        chain
    }

    /// Rebuilds the in-memory slot-state words on reopen: every slot that
    /// goes back to a free queue starts Free (regardless of its durable
    /// word, which is a high-water record of past claims); every pinned
    /// chain slot starts Committed at its own durable meta counter.
    ///
    /// Also returns the highest counter any durable word names. The store
    /// resumes counting above it, so no counter repeats across a crash: a
    /// checkpoint that died after writing its frame table but before its
    /// meta leaves that table in a recycled slot, and a later commit there
    /// must never carry the table's counter (and so bind it).
    fn initial_slot_states(
        device: &dyn PersistentDevice,
        layout: &Layout,
        pinned: &[u32],
    ) -> Result<(Vec<AtomicU64>, u64), PccheckError> {
        let mut states = Vec::with_capacity(layout.slots as usize);
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        let mut word = [0u8; SLOT_STATE_SIZE as usize];
        let mut claimed_max = 0;
        for s in 0..layout.slots {
            device.read_durable_at(layout.slot_state(s), &mut word)?;
            if let Some(c) = SlotState::decode(&word).and_then(SlotState::counter) {
                claimed_max = claimed_max.max(c);
            }
            let state = if pinned.contains(&s) {
                device.read_durable_at(layout.slot_meta(s), &mut rec)?;
                CheckMeta::decode(&rec)
                    .filter(|m| m.slot == s)
                    .map_or(SlotState::Free, |m| SlotState::Committed {
                        counter: m.counter,
                    })
            } else {
                SlotState::Free
            };
            states.push(AtomicU64::new(state.pack()));
        }
        Ok((states, claimed_max))
    }

    fn chain_slots(&self, head_slot: u32, head_counter: u64) -> Vec<u32> {
        Self::chain_slots_static(self.device.as_ref(), &self.layout, head_slot, head_counter)
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn PersistentDevice> {
        &self.device
    }

    /// The persistent flight recorder (disabled when the store was
    /// formatted without a ring). The engine and harnesses use this handle
    /// to append lifecycle milestones the store itself cannot see (GPU
    /// copy completion, payload persist, failures).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Per-slot payload capacity.
    pub fn slot_size(&self) -> ByteSize {
        self.layout.slot_size
    }

    /// Number of slots (`N+1` for a [`format`](Self::format)ted store).
    pub fn num_slots(&self) -> u32 {
        self.layout.slots
    }

    /// Device offset of `slot`'s meta record.
    pub fn slot_meta_offset(&self, slot: u32) -> u64 {
        self.layout.slot_meta(slot)
    }

    /// Device offset of `slot`'s payload.
    pub fn slot_payload_offset(&self, slot: u32) -> u64 {
        self.slot_meta_offset(slot) + META_RECORD_SIZE
    }

    /// Records a slot's frame table may hold (from the slot size alone).
    pub fn frame_capacity(&self) -> usize {
        self.layout.frame_capacity()
    }

    /// Reads and binds the frame table of the committed checkpoint `meta`
    /// (see [`codec::read_frame`]); `None` for a slot holding no frame of
    /// that commit.
    pub fn read_frame(&self, meta: &CheckMeta) -> Option<FrameTable> {
        self.layout.read_frame(self.device.as_ref(), meta)
    }

    /// The in-memory view of the newest committed checkpoint across every
    /// namespace — on a [`format`](Self::format)ted store, the owner
    /// namespace's head; on a multi-tenant store a diagnostic (per-job
    /// code wants [`latest_committed_job`](Self::latest_committed_job)).
    pub fn latest_committed(&self) -> Option<CheckMeta> {
        self.namespaces
            .read()
            .iter()
            .filter_map(|ns| self.resolve_check_addr(&ns.commit.addr))
            .max_by_key(|m| m.counter)
    }

    /// The latest committed checkpoint in `job`'s namespace.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when `job` has no
    /// namespace.
    pub fn latest_committed_job(&self, job: JobId) -> Result<Option<CheckMeta>, PccheckError> {
        let ns = self.namespace_for(Some(job))?;
        Ok(self.resolve_check_addr(&ns.commit.addr))
    }

    /// The latest committed checkpoint in `lease`'s namespace. This is
    /// what delta planning must use as its base: another job's newer
    /// commit is not a valid delta base for this job.
    pub fn latest_committed_for(&self, lease: &SlotLease) -> Option<CheckMeta> {
        self.resolve_check_addr(&lease.ns.commit.addr)
    }

    /// The current in-memory commit-state word of `slot` (diagnostics;
    /// the durable word may lag — it records high-water claims, not the
    /// recycle step).
    pub fn slot_commit_state(&self, slot: u32) -> SlotState {
        SlotState::unpack(self.slot_states[slot as usize].load(Ordering::Acquire))
    }

    /// The lattice claim step: CAS the dequeued slot's in-memory word
    /// Free → Claimed{counter}, then publish the durable claim word.
    ///
    /// The dequeue grants exclusive ownership and every release path
    /// stores Free *before* enqueueing, so the CAS cannot lose — its
    /// strictness is a protocol assertion, not a spin. The durable
    /// publish is best-effort: a lost claim word only downgrades the
    /// slot's post-crash classification from Claimed to meta-CRC-only
    /// (still decidable; a device sick enough to fail here fails the very
    /// next payload write anyway).
    fn claim_slot(&self, slot: u32, counter: u64) {
        let claimed = SlotState::Claimed { counter };
        let won = self.slot_states[slot as usize]
            .compare_exchange(
                SlotState::Free.pack(),
                claimed.pack(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        debug_assert!(won, "dequeued slot {slot} was not Free");
        if !won {
            // Defensive: ownership is ours either way; converge the word.
            self.slot_states[slot as usize].store(claimed.pack(), Ordering::Release);
        }
        let off = self.slot_state_offset(slot);
        let _ = self
            .device
            .write_at(off, &claimed.encode())
            .and_then(|()| self.device.persist(off, SLOT_STATE_SIZE));
    }

    /// Publishes the durable Committed word for a commit winner. Failure
    /// is surfaced (the commit's durability story is already complete —
    /// the meta record persisted — but a dying device should not report
    /// a clean commit).
    ///
    /// The in-memory word moves only after the durable write, failed or
    /// not: a commit that displaces this slot waits for it
    /// ([`await_published`](Self::await_published)) before recycling, so
    /// this write can never land over the next claimant's Claimed word.
    fn publish_slot_state(&self, slot: u32, state: SlotState) -> Result<(), PccheckError> {
        let off = self.slot_state_offset(slot);
        let durable = self
            .device
            .write_at(off, &state.encode())
            .and_then(|()| self.device.persist(off, SLOT_STATE_SIZE));
        self.slot_states[slot as usize].store(state.pack(), Ordering::Release);
        Ok(durable?)
    }

    /// Waits until the committer that installed `slot` has published its
    /// Committed word. An installed slot is out of every free queue, so
    /// only that committer can move its word off Claimed, and it does so
    /// right after its `CHECK_ADDR` CAS.
    fn await_published(&self, slot: u32) {
        while matches!(
            SlotState::unpack(self.slot_states[slot as usize].load(Ordering::Acquire)),
            SlotState::Claimed { .. }
        ) {
            std::thread::yield_now();
        }
    }

    /// The lattice recycle step: store Free into the in-memory word, then
    /// enqueue. Order matters — the next claimant's CAS must find Free.
    /// The durable word is deliberately left alone (history; counters
    /// rank claims across a slot's lives).
    fn release_slot(&self, free_slots: &SlotQueue, slot: u32) {
        self.slot_states[slot as usize].store(SlotState::Free.pack(), Ordering::Release);
        // Spin through transient fulls: a concurrent dequeuer may be
        // mid-recycle on the target cell.
        free_slots.enqueue_blocking(slot);
    }

    fn resolve_check_addr(&self, check_addr: &AtomicU64) -> Option<CheckMeta> {
        let packed = PackedCheckAddr(check_addr.load(Ordering::Acquire));
        if packed.is_none() {
            return None;
        }
        // The slot's meta record is authoritative; it was persisted before
        // CHECK_ADDR swung to it.
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        self.device
            .read_durable_at(self.slot_meta_offset(packed.slot()), &mut rec)
            .ok()?;
        CheckMeta::decode(&rec).filter(|m| m.counter == packed.counter())
    }

    /// Begins a checkpoint in `job`'s namespace (`None` = the owner
    /// namespace): samples the namespace's `CHECK_ADDR`, takes a counter,
    /// and dequeues a free slot (Listing 1, lines 3–11). Spins while all
    /// of the namespace's slots are occupied by in-flight checkpoints.
    /// Jobs contend only on the global counter, which stays globally
    /// unique and monotone, so cross-job interleavings remain totally
    /// ordered in the flight ring.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when `job` has no
    /// namespace.
    pub fn begin_checkpoint(&self, job: Option<JobId>) -> Result<SlotLease, PccheckError> {
        let ns = self.namespace_for(job)?;
        // Line 3: sample the last committed checkpoint *before* taking the
        // counter — this makes our eventual CAS legal (§4.1).
        let last_check = PackedCheckAddr(ns.commit.addr.load(Ordering::Acquire));
        // Line 5: order ourselves among all checkpoints.
        let counter = self.global_counter.fetch_add(1, Ordering::AcqRel);
        // Lines 8-11: find space, then take the lattice claim step.
        let slot = ns.free_slots.dequeue_blocking();
        self.claim_slot(slot, counter);
        self.flight
            .record(FlightEventKind::Begin, counter, slot, 0, 0, last_check.0);
        Ok(SlotLease {
            counter,
            slot,
            last_check,
            ns,
        })
    }

    /// Looks up `job`'s namespace handle (`None` = the owner namespace).
    fn namespace_for(&self, job: Option<JobId>) -> Result<Arc<Namespace>, PccheckError> {
        let job = job.unwrap_or(OWNER_JOB);
        self.namespaces
            .read()
            .iter()
            .find(|ns| ns.desc.job == job)
            .cloned()
            .ok_or_else(|| {
                PccheckError::InvalidConfig(format!("job {job} has no namespace in this store"))
            })
    }

    /// Carves a fresh slot namespace for `job` out of the store's
    /// unallocated slot budget and persists its directory entry. Slots are
    /// handed out contiguously in allocation order; a namespace lives for
    /// the store's lifetime (no reclamation — the daemon's admission
    /// control sizes the budget up front).
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when `slot_count < 2`
    /// (N+1 needs at least 1+1), `job` already owns a namespace, the
    /// directory is full, or the slot budget is exhausted; propagates
    /// device errors.
    pub fn allocate_namespace(
        &self,
        job: JobId,
        slot_count: u32,
    ) -> Result<NamespaceDesc, PccheckError> {
        if slot_count < 2 {
            return Err(PccheckError::InvalidConfig(format!(
                "namespace needs at least 2 slots (N+1 with N >= 1), got {slot_count}"
            )));
        }
        let mut namespaces = self.namespaces.write();
        if namespaces.iter().any(|ns| ns.desc.job == job) {
            return Err(PccheckError::InvalidConfig(format!(
                "job {job} already owns a namespace"
            )));
        }
        if namespaces.len() as u32 >= self.layout.max_namespaces {
            return Err(PccheckError::InvalidConfig(format!(
                "namespace directory full ({} of {})",
                namespaces.len(),
                self.layout.max_namespaces
            )));
        }
        let slot_start = self.next_free_slot.load(Ordering::Acquire);
        if slot_start + slot_count > self.layout.slots {
            return Err(PccheckError::InvalidConfig(format!(
                "slot budget exhausted: {slot_count} requested, {} of {} remain",
                self.layout.slots - slot_start,
                self.layout.slots
            )));
        }
        let desc = NamespaceDesc {
            job,
            slot_start,
            slot_count,
        };
        // Persist descriptor + a zeroed per-namespace CHECK_ADDR record
        // before exposing the namespace: a crash mid-allocate leaves either
        // no entry (decode fails on the torn descriptor) or a complete,
        // empty namespace — never a half-initialized one.
        let dir_offset = self.layout.ns_entry(namespaces.len() as u32);
        let mut entry = [0u8; NS_ENTRY_SIZE as usize];
        entry[..NS_DESC_SIZE as usize].copy_from_slice(&desc.encode());
        self.device.write_at(dir_offset, &entry)?;
        self.device.persist(dir_offset, NS_ENTRY_SIZE)?;
        self.next_free_slot
            .store(slot_start + slot_count, Ordering::Release);
        namespaces.push(Arc::new(Namespace {
            desc,
            commit: CommitPointer::new(crate::meta::CHECK_ADDR_NONE, 0),
            free_slots: desc.slot_range().collect(),
            dir_offset,
        }));
        Ok(desc)
    }

    /// Writes a payload chunk into the leased slot at `chunk_offset` within
    /// the payload area. Does **not** persist — the caller persists via the
    /// device (per writer thread on PMEM, or one `msync` on SSD).
    ///
    /// # Errors
    ///
    /// Propagates device errors; rejects writes beyond the slot capacity.
    pub fn write_payload(
        &self,
        lease: &SlotLease,
        chunk_offset: u64,
        data: &[u8],
    ) -> Result<(), PccheckError> {
        if chunk_offset + data.len() as u64 > self.layout.slot_size.as_u64() {
            return Err(PccheckError::InvalidConfig(format!(
                "payload write at {chunk_offset}+{} exceeds slot size {}",
                data.len(),
                self.layout.slot_size
            )));
        }
        let base = self.slot_payload_offset(lease.slot);
        self.device.write_at(base + chunk_offset, data)?;
        Ok(())
    }

    /// Writes the leased slot's frame table after `packed_len` bytes of
    /// records, where [`read_frame`](Self::read_frame) looks for it. Does
    /// **not** persist: the caller fences `packed_len..+returned length`
    /// (alone or together with the records). Returns the table's length.
    ///
    /// # Errors
    ///
    /// Propagates device errors; rejects a table past the slot's room.
    pub fn write_frame_table(
        &self,
        lease: &SlotLease,
        packed_len: u64,
        table: &FrameTable,
    ) -> Result<u64, PccheckError> {
        table.write_after(packed_len, |off, bytes| {
            if off + bytes.len() as u64 > self.layout.slot_area() {
                return Err(PccheckError::InvalidConfig(format!(
                    "frame table at {off}+{} exceeds the slot's room",
                    bytes.len()
                )));
            }
            let base = self.slot_payload_offset(lease.slot);
            self.device.write_at(base + off, bytes)?;
            Ok(())
        })
    }

    /// Writes `payload` into the leased slot as an all-`Raw` frame —
    /// records at their logical offsets, the table after them — without
    /// persisting it. Records are as fine as half the slot's table allows,
    /// so a later [`write_delta_frame`](Self::write_delta_frame) can
    /// reference the untouched ones and still split the touched ones.
    /// Returns the bytes written from the start of the payload area, the
    /// range to persist before committing with `payload_len =
    /// payload.len()`.
    ///
    /// # Errors
    ///
    /// Propagates device errors; rejects payloads beyond the slot size.
    pub fn write_whole_frame(
        &self,
        lease: &SlotLease,
        payload: &[u8],
    ) -> Result<u64, PccheckError> {
        let len = payload.len() as u64;
        self.write_payload(lease, 0, payload)?;
        let mut raw = codec::RawFrame::new(len, 1, self.frame_capacity() / 2);
        raw.feed(payload);
        Ok(len + self.write_frame_table(lease, len, &raw.finish(lease.counter))?)
    }

    /// Writes `state` into the leased slot as a delta frame over the
    /// committed checkpoint `base`, whose state differs from `state` only
    /// inside the sorted, non-overlapping `dirty` ranges: the base's
    /// untouched records become references and the touched ones are split
    /// at the range boundaries and stored `Raw`, packed from the start of
    /// the payload area ([`codec::plan_delta`]), then the table after them.
    /// Does not persist. Returns the packed length (the commit's
    /// `payload_len`), the bytes written from the start of the payload
    /// area (the range to persist), and the link to commit with (`None`
    /// when every record was touched).
    ///
    /// # Errors
    ///
    /// [`PccheckError::InvalidConfig`] when `base` holds no frame of
    /// `state`'s length or the planned records overflow the slot's table;
    /// propagates device errors.
    pub fn write_delta_frame(
        &self,
        lease: &SlotLease,
        base: &CheckMeta,
        state: &[u8],
        dirty: &[(u64, u64)],
    ) -> Result<(u64, u64, Option<DeltaLink>), PccheckError> {
        let len = state.len() as u64;
        let pieces = self
            .read_frame(base)
            .filter(|frame| frame.logical_len == len)
            .map(|frame| {
                codec::plan_delta(&frame, base.slot, base.counter, dirty, codec::WHOLE_RECORD)
            })
            .filter(|pieces| pieces.len() <= self.frame_capacity())
            .ok_or_else(|| {
                PccheckError::InvalidConfig(format!(
                    "no delta frame of {len} bytes over checkpoint {}",
                    base.counter
                ))
            })?;
        let (mut records, mut off, mut packed) = (Vec::new(), 0u64, 0u64);
        for piece in pieces {
            let record = match piece {
                codec::DeltaRecord::Forward(record) => record,
                codec::DeltaRecord::Copy(n) => {
                    let bytes = &state[off as usize..(off + n) as usize];
                    self.write_payload(lease, packed, bytes)?;
                    packed += n;
                    let digest = codec::content_address(bytes);
                    FrameRecord::stored(codec::ChunkEncoding::Raw, packed - n, n, n, digest)
                }
            };
            off += record.logical_len;
            records.push(record);
        }
        let table = FrameTable {
            counter: lease.counter,
            logical_len: len,
            records,
        };
        let table_len = self.write_frame_table(lease, packed, &table)?;
        let link = table.references_base().then(|| DeltaLink::onto(base));
        Ok((packed, packed + table_len, link))
    }

    /// Persists a payload range of the leased slot (msync/fence granularity
    /// chosen by the engine).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn persist_payload(
        &self,
        lease: &SlotLease,
        chunk_offset: u64,
        len: u64,
    ) -> Result<(), PccheckError> {
        let base = self.slot_payload_offset(lease.slot);
        self.device.persist(base + chunk_offset, len)?;
        Ok(())
    }

    /// Completes the checkpoint: persists the slot's meta record and runs
    /// the CAS commit loop (Listing 1, lines 16–34). Consumes the lease.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn commit(
        &self,
        lease: SlotLease,
        iteration: u64,
        payload_len: u64,
        digest: u64,
    ) -> Result<CommitOutcome, PccheckError> {
        self.commit_with_delta(lease, iteration, payload_len, digest, None)
    }

    /// Commits a checkpoint whose frame references records of the
    /// checkpoint named by `delta` or of its chain (a delta frame, or a
    /// codec frame deduplicated against its base). Identical to
    /// [`commit`](Self::commit) except that, on success, every slot on the
    /// base chain stays pinned out of the free queue — the references name
    /// bytes in those slots. Pinned slots are released the next time a
    /// root checkpoint (or one on a different chain) commits.
    ///
    /// Delta commits assume the serial checkpoint discipline: the base must
    /// be the latest committed checkpoint, with no concurrent commit racing
    /// this one.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] for a `delta` link with
    /// `base_counter == 0` (reserved to mean "full"); propagates device
    /// errors.
    pub fn commit_with_delta(
        &self,
        lease: SlotLease,
        iteration: u64,
        payload_len: u64,
        digest: u64,
        delta: Option<DeltaLink>,
    ) -> Result<CommitOutcome, PccheckError> {
        if delta.is_some_and(|l| l.base_counter == 0) {
            return Err(PccheckError::InvalidConfig(
                "delta link base_counter 0 is reserved for full checkpoints".into(),
            ));
        }
        let meta = CheckMeta {
            counter: lease.counter,
            slot: lease.slot,
            iteration,
            payload_len,
            digest,
            delta,
        };
        // Lines 16-18: persist the checkpoint's own record before
        // publishing it (BARRIER(cur_check)).
        let rec = meta.encode();
        let meta_off = self.slot_meta_offset(lease.slot);
        self.device.write_at(meta_off, &rec)?;
        self.device.persist(meta_off, META_RECORD_SIZE)?;
        self.flight.record(
            FlightEventKind::MetaPersisted,
            lease.counter,
            lease.slot,
            iteration,
            payload_len,
            digest,
        );

        // The lease CASes its namespace's CHECK_ADDR and recycles into its
        // namespace's free queue.
        let ns = &lease.ns;
        let ours = PackedCheckAddr::pack(lease.counter, lease.slot);
        let mut last = lease.last_check;
        // Lines 19-34: the CAS loop.
        loop {
            match ns.commit.addr.compare_exchange(
                last.0,
                ours.0,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // Success: publish the Committed state word (the meta
                    // record is already durable, so the lattice ordering
                    // Claimed → meta persist → Committed holds), publish
                    // CHECK_ADDR, then free the displaced slot(s) — for a
                    // displaced delta chain, every chain slot the new
                    // checkpoint does not itself depend on.
                    self.publish_slot_state(
                        lease.slot,
                        SlotState::Committed {
                            counter: lease.counter,
                        },
                    )?;
                    self.publish_check_addr(ns)?;
                    if !last.is_none() {
                        let pinned = if meta.is_delta() {
                            self.chain_slots(lease.slot, lease.counter)
                        } else {
                            vec![lease.slot]
                        };
                        for displaced in self.chain_slots(last.slot(), last.counter()) {
                            if !pinned.contains(&displaced) {
                                self.await_published(displaced);
                                self.release_slot(&ns.free_slots, displaced);
                            }
                        }
                    }
                    return Ok(CommitOutcome::Committed);
                }
                Err(current) => {
                    let current = PackedCheckAddr(current);
                    if current.counter() < lease.counter {
                        // An older checkpoint is installed: retry against it.
                        last = current;
                        continue;
                    }
                    // A newer checkpoint won. Help publish CHECK_ADDR, then
                    // recycle our own slot — our data is obsolete. The
                    // durable state word stays Claimed{ours}: with our
                    // meta durable but a newer counter committed, the
                    // decision procedure classifies the slot Persisted —
                    // adoptable only if it were the max, which it is not.
                    self.publish_check_addr(ns)?;
                    self.flight.record(
                        FlightEventKind::Superseded,
                        lease.counter,
                        lease.slot,
                        iteration,
                        payload_len,
                        current.counter(),
                    );
                    self.release_slot(&ns.free_slots, lease.slot);
                    return Ok(CommitOutcome::SupersededBy {
                        counter: current.counter(),
                    });
                }
            }
        }
    }

    /// Write-back of the shared `CHECK_ADDR` location (the BARRIER on
    /// CHECK_ADDR), lock-free: persists the *current* value of the
    /// pointer, skipping the device round-trip entirely when the
    /// `fetch_max` watermark shows an equal-or-newer record is already
    /// durable. The pointer, watermark, and record offset are all the
    /// namespace's own.
    ///
    /// Racing publishers may interleave so that an older record lands
    /// *after* a newer one — harmless, because (a) the newer commit's
    /// slot record was durable before its publish began, (b) recovery's
    /// slot scan takes the max valid counter, and (c) a displaced slot is
    /// only recycled after the newer record persisted, so the stale
    /// record's slot still validates. The flight-ring Commit witness is
    /// recorded only by the publisher whose `fetch_max` actually advanced
    /// the watermark — exactly one witness per counter, though a late
    /// witness may appear after a newer one (the auditor tolerates the
    /// inversion while the checkpoint's window is still open).
    fn publish_check_addr(&self, ns: &Namespace) -> Result<(), PccheckError> {
        let (commit, rec_offset) = (&ns.commit, ns.check_rec_offset());
        loop {
            let current = PackedCheckAddr(commit.addr.load(Ordering::Acquire));
            if current.counter() <= commit.persisted.load(Ordering::Acquire) {
                return Ok(()); // an equal-or-newer record is already durable
            }
            // Re-encode the full meta record for the committed checkpoint
            // from its slot record (authoritative, already durable).
            let mut rec = [0u8; META_RECORD_SIZE as usize];
            self.device
                .read_durable_at(self.slot_meta_offset(current.slot()), &mut rec)?;
            self.device.write_at(rec_offset, &rec)?;
            self.device.persist(rec_offset, META_RECORD_SIZE)?;
            let prev = commit
                .persisted
                .fetch_max(current.counter(), Ordering::AcqRel);
            if prev < current.counter() {
                let (iteration, payload_len) = CheckMeta::decode(&rec)
                    .map(|m| (m.iteration, m.payload_len))
                    .unwrap_or((0, 0));
                self.flight.record(
                    FlightEventKind::Commit,
                    current.counter(),
                    current.slot(),
                    iteration,
                    payload_len,
                    0,
                );
            }
            // Loop: if the pointer advanced past what we just persisted,
            // help publish the newer value; otherwise the watermark check
            // exits on the next pass.
        }
    }

    /// Number of slots currently in free queues (diagnostics): the sum
    /// across namespaces (unallocated slots are not counted — they belong
    /// to no queue yet).
    pub fn free_slot_count(&self) -> usize {
        self.namespaces
            .read()
            .iter()
            .map(|ns| ns.free_slots.len())
            .sum()
    }

    /// Number of free slots in `job`'s namespace.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when `job` has no
    /// namespace.
    pub fn free_slot_count_job(&self, job: JobId) -> Result<usize, PccheckError> {
        Ok(self.namespace_for(Some(job))?.free_slots.len())
    }

    /// Namespace directory capacity (1 on a [`format`](Self::format)ted
    /// store).
    pub fn max_namespaces(&self) -> u32 {
        self.layout.max_namespaces
    }

    /// Snapshot of the allocated namespace descriptors, in allocation
    /// order.
    pub fn namespaces(&self) -> Vec<NamespaceDesc> {
        self.namespaces.read().iter().map(|ns| ns.desc).collect()
    }

    /// The job whose namespace owns `slot`, or `None` for unallocated
    /// slots.
    pub fn namespace_of_slot(&self, slot: u32) -> Option<JobId> {
        self.namespaces
            .read()
            .iter()
            .find(|ns| ns.desc.slot_range().contains(&slot))
            .map(|ns| ns.desc.job)
    }

    /// Slots not yet carved into any namespace (the admission budget
    /// remaining): `num_slots` minus allocated ranges, so 0 on a
    /// [`format`](Self::format)ted store.
    pub fn unallocated_slots(&self) -> u32 {
        self.layout.slots - self.next_free_slot.load(Ordering::Acquire)
    }

    /// Every slot currently holding a *complete* checkpoint (valid durable
    /// meta record), sorted by counter ascending. Beyond the latest
    /// committed checkpoint this may include superseded-but-intact older
    /// ones — PCcheck's N+1 slots double as a short checkpoint history,
    /// which the monitoring tooling (§2.1 of the paper) exploits.
    ///
    /// # Errors
    ///
    /// Propagates device read errors.
    pub fn history(&self) -> Result<Vec<CheckMeta>, PccheckError> {
        let mut found = Vec::new();
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        for slot in 0..self.layout.slots {
            self.device
                .read_durable_at(self.slot_meta_offset(slot), &mut rec)?;
            if let Some(meta) = CheckMeta::decode(&rec) {
                if meta.slot == slot {
                    found.push(meta);
                }
            }
        }
        found.sort_by_key(|m| m.counter);
        Ok(found)
    }

    /// Reads the payload of a historical checkpoint identified by `meta`
    /// (as returned by [`history`](Self::history)), verifying the meta
    /// record still matches (the slot may have been recycled since).
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::CorruptCheckpoint`] if the slot has been
    /// recycled or torn since `meta` was read; propagates device errors.
    pub fn read_checkpoint(&self, meta: &CheckMeta) -> Result<Vec<u8>, PccheckError> {
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        self.device
            .read_durable_at(self.slot_meta_offset(meta.slot), &mut rec)?;
        if CheckMeta::decode(&rec).as_ref() != Some(meta) {
            return Err(PccheckError::CorruptCheckpoint {
                counter: meta.counter,
            });
        }
        let mut payload = vec![0u8; meta.payload_len as usize];
        self.device
            .read_durable_at(self.slot_payload_offset(meta.slot), &mut payload)?;
        // Re-validate after the read: the payload is only trustworthy if
        // the meta record is unchanged (recycling writes payload first).
        self.device
            .read_durable_at(self.slot_meta_offset(meta.slot), &mut rec)?;
        if CheckMeta::decode(&rec).as_ref() != Some(meta) {
            return Err(PccheckError::CorruptCheckpoint {
                counter: meta.counter,
            });
        }
        Ok(payload)
    }
}

/// A read-only, durable-bytes-only view of a store's on-device state,
/// loadable **while the device is still crashed** (it never touches the
/// volatile overlay and never mutates anything). This is what the
/// post-crash forensic auditor replays the flight ring against.
#[derive(Debug, Clone)]
pub struct RawStoreView {
    /// Number of slots in the store.
    pub slots: u32,
    /// Per-slot payload capacity.
    pub slot_size: ByteSize,
    /// Flight-ring capacity in records (0 = no ring).
    pub flight_records: u32,
    /// Namespace directory capacity (1 on a `format`ted store).
    pub max_namespaces: u32,
    /// Each slot's durable meta record, if it decodes and names its own
    /// slot (`slot_meta[s]` is `None` for empty/torn/mis-slotted records).
    pub slot_meta: Vec<Option<CheckMeta>>,
    /// Each slot's durable commit-state word, if the record decodes
    /// (`None` = torn → the decision procedure falls back to the meta CRC
    /// alone).
    pub slot_state: Vec<Option<SlotState>>,
    /// Allocated namespaces, in directory order.
    pub namespaces: Vec<RawNamespace>,
    layout: Layout,
}

/// The post-crash classification of one slot, decided from its durable
/// state word plus its meta record's CRC alone (the *detectable* half of
/// the lock-free commit protocol; see DESIGN §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No claim on record and no valid meta: the slot never held data
    /// (or only unpersisted garbage).
    Empty,
    /// Claimed{counter}, and the meta record does not (yet) describe that
    /// claim: the checkpoint died before its meta barrier. Not
    /// recoverable, by design.
    InFlight {
        /// Counter of the interrupted claim.
        counter: u64,
    },
    /// Claimed{counter} with a valid meta record for exactly that
    /// counter: the meta barrier completed but the Committed word did not
    /// land. Recovery may adopt it if it is the max counter — the durable
    /// meta, not the head publish, is what commits a checkpoint.
    Persisted {
        /// Counter of the fully persisted checkpoint.
        counter: u64,
    },
    /// Committed{counter} with a matching valid meta record.
    Committed {
        /// Counter of the committed checkpoint.
        counter: u64,
    },
    /// A valid meta record with no live claim on the word (Free or torn):
    /// an intact checkpoint from a past slot life.
    Historical {
        /// Counter from the slot's meta record.
        counter: u64,
    },
    /// Committed{counter} whose meta record is missing or names a
    /// different counter — unreachable under the protocol's ordering
    /// (meta persists before the Committed word) and therefore an
    /// invariant violation.
    Torn {
        /// Counter from the durable Committed word.
        state_counter: u64,
        /// Counter of the valid-but-mismatched meta record, if any.
        meta_counter: Option<u64>,
    },
}

impl std::fmt::Display for SlotOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotOutcome::Empty => f.write_str("empty"),
            SlotOutcome::InFlight { counter } => write!(f, "in-flight#{counter}"),
            SlotOutcome::Persisted { counter } => write!(f, "persisted#{counter}"),
            SlotOutcome::Committed { counter } => write!(f, "committed#{counter}"),
            SlotOutcome::Historical { counter } => write!(f, "historical#{counter}"),
            SlotOutcome::Torn {
                state_counter,
                meta_counter,
            } => write!(f, "TORN#{state_counter}/meta:{meta_counter:?}"),
        }
    }
}

/// One namespace's durable directory state, as seen by the forensic
/// auditor.
#[derive(Debug, Clone)]
pub struct RawNamespace {
    /// The namespace descriptor (job, slot range).
    pub desc: NamespaceDesc,
    /// The namespace's durable check record, if it decodes and names a
    /// slot inside the namespace's own range.
    pub check_addr: Option<CheckMeta>,
}

impl RawStoreView {
    /// Loads the view from durable bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if no valid store header is
    /// found; propagates device read errors.
    pub fn load(device: &dyn PersistentDevice) -> Result<RawStoreView, PccheckError> {
        let layout = Layout::read(device)?;
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        let mut slot_meta = Vec::with_capacity(layout.slots as usize);
        let mut slot_state = Vec::with_capacity(layout.slots as usize);
        let mut state_rec = [0u8; SLOT_STATE_SIZE as usize];
        for s in 0..layout.slots {
            device.read_durable_at(layout.slot_meta(s), &mut rec)?;
            slot_meta.push(CheckMeta::decode(&rec).filter(|m| {
                m.slot == s && ByteSize::from_bytes(m.payload_len) <= layout.slot_size
            }));
            device.read_durable_at(layout.slot_state(s), &mut state_rec)?;
            slot_state.push(SlotState::decode(&state_rec));
        }

        let mut namespaces = Vec::new();
        for i in 0..layout.max_namespaces {
            let Some(desc) = layout.read_ns_desc(device, i)? else {
                continue;
            };
            device.read_durable_at(layout.ns_entry(i) + NS_DESC_SIZE, &mut rec)?;
            let check_addr =
                CheckMeta::decode(&rec).filter(|m| desc.slot_range().contains(&m.slot));
            namespaces.push(RawNamespace { desc, check_addr });
        }

        Ok(RawStoreView {
            slots: layout.slots,
            slot_size: layout.slot_size,
            flight_records: layout.flight_records,
            max_namespaces: layout.max_namespaces,
            slot_meta,
            slot_state,
            namespaces,
            layout,
        })
    }

    /// The decision procedure over the commit-state lattice: classifies
    /// one slot's post-crash outcome from its durable state word plus its
    /// meta record's CRC — nothing else. Total: every (word, meta)
    /// combination maps to exactly one [`SlotOutcome`], and only
    /// [`SlotOutcome::Torn`] is unreachable under the protocol's
    /// ordering (the auditor flags it as an invariant violation).
    pub fn slot_outcome(&self, slot: u32) -> SlotOutcome {
        let meta = self.slot_meta.get(slot as usize).copied().flatten();
        let state = self.slot_state.get(slot as usize).copied().flatten();
        match (state, meta) {
            (None | Some(SlotState::Free), None) => SlotOutcome::Empty,
            (None | Some(SlotState::Free), Some(m)) => {
                SlotOutcome::Historical { counter: m.counter }
            }
            (Some(SlotState::Claimed { counter }), Some(m)) if m.counter == counter => {
                SlotOutcome::Persisted { counter }
            }
            (Some(SlotState::Claimed { counter }), _) => SlotOutcome::InFlight { counter },
            (Some(SlotState::Committed { counter }), Some(m)) if m.counter == counter => {
                SlotOutcome::Committed { counter }
            }
            (Some(SlotState::Committed { counter }), meta) => SlotOutcome::Torn {
                state_counter: counter,
                meta_counter: meta.map(|m| m.counter),
            },
        }
    }

    /// [`slot_outcome`](Self::slot_outcome) for every slot, in order.
    pub fn slot_outcomes(&self) -> Vec<SlotOutcome> {
        (0..self.slots).map(|s| self.slot_outcome(s)).collect()
    }

    /// Device offset of `slot`'s payload.
    pub fn slot_payload_offset(&self, slot: u32) -> u64 {
        self.layout.slot_meta(slot) + META_RECORD_SIZE
    }

    /// Reads and binds `meta`'s frame table from durable bytes (see
    /// [`codec::read_frame`]).
    pub fn read_frame(
        &self,
        device: &dyn PersistentDevice,
        meta: &CheckMeta,
    ) -> Option<FrameTable> {
        self.layout.read_frame(device, meta)
    }

    /// Device offset of the flight ring header (meaningful only when
    /// [`flight_records`](Self::flight_records) > 0).
    pub fn flight_base(&self) -> u64 {
        self.layout.flight_base()
    }

    /// The newest checkpoint recovery would restore across every
    /// namespace (on a `format`ted store: the owner namespace's).
    pub fn expected_recovery(&self) -> Option<CheckMeta> {
        self.namespaces
            .iter()
            .filter_map(|ns| self.expected_recovery_for(ns.desc.job))
            .max_by_key(|m| m.counter)
    }

    /// The checkpoint recovery would restore for `job`'s namespace,
    /// replicating `CheckpointStore::open`'s scan over durable bytes: the
    /// max-counter checkpoint among a slot-consistent check record and the
    /// valid slot records of the namespace's range. `None` when the job
    /// has no namespace or nothing committed.
    pub fn expected_recovery_for(&self, job: u64) -> Option<CheckMeta> {
        let ns = self.namespaces.iter().find(|ns| ns.desc.job == job)?;
        let range = ns.desc.slot_range();
        let mut best: Option<CheckMeta> = ns
            .check_addr
            .filter(|ca| self.slot_meta.get(ca.slot as usize) == Some(&Some(*ca)));
        for s in range {
            if let Some(meta) = self.slot_meta.get(s as usize).copied().flatten() {
                if best.is_none_or(|b| meta.counter > b.counter) {
                    best = Some(meta);
                }
            }
        }
        best
    }

    /// The job whose namespace owns `slot`, or `None` for unallocated
    /// slots.
    pub fn namespace_of_slot(&self, slot: u32) -> Option<u64> {
        self.namespaces
            .iter()
            .find(|ns| ns.desc.slot_range().contains(&slot))
            .map(|ns| ns.desc.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, SsdDevice};

    fn store(slot_size: u64, slots: u32) -> CheckpointStore {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(slot_size), slots);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        CheckpointStore::format(dev, ByteSize::from_bytes(slot_size), slots, 0).unwrap()
    }

    fn full_checkpoint(st: &CheckpointStore, iter: u64, payload: &[u8]) -> CommitOutcome {
        let lease = st.begin_checkpoint(None).unwrap();
        let written = st.write_whole_frame(&lease, payload).unwrap();
        st.persist_payload(&lease, 0, written).unwrap();
        let digest = crate::meta::checksum(payload);
        st.commit(lease, iter, payload.len() as u64, digest)
            .unwrap()
    }

    #[test]
    fn format_then_no_committed_checkpoint() {
        let st = store(256, 3);
        assert_eq!(st.latest_committed(), None);
        assert_eq!(st.free_slot_count(), 3);
        assert_eq!(st.num_slots(), 3);
        assert_eq!(st.slot_size().as_u64(), 256);
    }

    #[test]
    fn commit_installs_latest() {
        let st = store(256, 3);
        let out = full_checkpoint(&st, 10, b"payload-at-iter-10");
        assert_eq!(out, CommitOutcome::Committed);
        let meta = st.latest_committed().unwrap();
        assert_eq!(meta.iteration, 10);
        assert_eq!(meta.payload_len, 18);
        // Committed slot is held out of the queue.
        assert_eq!(st.free_slot_count(), 2);
    }

    #[test]
    fn successive_commits_recycle_slots() {
        let st = store(64, 2); // N=1
        for i in 1..=20u64 {
            let out = full_checkpoint(&st, i, format!("it{i}").as_bytes());
            assert_eq!(out, CommitOutcome::Committed);
            assert_eq!(st.latest_committed().unwrap().iteration, i);
            assert_eq!(st.free_slot_count(), 1);
        }
    }

    #[test]
    fn out_of_order_commit_is_superseded() {
        let st = store(64, 3);
        let lease_old = st.begin_checkpoint(None).unwrap(); // counter 1
        let lease_new = st.begin_checkpoint(None).unwrap(); // counter 2
        st.write_payload(&lease_new, 0, b"new").unwrap();
        st.persist_payload(&lease_new, 0, 3).unwrap();
        assert_eq!(
            st.commit(lease_new, 2, 3, 0).unwrap(),
            CommitOutcome::Committed
        );
        st.write_payload(&lease_old, 0, b"old").unwrap();
        st.persist_payload(&lease_old, 0, 3).unwrap();
        let out = st.commit(lease_old, 1, 3, 0).unwrap();
        assert_eq!(out, CommitOutcome::SupersededBy { counter: 2 });
        // The newer checkpoint remains installed.
        assert_eq!(st.latest_committed().unwrap().iteration, 2);
        // Both non-committed slots are free again.
        assert_eq!(st.free_slot_count(), 2);
    }

    #[test]
    fn oversized_payload_rejected() {
        let st = store(8, 2);
        let lease = st.begin_checkpoint(None).unwrap();
        assert!(st.write_payload(&lease, 4, &[0u8; 8]).is_err());
        st.write_payload(&lease, 0, &[0u8; 8]).unwrap();
        // Return the lease through a commit to avoid leaking the slot.
        st.commit(lease, 1, 8, 0).unwrap();
    }

    #[test]
    fn open_recovers_committed_checkpoint() {
        let payload = b"durable-state".to_vec();
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        {
            let st =
                CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 0).unwrap();
            full_checkpoint(&st, 7, &payload);
        }
        dev.crash_now();
        dev.recover();
        let st = CheckpointStore::open(Arc::clone(&dev)).unwrap();
        let meta = st.latest_committed().unwrap();
        assert_eq!(meta.iteration, 7);
        assert_eq!(meta.payload_len, payload.len() as u64);
        // Counter resumes above the recovered one.
        let lease = st.begin_checkpoint(None).unwrap();
        assert!(lease.counter > meta.counter);
        assert_ne!(lease.slot, meta.slot, "committed slot is not leased out");
    }

    #[test]
    fn open_rejects_unformatted_device() {
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(4)),
        ));
        assert!(matches!(
            CheckpointStore::open(dev),
            Err(PccheckError::InvalidConfig(_))
        ));
    }

    #[test]
    fn format_rejects_bad_geometry() {
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(4)),
        ));
        assert!(CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 1, 0).is_err());
        assert!(CheckpointStore::format(Arc::clone(&dev), ByteSize::ZERO, 2, 0).is_err());
        assert!(
            CheckpointStore::format(dev, ByteSize::from_gb(1.0), 2, 0).is_err(),
            "device too small"
        );
    }

    #[test]
    fn crash_before_commit_preserves_previous() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 2);
        let dev_concrete = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = dev_concrete.clone();
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 2, 0).unwrap();
        full_checkpoint(&st, 1, b"first");
        // Second checkpoint: payload written + persisted, meta written but
        // CRASH before the meta record persists / CAS runs.
        let lease = st.begin_checkpoint(None).unwrap();
        st.write_payload(&lease, 0, b"second").unwrap();
        st.persist_payload(&lease, 0, 6).unwrap();
        dev.crash_now();
        dev.recover();
        let st2 = CheckpointStore::open(dev).unwrap();
        let meta = st2.latest_committed().unwrap();
        assert_eq!(meta.iteration, 1, "first checkpoint survives the crash");
    }

    #[test]
    fn fallback_scan_recovers_newer_fully_persisted_slot() {
        // Commit #1 normally. For #2, persist payload + slot meta, then
        // crash before CHECK_ADDR persists. The fallback scan must find #2.
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 0).unwrap();
        full_checkpoint(&st, 1, b"one");
        let lease = st.begin_checkpoint(None).unwrap();
        st.write_payload(&lease, 0, b"two").unwrap();
        st.persist_payload(&lease, 0, 3).unwrap();
        // Persist the slot meta record manually (as commit() would), then
        // crash before the CHECK_ADDR update.
        let meta = CheckMeta {
            counter: lease.counter,
            slot: lease.slot,
            iteration: 2,
            payload_len: 3,
            digest: 0,
            delta: None,
        };
        let off = st.slot_meta_offset(lease.slot);
        dev.write_at(off, &meta.encode()).unwrap();
        dev.persist(off, META_RECORD_SIZE).unwrap();
        dev.crash_now();
        dev.recover();
        let st2 = CheckpointStore::open(dev).unwrap();
        assert_eq!(st2.latest_committed().unwrap().iteration, 2);
    }

    #[test]
    fn history_lists_complete_checkpoints_in_counter_order() {
        let st = store(64, 4); // N=3: up to 3 historical + 1 latest
        for i in 1..=3u64 {
            full_checkpoint(&st, i, format!("payload-{i}").as_bytes());
        }
        let hist = st.history().unwrap();
        assert_eq!(hist.len(), 3);
        assert!(hist.windows(2).all(|w| w[0].counter < w[1].counter));
        assert_eq!(hist.last().unwrap().iteration, 3);
        // Payloads read back intact.
        for meta in &hist {
            let payload = st.read_checkpoint(meta).unwrap();
            assert_eq!(payload, format!("payload-{}", meta.iteration).into_bytes());
        }
    }

    #[test]
    fn read_checkpoint_detects_recycled_slot() {
        let st = store(64, 2); // tight store: slots recycle fast
        full_checkpoint(&st, 1, b"one");
        let old = st.history().unwrap()[0];
        full_checkpoint(&st, 2, b"two");
        full_checkpoint(&st, 3, b"three");
        // Slot of checkpoint 1 has been recycled by now.
        assert!(matches!(
            st.read_checkpoint(&old),
            Err(PccheckError::CorruptCheckpoint { .. })
        ));
    }

    #[test]
    fn flight_ring_witnesses_lifecycle_and_survives_crash() {
        use pccheck_telemetry::FlightEventKind as K;
        let cap = CheckpointStore::required_capacity_service(ByteSize::from_bytes(64), 3, 32, 1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st =
            CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 32).unwrap();
        assert!(st.flight().is_enabled());
        full_checkpoint(&st, 5, b"five");
        full_checkpoint(&st, 6, b"six");
        dev.crash_now();
        // The ring is readable from durable bytes while crashed.
        let base = Layout::new(ByteSize::from_bytes(64), 3, 32, 1).flight_base();
        let scan = FlightRing::scan(dev.as_ref(), base).unwrap();
        let kinds: Vec<K> = scan.records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            [
                K::RunStart,
                K::Begin,
                K::MetaPersisted,
                K::Commit,
                K::Begin,
                K::MetaPersisted,
                K::Commit,
            ]
        );
        // Commit counters are strictly monotone and match the metadata.
        let commits: Vec<u64> = scan
            .records
            .iter()
            .filter(|r| r.kind == K::Commit)
            .map(|r| r.counter)
            .collect();
        assert_eq!(commits, [1, 2]);
        // Reopening resumes the ring.
        dev.recover();
        let st2 = CheckpointStore::open(Arc::clone(&dev)).unwrap();
        assert!(st2.flight().is_enabled());
        full_checkpoint(&st2, 7, b"seven");
        let scan2 = st2.flight().ring().unwrap().read_all().unwrap();
        assert_eq!(scan2.records.len(), scan.records.len() + 3);
    }

    #[test]
    fn raw_view_matches_store_state_while_crashed() {
        let cap = CheckpointStore::required_capacity_service(ByteSize::from_bytes(64), 3, 16, 1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st =
            CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 16).unwrap();
        full_checkpoint(&st, 3, b"abc");
        let committed = st.latest_committed().unwrap();
        dev.crash_now();
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        assert_eq!(view.slots, 3);
        assert_eq!(view.slot_size.as_u64(), 64);
        assert_eq!(view.flight_records, 16);
        assert_eq!(view.namespaces[0].check_addr, Some(committed));
        assert_eq!(view.expected_recovery(), Some(committed));
        let room = codec::table_room(st.frame_capacity());
        assert_eq!(view.flight_base(), st.slot_meta_offset(2) + 64 + 64 + room);
    }

    /// Commits `payload` as a delta frame over the latest commit, whose
    /// bytes differ from it only inside `dirty`.
    fn delta_checkpoint(
        st: &CheckpointStore,
        iter: u64,
        payload: &[u8],
        dirty: &[(u64, u64)],
    ) -> CommitOutcome {
        let base = st.latest_committed().expect("delta needs a committed base");
        let lease = st.begin_checkpoint(None).unwrap();
        let (packed, written, link) = st.write_delta_frame(&lease, &base, payload, dirty).unwrap();
        assert!(link.is_some(), "untouched records reference the base");
        st.persist_payload(&lease, 0, written).unwrap();
        let digest = crate::meta::checksum(payload);
        st.commit_with_delta(lease, iter, packed, digest, link)
            .unwrap()
    }

    #[test]
    fn delta_commit_pins_the_chain_until_a_full_checkpoint() {
        let st = store(64, 4);
        full_checkpoint(&st, 1, b"base");
        assert_eq!(st.free_slot_count(), 3);
        let d1 = delta_checkpoint(&st, 2, b"bAse", &[(1, 1)]);
        assert_eq!(d1, CommitOutcome::Committed);
        // Base + delta both pinned.
        assert_eq!(st.free_slot_count(), 2);
        let d2 = delta_checkpoint(&st, 3, b"bABe", &[(2, 1)]);
        assert_eq!(d2, CommitOutcome::Committed);
        assert_eq!(st.free_slot_count(), 1);
        let head = st.latest_committed().unwrap();
        assert_eq!(head.iteration, 3);
        assert_eq!(head.delta.unwrap().chain_depth, 2);
        // A full checkpoint releases the whole displaced chain.
        full_checkpoint(&st, 4, b"full");
        assert_eq!(st.free_slot_count(), 3);
        assert!(!st.latest_committed().unwrap().is_delta());
    }

    #[test]
    fn delta_commit_rejects_reserved_base_counter() {
        let st = store(64, 3);
        full_checkpoint(&st, 1, b"base");
        let lease = st.begin_checkpoint(None).unwrap();
        st.write_payload(&lease, 0, b"d").unwrap();
        st.persist_payload(&lease, 0, 1).unwrap();
        let err = st.commit_with_delta(
            lease,
            2,
            1,
            0,
            Some(DeltaLink {
                base_counter: 0,
                base_slot: 0,
                chain_depth: 1,
            }),
        );
        assert!(matches!(err, Err(PccheckError::InvalidConfig(_))));
    }

    #[test]
    fn open_pins_the_committed_delta_chain() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 4);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        {
            let st =
                CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 4, 0).unwrap();
            full_checkpoint(&st, 1, b"base");
            delta_checkpoint(&st, 2, b"bAse", &[(1, 1)]);
            delta_checkpoint(&st, 3, b"bABe", &[(2, 1)]);
        }
        dev.crash_now();
        dev.recover();
        let st = CheckpointStore::open(dev).unwrap();
        let head = st.latest_committed().unwrap();
        assert_eq!(head.iteration, 3);
        assert_eq!(head.delta.unwrap().chain_depth, 2);
        // Only the one slot outside the 3-slot chain is free.
        assert_eq!(st.free_slot_count(), 1);
        let lease = st.begin_checkpoint(None).unwrap();
        let chain: Vec<u32> = {
            let mut c = vec![head.slot];
            let mut link = head.delta;
            while let Some(l) = link {
                c.push(l.base_slot);
                let hist = st.history().unwrap();
                link = hist
                    .iter()
                    .find(|m| m.counter == l.base_counter)
                    .and_then(|m| m.delta);
            }
            c
        };
        assert!(
            !chain.contains(&lease.slot),
            "no chain slot is ever leased out"
        );
    }

    #[test]
    fn frame_table_round_trips_and_binds_to_commit() {
        let st = store(8192, 3);
        assert_eq!(
            st.frame_capacity(),
            64,
            "small slots get the capacity floor"
        );
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        let lease = st.begin_checkpoint(None).unwrap();
        let mut raw = codec::RawFrame::new(8192, 4096, st.frame_capacity());
        raw.feed(&payload);
        let table = raw.finish(lease.counter);
        st.write_payload(&lease, 0, &payload).unwrap();
        let table_len = st.write_frame_table(&lease, 8192, &table).unwrap();
        st.persist_payload(&lease, 0, 8192 + table_len).unwrap();
        st.commit(lease, 1, 8192, crate::meta::checksum(&payload))
            .unwrap();
        let meta = st.latest_committed().unwrap();
        assert_eq!(st.read_frame(&meta), Some(table.clone()));
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.read_frame(st.device().as_ref(), &meta), Some(table));
        // A table past the slot's room is refused before any write.
        let lease = st.begin_checkpoint(None).unwrap();
        let huge = FrameTable {
            counter: lease.counter,
            logical_len: 0,
            records: Vec::new(),
        };
        assert!(st.write_frame_table(&lease, 1 << 20, &huge).is_err());
        st.commit(lease, 2, 0, 0).unwrap();
    }

    #[test]
    fn concurrent_commits_maintain_invariants() {
        let st = Arc::new(store(64, 4)); // N=3
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let st = Arc::clone(&st);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let iter = t * 1000 + i;
                        let payload = iter.to_le_bytes();
                        let lease = st.begin_checkpoint(None).unwrap();
                        st.write_payload(&lease, 0, &payload).unwrap();
                        st.persist_payload(&lease, 0, 8).unwrap();
                        st.commit(lease, iter, 8, 0).unwrap();
                    }
                });
            }
        });
        // After the dust settles: one committed checkpoint, 3 free slots.
        let meta = st.latest_committed().expect("something committed");
        assert!(meta.counter >= 1);
        assert_eq!(st.free_slot_count(), 3);
        // The committed payload matches what that iteration wrote.
        let mut buf = [0u8; 8];
        st.device()
            .read_durable_at(st.slot_payload_offset(meta.slot), &mut buf)
            .unwrap();
        assert_eq!(u64::from_le_bytes(buf), meta.iteration);
    }

    // ------------------------------------------------- service mode

    fn service_store(slot_size: u64, slots: u32, max_ns: u32) -> CheckpointStore {
        let cap = CheckpointStore::required_capacity_service(
            ByteSize::from_bytes(slot_size),
            slots,
            0,
            max_ns,
        );
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        CheckpointStore::format_service(dev, ByteSize::from_bytes(slot_size), slots, 0, max_ns)
            .unwrap()
    }

    fn job_checkpoint(
        st: &CheckpointStore,
        job: JobId,
        iter: u64,
        payload: &[u8],
    ) -> CommitOutcome {
        let lease = st.begin_checkpoint(Some(job)).unwrap();
        st.write_payload(&lease, 0, payload).unwrap();
        st.persist_payload(&lease, 0, payload.len() as u64).unwrap();
        let digest = crate::meta::checksum(payload);
        st.commit(lease, iter, payload.len() as u64, digest)
            .unwrap()
    }

    #[test]
    fn service_format_allocate_and_isolate_jobs() {
        let st = service_store(128, 8, 4);
        assert_eq!(st.unallocated_slots(), 8);
        let a = st.allocate_namespace(1, 3).unwrap();
        let b = st.allocate_namespace(2, 3).unwrap();
        assert_eq!((a.slot_start, a.slot_count), (0, 3));
        assert_eq!((b.slot_start, b.slot_count), (3, 3));
        assert_eq!(st.unallocated_slots(), 2);
        assert_eq!(st.namespace_of_slot(1), Some(1));
        assert_eq!(st.namespace_of_slot(4), Some(2));
        assert_eq!(st.namespace_of_slot(7), None);

        // Commits in one namespace are invisible to the other.
        assert_eq!(
            job_checkpoint(&st, 1, 5, b"job1-a"),
            CommitOutcome::Committed
        );
        assert_eq!(
            job_checkpoint(&st, 2, 9, b"job2-a"),
            CommitOutcome::Committed
        );
        assert_eq!(
            job_checkpoint(&st, 1, 6, b"job1-b"),
            CommitOutcome::Committed
        );
        let m1 = st.latest_committed_job(1).unwrap().unwrap();
        let m2 = st.latest_committed_job(2).unwrap().unwrap();
        assert_eq!(m1.iteration, 6);
        assert_eq!(m2.iteration, 9);
        assert!(a.slot_range().contains(&m1.slot));
        assert!(b.slot_range().contains(&m2.slot));
        // Global counters are unique across jobs.
        assert_ne!(m1.counter, m2.counter);
        // Per-job free accounting: one slot pinned per job.
        assert_eq!(st.free_slot_count_job(1).unwrap(), 2);
        assert_eq!(st.free_slot_count_job(2).unwrap(), 2);
    }

    #[test]
    fn service_admission_rejections() {
        let st = service_store(128, 6, 2);
        st.allocate_namespace(7, 4).unwrap();
        // Duplicate job.
        assert!(st.allocate_namespace(7, 2).is_err());
        // Over the slot budget (only 2 remain).
        assert!(st.allocate_namespace(8, 3).is_err());
        // Too few slots.
        assert!(st.allocate_namespace(8, 1).is_err());
        // Fits exactly.
        st.allocate_namespace(8, 2).unwrap();
        // Directory full.
        assert!(st.allocate_namespace(9, 2).is_err());
        // Unknown job cannot begin, and a service store has no owner
        // namespace for unscoped leases.
        assert!(st.begin_checkpoint(Some(99)).is_err());
        assert!(st.begin_checkpoint(None).is_err());
    }

    #[test]
    fn service_reopen_recovers_every_namespace() {
        let slot_size = 128u64;
        let cap =
            CheckpointStore::required_capacity_service(ByteSize::from_bytes(slot_size), 8, 0, 4);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let st = CheckpointStore::format_service(
            Arc::clone(&dev),
            ByteSize::from_bytes(slot_size),
            8,
            0,
            4,
        )
        .unwrap();
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        job_checkpoint(&st, 1, 10, b"one-10");
        job_checkpoint(&st, 2, 20, b"two-20");
        job_checkpoint(&st, 1, 11, b"one-11");
        let c1 = st.latest_committed_job(1).unwrap().unwrap().counter;
        drop(st);

        let st2 = CheckpointStore::open(dev).unwrap();
        assert_eq!(st2.namespaces().len(), 2);
        let m1 = st2.latest_committed_job(1).unwrap().unwrap();
        let m2 = st2.latest_committed_job(2).unwrap().unwrap();
        assert_eq!(m1.iteration, 11);
        assert_eq!(m2.iteration, 20);
        // Payloads reload intact through the namespaced metadata.
        assert_eq!(st2.read_checkpoint(&m1).unwrap(), b"one-11");
        assert_eq!(st2.read_checkpoint(&m2).unwrap(), b"two-20");
        // The resumed global counter is past every namespace's commits.
        let lease = st2.begin_checkpoint(Some(2)).unwrap();
        assert!(lease.counter > c1);
        assert!(lease.counter > m2.counter);
        // Committed slots stayed pinned; the rest of each range is free.
        assert_eq!(st2.free_slot_count_job(1).unwrap(), 2);
        assert_eq!(st2.free_slot_count_job(2).unwrap(), 1); // one leased now
    }

    #[test]
    fn service_crash_mid_commit_keeps_namespaces_independent() {
        let slot_size = 128u64;
        let cap =
            CheckpointStore::required_capacity_service(ByteSize::from_bytes(slot_size), 6, 0, 2);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let st = CheckpointStore::format_service(
            Arc::clone(&dev),
            ByteSize::from_bytes(slot_size),
            6,
            0,
            2,
        )
        .unwrap();
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        job_checkpoint(&st, 1, 10, b"one-10");
        job_checkpoint(&st, 2, 20, b"two-20");
        // Job 1 writes but crashes before its meta persists: the volatile
        // overlay (unpersisted writes) is torn away.
        let lease = st.begin_checkpoint(Some(1)).unwrap();
        st.write_payload(&lease, 0, b"one-11-torn").unwrap();
        ssd.crash_now();
        ssd.recover();
        drop(st);

        let st2 = CheckpointStore::open(dev).unwrap();
        // Job 1 recovers its previous commit; job 2 is untouched.
        assert_eq!(st2.latest_committed_job(1).unwrap().unwrap().iteration, 10);
        assert_eq!(st2.latest_committed_job(2).unwrap().unwrap().iteration, 20);
        // The torn slot returned to job 1's free queue.
        assert_eq!(st2.free_slot_count_job(1).unwrap(), 2);
    }

    #[test]
    fn service_raw_view_expected_recovery_per_job() {
        let st = service_store(128, 8, 4);
        st.allocate_namespace(5, 4).unwrap();
        st.allocate_namespace(6, 4).unwrap();
        job_checkpoint(&st, 5, 100, b"five");
        job_checkpoint(&st, 6, 200, b"six");
        job_checkpoint(&st, 5, 101, b"five2");
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.max_namespaces, 4);
        assert_eq!(view.namespaces.len(), 2);
        assert_eq!(view.expected_recovery_for(5).unwrap().iteration, 101);
        assert_eq!(view.expected_recovery_for(6).unwrap().iteration, 200);
        assert!(view.expected_recovery_for(7).is_none());
        assert_eq!(view.namespace_of_slot(0), Some(5));
        assert_eq!(view.namespace_of_slot(4), Some(6));
        // The global diagnostic view picks the newest across namespaces.
        assert_eq!(view.expected_recovery().unwrap().iteration, 101);
    }

    #[test]
    fn format_carves_one_owner_namespace() {
        let st = store(256, 3);
        full_checkpoint(&st, 4, b"owner");
        let owner = NamespaceDesc {
            job: OWNER_JOB,
            slot_start: 0,
            slot_count: 3,
        };
        assert_eq!(st.namespaces(), [owner]);
        assert_eq!(st.max_namespaces(), 1);
        assert_eq!(st.unallocated_slots(), 0);
        assert_eq!(
            st.latest_committed_job(OWNER_JOB).unwrap(),
            st.latest_committed()
        );
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.max_namespaces, 1);
        assert_eq!(view.namespaces.len(), 1);
        assert_eq!(view.namespaces[0].desc, owner);
        assert_eq!(view.expected_recovery(), st.latest_committed());
        // The directory is full, and jobs other than the owner have no
        // namespace to run in.
        assert!(st.allocate_namespace(1, 2).is_err());
        assert!(st.begin_checkpoint(Some(1)).is_err());
        assert!(st.latest_committed_job(1).is_err());
        assert!(st.free_slot_count_job(1).is_err());
    }

    #[test]
    fn old_layout_header_is_rejected() {
        let st = store(64, 3);
        full_checkpoint(&st, 1, b"one");
        let dev = Arc::clone(st.device());
        drop(st);
        // The earlier layouts' magics: "PCcheCk1" (no namespaces),
        // "PCcheCk2" (per-slot digest region, unframed slots) and
        // "PCcheCk3" (slots that may hold extent-table deltas).
        for old in [
            0x5043_6368_6543_6B31u64,
            0x5043_6368_6543_6B32,
            0x5043_6368_6543_6B33,
        ] {
            dev.write_at(0, &old.to_le_bytes()).unwrap();
            dev.persist(0, 8).unwrap();
            assert!(matches!(
                CheckpointStore::open(Arc::clone(&dev)),
                Err(PccheckError::InvalidConfig(_))
            ));
            assert!(matches!(
                RawStoreView::load(dev.as_ref()),
                Err(PccheckError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn slot_states_track_the_commit_lattice() {
        let st = store(64, 3);
        for s in 0..3 {
            assert_eq!(st.slot_commit_state(s), SlotState::Free);
        }
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert!(view.slot_state.iter().all(|s| *s == Some(SlotState::Free)));

        // Claim: Free -> Claimed{counter}, in memory and on the device.
        let lease = st.begin_checkpoint(None).unwrap();
        let claimed = SlotState::Claimed {
            counter: lease.counter,
        };
        assert_eq!(st.slot_commit_state(lease.slot), claimed);
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.slot_state[lease.slot as usize], Some(claimed));
        assert_eq!(
            view.slot_outcome(lease.slot),
            SlotOutcome::InFlight {
                counter: lease.counter
            }
        );

        // Commit: Claimed -> Committed{counter}, durably.
        let (c1_slot, c1) = (lease.slot, lease.counter);
        st.write_payload(&lease, 0, b"one").unwrap();
        st.persist_payload(&lease, 0, 3).unwrap();
        st.commit(lease, 1, 3, crate::meta::checksum(b"one"))
            .unwrap();
        let committed = SlotState::Committed { counter: c1 };
        assert_eq!(st.slot_commit_state(c1_slot), committed);
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.slot_state[c1_slot as usize], Some(committed));
        assert_eq!(
            view.slot_outcome(c1_slot),
            SlotOutcome::Committed { counter: c1 }
        );

        // Displacement recycles the slot in memory but never rewrites the
        // durable word: the high-water record keeps the slot decidable as
        // a (stale but valid) committed checkpoint until it is re-claimed.
        let out2 = full_checkpoint(&st, 2, b"two");
        assert_eq!(out2, CommitOutcome::Committed);
        assert_eq!(st.slot_commit_state(c1_slot), SlotState::Free);
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.slot_state[c1_slot as usize], Some(committed));
        assert_eq!(
            view.slot_outcome(c1_slot),
            SlotOutcome::Committed { counter: c1 }
        );

        // Re-claiming the displaced slot overwrites the durable word; the
        // stale meta no longer matches, so the slot reads as in-flight.
        let mut lease3 = st.begin_checkpoint(None).unwrap();
        if lease3.slot != c1_slot {
            // Two free slots: keep drawing until the displaced one comes up.
            let other = lease3;
            lease3 = st.begin_checkpoint(None).unwrap();
            st.commit(other, 3, 0, crate::meta::checksum(b"")).unwrap();
        }
        assert_eq!(lease3.slot, c1_slot, "displaced slot recycles via queue");
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(
            view.slot_outcome(c1_slot),
            SlotOutcome::InFlight {
                counter: lease3.counter
            }
        );
        st.commit(lease3, 4, 0, crate::meta::checksum(b"")).unwrap();
    }

    #[test]
    fn crash_between_claim_and_meta_publish_is_decidable() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let (committed_slot, committed_ctr, leased_slot, leased_ctr);
        {
            let st =
                CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 0).unwrap();
            full_checkpoint(&st, 1, b"one");
            let prev = st.latest_committed().unwrap();
            (committed_slot, committed_ctr) = (prev.slot, prev.counter);
            // Claim a slot (state word goes durable) and crash before any
            // meta is written for it.
            let lease = st.begin_checkpoint(None).unwrap();
            (leased_slot, leased_ctr) = (lease.slot, lease.counter);
            std::mem::forget(lease);
        }
        dev.crash_now();
        dev.recover();
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        assert_eq!(
            view.slot_outcome(leased_slot),
            SlotOutcome::InFlight {
                counter: leased_ctr
            },
            "claimed-but-unpublished slot is decidably in-flight"
        );
        assert_eq!(
            view.slot_outcome(committed_slot),
            SlotOutcome::Committed {
                counter: committed_ctr
            }
        );
        // Recovery discards the in-flight claim and reopens the slot.
        let st = CheckpointStore::open(dev).unwrap();
        assert_eq!(st.latest_committed().unwrap().iteration, 1);
        assert_eq!(st.free_slot_count(), 2);
        assert_eq!(st.slot_commit_state(leased_slot), SlotState::Free);
    }

    #[test]
    fn crash_between_meta_persist_and_committed_word_is_adoptable() {
        // The window between the meta record persisting and the state
        // word's Committed CAS: the slot reads as Persisted{c} and the
        // max-counter recovery scan adopts it.
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 0).unwrap();
        full_checkpoint(&st, 1, b"one");
        let lease = st.begin_checkpoint(None).unwrap();
        st.write_payload(&lease, 0, b"two").unwrap();
        st.persist_payload(&lease, 0, 3).unwrap();
        let meta = CheckMeta {
            counter: lease.counter,
            slot: lease.slot,
            iteration: 2,
            payload_len: 3,
            digest: crate::meta::checksum(b"two"),
            delta: None,
        };
        let off = st.slot_meta_offset(lease.slot);
        dev.write_at(off, &meta.encode()).unwrap();
        dev.persist(off, META_RECORD_SIZE).unwrap();
        let (slot, counter) = (lease.slot, lease.counter);
        std::mem::forget(lease);
        dev.crash_now();
        dev.recover();
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        assert_eq!(
            view.slot_outcome(slot),
            SlotOutcome::Persisted { counter },
            "meta persisted before the Committed word: adoptable"
        );
        let st2 = CheckpointStore::open(dev).unwrap();
        assert_eq!(st2.latest_committed().unwrap().iteration, 2);
    }

    #[test]
    fn racing_commits_never_produce_torn_outcomes() {
        let st = Arc::new(store(64, 6)); // N=5
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let st = Arc::clone(&st);
                s.spawn(move || {
                    for i in 0..30u64 {
                        let iter = t * 1000 + i;
                        let payload = iter.to_le_bytes();
                        let lease = st.begin_checkpoint(None).unwrap();
                        st.write_payload(&lease, 0, &payload).unwrap();
                        st.persist_payload(&lease, 0, 8).unwrap();
                        st.commit(lease, iter, 8, 0).unwrap();
                    }
                });
            }
        });
        // Every slot's durable record decides to a lattice point; the Torn
        // verdict is unreachable while the protocol's ordering holds.
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        for (s, outcome) in view.slot_outcomes().into_iter().enumerate() {
            assert!(
                !matches!(outcome, SlotOutcome::Torn { .. }),
                "slot {s} reads torn: {outcome:?}"
            );
        }
        // The winner is decidably committed, at the head the store reports.
        let head = st.latest_committed().unwrap();
        assert_eq!(
            view.slot_outcome(head.slot),
            SlotOutcome::Committed {
                counter: head.counter
            }
        );
        assert_eq!(st.free_slot_count(), 5);
    }
}
