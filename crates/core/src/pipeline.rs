//! The shared persist pipeline: chunk → write → fence → commit.
//!
//! Every storage-backed strategy in this repository — the PCcheck engine
//! and the traditional/CheckFreq/GPM baselines — moves checkpoint bytes
//! through the same four mechanical stages: slice the snapshot into
//! chunks, write each chunk into a leased slot, fence it durable, and run
//! the store's lock-free commit (meta publish → durable `Committed`
//! state word → `fetch_max` head advance — never a mutex across device
//! I/O). What *differs* between strategies is pure
//! scheduling policy: when the training thread stalls, how many
//! concurrency tickets exist, whether the copier runs inline or on a
//! background thread, and whether fences are issued per writer (PMEM) or
//! deferred into one `msync` (SSD).
//!
//! Every slot a strategy commits is a frame log (see [`crate::codec`]):
//! records, then the frame table. The chunk-scheduled strategies run one
//! producer→writer loop ([`PersistPipeline::copy_frame`]): lease → copy
//! chunk → digest → self/base dedup lookup → writer (compress-gated,
//! reserve a physical offset, write, fence) → table last → seal → commit.
//! Staged vs streamed and codec on/off are arguments of that loop, not
//! separate paths. The whole-buffer baselines write the same all-`Raw`
//! frame on their own schedule.
//!
//! [`PersistPipeline`] owns the mechanism so the strategies reduce to
//! policy. It also owns the pipeline's telemetry: per-chunk write/persist
//! stage latencies ([`Telemetry::stage_write`] /
//! [`Telemetry::stage_persist`]) and the per-device submission-queue
//! gauges sampled from [`PersistentDevice::queue_depths`] — including
//! every member of a striped or tiered composite device.
//!
//! [`PersistentDevice::queue_depths`]: pccheck_device::PersistentDevice::queue_depths

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;

use pccheck_device::{chunk_digest, HostBuffer, HostBufferPool};
use pccheck_gpu::{merge_ranges, SnapshotSource};
use pccheck_telemetry::{FlightEventKind, Phase, SpanId, Telemetry};
use pccheck_util::sync::Mutex;
use pccheck_util::ByteSize;

use crate::codec::{
    self, compress_gated, ChunkEncoding, DedupIndex, DeltaRecord, FrameRecord, FrameTable,
    RawFrame, WHOLE_RECORD,
};
use crate::error::PccheckError;
use crate::meta::{CheckMeta, DeltaLink};
use crate::qos::QosArbiter;
use crate::store::{CheckpointStore, CommitOutcome, JobId, SlotLease};

/// Where a writer puts a chunk.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Verbatim at this payload offset.
    At(u64),
    /// Codec record `i`: compress-gated, then packed at the next free
    /// physical offset.
    Pack(usize),
}

/// How one run of the chunk loop picks each record.
enum Records {
    /// Every chunk `Raw` at its logical offset (the codec off).
    Raw,
    /// Every chunk content-addressed: a repeat of an earlier chunk of this
    /// frame, or of a materialized record of the base (if any), becomes a
    /// reference; every other chunk is packed.
    Codec(Option<CheckMeta>),
    /// A delta plan over the base: forwarded references, and touched
    /// pieces that are packed.
    Delta(CheckMeta, Vec<DeltaRecord>),
}

/// A chunk on its way from a copy's producer to a writer: where it goes,
/// its length, and the DRAM buffer holding it.
type StreamChunk = (Place, usize, HostBuffer);

/// The physical placements writers chose for one frame's packed records:
/// a bump cursor over the packed region, and `(record, kind, offset,
/// length)` per record placed.
#[derive(Debug, Default)]
struct Packing {
    cursor: AtomicU64,
    placed: Mutex<Vec<(usize, ChunkEncoding, u64, u64)>>,
}

/// The producer's end of the chunk writers: one channel per writer, dealt
/// round-robin. Each writer owns its receiver, so a writer never waits on
/// another to claim work, and all of them see the end of the stream at
/// once.
struct WriterFeed<'a> {
    txs: Vec<SyncSender<StreamChunk>>,
    sent: usize,
    abort: &'a AtomicBool,
}

impl WriterFeed<'_> {
    /// Hands `chunk` to the next writer in turn.
    fn send(&mut self, chunk: StreamChunk) {
        let tx = &self.txs[self.sent % self.txs.len()];
        self.sent += 1;
        tx.send(chunk).expect("writers outlive producer");
    }

    /// Whether a writer hit a device error (the producer should stop).
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }
}

/// Tile size for the GPU-kernel write-through loop (kernel grids move data
/// in bounded tiles; GPM's SSD/PMEM adaptation).
pub const KERNEL_COPY_CHUNK: usize = 4 * 1024 * 1024;

/// How payload fences are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceMode {
    /// Each writer persists the chunks it wrote (required on PMEM, where
    /// fences are per-thread — §4.1).
    PerWriter,
    /// Writers only write; the coordinator issues one deferred fence over
    /// the whole payload in [`PersistPipeline::seal`] (the SSD `msync`
    /// optimization).
    Deferred,
}

/// When the delta path gives up and streams a full checkpoint instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPolicy {
    /// Fall back to a full checkpoint when dirty bytes exceed this fraction
    /// of the full state (a dense update saves nothing and costs a table).
    pub max_dirty_ratio: f64,
    /// Longest allowed base chain. Every `max_chain`-th checkpoint is
    /// forced full, bounding how many slots a chain pins and how many
    /// payloads recovery must replay.
    pub max_chain: u32,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        DeltaPolicy {
            max_dirty_ratio: 0.5,
            max_chain: 7,
        }
    }
}

/// How [`PersistPipeline::copy_frame`] schedules and encodes one frame
/// (the default streams with the codec off).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameMode {
    /// Copy the whole snapshot into DRAM before the first write (Figure 6)
    /// instead of overlapping copy and persist chunk by chunk (Figure 7).
    /// Needs a staging pool that holds the whole snapshot.
    pub staged: bool,
    /// Let the codec choose each record's kind (compressed, deduplicated
    /// within the frame or against the latest commit, whose chain the
    /// policy bounds). `None` stores every record `Raw` at its logical
    /// offset.
    pub codec: Option<DeltaPolicy>,
}

/// Rolled-up outcome of [`PersistPipeline::checkpoint_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// A delta frame was persisted, chained onto the base: the records
    /// the dirty extents touched, plus references to the rest.
    Delta {
        /// Bytes the frame occupies on the device: packed records plus
        /// table ([`FramedPlan::persisted_len`]).
        payload_len: u64,
        /// Snapshot bytes copied and materialized: the dirty extents and
        /// the clean remainder of the base records they touched.
        dirty_bytes: u64,
        /// Depth of the committed checkpoint in its chain.
        chain_depth: u32,
    },
    /// The policy fell back to a full streamed checkpoint (an all-`Raw`
    /// frame with no link).
    Full,
}

/// Telemetry context for one checkpoint's trip through the pipeline.
#[derive(Clone, Copy)]
pub struct PipelineCtx<'a> {
    /// The recording handle (may be disabled: every hook no-ops).
    pub telemetry: &'a Telemetry,
    /// The checkpoint's span.
    pub span: SpanId,
}

/// The shared chunk-scheduled I/O layer over a [`CheckpointStore`].
///
/// Cloning is cheap: clones share the store and the DRAM staging pool, so
/// a strategy may hand a clone to a background persist thread.
#[derive(Debug, Clone)]
pub struct PersistPipeline {
    store: Arc<CheckpointStore>,
    pool: Option<HostBufferPool>,
    /// Writer-pool width (`p` in the paper). Atomic and shared across
    /// clones so the online controller can retune it between checkpoints
    /// without rebuilding the pipeline.
    writers: Arc<AtomicUsize>,
    fence: FenceMode,
    /// Bandwidth arbiter gating writer-pool leases when several jobs
    /// multiplex this pipeline (service mode). `None` = no arbitration.
    qos: Option<Arc<QosArbiter>>,
    /// Chunk codec + dedup state, shared across clones (the controller
    /// toggles `enabled`; the dedup index survives across checkpoints).
    codec: Arc<CodecState>,
}

/// Shared chunk-codec state: the on/off switch the controller flips and
/// the content-addressed dedup index over each job's latest frame.
#[derive(Debug, Default)]
struct CodecState {
    enabled: AtomicBool,
    dedup: Mutex<DedupIndex>,
}

/// What [`PersistPipeline::copy_frame`] persisted and what
/// [`PersistPipeline::commit_framed`] must bind to the commit record.
#[derive(Debug, Clone)]
pub struct FramedPlan {
    /// Persist-phase start timestamp for the caller's `seal`.
    pub persist_start: u64,
    /// Packed record bytes in the slot: the commit's payload length, and
    /// the range `seal` fences (the table after it is already durable).
    pub payload_len: u64,
    /// The full-state digest the commit records.
    pub digest: u64,
    /// Back-pointer pinning the base checkpoint, present iff any chunk
    /// deduplicated against it.
    pub link: Option<DeltaLink>,
    /// Logical (uncompressed) payload length.
    pub logical_len: u64,
    /// Bytes the codec avoided persisting: logical − packed − table, 0
    /// when the frame did not shrink (see
    /// [`persisted_len`](Self::persisted_len) for what it cost).
    pub saved_bytes: u64,
    /// Chunks stored as dedup references instead of materialized bytes.
    pub dedup_chunks: u64,
    /// The frame table as persisted (commit installs the next dedup
    /// generation from its materialized records).
    pub table: FrameTable,
}

impl FramedPlan {
    /// Bytes the frame occupies on the device: packed records plus table.
    pub fn persisted_len(&self) -> u64 {
        self.payload_len + self.table.encoded_len()
    }
}

impl PersistPipeline {
    /// A single-writer, per-writer-fence pipeline over `store` with no
    /// DRAM staging pool (whole-buffer strategies).
    pub fn new(store: Arc<CheckpointStore>) -> Self {
        PersistPipeline {
            store,
            pool: None,
            writers: Arc::new(AtomicUsize::new(1)),
            fence: FenceMode::PerWriter,
            qos: None,
            codec: Arc::new(CodecState::default()),
        }
    }

    /// Sets the number of parallel writer threads (`p` in the paper).
    pub fn with_writers(self, writers: usize) -> Self {
        self.set_writers(writers);
        self
    }

    /// Retunes the writer-pool width online; takes effect on the next
    /// copy call (in-flight checkpoints keep the width they started with).
    pub fn set_writers(&self, writers: usize) {
        self.writers.store(writers.max(1), Ordering::Release);
    }

    /// The current writer-pool width.
    pub fn writers(&self) -> usize {
        self.writers.load(Ordering::Acquire)
    }

    /// Enables or disables the chunk codec at build time.
    pub fn with_codec(self, enabled: bool) -> Self {
        self.set_codec_enabled(enabled);
        self
    }

    /// Flips the chunk codec online (the controller's switch). Disabling
    /// also drops the dedup index: re-enabling starts from a cold index
    /// rather than trusting generations whose age is unknown.
    pub fn set_codec_enabled(&self, enabled: bool) {
        let was = self.codec.enabled.swap(enabled, Ordering::AcqRel);
        if was && !enabled {
            self.codec.dedup.lock().clear();
        }
    }

    /// Whether the chunk codec is currently enabled.
    pub fn codec_enabled(&self) -> bool {
        self.codec.enabled.load(Ordering::Acquire)
    }

    /// Sets the fence mode.
    pub fn with_fence(mut self, fence: FenceMode) -> Self {
        self.fence = fence;
        self
    }

    /// Attaches the DRAM staging pool the chunk loop
    /// ([`copy_frame`](Self::copy_frame)) copies through.
    pub fn with_staging(mut self, pool: HostBufferPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches the bandwidth QoS arbiter: every chunk write first
    /// acquires a byte-metered grant on behalf of the lease's job, so
    /// concurrent jobs share the writer pool in weighted-deficit
    /// round-robin order instead of device-queue arrival order.
    pub fn with_qos(mut self, qos: Arc<QosArbiter>) -> Self {
        self.qos = Some(qos);
        self
    }

    /// The attached QoS arbiter, when one is installed.
    pub fn qos(&self) -> Option<&Arc<QosArbiter>> {
        self.qos.as_ref()
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// The fence mode this pipeline issues.
    pub fn fence(&self) -> FenceMode {
        self.fence
    }

    /// The staging pool, when one is attached.
    pub fn staging_pool(&self) -> Option<&HostBufferPool> {
        self.pool.as_ref()
    }

    fn pool(&self) -> &HostBufferPool {
        self.pool
            .as_ref()
            .expect("chunk-scheduled copy paths need a staging pool")
    }

    /// Leases a free slot from `job`'s namespace (`None` = the store's
    /// owner namespace) and refreshes the queue-depth gauges with that
    /// namespace's free-slot count.
    ///
    /// # Errors
    ///
    /// Fails when `job` names no namespace in the store.
    pub fn lease_for(
        &self,
        ctx: PipelineCtx<'_>,
        job: Option<JobId>,
    ) -> Result<SlotLease, PccheckError> {
        let lease = self.store.begin_checkpoint(job)?;
        let free = self.store.free_slot_count_job(lease.job())?;
        ctx.telemetry.gauge_queue_depth(free as u64);
        self.sample_device_queues(ctx);
        Ok(lease)
    }

    /// Writes one payload chunk, feeding the write-stage histogram and the
    /// per-device submission-queue gauges. Returns the nanoseconds spent in
    /// the device call (media time, for the writer's queue-wait split).
    fn write_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        self.store.write_payload(lease, offset, data)?;
        let mut media = 0;
        if ctx.telemetry.is_enabled() {
            media = ctx.telemetry.now_nanos().saturating_sub(start);
            ctx.telemetry.stage_write(media);
            self.sample_device_queues(ctx);
        }
        Ok(media)
    }

    /// Fences one payload range, feeding the persist-stage histogram.
    /// Returns the nanoseconds spent in the device call (media time).
    fn persist_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        offset: u64,
        len: u64,
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        self.store.persist_payload(lease, offset, len)?;
        let mut media = 0;
        if ctx.telemetry.is_enabled() {
            media = ctx.telemetry.now_nanos().saturating_sub(start);
            ctx.telemetry.stage_persist(media);
        }
        Ok(media)
    }

    /// Samples the device's submission queues into the per-device gauges
    /// and, when a QoS arbiter is attached, feeds the summed depth into
    /// its backpressure cap. Composite devices report the controller at
    /// index 0 and each member after it.
    fn sample_device_queues(&self, ctx: PipelineCtx<'_>) {
        if self.qos.is_none() && !ctx.telemetry.is_enabled() {
            return;
        }
        let depths = self.store.device().queue_depths();
        if let Some(q) = &self.qos {
            q.observe_queue_depth(depths.iter().copied().sum());
        }
        if !ctx.telemetry.is_enabled() {
            return;
        }
        for (i, depth) in depths.iter().enumerate() {
            ctx.telemetry.gauge_device_queue(i, *depth);
        }
    }

    /// Writes one chunk and, in [`FenceMode::PerWriter`], fences it; emits
    /// the per-chunk `Persist` telemetry either way (in deferred mode the
    /// fence follows in [`seal`](Self::seal)).
    fn write_and_fence_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, PccheckError> {
        // Held across write + fence: the grant is the writer-pool lease
        // the WDRR arbiter schedules.
        let _grant = self
            .qos
            .as_ref()
            .map(|q| q.acquire(lease.job(), data.len() as u64));
        let mut media = self.write_chunk(ctx, lease, offset, data)?;
        if self.fence == FenceMode::PerWriter {
            media += self.persist_chunk(ctx, lease, offset, data.len() as u64)?;
        }
        ctx.telemetry
            .chunk(ctx.span, Phase::Persist, offset, data.len() as u64);
        Ok(media)
    }

    /// A writer's handling of one codec record: keep the LZ form when the
    /// gate says it pays, reserve the next physical offset of the packed
    /// region, write (and fence) there, and record the placement. Returns
    /// `(media nanos, bytes written)`.
    fn pack_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        packing: &Packing,
        record: usize,
        data: &[u8],
    ) -> Result<(u64, usize), PccheckError> {
        let compressed = compress_gated(data);
        let (kind, bytes) = match &compressed {
            Some(c) => (ChunkEncoding::Lz, c.as_slice()),
            None => (ChunkEncoding::Raw, data),
        };
        let len = bytes.len() as u64;
        let off = packing.cursor.fetch_add(len, Ordering::Relaxed);
        let media = self.write_and_fence_chunk(ctx, lease, off, bytes)?;
        packing.placed.lock().push((record, kind, off, len));
        Ok((media, bytes.len()))
    }

    /// Runs `produce` against the `p` chunk writers — the one place the
    /// pipeline fans out threads — and returns what it returned once every
    /// writer has drained, with the time the first writer started (the
    /// earliest a streamed copy's persist phase can begin: thread start-up
    /// is setup, not device idle time inside it).
    ///
    /// A writer persists each chunk it is dealt, then frees its DRAM
    /// buffer. After the first device error (raising the abort flag the
    /// feed exposes) writers stop issuing I/O but keep draining, so the
    /// producer never blocks on a full pool.
    ///
    /// # Errors
    ///
    /// The first device error any writer hit.
    fn run_writers<R>(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        packing: &Packing,
        produce: impl FnOnce(&mut WriterFeed<'_>) -> R,
    ) -> Result<(R, u64), PccheckError> {
        let errors: Mutex<Vec<PccheckError>> = Mutex::new(Vec::new());
        let abort = AtomicBool::new(false);
        let first_start = AtomicU64::new(u64::MAX);
        let out = std::thread::scope(|s| {
            let txs = (0..self.writers())
                .map(|w| {
                    // The pool bounds the chunks in flight; the channel need not.
                    let (tx, rx) = sync_channel::<StreamChunk>(self.pool().total_chunks());
                    let (errors, abort, first_start) = (&errors, &abort, &first_start);
                    s.spawn(move || {
                        let actor_start = ctx.telemetry.now_nanos();
                        first_start.fetch_min(actor_start, Ordering::Relaxed);
                        let mut actor_bytes = 0u64;
                        let mut media_nanos = 0u64;
                        for (place, len, buf) in rx {
                            if !abort.load(Ordering::Acquire) {
                                let data = &buf.as_slice()[..len];
                                let done = match place {
                                    Place::At(off) => self
                                        .write_and_fence_chunk(ctx, lease, off, data)
                                        .map(|media| (media, len)),
                                    Place::Pack(i) => self.pack_chunk(ctx, lease, packing, i, data),
                                };
                                match done {
                                    Ok((media, bytes)) => {
                                        actor_bytes += bytes as u64;
                                        media_nanos += media;
                                    }
                                    Err(e) => {
                                        errors.lock().push(e);
                                        abort.store(true, Ordering::Release);
                                    }
                                }
                            }
                            drop(buf); // free the DRAM chunk for the producer
                        }
                        if actor_bytes > 0 && ctx.telemetry.is_enabled() {
                            ctx.telemetry.actor_span_split(
                                ctx.span,
                                &format!("writer-{w}"),
                                actor_start,
                                actor_bytes,
                                media_nanos,
                            );
                        }
                    });
                    tx
                })
                .collect();
            let mut feed = WriterFeed {
                txs,
                sent: 0,
                abort: &abort,
            };
            let out = produce(&mut feed);
            drop(feed); // writers drain and exit
            out
        });
        match errors.into_inner().into_iter().next() {
            Some(e) => Err(e),
            None => Ok((out, first_start.into_inner())),
        }
    }

    /// The chunk loop every chunk-scheduled checkpoint runs: a producer
    /// copies the snapshot chunk by chunk through the DRAM pool while `p`
    /// writers persist already-copied chunks (all chunks are copied first
    /// when `mode.staged`). Once every writer has drained, the frame table
    /// is written and fenced after every record it describes — a torn
    /// frame is never mistaken for a complete one.
    ///
    /// Without the codec every record is `Raw` at its logical offset. With
    /// it, the producer content-addresses each chunk and records it as a
    /// reference when it repeats an earlier chunk of this frame (checked
    /// byte for byte against the snapshot, which is still held) or a
    /// materialized chunk of the job's latest commit (whose chain
    /// `mode.codec` bounds); every other chunk goes to a writer, which
    /// keeps it LZ-compressed when that pays and packs it at the next free
    /// physical offset. The codec only picks record kinds, so there is
    /// nothing to decline: an incompressible snapshot commits an all-`Raw`
    /// frame. When the slot's table cannot hold a record per pool chunk,
    /// records span several chunks and the codec stays off.
    ///
    /// `digest` is the full-state digest the caller commits
    /// ([`FramedPlan::digest`]); restore verifies codec frames against it
    /// end to end.
    ///
    /// # Errors
    ///
    /// Propagates the first device error any writer hit.
    pub fn copy_frame(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        total: ByteSize,
        digest: u64,
        mode: FrameMode,
    ) -> Result<FramedPlan, PccheckError> {
        let chunk = self.pool().chunk_size().as_u64();
        let total = total.as_u64();
        let capacity = self.store.frame_capacity() as u64;
        let records = match mode.codec.filter(|_| total.div_ceil(chunk) <= capacity) {
            None => Records::Raw,
            // Cross-checkpoint dedup bases on the job's latest committed
            // checkpoint, bounded by the same chain policy as deltas:
            // every base reference pins the base's slot via a `DeltaLink`.
            Some(policy) => Records::Codec(
                self.store
                    .latest_committed_for(lease)
                    .filter(|b| b.chain_depth() < policy.max_chain),
            ),
        };
        self.run_frame(ctx, src, lease, total, digest, mode.staged, records)
    }

    /// The body of [`copy_frame`](Self::copy_frame) and
    /// [`copy_delta`](Self::copy_delta): the producer walks `records`'
    /// pieces against the writers, then the frame's packed records are
    /// placed and its table written and fenced after them.
    #[allow(clippy::too_many_arguments)]
    fn run_frame(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        total: u64,
        digest: u64,
        staged: bool,
        records: Records,
    ) -> Result<FramedPlan, PccheckError> {
        let pool = self.pool();
        let chunk = pool.chunk_size().as_u64();
        let capacity = self.store.frame_capacity();
        let (raw, codec) = (
            matches!(records, Records::Raw),
            matches!(records, Records::Codec(_)),
        );
        // The checkpoint a reference-holding frame links to, and the one
        // dedup lookups answer from.
        let (link_base, dedup_base) = match &records {
            Records::Raw => (None, None),
            Records::Codec(base) => (*base, *base),
            Records::Delta(base, _) => (Some(*base), None),
        };
        let whole: Vec<DeltaRecord>;
        let pieces: &[DeltaRecord] = match &records {
            Records::Delta(_, pieces) => pieces,
            _ => {
                whole = (0..total.div_ceil(chunk))
                    .map(|i| DeltaRecord::Copy(chunk.min(total - i * chunk)))
                    .collect();
                &whole
            }
        };
        let packing = Packing::default();
        let run = |feed: &mut WriterFeed<'_>| {
            let copy_start = ctx.telemetry.now_nanos();
            let mut raw_frame = RawFrame::new(total, chunk, capacity);
            let mut records: Vec<FrameRecord> = Vec::new();
            // Content address → (record, logical offset) of the first
            // materialized chunk with it.
            let mut self_seen: HashMap<u64, (usize, u64)> = HashMap::new();
            let mut scratch = Vec::new();
            let mut staged_chunks = Vec::new();
            let mut off = 0u64;
            for piece in pieces {
                if feed.aborted() {
                    break;
                }
                let n = match *piece {
                    DeltaRecord::Forward(r) => {
                        records.push(r);
                        off += r.logical_len;
                        continue;
                    }
                    DeltaRecord::Copy(n) => n as usize,
                };
                let mut buf = pool.acquire();
                src.copy_range_to_host(off, &mut buf.as_mut_slice()[..n]);
                ctx.telemetry.chunk(ctx.span, Phase::GpuCopy, off, n as u64);
                let data = &buf.as_slice()[..n];
                let place = if raw {
                    raw_frame.feed(data);
                    Some(Place::At(off))
                } else {
                    let d = chunk_digest(data);
                    let i = records.len();
                    let len = n as u64;
                    let repeat = self_seen.get(&d).copied().filter(|&(j, j_off)| {
                        records[j].logical_len == len && {
                            scratch.resize(n, 0);
                            src.copy_range_to_host(j_off, &mut scratch);
                            scratch == data
                        }
                    });
                    let lookup = || {
                        let base = dedup_base?;
                        let dedup = self.codec.dedup.lock();
                        dedup.lookup(lease.job(), base.counter, d, len)
                    };
                    let (record, place) = if let Some((j, _)) = repeat {
                        (FrameRecord::dedup_self(j, len, d), None)
                    } else if let Some(hit) = lookup() {
                        (FrameRecord::dedup_base(hit, len, d), None)
                    } else {
                        if codec {
                            self_seen.entry(d).or_insert((i, off));
                        }
                        // Placed after the writers drain.
                        let record = FrameRecord::stored(ChunkEncoding::Raw, 0, 0, len, d);
                        (record, Some(Place::Pack(i)))
                    };
                    records.push(record);
                    place
                };
                if let Some(place) = place {
                    let c = (place, n, buf);
                    if staged {
                        staged_chunks.push(c);
                    } else {
                        feed.send(c);
                    }
                }
                off += n as u64;
            }
            ctx.telemetry
                .phase_done(ctx.span, Phase::GpuCopy, copy_start);
            if off >= total {
                self.store.flight().record(
                    FlightEventKind::CopyDone,
                    lease.counter,
                    lease.slot,
                    0,
                    total,
                    0,
                );
            }
            // A staged copy starts persisting once the snapshot is in DRAM.
            let staged_end = if staged { ctx.telemetry.now_nanos() } else { 0 };
            staged_chunks.into_iter().for_each(|c| feed.send(c));
            let records = match raw {
                // Cut short by a writer's error, which run_writers returns.
                true if off < total => Vec::new(),
                true => raw_frame.finish(lease.counter).records,
                false => records,
            };
            (staged_end, records)
        };
        // An aborted copy returns the writer's error and writes no table.
        let ((staged_end, records), first_writer) = self.run_writers(ctx, lease, &packing, run)?;
        let persist_start = staged_end.max(first_writer);
        let mut table = FrameTable {
            counter: lease.counter,
            logical_len: total,
            records,
        };
        let packed = if raw {
            total
        } else {
            for (i, kind, off, len) in packing.placed.into_inner() {
                let r = &mut table.records[i];
                *r = FrameRecord::stored(kind, off, len, r.logical_len, r.digest);
            }
            packing.cursor.into_inner()
        };
        // The table goes last, after every record it describes. It is not a
        // chunk, so the per-chunk stage histograms leave it out; the
        // device's persisted-byte count includes it.
        let table_len = self.store.write_frame_table(lease, packed, &table)?;
        self.store.persist_payload(lease, packed, table_len)?;

        let dedup_chunks = table
            .records
            .iter()
            .filter(|r| !r.kind.is_materialized())
            .count() as u64;
        let saved_bytes = total.saturating_sub(packed + table_len);
        if codec {
            ctx.telemetry.add_codec_bytes_saved(saved_bytes);
            ctx.telemetry.add_dedup_chunks(dedup_chunks);
            ctx.telemetry
                .gauge_compression_ratio((packed + table_len) * 1000 / total.max(1));
        }
        let link = table
            .references_base()
            .then(|| DeltaLink::onto(&link_base.expect("base references require a base")));
        Ok(FramedPlan {
            persist_start,
            payload_len: packed,
            digest,
            link,
            logical_len: total,
            saved_bytes,
            dedup_chunks,
            table,
        })
    }

    /// Pipelined copy (Figure 7) with the codec off: the chunk loop of
    /// [`copy_frame`](Self::copy_frame) committing an all-`Raw` frame of
    /// `total` packed bytes. Commit it with [`commit`](Self::commit) and the
    /// full-state digest.
    ///
    /// Returns the persist-phase start timestamp (the phases overlap, so
    /// it coincides with the copy start).
    ///
    /// # Errors
    ///
    /// Propagates the first device error any writer hit.
    pub fn copy_streamed(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        total: ByteSize,
    ) -> Result<u64, PccheckError> {
        // The caller's `commit` records the digest; the plan's is unused.
        self.copy_frame(ctx, src, lease, total, 0, FrameMode::default())
            .map(|plan| plan.persist_start)
    }

    /// Codec copy: the chunk loop of [`copy_frame`](Self::copy_frame),
    /// streamed, with the codec choosing record kinds. Always `Some`: the
    /// codec only picks record kinds, so an incompressible snapshot
    /// commits an all-`Raw` frame.
    ///
    /// `full_digest` is the digest of the complete logical state; restore
    /// verifies the reconstructed payload against it end to end.
    ///
    /// # Errors
    ///
    /// Propagates the first device error any writer hit.
    pub fn copy_framed(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        total: ByteSize,
        full_digest: u64,
        policy: DeltaPolicy,
    ) -> Result<Option<FramedPlan>, PccheckError> {
        let mode = FrameMode {
            codec: Some(policy),
            ..FrameMode::default()
        };
        self.copy_frame(ctx, src, lease, total, full_digest, mode)
            .map(Some)
    }

    /// Incremental copy: persists a delta frame over the job's latest
    /// commit through the chunk loop of [`copy_frame`](Self::copy_frame).
    /// The base's untouched records are forwarded as references
    /// ([`codec::plan_delta`]); the records the snapshot's dirty extents
    /// touch are split at the extent boundaries, copied, content-addressed
    /// and packed (compress-gated) by the writers. The plan's link pins
    /// every checkpoint the references name.
    ///
    /// Streams a full all-`Raw` frame instead — a plan with no link — when
    /// the dirty ratio exceeds `policy.max_dirty_ratio` (checked before
    /// the base's table is read), there is no committed base, the base
    /// chain is already `policy.max_chain` links long, the base describes
    /// a different state size, or the planned records would not fit the
    /// slot's frame table. Periodic fallbacks bound recovery cost: a chain
    /// is never longer than `max_chain` links.
    ///
    /// `full_digest` is the digest of the complete state *after* this
    /// update; recovery verifies the reconstructed state against it.
    ///
    /// Delta checkpoints require the serial checkpoint discipline: one
    /// in-flight checkpoint at a time, each based on the latest committed
    /// one.
    ///
    /// # Errors
    ///
    /// Propagates the first device error any writer hit.
    pub fn copy_delta(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        total: ByteSize,
        full_digest: u64,
        policy: DeltaPolicy,
    ) -> Result<FramedPlan, PccheckError> {
        let total = total.as_u64();
        let dirty = merge_ranges(src.dirty_ranges());
        let dirty_bytes: u64 = dirty.iter().map(|(_, len)| len).sum();
        let ratio = if total == 0 {
            1.0
        } else {
            dirty_bytes as f64 / total as f64
        };
        ctx.telemetry.gauge_dirty_ratio((ratio * 1000.0) as u64);

        // Delta chains are per-tenant: a namespaced lease bases on its own
        // namespace's head, never on another job's checkpoint.
        let records = (self.store.latest_committed_for(lease))
            .filter(|base| ratio <= policy.max_dirty_ratio && base.chain_depth() < policy.max_chain)
            .and_then(|base| {
                let map_start = ctx.telemetry.now_nanos();
                let chunk = self.pool().chunk_size().as_u64();
                let pieces = self
                    .store
                    .read_frame(&base)
                    .filter(|frame| frame.logical_len == total)
                    .map(|frame| codec::plan_delta(&frame, base.slot, base.counter, &dirty, chunk));
                ctx.telemetry
                    .phase_done(ctx.span, Phase::DeltaMap, map_start);
                pieces
                    .filter(|p| p.len() <= self.store.frame_capacity())
                    .map(|p| Records::Delta(base, p))
            })
            .unwrap_or(Records::Raw);
        let plan = self.run_frame(ctx, src, lease, total, full_digest, false, records)?;
        if plan.link.is_some() {
            ctx.telemetry
                .add_delta_bytes_saved(total.saturating_sub(plan.persisted_len()));
        }
        Ok(plan)
    }

    /// One-call incremental checkpoint: lease →
    /// [`copy_delta`](Self::copy_delta) → `seal` →
    /// [`commit_framed`](Self::commit_framed).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn checkpoint_delta(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        iteration: u64,
        full_digest: u64,
        policy: DeltaPolicy,
    ) -> Result<(CommitOutcome, DeltaOutcome), PccheckError> {
        let lease = self.lease_for(ctx, None)?;
        let plan = self.copy_delta(ctx, src, &lease, src.size(), full_digest, policy)?;
        self.seal(
            ctx,
            &lease,
            iteration,
            ByteSize::from_bytes(plan.payload_len),
            plan.persist_start,
        )?;
        let out = self.commit_framed(ctx, lease, iteration, &plan)?;
        let records = plan.table.records.iter();
        let copied = records.filter(|r| r.kind.is_materialized());
        let kind = match plan.link {
            Some(link) => DeltaOutcome::Delta {
                payload_len: plan.persisted_len(),
                dirty_bytes: copied.map(|r| r.logical_len).sum(),
                chain_depth: link.chain_depth,
            },
            None => DeltaOutcome::Full,
        };
        Ok((out, kind))
    }

    /// Runs the store's delta-aware CAS commit for a frame and, on
    /// success, installs the frame's materialized records as the job's
    /// next dedup generation. Pairs with
    /// [`copy_frame`](Self::copy_frame) and [`copy_framed`](Self::copy_framed).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn commit_framed(
        &self,
        ctx: PipelineCtx<'_>,
        lease: SlotLease,
        iteration: u64,
        plan: &FramedPlan,
    ) -> Result<CommitOutcome, PccheckError> {
        let commit_start = ctx.telemetry.now_nanos();
        let (job, slot, counter) = (lease.job(), lease.slot, lease.counter);
        let outcome = self.store.commit_with_delta(
            lease,
            iteration,
            plan.payload_len,
            plan.digest,
            plan.link,
        )?;
        if outcome == CommitOutcome::Committed {
            // Only materialized (Raw/Lz) chunks enter the generation, so a
            // future DedupBase reference always resolves in one hop —
            // chains of indirection never form.
            let mut chunks = Vec::new();
            let mut logical_off = 0u64;
            for r in &plan.table.records {
                if r.kind.is_materialized() {
                    chunks.push((r.digest, logical_off, r.logical_len));
                }
                logical_off += r.logical_len;
            }
            self.codec.dedup.lock().install(job, counter, slot, chunks);
        }
        ctx.telemetry
            .phase_done(ctx.span, Phase::Commit, commit_start);
        Ok(outcome)
    }

    /// One-call codec checkpoint: lease → [`copy_framed`](Self::copy_framed)
    /// → `seal` → [`commit_framed`](Self::commit_framed). Returns the
    /// commit outcome and what was persisted.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn checkpoint_framed(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        iteration: u64,
        full_digest: u64,
        policy: DeltaPolicy,
    ) -> Result<(CommitOutcome, FramedPlan), PccheckError> {
        let lease = self.lease_for(ctx, None)?;
        let plan = self
            .copy_framed(ctx, src, &lease, src.size(), full_digest, policy)?
            .expect("copy_framed always frames");
        self.seal(
            ctx,
            &lease,
            iteration,
            ByteSize::from_bytes(plan.payload_len),
            plan.persist_start,
        )?;
        let out = self.commit_framed(ctx, lease, iteration, &plan)?;
        Ok((out, plan))
    }

    /// Whole-buffer snapshot: copies the entire source into one host
    /// allocation and closes the `GpuCopy` phase that started at
    /// `phase_start` (the traditional/CheckFreq `C` step).
    pub fn snapshot_whole(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        phase_start: u64,
    ) -> Vec<u8> {
        let total = src.size();
        let mut host = vec![0u8; total.as_usize()];
        src.copy_range_to_host(0, &mut host);
        ctx.telemetry
            .chunk(ctx.span, Phase::GpuCopy, 0, total.as_u64());
        ctx.telemetry
            .phase_done(ctx.span, Phase::GpuCopy, phase_start);
        host
    }

    /// Whole-buffer persist: leases a slot *after* the copy, writes the
    /// payload in one piece followed by its all-`Raw` frame table, fences
    /// both with one persist, and closes the `Persist` phase (the
    /// traditional/CheckFreq `P` step).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn persist_whole(
        &self,
        ctx: PipelineCtx<'_>,
        payload: &[u8],
        iteration: u64,
    ) -> Result<SlotLease, PccheckError> {
        let total = payload.len() as u64;
        let persist_start = ctx.telemetry.now_nanos();
        let lease = self.lease_for(ctx, None)?;
        self.write_chunk(ctx, &lease, 0, payload)?;
        let mut raw = RawFrame::new(total, WHOLE_RECORD, self.store.frame_capacity());
        raw.feed(payload);
        let table_len = self
            .store
            .write_frame_table(&lease, total, &raw.finish(lease.counter))?;
        self.persist_chunk(ctx, &lease, 0, total + table_len)?;
        ctx.telemetry.chunk(ctx.span, Phase::Persist, 0, total);
        ctx.telemetry
            .phase_done(ctx.span, Phase::Persist, persist_start);
        self.store.flight().record(
            FlightEventKind::PayloadPersisted,
            lease.counter,
            lease.slot,
            iteration,
            total,
            0,
        );
        Ok(lease)
    }

    /// Kernel write-through (GPM): copies the snapshot tile by tile
    /// straight into the leased slot with no DRAM staging, writes the
    /// all-`Raw` frame table after it, then issues one same-thread fence
    /// over payload and table. `GpuCopy` and `Persist` overlap
    /// tile-by-tile, so both phases close against the shared `phase_start`.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_through(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        iteration: u64,
        phase_start: u64,
    ) -> Result<(), PccheckError> {
        let total = src.size();
        // A small bounce tile stands in for the kernel's register/shared-
        // memory tile; it never holds the checkpoint (Table 1: DRAM = 0).
        let mut tile = vec![0u8; KERNEL_COPY_CHUNK.min(total.as_usize().max(1))];
        let mut raw = RawFrame::new(total.as_u64(), WHOLE_RECORD, self.store.frame_capacity());
        let mut off = 0u64;
        while off < total.as_u64() {
            let n = (tile.len() as u64).min(total.as_u64() - off) as usize;
            src.copy_range_to_host(off, &mut tile[..n]);
            ctx.telemetry.chunk(ctx.span, Phase::GpuCopy, off, n as u64);
            self.write_chunk(ctx, lease, off, &tile[..n])?;
            raw.feed(&tile[..n]);
            ctx.telemetry.chunk(ctx.span, Phase::Persist, off, n as u64);
            off += n as u64;
        }
        ctx.telemetry
            .phase_done(ctx.span, Phase::GpuCopy, phase_start);
        let table_len =
            self.store
                .write_frame_table(lease, total.as_u64(), &raw.finish(lease.counter))?;
        // cudaDeviceSynchronize + msync/fence: one persist over the payload
        // issued by this same (training) thread — correct on both SSD and
        // PMEM because the same thread performed every store.
        self.persist_chunk(ctx, lease, 0, total.as_u64() + table_len)?;
        ctx.telemetry
            .phase_done(ctx.span, Phase::Persist, phase_start);
        self.store.flight().record(
            FlightEventKind::PayloadPersisted,
            lease.counter,
            lease.slot,
            iteration,
            total.as_u64(),
            0,
        );
        Ok(())
    }

    /// Makes a chunk-copied payload durable: in [`FenceMode::Deferred`]
    /// issues the one coordinator fence over the whole payload, records the
    /// flight milestone, and closes the `Persist` phase that started at
    /// `persist_start`.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the deferred fence.
    pub fn seal(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        iteration: u64,
        total: ByteSize,
        persist_start: u64,
    ) -> Result<(), PccheckError> {
        if self.fence == FenceMode::Deferred {
            // §4.1 SSD path: one msync covering the whole payload. The
            // drain shows up as a `fence` actor leg so the ledger can tell
            // "media still flushing" from "device idle" inside Persist.
            let fence_start = ctx.telemetry.now_nanos();
            let media = self.persist_chunk(ctx, lease, 0, total.as_u64())?;
            if ctx.telemetry.is_enabled() {
                ctx.telemetry.actor_span_split(
                    ctx.span,
                    "fence",
                    fence_start,
                    total.as_u64(),
                    media,
                );
            }
        }
        self.store.flight().record(
            FlightEventKind::PayloadPersisted,
            lease.counter,
            lease.slot,
            iteration,
            total.as_u64(),
            0,
        );
        ctx.telemetry
            .phase_done(ctx.span, Phase::Persist, persist_start);
        Ok(())
    }

    /// Runs the store's lock-free commit — meta publish, durable
    /// `Committed` state-word write, `fetch_max` head advance — and
    /// closes the `Commit` phase. Concurrent callers never serialize on
    /// a lock here; losers of the head race surface as
    /// [`CommitOutcome::SupersededBy`].
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn commit(
        &self,
        ctx: PipelineCtx<'_>,
        lease: SlotLease,
        iteration: u64,
        payload_len: u64,
        digest: u64,
    ) -> Result<CommitOutcome, PccheckError> {
        let commit_start = ctx.telemetry.now_nanos();
        let outcome = self.store.commit(lease, iteration, payload_len, digest);
        ctx.telemetry
            .phase_done(ctx.span, Phase::Commit, commit_start);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice, StripedDevice};
    use pccheck_gpu::{Gpu, GpuConfig, HostSnapshot, TrainingState};
    use pccheck_telemetry::Telemetry;

    fn gpu(size: u64, seed: u64) -> Gpu {
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(size), seed),
        )
    }

    /// The serialized training state of `g`.
    fn state_bytes(g: &Gpu) -> Vec<u8> {
        g.with_weights(|s| {
            let mut buf = vec![0u8; s.size().as_usize()];
            s.serialize_into(&mut buf);
            buf
        })
    }

    fn ssd_store(state: ByteSize, slots: u32) -> Arc<CheckpointStore> {
        let cap = CheckpointStore::required_capacity(state, slots) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        Arc::new(CheckpointStore::format(device, state, slots, 0).unwrap())
    }

    #[test]
    fn whole_buffer_path_commits_a_recoverable_checkpoint() {
        let g = gpu(300, 11);
        g.update();
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 2));
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 300);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared();
        let digest = guard.digest();
        let start = telemetry.now_nanos();
        let host = pipeline.snapshot_whole(ctx, &guard, start);
        drop(guard);
        let lease = pipeline.persist_whole(ctx, &host, 1).unwrap();
        let outcome = pipeline.commit(ctx, lease, 1, 300, digest.0).unwrap();
        assert_eq!(outcome, CommitOutcome::Committed);
        let meta = pipeline.store().latest_committed().unwrap();
        assert_eq!(meta.iteration, 1);
        assert_eq!(meta.digest, digest.0);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.phase(Phase::GpuCopy).count, 1);
        assert_eq!(snap.phase(Phase::Persist).count, 1);
        assert_eq!(snap.phase(Phase::Commit).count, 1);
        // The pipeline fed the per-stage histograms and the device gauge.
        assert_eq!(snap.write_stage.count, 1);
        assert_eq!(snap.persist_stage.count, 1);
    }

    /// A 2-writer chunk pipeline over a fresh `slots`-slot SSD store sized
    /// for `g`, staging through `pool_chunks` chunks of `chunk` bytes.
    fn chunk_pipeline(g: &Gpu, slots: u32, chunk: u64, pool_chunks: usize) -> PersistPipeline {
        PersistPipeline::new(ssd_store(g.state_size(), slots))
            .with_writers(2)
            .with_staging(HostBufferPool::new(
                ByteSize::from_bytes(chunk),
                pool_chunks,
            ))
    }

    /// Copies, seals and commits `g`'s state as iteration 1 through the
    /// chunk loop in `mode`, under a span of an enabled recorder.
    fn chunk_checkpoint(
        g: &Gpu,
        pipeline: &PersistPipeline,
        mode: FrameMode,
    ) -> (Telemetry, SpanId) {
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, g.state_size().as_u64());
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared();
        let digest = guard.digest().0;
        let total = guard.size();
        let lease = pipeline.lease_for(ctx, None).unwrap();
        let plan = pipeline
            .copy_frame(ctx, &guard, &lease, total, digest, mode)
            .unwrap();
        drop(guard);
        pipeline
            .seal(ctx, &lease, 1, total, plan.persist_start)
            .unwrap();
        let outcome = pipeline
            .commit(ctx, lease, 1, total.as_u64(), digest)
            .unwrap();
        assert_eq!(outcome, CommitOutcome::Committed);
        (telemetry, span)
    }

    #[test]
    fn staged_and_streamed_paths_agree() {
        for staged in [true, false] {
            let g = gpu(900, 13);
            g.update();
            let pipeline = chunk_pipeline(&g, 3, 128, 8);
            let mode = FrameMode {
                staged,
                ..FrameMode::default()
            };
            let (telemetry, _) = chunk_checkpoint(&g, &pipeline, mode);
            let snap = telemetry.snapshot().unwrap();
            // 900 bytes in 128-byte chunks: 8 chunks through both stages.
            assert_eq!(snap.gpu_copy_bytes, 900);
            assert_eq!(snap.persist_chunk_bytes, 900);
            assert_eq!(snap.write_stage.count, 8);
            assert_eq!(snap.persist_stage.count, 8);
            let rec = crate::recovery::recover(Arc::clone(pipeline.store().device())).unwrap();
            assert_eq!(rec.digest, g.lock_weights_shared().digest().0);
            assert_eq!(rec.payload, state_bytes(&g), "staged={staged}");
        }
    }

    #[test]
    fn chunk_copy_paths_emit_writer_actor_spans() {
        for staged in [true, false] {
            let g = gpu(900, 47);
            g.update();
            let pipeline = chunk_pipeline(&g, 3, 128, 8);
            let mode = FrameMode {
                staged,
                ..FrameMode::default()
            };
            let (telemetry, span) = chunk_checkpoint(&g, &pipeline, mode);
            let spans: Vec<(String, u64)> = telemetry
                .events()
                .iter()
                .filter_map(|e| match &e.kind {
                    pccheck_telemetry::EventKind::ActorSpan { actor, bytes, .. }
                        if e.span == span =>
                    {
                        Some((actor.clone(), *bytes))
                    }
                    _ => None,
                })
                .collect();
            let total_bytes: u64 = spans.iter().map(|(_, b)| b).sum();
            assert_eq!(
                total_bytes, 900,
                "writer spans account for every chunk (staged={staged})"
            );
            assert!(
                spans.iter().all(|(a, _)| a.starts_with("writer-")),
                "staged={staged}: {spans:?}"
            );
            if staged {
                // Round-robin distribution guarantees both writers worked.
                assert!(spans.iter().any(|(a, _)| a == "writer-0"));
                assert!(spans.iter().any(|(a, _)| a == "writer-1"));
            }
        }
    }

    #[test]
    fn deferred_fence_skips_per_chunk_persists_until_seal() {
        let g = gpu(512, 17);
        g.update();
        let pipeline = chunk_pipeline(&g, 2, 128, 4).with_fence(FenceMode::Deferred);
        let staged = FrameMode {
            staged: true,
            ..FrameMode::default()
        };
        let (telemetry, _) = chunk_checkpoint(&g, &pipeline, staged);
        let snap = telemetry.snapshot().unwrap();
        // 4 chunk writes but exactly one (deferred) fence.
        assert_eq!(snap.write_stage.count, 4);
        assert_eq!(snap.persist_stage.count, 1);
    }

    #[test]
    fn device_queue_gauges_cover_striped_members() {
        let g = gpu(600, 19);
        g.update();
        let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
            .map(|_| {
                Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(
                    ByteSize::from_kb(64),
                ))) as Arc<dyn PersistentDevice>
            })
            .collect();
        let striped: Arc<dyn PersistentDevice> =
            Arc::new(StripedDevice::new(members, ByteSize::from_bytes(256)));
        let store = Arc::new(CheckpointStore::format(striped, g.state_size(), 2, 0).unwrap());
        let pipeline = PersistPipeline::new(store);
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 600);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared();
        let digest = guard.digest();
        let host = pipeline.snapshot_whole(ctx, &guard, 0);
        drop(guard);
        let lease = pipeline.persist_whole(ctx, &host, 1).unwrap();
        pipeline.commit(ctx, lease, 1, 600, digest.0).unwrap();
        // Controller + two members were sampled (values may be zero since
        // sampling happens after each op completes, but the gauge slots
        // exist and the store's own stats saw the traffic).
        let report = pipeline.store().device().stats_report();
        assert_eq!(report.len(), 3);
        assert!(report[0].bytes_persisted >= 600);
    }

    #[test]
    fn streamed_copy_aborts_after_first_writer_error() {
        let g = gpu(4096, 31);
        g.update();
        let state = g.state_size();
        let cap = CheckpointStore::required_capacity(state, 2) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(Arc::clone(&ssd) as Arc<dyn PersistentDevice>, state, 2, 0)
                .unwrap(),
        );
        let pool = HostBufferPool::new(ByteSize::from_bytes(128), 2);
        let pipeline = PersistPipeline::new(store)
            .with_writers(2)
            .with_staging(pool);
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 4096);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared();
        let lease = pipeline.lease_for(ctx, None).unwrap();
        // The very next persist crashes the device: every later write (and
        // the per-writer fence) fails.
        ssd.arm_crash_after_persists(0);
        let err = pipeline.copy_streamed(ctx, &guard, &lease, guard.size());
        assert!(err.is_err(), "the first writer error must propagate");
        // Without the abort flag the producer would copy and enqueue all 32
        // chunks after the device was already dead.
        let snap = telemetry.snapshot().unwrap();
        assert!(
            snap.gpu_copy_bytes < 4096,
            "producer kept copying after a writer failed ({} bytes)",
            snap.gpu_copy_bytes
        );
    }

    #[test]
    fn delta_path_persists_only_dirty_extents_and_chains() {
        let g = gpu(1024, 29);
        g.update();
        let pipeline = chunk_pipeline(&g, 4, 128, 4);
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 1024);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let policy = DeltaPolicy::default();

        // First checkpoint: no committed base → falls back to full.
        let guard = g.lock_weights_shared();
        let digest = guard.digest();
        let (out, kind) = pipeline
            .checkpoint_delta(ctx, &guard, 1, digest.0, policy)
            .unwrap();
        drop(guard);
        assert_eq!(out, CommitOutcome::Committed);
        assert_eq!(kind, DeltaOutcome::Full);
        assert!(!pipeline.store().latest_committed().unwrap().is_delta());

        // Sparse update → a delta chained on the full base.
        g.update_sparse(0.1);
        let guard = g.lock_weights_shared();
        let digest = guard.digest();
        let (out, kind) = pipeline
            .checkpoint_delta(ctx, &guard, 2, digest.0, policy)
            .unwrap();
        drop(guard);
        assert_eq!(out, CommitOutcome::Committed);
        let DeltaOutcome::Delta {
            payload_len,
            dirty_bytes,
            chain_depth,
        } = kind
        else {
            panic!("sparse update must take the delta path, got {kind:?}");
        };
        assert_eq!(chain_depth, 1);
        assert!(dirty_bytes < 1024, "only dirty bytes persisted");
        assert!(payload_len < 1024, "delta payload smaller than the state");
        let head = pipeline.store().latest_committed().unwrap();
        assert_eq!(head.iteration, 2);
        assert_eq!(head.delta.unwrap().chain_depth, 1);
        // Base + delta pinned out of the 4-slot store.
        assert_eq!(pipeline.store().free_slot_count(), 2);
        let snap = telemetry.snapshot().unwrap();
        assert!(snap.dirty_ratio_permille >= 100 && snap.dirty_ratio_permille < 500);
        assert!(snap.delta_bytes_saved > 0);
        assert_eq!(snap.phase(Phase::DeltaMap).count, 1);

        // Dense update → dirty ratio 100% → full fallback frees the chain.
        g.update();
        let guard = g.lock_weights_shared();
        let digest = guard.digest();
        let (out, kind) = pipeline
            .checkpoint_delta(ctx, &guard, 3, digest.0, policy)
            .unwrap();
        drop(guard);
        assert_eq!(out, CommitOutcome::Committed);
        assert_eq!(kind, DeltaOutcome::Full);
        assert_eq!(pipeline.store().free_slot_count(), 3);
    }

    #[test]
    fn chain_length_cap_forces_a_periodic_full_checkpoint() {
        let g = gpu(1024, 37);
        g.update();
        let pipeline = chunk_pipeline(&g, 6, 128, 4);
        let telemetry = Telemetry::disabled();
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span: SpanId::NONE,
        };
        let policy = DeltaPolicy {
            max_dirty_ratio: 0.5,
            max_chain: 2,
        };
        let mut kinds = Vec::new();
        for iter in 1..=7u64 {
            let guard = g.lock_weights_shared();
            let digest = guard.digest();
            let (out, kind) = pipeline
                .checkpoint_delta(ctx, &guard, iter, digest.0, policy)
                .unwrap();
            drop(guard);
            assert_eq!(out, CommitOutcome::Committed);
            kinds.push(matches!(kind, DeltaOutcome::Full));
            g.update_sparse(0.05);
        }
        // full, delta, delta, full, delta, delta, full.
        assert_eq!(kinds, [true, false, false, true, false, false, true]);
    }

    #[test]
    fn streamed_copy_commits_an_all_raw_frame() {
        let g = gpu(8192, 41);
        g.update();
        let pipeline = chunk_pipeline(&g, 3, 4096, 4);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let guard = g.lock_weights_shared();
        let digest = guard.digest();
        let total = guard.size();
        let lease = pipeline.lease_for(ctx, None).unwrap();
        let start = pipeline.copy_streamed(ctx, &guard, &lease, total).unwrap();
        drop(guard);
        pipeline.seal(ctx, &lease, 1, total, start).unwrap();
        pipeline
            .commit(ctx, lease, 1, total.as_u64(), digest.0)
            .unwrap();
        let store = pipeline.store();
        let meta = store.latest_committed().unwrap();
        let table = store
            .read_frame(&meta)
            .expect("every committed slot is a frame");
        assert!(table.is_raw());
        assert_eq!(table.records.len(), 2, "one record per 4 KiB chunk");
        // Records sit at their logical offsets: the packed region is the
        // state image, and each record's content address covers it.
        let payload = store.read_checkpoint(&meta).unwrap();
        for r in &table.records {
            let bytes = &payload[r.a as usize..(r.a + r.b) as usize];
            assert_eq!(crate::codec::content_address(bytes), r.digest);
        }
    }

    #[test]
    fn chunks_finer_than_the_table_share_raw_records() {
        // 64 KiB in 128-byte chunks is 512 chunks, but the slot's table
        // holds 64 records: each record spans 8 chunks, and the codec
        // (which works per chunk) stays off even when requested.
        let g = gpu(64 * 1024, 43);
        g.update();
        let pipeline = chunk_pipeline(&g, 3, 128, 8).with_codec(true);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let guard = g.lock_weights_shared();
        let digest = guard.digest();
        let (_, outcome) = pipeline
            .checkpoint_framed(ctx, &guard, 1, digest.0, DeltaPolicy::default())
            .unwrap();
        drop(guard);
        assert_eq!(outcome.payload_len, 64 * 1024);
        let meta = pipeline.store().latest_committed().unwrap();
        let table = pipeline.store().read_frame(&meta).unwrap();
        assert!(table.is_raw());
        assert_eq!(table.records.len(), 64);
        assert!(table.records.iter().all(|r| r.logical_len == 1024));
        let rec = crate::recovery::recover(Arc::clone(pipeline.store().device())).unwrap();
        assert_eq!(rec.payload, state_bytes(&g));
    }

    #[test]
    fn multi_job_leases_route_through_qos_and_namespaces() {
        use crate::qos::{QosArbiter, QosConfig};

        let state = ByteSize::from_bytes(900);
        let cap = CheckpointStore::required_capacity_service(state, 8, 0, 4) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(CheckpointStore::format_service(device, state, 8, 0, 4).unwrap());
        store.allocate_namespace(1, 3).unwrap();
        store.allocate_namespace(2, 3).unwrap();
        let qos = Arc::new(QosArbiter::new(QosConfig::default()));
        qos.register_job(1, 1);
        qos.register_job(2, 1);
        let pool = HostBufferPool::new(ByteSize::from_bytes(128), 8);
        let pipeline = PersistPipeline::new(store)
            .with_writers(2)
            .with_staging(pool)
            .with_qos(Arc::clone(&qos));
        let telemetry = Telemetry::disabled();
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span: SpanId::NONE,
        };
        for (job, seed, iter) in [(1u64, 5u64, 10u64), (2, 6, 20)] {
            let g = gpu(900, seed);
            g.update();
            let guard = g.lock_weights_shared();
            let digest = guard.digest();
            let total = guard.size();
            let lease = pipeline.lease_for(ctx, Some(job)).unwrap();
            assert_eq!(lease.job(), job);
            let start = pipeline.copy_streamed(ctx, &guard, &lease, total).unwrap();
            drop(guard);
            pipeline.seal(ctx, &lease, iter, total, start).unwrap();
            let out = pipeline
                .commit(ctx, lease, iter, total.as_u64(), digest.0)
                .unwrap();
            assert_eq!(out, CommitOutcome::Committed);
        }
        // Each job committed into its own namespace...
        let store = pipeline.store();
        assert_eq!(
            store.latest_committed_job(1).unwrap().unwrap().iteration,
            10
        );
        assert_eq!(
            store.latest_committed_job(2).unwrap().unwrap().iteration,
            20
        );
        // ...and every chunk write was metered by the arbiter.
        let shares = qos.shares();
        assert_eq!(shares.iter().find(|s| s.0 == 1).unwrap().1, 900);
        assert_eq!(shares.iter().find(|s| s.0 == 2).unwrap().1, 900);
        // An unknown job is rejected at lease time.
        assert!(pipeline.lease_for(ctx, Some(99)).is_err());
    }

    #[test]
    fn delta_chains_stay_inside_their_namespace() {
        // Job 1 commits iteration 1 (full) then a sparse update; job 2
        // commits nothing. Job 2's first delta attempt must fall back to
        // full (no base IN ITS NAMESPACE) even though job 1's head exists.
        let state = ByteSize::from_bytes(1024);
        let cap = CheckpointStore::required_capacity_service(state, 8, 0, 4) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(CheckpointStore::format_service(device, state, 8, 0, 4).unwrap());
        store.allocate_namespace(1, 4).unwrap();
        store.allocate_namespace(2, 4).unwrap();
        let pool = HostBufferPool::new(ByteSize::from_bytes(128), 4);
        let pipeline = PersistPipeline::new(store)
            .with_writers(2)
            .with_staging(pool);
        let telemetry = Telemetry::disabled();
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span: SpanId::NONE,
        };
        let policy = DeltaPolicy::default();

        let g1 = gpu(1024, 51);
        g1.update();
        for iter in 1..=2u64 {
            let guard = g1.lock_weights_shared();
            let digest = guard.digest();
            let total = guard.size();
            let lease = pipeline.lease_for(ctx, Some(1)).unwrap();
            let plan = pipeline
                .copy_delta(ctx, &guard, &lease, total, digest.0, policy)
                .unwrap();
            drop(guard);
            // The first commit has no base; the sparse update chains on
            // the job's own base.
            assert_eq!(plan.link.is_some(), iter == 2, "iteration {iter}");
            let sealed = ByteSize::from_bytes(plan.payload_len);
            pipeline
                .seal(ctx, &lease, iter, sealed, plan.persist_start)
                .unwrap();
            pipeline.commit_framed(ctx, lease, iter, &plan).unwrap();
            g1.update_sparse(0.1);
        }
        assert_eq!(
            pipeline
                .store()
                .latest_committed_job(1)
                .unwrap()
                .unwrap()
                .delta
                .unwrap()
                .chain_depth,
            1
        );

        // Job 2, sparse dirty set but empty namespace: must plan Full.
        let g2 = gpu(1024, 52);
        g2.update();
        g2.update_sparse(0.1);
        let guard = g2.lock_weights_shared();
        let digest = guard.digest();
        let total = guard.size();
        let lease = pipeline.lease_for(ctx, Some(2)).unwrap();
        let plan = pipeline
            .copy_delta(ctx, &guard, &lease, total, digest.0, policy)
            .unwrap();
        drop(guard);
        assert!(
            plan.link.is_none() && plan.table.is_raw(),
            "job 2 has no base in its namespace: {plan:?}"
        );
    }

    #[test]
    fn write_through_needs_no_staging_pool() {
        let g = gpu(300, 23);
        g.update();
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 2));
        assert!(pipeline.staging_pool().is_none());
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 300);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared();
        let digest = guard.digest();
        let start = telemetry.now_nanos();
        let lease = pipeline.lease_for(ctx, None).unwrap();
        pipeline
            .write_through(ctx, &guard, &lease, 1, start)
            .unwrap();
        let outcome = pipeline.commit(ctx, lease, 1, 300, digest.0).unwrap();
        drop(guard);
        assert_eq!(outcome, CommitOutcome::Committed);
        let snap = telemetry.snapshot().unwrap();
        // One tile (300 bytes < 4 MiB), one same-thread fence.
        assert_eq!(snap.gpu_copy_bytes, 300);
        assert_eq!(snap.persist_chunk_bytes, 300);
        assert_eq!(snap.persist_stage.count, 1);
    }

    /// Store + framed pipeline over a fresh SSD, returning the device too
    /// so tests can crash/recover it.
    fn framed_rig(
        state_bytes: u64,
        chunk: u64,
        pool_chunks: usize,
    ) -> (Arc<dyn PersistentDevice>, PersistPipeline) {
        let state = ByteSize::from_bytes(state_bytes);
        let cap = CheckpointStore::required_capacity(state, 4) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(CheckpointStore::format(Arc::clone(&device), state, 4, 0).unwrap());
        let pipeline = PersistPipeline::new(store)
            .with_writers(2)
            .with_staging(HostBufferPool::new(
                ByteSize::from_bytes(chunk),
                pool_chunks,
            ))
            .with_codec(true);
        (device, pipeline)
    }

    fn test_ctx(telemetry: &Telemetry) -> PipelineCtx<'_> {
        PipelineCtx {
            telemetry,
            span: pccheck_telemetry::SpanId::NONE,
        }
    }

    #[test]
    fn framed_checkpoint_compresses_and_recovers_bit_identical() {
        let (device, pipeline) = framed_rig(4096, 256, 16);
        // Compressible: long runs with mild variation.
        let data: Vec<u8> = (0..4096u32).map(|i| (i / 192) as u8).collect();
        let src = HostSnapshot {
            data: data.clone(),
            step: 1,
        };
        let telemetry = Telemetry::enabled();
        let ctx = test_ctx(&telemetry);
        let digest = pccheck_gpu::SnapshotSource::digest(&src).0;
        let (commit, outcome) = pipeline
            .checkpoint_framed(ctx, &src, 1, digest, DeltaPolicy::default())
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        let table_len = FrameTable::encoded_len_for(16);
        assert!(outcome.payload_len < 2048, "packed {}", outcome.payload_len);
        assert_eq!(outcome.saved_bytes, 4096 - outcome.payload_len - table_len);
        let meta = pipeline.store().latest_committed().unwrap();
        assert_eq!(
            meta.payload_len, outcome.payload_len,
            "commit records packed bytes"
        );
        assert_eq!(meta.digest, digest, "commit records the state digest");
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.codec_bytes_saved, outcome.saved_bytes);
        assert!(snap.compression_ratio_permille < 1000);

        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.iteration, 1);
        assert_eq!(
            rec.payload, data,
            "restore decodes the frame bit-identically"
        );
    }

    #[test]
    fn framed_self_dedup_collapses_repeated_chunks() {
        let (device, pipeline) = framed_rig(4096, 256, 16);
        // 16 chunks, but only 2 distinct contents → 14 self-dedup refs.
        // Use incompressible chunk bodies so dedup (not LZ) does the work.
        let mut chunk_a = vec![0u8; 256];
        let mut chunk_b = vec![0u8; 256];
        pccheck_util::rng::fill_deterministic(&mut chunk_a, 11);
        pccheck_util::rng::fill_deterministic(&mut chunk_b, 22);
        let mut data = Vec::new();
        for i in 0..16 {
            data.extend_from_slice(if i % 2 == 0 { &chunk_a } else { &chunk_b });
        }
        let src = HostSnapshot {
            data: data.clone(),
            step: 1,
        };
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let digest = pccheck_gpu::SnapshotSource::digest(&src).0;
        let (_, outcome) = pipeline
            .checkpoint_framed(ctx, &src, 1, digest, DeltaPolicy::default())
            .unwrap();
        assert_eq!(
            outcome.dedup_chunks, 14,
            "2 materialized + 14 self-references"
        );
        assert_eq!(outcome.payload_len, 512, "two 256-byte chunks packed");
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.payload, data);
    }

    #[test]
    fn framed_base_dedup_links_and_recovers_across_checkpoints() {
        let (device, pipeline) = framed_rig(4096, 256, 16);
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data, 7);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let checkpoint = |data: &[u8], step: u64| {
            let src = HostSnapshot {
                data: data.to_vec(),
                step,
            };
            let digest = pccheck_gpu::SnapshotSource::digest(&src).0;
            let (commit, outcome) = pipeline
                .checkpoint_framed(ctx, &src, step, digest, DeltaPolicy::default())
                .unwrap();
            assert_eq!(commit, CommitOutcome::Committed);
            outcome
        };

        // Incompressible, nothing to dedup against: an all-Raw frame.
        let o1 = checkpoint(&data, 1);
        assert_eq!((o1.payload_len, o1.dedup_chunks), (4096, 0));

        // One chunk changes: the other 15 reference checkpoint 1's records.
        data[300] ^= 0xA5;
        let o2 = checkpoint(&data, 2);
        assert_eq!(o2.dedup_chunks, 15);
        assert_eq!(o2.payload_len, 256);
        let meta = pipeline.store().latest_committed().unwrap();
        assert!(meta.is_delta(), "base references pin the base via a link");
        assert_eq!(meta.delta.unwrap().base_counter, 1);
        let rec = crate::recovery::recover(Arc::clone(&device)).unwrap();
        assert_eq!((rec.iteration, &rec.payload), (2, &data));

        // References are depth-1: checkpoint 2 materialized only chunk 1,
        // so an unchanged third checkpoint can reference just that one.
        let o3 = checkpoint(&data, 3);
        assert_eq!(o3.dedup_chunks, 1);
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!((rec.iteration, rec.payload), (3, data));
    }

    #[test]
    fn incompressible_payloads_commit_an_all_raw_frame() {
        let (device, pipeline) = framed_rig(4096, 256, 16);
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data, 99);
        let src = HostSnapshot {
            data: data.clone(),
            step: 1,
        };
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let digest = pccheck_gpu::SnapshotSource::digest(&src).0;
        let (commit, outcome) = pipeline
            .checkpoint_framed(ctx, &src, 1, digest, DeltaPolicy::default())
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        assert_eq!((outcome.saved_bytes, outcome.dedup_chunks), (0, 0));
        let meta = pipeline.store().latest_committed().unwrap();
        assert_eq!(meta.payload_len, 4096);
        assert!(pipeline.store().read_frame(&meta).unwrap().is_raw());
        assert_eq!(crate::recovery::recover(device).unwrap().payload, data);
    }

    #[test]
    fn codec_frames_stream_through_a_pool_smaller_than_the_snapshot() {
        // 16 chunks through a 4-chunk pool: the codec streams instead of
        // staging the snapshot, and still compresses and deduplicates.
        let (device, pipeline) = framed_rig(4096, 256, 4);
        // Period-4 bytes (compressible); chunk contents repeat every 3.
        let data: Vec<u8> = (0..4096usize)
            .map(|i| ((i / 256) % 3 * 7 + i % 4) as u8)
            .collect();
        let src = HostSnapshot {
            data: data.clone(),
            step: 1,
        };
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let digest = pccheck_gpu::SnapshotSource::digest(&src).0;
        let (commit, outcome) = pipeline
            .checkpoint_framed(ctx, &src, 1, digest, DeltaPolicy::default())
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        assert_eq!(outcome.dedup_chunks, 13);
        let meta = pipeline.store().latest_committed().unwrap();
        let kinds: Vec<ChunkEncoding> = pipeline
            .store()
            .read_frame(&meta)
            .unwrap()
            .records
            .iter()
            .map(|r| r.kind)
            .collect();
        assert!(
            kinds[..3].iter().all(|&k| k == ChunkEncoding::Lz),
            "{kinds:?}"
        );
        assert!(kinds[3..].iter().all(|&k| k == ChunkEncoding::DedupSelf));
        assert_eq!(crate::recovery::recover(device).unwrap().payload, data);
    }

    #[test]
    fn retuning_writers_between_checkpoints_keeps_every_frame_whole() {
        // The controller retunes the writer width on the training thread
        // while a shared pipeline streams checkpoints; every copy keeps
        // the width it started with and every committed frame restores.
        let (device, pipeline) = framed_rig(4096, 256, 4);
        let done = Arc::new(AtomicBool::new(false));
        let tuner = {
            let (pipeline, done) = (pipeline.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut w = 1;
                while !done.load(Ordering::Acquire) {
                    w = w % 4 + 1;
                    pipeline.set_writers(w);
                    std::thread::yield_now();
                }
            })
        };
        let telemetry = Telemetry::disabled();
        for step in 1..=24u64 {
            let data: Vec<u8> = (0..4096u64)
                .map(|i| ((i / 64 + step * (i / 1024)) % 251) as u8)
                .collect();
            let src = HostSnapshot {
                data: data.clone(),
                step,
            };
            let digest = pccheck_gpu::SnapshotSource::digest(&src).0;
            let policy = DeltaPolicy::default();
            pipeline
                .checkpoint_framed(test_ctx(&telemetry), &src, step, digest, policy)
                .unwrap();
            let rec = crate::recovery::recover(Arc::clone(&device)).unwrap();
            assert_eq!((rec.iteration, rec.payload), (step, data));
        }
        done.store(true, Ordering::Release);
        tuner.join().unwrap();
    }

    #[test]
    fn disabling_codec_clears_dedup_generations() {
        let (_device, pipeline) = framed_rig(4096, 256, 16);
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data[..2048], 7);
        let tail = data[..2048].to_vec();
        data[2048..].copy_from_slice(&tail);
        let src = HostSnapshot {
            data: data.clone(),
            step: 1,
        };
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let digest = pccheck_gpu::SnapshotSource::digest(&src).0;
        let (_, o) = pipeline
            .checkpoint_framed(ctx, &src, 1, digest, DeltaPolicy::default())
            .unwrap();
        assert_eq!(o.dedup_chunks, 8);
        assert!(pipeline
            .codec
            .dedup
            .lock()
            .generation_counter(crate::store::OWNER_JOB)
            .is_some());
        pipeline.set_codec_enabled(false);
        assert!(
            pipeline
                .codec
                .dedup
                .lock()
                .generation_counter(crate::store::OWNER_JOB)
                .is_none(),
            "disable drops generations; re-enable starts cold"
        );
        pipeline.set_codec_enabled(true);
        assert!(pipeline
            .codec
            .dedup
            .lock()
            .generation_counter(crate::store::OWNER_JOB)
            .is_none());
    }
}
