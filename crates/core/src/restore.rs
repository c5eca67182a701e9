//! The parallel restore pipeline: the read-side mirror of the persist
//! pipeline.
//!
//! §4.2 of the paper treats recovery as a mostly-serial tail cost: read the
//! newest committed payload, verify its digest, load it back to the GPU.
//! On modern devices that serializes three resources that could overlap —
//! device read bandwidth (striped members especially), digest computation,
//! and the DRAM→GPU upload. [`RestorePipeline::fetch`] overlaps them:
//!
//! * It reads the slot's frame table and plans one read per stored record
//!   ([`FrameTable::reads`]); `r` **reader threads** claim those reads, so
//!   an N-way striped store restores at close to N× a single reader's
//!   bandwidth.
//! * **Verification overlaps I/O.** Every record carries its content
//!   address, so each read verifies on its own the moment it lands —
//!   concurrently with the other readers' I/O. A frame the codec touched
//!   is also checked end to end against the commit's state digest.
//! * **Uploads stream.** Verified records land directly in a
//!   [`RestoreSink`] (e.g. [`pccheck_gpu::RestoreTarget`]); a DRAM buffer
//!   is just another sink.
//!
//! [`recover_instrumented_with`] rebuilds the crate's recovery flow on top
//! of this pipeline: candidates fall back newest-first on *any* failure
//! (digest mismatch, unresolvable reference **or** device read fault). A
//! delta is a frame like any other: its references resolve to the records
//! of earlier checkpoints on its chain, read once each, in parallel.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pccheck_device::PersistentDevice;
use pccheck_gpu::{Gpu, RestoreTarget};
use pccheck_telemetry::{FlightEventKind, Phase, Telemetry};
use pccheck_util::sync::Mutex;
use pccheck_util::ByteSize;

use crate::codec::{payload_digest_matches, FrameTable, RecordRead};
use crate::error::PccheckError;
use crate::meta::CheckMeta;
use crate::pipeline::PipelineCtx;
use crate::recovery::{RecoveredCheckpoint, RecoveryTrace};
use crate::store::{CheckpointStore, JobId, OWNER_JOB};

/// Knobs for the parallel recovery flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreOptions {
    /// Parallel reader threads (`r`). 1 reproduces the sequential path.
    pub readers: usize,
    /// Recover only this job's namespace: candidates outside its slot
    /// range are never considered, so one tenant's torn checkpoint can
    /// never fall back onto another tenant's state. `None` names the owner
    /// namespace ([`OWNER_JOB`]), as `begin_checkpoint(None)` does — a
    /// multi-tenant store without one has no checkpoint to recover.
    pub job: Option<JobId>,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions {
            readers: 4,
            job: None,
        }
    }
}

/// Destination for verified restore chunks.
///
/// Offsets are payload-relative; each chunk is delivered exactly once, in
/// arbitrary order, possibly from several threads at once.
pub trait RestoreSink: Sync {
    /// Accepts one verified chunk.
    fn put(&self, offset: u64, data: &[u8]);
}

impl RestoreSink for RestoreTarget {
    fn put(&self, offset: u64, data: &[u8]) {
        self.write_chunk(offset, data);
    }
}

/// A DRAM image of the whole state.
impl RestoreSink for Mutex<Vec<u8>> {
    fn put(&self, offset: u64, data: &[u8]) {
        let start = usize::try_from(offset).expect("offset fits in memory");
        self.lock()[start..start + data.len()].copy_from_slice(data);
    }
}

/// The multi-reader, verification-overlapped read path over a
/// [`CheckpointStore`].
///
/// Cloning is cheap; clones share the store.
#[derive(Debug, Clone)]
pub struct RestorePipeline {
    store: Arc<CheckpointStore>,
    readers: usize,
}

impl RestorePipeline {
    /// A single-reader pipeline over `store`.
    pub fn new(store: Arc<CheckpointStore>) -> Self {
        RestorePipeline { store, readers: 1 }
    }

    /// Sets the number of parallel reader threads (`r`).
    pub fn with_readers(mut self, readers: usize) -> Self {
        self.readers = readers.max(1);
        self
    }

    /// Per-read device access with read-stage telemetry, mirroring the
    /// persist pipeline's `write_chunk`: `off` bytes into `slot`'s payload
    /// area. Returns the nanoseconds spent in the device call (media time,
    /// for the reader's queue-wait split).
    fn read_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        slot: u32,
        off: u64,
        buf: &mut [u8],
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        self.store
            .device()
            .read_durable_at(self.store.slot_payload_offset(slot) + off, buf)?;
        let mut media = 0;
        if ctx.telemetry.is_enabled() {
            media = ctx.telemetry.now_nanos().saturating_sub(start);
            ctx.telemetry.stage_read(media);
            self.sample_device_queues(ctx);
        }
        ctx.telemetry
            .chunk(ctx.span, Phase::RestoreRead, off, buf.len() as u64);
        Ok(media)
    }

    /// Samples the device's submission queues into the per-device gauges
    /// (controller at index 0, composite members after it).
    fn sample_device_queues(&self, ctx: PipelineCtx<'_>) {
        if !ctx.telemetry.is_enabled() {
            return;
        }
        for (i, depth) in self.store.device().queue_depths().iter().enumerate() {
            ctx.telemetry.gauge_device_queue(i, *depth);
        }
    }

    /// The one verified fetch: plans `table`'s record reads (resolving
    /// base references among `candidates`, reading only the referenced
    /// base records), fans them over the readers, verifies every record's
    /// content address as it lands, and delivers each to `sink` at every
    /// logical offset that holds it. `table` must be `meta`'s bound frame
    /// ([`CheckpointStore::read_frame`]).
    ///
    /// Returns the nanoseconds spent decoding and verifying, or `None` on
    /// any device read error, digest mismatch, or unresolvable reference —
    /// the caller falls back to an older candidate, exactly like a digest
    /// failure. The sink may then hold a partial image; a
    /// [`RestoreTarget`] only goes live on `finish`.
    pub fn fetch(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        table: &FrameTable,
        candidates: &[CheckMeta],
        sink: &dyn RestoreSink,
    ) -> Option<u64> {
        let read_start = ctx.telemetry.now_nanos();
        let mut base = |slot: u32, counter: u64| {
            let base = candidates
                .iter()
                .find(|c| c.slot == slot && c.counter == counter)?;
            self.store.read_frame(base)
        };
        let verify_nanos = table
            .reads(meta.slot, &mut base)
            .and_then(|reads| self.fan_out(ctx, &reads, sink));
        ctx.telemetry
            .phase_done(ctx.span, Phase::RestoreRead, read_start);
        ctx.telemetry
            .phase_done(ctx.span, Phase::RestoreVerify, read_start);
        verify_nanos
    }

    /// [`fetch`](Self::fetch) into a DRAM image of the state. A frame the
    /// codec touched is also checked end to end against the commit's
    /// state digest. Returns the image and the verification nanoseconds.
    pub fn fetch_state(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        table: &FrameTable,
        candidates: &[CheckMeta],
    ) -> Option<(Vec<u8>, u64)> {
        let sink = Mutex::new(vec![0u8; usize::try_from(table.logical_len).ok()?]);
        let mut verify_nanos = self.fetch(ctx, meta, table, candidates, &sink)?;
        let state = sink.into_inner();
        if !table.is_raw() {
            let v0 = Instant::now();
            let ok = payload_digest_matches(&state, meta.iteration, meta.digest);
            verify_nanos += v0.elapsed().as_nanos() as u64;
            if !ok {
                return None;
            }
        }
        Some((state, verify_nanos))
    }

    /// Runs `reads` on the readers: each takes one contiguous run of
    /// reads — for a frame whose records sit in logical order, one
    /// contiguous device range, so the readers of a striped store land on
    /// different members — resolves and verifies each, and delivers it to
    /// every target offset.
    fn fan_out(
        &self,
        ctx: PipelineCtx<'_>,
        reads: &[RecordRead],
        sink: &dyn RestoreSink,
    ) -> Option<u64> {
        let failed = AtomicBool::new(false);
        let verify_nanos = AtomicU64::new(0);
        let per = reads.len().div_ceil(self.readers).max(1);
        std::thread::scope(|s| {
            for (r, run) in reads.chunks(per).enumerate() {
                let (failed, verify_nanos) = (&failed, &verify_nanos);
                s.spawn(move || {
                    let actor_start = ctx.telemetry.now_nanos();
                    let mut actor_bytes = 0u64;
                    let (media_nanos, read_nanos) = (Cell::new(0u64), Cell::new(0u64));
                    let (mut scratch, mut buf) = (Vec::new(), Vec::new());
                    let mut read = |slot: u32, off: u64, dst: &mut [u8]| {
                        let r0 = Instant::now();
                        let media = self.read_chunk(ctx, slot, off, dst);
                        read_nanos.set(read_nanos.get() + r0.elapsed().as_nanos() as u64);
                        media
                            .map(|m| media_nanos.set(media_nanos.get() + m))
                            .is_ok()
                    };
                    for rr in run {
                        if failed.load(Ordering::Acquire) {
                            break;
                        }
                        // Resolve time minus its device reads: decode + digest.
                        let (t0, r0) = (Instant::now(), read_nanos.get());
                        let ok = rr.resolve(&mut read, &mut scratch, &mut buf);
                        let spent = t0.elapsed().as_nanos() as u64;
                        let reading = read_nanos.get() - r0;
                        verify_nanos.fetch_add(spent.saturating_sub(reading), Ordering::Relaxed);
                        if !ok {
                            failed.store(true, Ordering::Release);
                            break;
                        }
                        for &at in &rr.targets {
                            sink.put(at, &buf);
                            ctx.telemetry
                                .chunk(ctx.span, Phase::RestoreUpload, at, rr.len);
                        }
                        actor_bytes += rr.phys_len;
                    }
                    if actor_bytes > 0 && ctx.telemetry.is_enabled() {
                        ctx.telemetry.actor_span_split(
                            ctx.span,
                            &format!("reader-{r}"),
                            actor_start,
                            actor_bytes,
                            media_nanos.get(),
                        );
                    }
                });
            }
        });
        (!failed.into_inner()).then(|| verify_nanos.into_inner())
    }
}

/// [`crate::recover_instrumented`] with explicit [`RestoreOptions`]: the
/// full parallel recovery flow returning the materialized checkpoint.
///
/// # Errors
///
/// * [`PccheckError::NoCheckpoint`] if the device holds no committed
///   checkpoint.
/// * [`PccheckError::CorruptCheckpoint`] if **no** candidate verifies
///   (digest mismatches and device read faults both count as a failed
///   candidate, not a failed recovery).
/// * [`PccheckError::InvalidConfig`] if the device holds no PCcheck store.
pub fn recover_instrumented_with(
    device: Arc<dyn PersistentDevice>,
    telemetry: &Telemetry,
    options: RestoreOptions,
) -> Result<(RecoveredCheckpoint, RecoveryTrace), PccheckError> {
    let (trace, recovered) = recover_core(device, telemetry, options, None)?;
    Ok((
        recovered.expect("non-GPU recovery always materializes"),
        trace,
    ))
}

/// Recovers the newest verifiable checkpoint straight into `gpu`'s device
/// memory: all-`Raw` frames stream record by record into a
/// [`RestoreTarget`] as they verify (no full-payload DRAM image); frames
/// with compressed or referenced records reconstruct in DRAM, verify end
/// to end, and upload once.
///
/// # Errors
///
/// Same as [`recover_instrumented_with`].
///
/// # Panics
///
/// Panics if the recovered payload does not match `gpu`'s state layout
/// (the same contract as [`RecoveredCheckpoint::restore_into`]).
pub fn recover_into_gpu(
    device: Arc<dyn PersistentDevice>,
    gpu: &Gpu,
    telemetry: &Telemetry,
    options: RestoreOptions,
) -> Result<RecoveryTrace, PccheckError> {
    let (trace, _) = recover_core(device, telemetry, options, Some(gpu))?;
    Ok(trace)
}

fn recover_core(
    device: Arc<dyn PersistentDevice>,
    telemetry: &Telemetry,
    options: RestoreOptions,
    gpu: Option<&Gpu>,
) -> Result<(RecoveryTrace, Option<RecoveredCheckpoint>), PccheckError> {
    let t0 = Instant::now();
    let span = telemetry.span_requested("recovery", 0, 0);
    let ctx = PipelineCtx { telemetry, span };
    let scan_start = telemetry.now_nanos();

    let store = Arc::new(CheckpointStore::open(device)?);
    store.flight().record_run(FlightEventKind::RecoveryStart, 0);
    // Candidates: every slot of the job's namespace holding a complete
    // checkpoint, newest first (none when the job has no namespace).
    let job = options.job.unwrap_or(OWNER_JOB);
    let mut candidates = store.history()?;
    candidates.retain(|m| store.namespace_of_slot(m.slot) == Some(job));
    candidates.reverse();
    let pipeline = RestorePipeline::new(Arc::clone(&store)).with_readers(options.readers);

    let mut trace = RecoveryTrace {
        scan_nanos: t0.elapsed().as_nanos() as u64,
        ..RecoveryTrace::default()
    };
    telemetry.phase_done(span, Phase::RecoveryScan, scan_start);

    if candidates.is_empty() {
        telemetry.failed(span, "no committed checkpoint");
        return Err(PccheckError::NoCheckpoint);
    }
    let newest_counter = candidates[0].counter;
    // Hands a verified state to the GPU (`None` left to return) or back.
    let deliver = |state: Vec<u8>, iteration: u64| match gpu {
        Some(gpu) => {
            let upload_start = telemetry.now_nanos();
            gpu.restore(&state, iteration);
            telemetry.phase_done(span, Phase::RestoreUpload, upload_start);
            None
        }
        None => Some(state),
    };

    for meta in &candidates {
        trace.candidates_scanned += 1;
        let load_t0 = Instant::now();
        let load_start = telemetry.now_nanos();
        // `verified` is `Some((Some(payload) | None-if-on-the-GPU, digest))`
        // on success; any failure — torn payload, bad digest, *or a device
        // read fault* — rejects only this candidate and falls back.
        let verified: Option<(Option<Vec<u8>>, u64)> = match store.read_frame(meta) {
            Some(table) => {
                // An all-Raw frame the GPU's layout fits streams straight
                // into it; anything else verifies end to end in DRAM first.
                let stream_to =
                    gpu.filter(|g| table.is_raw() && table.logical_len == g.state_size().as_u64());
                let out = match stream_to {
                    Some(gpu) => {
                        let target = gpu.begin_restore(ByteSize::from_bytes(table.logical_len));
                        pipeline.fetch(ctx, meta, &table, &candidates, &target).map(
                            |verify_nanos| {
                                target.finish(meta.iteration);
                                telemetry.phase_done(span, Phase::RestoreUpload, load_start);
                                (None, verify_nanos)
                            },
                        )
                    }
                    None => pipeline.fetch_state(ctx, meta, &table, &candidates).map(
                        |(state, verify_nanos)| (deliver(state, meta.iteration), verify_nanos),
                    ),
                };
                telemetry.phase_done(span, Phase::RecoveryLoad, load_start);
                telemetry.phase_done(span, Phase::RecoveryVerify, load_start);
                out.map(|(payload, verify_nanos)| {
                    trace.verify_nanos += verify_nanos;
                    trace.chain_links = table.base_checkpoints() as u64;
                    (payload, meta.digest)
                })
            }
            None => None,
        };
        trace.load_nanos += load_t0.elapsed().as_nanos() as u64;

        let Some((payload, digest)) = verified else {
            continue;
        };
        trace.fallbacks = trace.candidates_scanned - 1;
        trace.counter = meta.counter;
        trace.iteration = meta.iteration;
        trace.total_nanos = t0.elapsed().as_nanos() as u64;
        telemetry.committed(span, meta.iteration, meta.payload_len);
        store.flight().record(
            FlightEventKind::RecoveryDone,
            meta.counter,
            meta.slot,
            meta.iteration,
            meta.payload_len,
            trace.fallbacks,
        );
        let recovered = payload.map(|payload| RecoveredCheckpoint {
            iteration: meta.iteration,
            counter: meta.counter,
            payload,
            digest,
        });
        return Ok((trace, recovered));
    }

    telemetry.failed(span, "no slot passed digest verification");
    Err(PccheckError::CorruptCheckpoint {
        counter: newest_counter,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, HostBufferPool, SsdDevice};
    use pccheck_gpu::{GpuConfig, HostSnapshot, SnapshotSource, StateDigest, TrainingState};
    use pccheck_telemetry::SpanId;
    use pccheck_util::prop;

    use crate::codec::ChunkEncoding;
    use crate::meta::checksum;
    use crate::pipeline::{DeltaOutcome, DeltaPolicy, PersistPipeline};

    fn ctx(telemetry: &Telemetry) -> PipelineCtx<'_> {
        PipelineCtx {
            telemetry,
            span: SpanId::NONE,
        }
    }

    /// Formats a store over a fresh SSD and commits `n` raw-checksum
    /// checkpoints of `payload_bytes` each as all-Raw frames of
    /// `record_len`-byte records.
    fn raw_store(
        n: u64,
        payload_bytes: u64,
        record_len: u64,
    ) -> (Arc<SsdDevice>, Arc<CheckpointStore>, Vec<Vec<u8>>) {
        let slot = ByteSize::from_bytes(payload_bytes);
        let cap = CheckpointStore::required_capacity(slot, 3) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(Arc::clone(&ssd) as Arc<dyn PersistentDevice>, slot, 3, 0)
                .unwrap(),
        );
        let mut payloads = Vec::new();
        for i in 1..=n {
            let payload: Vec<u8> = (0..payload_bytes)
                .map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8))
                .collect();
            let lease = store.begin_checkpoint(None).unwrap();
            let mut raw = crate::codec::RawFrame::new(payload_bytes, record_len, 64);
            raw.feed(&payload);
            store.write_payload(&lease, 0, &payload).unwrap();
            let table_len = store
                .write_frame_table(&lease, payload_bytes, &raw.finish(lease.counter))
                .unwrap();
            store
                .persist_payload(&lease, 0, payload_bytes + table_len)
                .unwrap();
            store
                .commit(lease, i, payload_bytes, checksum(&payload))
                .unwrap();
            payloads.push(payload);
        }
        (ssd, store, payloads)
    }

    /// Drives `iters` checkpoints of a 2 KiB synthetic state through the
    /// delta pipeline (first full, the rest 10%-sparse deltas) and returns
    /// the device, the store, and the GPU at its final state.
    pub(crate) fn delta_store(iters: u64) -> (Arc<SsdDevice>, Arc<CheckpointStore>, Gpu) {
        let state = TrainingState::synthetic(ByteSize::from_bytes(2048), 7);
        let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
        gpu.update();
        let cap = CheckpointStore::required_capacity(gpu.state_size(), 4) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let device: Arc<dyn PersistentDevice> = ssd.clone();
        let store = Arc::new(CheckpointStore::format(device, gpu.state_size(), 4, 0).unwrap());
        let persist = PersistPipeline::new(Arc::clone(&store))
            .with_writers(2)
            .with_staging(HostBufferPool::new(ByteSize::from_bytes(256), 4));
        let telemetry = Telemetry::disabled();
        for iter in 1..=iters {
            if iter > 1 {
                gpu.update_sparse(0.1);
            }
            let guard = gpu.lock_weights_shared();
            let digest = guard.digest().0;
            persist
                .checkpoint_delta(
                    ctx(&telemetry),
                    &guard,
                    iter,
                    digest,
                    DeltaPolicy::default(),
                )
                .unwrap();
        }
        (ssd, store, gpu)
    }

    /// `meta`'s state through a `readers`-wide restore pipeline.
    fn fetch_state(
        store: &Arc<CheckpointStore>,
        readers: usize,
        meta: &CheckMeta,
        candidates: &[CheckMeta],
    ) -> Option<Vec<u8>> {
        let telemetry = Telemetry::disabled();
        let table = store.read_frame(meta)?;
        RestorePipeline::new(Arc::clone(store))
            .with_readers(readers)
            .fetch_state(ctx(&telemetry), meta, &table, candidates)
            .map(|(state, _)| state)
    }

    #[test]
    fn parallel_fetch_matches_sequential() {
        let (_ssd, store, payloads) = raw_store(2, 16 * 1024, 4096);
        let meta = store.latest_committed().unwrap();
        let seq = fetch_state(&store, 1, &meta, &[]).unwrap();
        let par = fetch_state(&store, 4, &meta, &[]).unwrap();
        assert_eq!(seq, payloads[1]);
        assert_eq!(par, payloads[1], "parallel read is bit-identical");
    }

    #[test]
    fn parallel_fetch_emits_reader_actor_spans() {
        let (_ssd, store, _payloads) = raw_store(1, 16 * 1024, 4096);
        let meta = store.latest_committed().unwrap();
        let table = store.read_frame(&meta).unwrap();
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("restore", 1, meta.payload_len);
        let got = RestorePipeline::new(Arc::clone(&store))
            .with_readers(4)
            .fetch_state(
                PipelineCtx {
                    telemetry: &telemetry,
                    span,
                },
                &meta,
                &table,
                &[],
            );
        assert!(got.is_some());
        let spans: Vec<(String, u64)> = telemetry
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                pccheck_telemetry::EventKind::ActorSpan { actor, bytes, .. } if e.span == span => {
                    Some((actor.clone(), *bytes))
                }
                _ => None,
            })
            .collect();
        // 4 records, 4 readers: one run (and one span) per reader.
        assert_eq!(spans.len(), 4, "one actor span per reader run: {spans:?}");
        assert!(spans.iter().all(|(a, _)| a.starts_with("reader-")));
        let total: u64 = spans.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 16 * 1024, "reader spans account for every byte");
    }

    #[test]
    fn unframed_slot_is_not_recoverable() {
        // A store-level commit that skips the frame table leaves a slot no
        // reader accepts: there is no unframed fallback path.
        let (ssd, store, payloads) = raw_store(1, 4096, 1024);
        let lease = store.begin_checkpoint(None).unwrap();
        store.write_payload(&lease, 0, &payloads[0]).unwrap();
        store.persist_payload(&lease, 0, 4096).unwrap();
        store
            .commit(lease, 2, 4096, checksum(&payloads[0]))
            .unwrap();
        let newest = store.latest_committed().unwrap();
        assert!(store.read_frame(&newest).is_none());
        drop(store);
        let (rec, trace) = crate::recover_instrumented(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!((rec.iteration, trace.fallbacks), (1, 1));
    }

    #[test]
    fn corrupt_record_is_rejected() {
        let (ssd, store, _payloads) = raw_store(1, 16 * 1024, 4096);
        let meta = store.latest_committed().unwrap();
        let off = store.slot_payload_offset(meta.slot) + 9000;
        ssd.write_at(off, b"!").unwrap();
        ssd.persist(off, 1).unwrap();
        assert!(
            fetch_state(&store, 4, &meta, &[]).is_none(),
            "per-record verification caught the flip"
        );
    }

    #[test]
    fn torn_or_corrupt_frame_table_falls_back_to_the_previous_commit() {
        // Every truncation point of the newest frame's table write, and a
        // flipped bit in every table byte: recovery must fall back to the
        // previous commit (or, for the complete table, take the newest),
        // and never return wrong bytes.
        let (_, _, payloads) = raw_store(2, 4096, 1024);
        let table_len = crate::codec::FrameTable::encoded_len_for(4) as usize;
        let damages = (0..=table_len)
            .map(|cut| (cut, None))
            .chain((0..table_len).map(|at| (table_len, Some(at))));
        for (cut, flip) in damages {
            let (ssd, store, _) = raw_store(1, 4096, 1024);
            let lease = store.begin_checkpoint(None).unwrap();
            let mut raw = crate::codec::RawFrame::new(4096, 1024, 64);
            raw.feed(&payloads[1]);
            let mut table = raw.finish(lease.counter).encode();
            if let Some(at) = flip {
                table[at] ^= 0x10;
            }
            let base = store.slot_payload_offset(lease.slot);
            ssd.write_at(base, &payloads[1]).unwrap();
            ssd.write_at(base + 4096, &table[..cut]).unwrap();
            ssd.persist(base, 4096 + cut as u64).unwrap();
            store
                .commit(lease, 2, 4096, checksum(&payloads[1]))
                .unwrap();
            drop(store);
            let rec = crate::recover(Arc::clone(&ssd) as Arc<dyn PersistentDevice>).unwrap();
            let whole = cut == table_len && flip.is_none();
            let want = if whole { 2 } else { 1 };
            assert_eq!(rec.iteration, want, "cut {cut} flip {flip:?}");
            assert_eq!(rec.payload, payloads[want as usize - 1]);
        }
    }

    /// Collects every chunk a fetch delivers, to check it lands each
    /// logical byte exactly once.
    #[derive(Default)]
    struct Recording(Mutex<Vec<(u64, Vec<u8>)>>);

    impl RestoreSink for Recording {
        fn put(&self, offset: u64, data: &[u8]) {
            self.0.lock().push((offset, data.to_vec()));
        }
    }

    #[test]
    fn frames_mixing_every_record_kind_restore_bit_identically() {
        const CHUNK: usize = 256;
        prop::check(
            "frames_mixing_every_record_kind_restore_bit_identically",
            16,
            |g| {
                let chunks = g.range(6usize..16);
                let noise = |g: &mut prop::Gen| g.bytes(CHUNK..CHUNK + 1);
                // The base: distinct incompressible chunks.
                let base: Vec<Vec<u8>> = (0..chunks).map(|_| noise(g)).collect();
                // The frame: one of each kind up front, then any mix.
                let mut frame = vec![
                    noise(g),                         // Raw
                    vec![g.range(0u8..255); CHUNK],   // Lz
                    Vec::new(),                       // DedupSelf of 0
                    base[g.range(0..chunks)].clone(), // DedupBase
                ];
                frame[2] = frame[0].clone();
                for _ in 4..chunks {
                    let c = match g.range(0u8..4) {
                        0 => noise(g),
                        1 => vec![g.range(0u8..255); CHUNK],
                        2 => frame[g.range(0..frame.len())].clone(),
                        _ => base[g.range(0..chunks)].clone(),
                    };
                    frame.push(c);
                }
                let (base, frame) = (base.concat(), frame.concat());

                let state = ByteSize::from_bytes(frame.len() as u64);
                let cap = CheckpointStore::required_capacity(state, 3) + ByteSize::from_kb(1);
                let device: Arc<dyn PersistentDevice> =
                    Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
                let store =
                    Arc::new(CheckpointStore::format(Arc::clone(&device), state, 3, 0).unwrap());
                let pipeline = PersistPipeline::new(Arc::clone(&store))
                    .with_writers(2)
                    .with_staging(HostBufferPool::new(ByteSize::from_bytes(CHUNK as u64), 4))
                    .with_codec(true);
                let telemetry = Telemetry::disabled();
                for (step, data) in [(1, &base), (2, &frame)] {
                    let src = HostSnapshot {
                        data: data.clone(),
                        step,
                    };
                    let digest = pccheck_gpu::SnapshotSource::digest(&src).0;
                    pipeline
                        .checkpoint_framed(
                            ctx(&telemetry),
                            &src,
                            step,
                            digest,
                            DeltaPolicy::default(),
                        )
                        .unwrap();
                }
                let mut candidates = store.history().unwrap();
                candidates.reverse();
                let meta = candidates[0];
                let table = store.read_frame(&meta).unwrap();
                for kind in [
                    ChunkEncoding::Raw,
                    ChunkEncoding::Lz,
                    ChunkEncoding::DedupSelf,
                    ChunkEncoding::DedupBase,
                ] {
                    assert!(table.records.iter().any(|r| r.kind == kind), "{kind:?}");
                }
                for readers in [1, 4] {
                    let got = fetch_state(&store, readers, &meta, &candidates).unwrap();
                    assert_eq!(got, frame, "buffer, {readers} readers");
                    let sink = Recording::default();
                    RestorePipeline::new(Arc::clone(&store))
                        .with_readers(readers)
                        .fetch(ctx(&telemetry), &meta, &table, &candidates, &sink)
                        .unwrap();
                    let mut puts = sink.0.into_inner();
                    puts.sort_by_key(|(off, _)| *off);
                    let mut at = 0u64;
                    for (off, data) in &puts {
                        assert_eq!(*off, at, "each byte delivered exactly once");
                        at += data.len() as u64;
                    }
                    let assembled: Vec<u8> = puts.into_iter().flat_map(|(_, d)| d).collect();
                    assert_eq!(assembled, frame, "sink, {readers} readers");
                }
            },
        );
    }

    #[test]
    fn read_fault_on_newest_falls_back_instead_of_erroring() {
        let (ssd, store, payloads) = raw_store(2, 16 * 1024, 4096);
        let newest = store.latest_committed().unwrap();
        assert_eq!(newest.iteration, 2);
        // Latent sector error in the middle of the newest payload,
        // "discovered" mid-recovery-scan. Before the parallel pipeline this
        // aborted recovery with the device error; now it must fall back.
        ssd.arm_read_fault_at(store.slot_payload_offset(newest.slot) + 4096, 64);
        drop(store);
        let telemetry = Telemetry::disabled();
        let (rec, trace) = recover_instrumented_with(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &telemetry,
            RestoreOptions::default(),
        )
        .unwrap();
        assert_eq!(rec.iteration, 1, "fell back past the unreadable slot");
        assert_eq!(rec.payload, payloads[0]);
        assert_eq!(trace.fallbacks, 1);
        assert_eq!(trace.candidates_scanned, 2);
    }

    #[test]
    fn read_fault_everywhere_reports_corrupt_not_device_error() {
        // Newest payload is unreadable media, the older one is corrupt on
        // disk: recovery exhausts both and reports the protocol error, not
        // the raw device error.
        let (ssd, store, _payloads) = raw_store(2, 16 * 1024, 4096);
        let metas = store.history().unwrap();
        let newest = metas.last().unwrap();
        let oldest = metas.first().unwrap();
        ssd.arm_read_fault_at(store.slot_payload_offset(newest.slot), newest.payload_len);
        let off = store.slot_payload_offset(oldest.slot);
        ssd.write_at(off, b"XX").unwrap();
        ssd.persist(off, 2).unwrap();
        drop(store);
        let err = recover_instrumented_with(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &Telemetry::disabled(),
            RestoreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PccheckError::CorruptCheckpoint { counter: 2 }
        ));
    }

    #[test]
    fn recover_into_gpu_streams_full_checkpoints() {
        // An all-Raw frame the GPU's layout fits streams straight into a
        // restore target, record by record.
        let (ssd, store, payloads) = raw_store(2, 16 * 1024, 4096);
        drop(store);
        ssd.crash_now();
        ssd.recover();

        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(16 * 1024), 999),
        );
        let layout = fresh.with_weights(|s| s.layout());
        let want = TrainingState::restore(&layout, &payloads[1], 2).digest();
        let telemetry = Telemetry::enabled();
        let trace = recover_into_gpu(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &fresh,
            &telemetry,
            RestoreOptions::default(),
        )
        .unwrap();
        assert_eq!(trace.iteration, 2);
        assert_eq!(fresh.digest(), want, "streamed restore is bit-identical");
        assert_eq!(fresh.step_count(), 2);
        let snap = telemetry.snapshot().unwrap();
        assert!(snap.phase(Phase::RestoreUpload).count >= 1);
        assert!(snap.restore_chunk_bytes >= 16 * 1024, "chunk-wise reads");
    }

    #[test]
    fn recover_into_gpu_materializes_delta_chains() {
        let (ssd, store, gpu) = delta_store(3);
        let want = gpu.digest();
        drop(store);
        ssd.crash_now();
        ssd.recover();

        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(2048), 999),
        );
        let trace = recover_into_gpu(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &fresh,
            &Telemetry::disabled(),
            RestoreOptions::default(),
        )
        .unwrap();
        assert_eq!(trace.chain_links, 2);
        assert_eq!(fresh.digest(), want);
        assert_eq!(fresh.step_count(), 3);
    }

    #[test]
    fn crashed_frame_table_never_binds_to_a_later_commit() {
        // A frame that crashed after its table persisted but before its
        // meta leaves that table, with its counter, in a slot that goes
        // back to the free list. The next commit lands there with exactly
        // the crashed frame's packed length but writes no table of its
        // own: its commit must not bind the stale table.
        let (ssd, store, payloads) = raw_store(1, 4096, 1024);
        let lease = store.begin_checkpoint(None).unwrap();
        let (stale_counter, stale_slot) = (lease.counter, lease.slot);
        let written = store.write_whole_frame(&lease, &payloads[0]).unwrap();
        store.persist_payload(&lease, 0, written).unwrap();
        drop((lease, store));
        ssd.crash_now();
        ssd.recover();

        let device: Arc<dyn PersistentDevice> = ssd.clone();
        let store = CheckpointStore::open(Arc::clone(&device)).unwrap();
        let lease = store.begin_checkpoint(None).unwrap();
        assert_eq!(lease.slot, stale_slot);
        assert!(lease.counter > stale_counter, "counters never repeat");
        store
            .commit(lease, 2, 4096, checksum(&payloads[0]))
            .unwrap();
        let newest = store.latest_committed().unwrap();
        assert!(
            store.read_frame(&newest).is_none(),
            "the stale table is not bound"
        );
        drop(store);

        let (rec, trace) = crate::recover_instrumented(device, &Telemetry::disabled()).unwrap();
        assert_eq!((rec.iteration, trace.fallbacks), (1, 1));
    }

    /// A host state reporting exactly `dirty` as mutated since the last
    /// snapshot.
    struct Mutated {
        snap: HostSnapshot,
        dirty: Vec<(u64, u64)>,
    }

    impl SnapshotSource for Mutated {
        fn size(&self) -> ByteSize {
            self.snap.size()
        }

        fn step_count(&self) -> u64 {
            self.snap.step
        }

        fn digest(&self) -> StateDigest {
            self.snap.digest()
        }

        fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
            self.snap.copy_range_to_host(offset, dst);
        }

        fn dirty_ranges(&self) -> Vec<(u64, u64)> {
            self.dirty.clone()
        }
    }

    /// A `slots`-slot store for `state` bytes, with a 2-writer pipeline
    /// staging through `chunk`-byte chunks (codec on when `codec`).
    fn chunk_rig(
        state: u64,
        slots: u32,
        chunk: u64,
        codec: bool,
    ) -> (Arc<dyn PersistentDevice>, PersistPipeline) {
        let size = ByteSize::from_bytes(state);
        let cap = CheckpointStore::required_capacity(size, slots) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(CheckpointStore::format(Arc::clone(&device), size, slots, 0).unwrap());
        let pipeline = PersistPipeline::new(store)
            .with_writers(2)
            .with_staging(HostBufferPool::new(ByteSize::from_bytes(chunk), 4))
            .with_codec(codec);
        (device, pipeline)
    }

    /// Checkpoints `data` as `step` through the delta path, reporting
    /// `dirty` as its mutated ranges.
    fn delta_step(
        pipeline: &PersistPipeline,
        data: &[u8],
        step: u64,
        dirty: Vec<(u64, u64)>,
        policy: DeltaPolicy,
    ) -> DeltaOutcome {
        let src = Mutated {
            snap: HostSnapshot {
                data: data.to_vec(),
                step,
            },
            dirty,
        };
        let telemetry = Telemetry::disabled();
        let digest = src.digest().0;
        let (out, kind) = pipeline
            .checkpoint_delta(ctx(&telemetry), &src, step, digest, policy)
            .unwrap();
        assert_eq!(out, crate::CommitOutcome::Committed);
        kind
    }

    /// Recovers `device` through `readers` readers.
    fn recover_with(device: &Arc<dyn PersistentDevice>, readers: usize) -> RecoveredCheckpoint {
        let options = RestoreOptions { readers, job: None };
        recover_instrumented_with(Arc::clone(device), &Telemetry::disabled(), options)
            .unwrap()
            .0
    }

    #[test]
    fn delta_frame_chains_restore_bit_identically_to_full_checkpoints() {
        const CHUNK: u64 = 64;
        let deltas = std::sync::atomic::AtomicUsize::new(0);
        prop::check(
            "delta_frame_chains_restore_bit_identically_to_full_checkpoints",
            24,
            |g| {
                let len = g.range(8u64..24) * CHUNK - g.range(0..CHUNK);
                let max_chain = g.range(1u32..5);
                let codec_root = g.bool();
                // A codec root stores runs as Lz records and repeats as
                // DedupSelf ones; a raw root is plain noise.
                let mut data = if codec_root {
                    let unique = g.bytes(CHUNK as usize..CHUNK as usize + 1);
                    (0..len)
                        .map(|i| match (i / CHUNK) % 3 {
                            0 => unique[(i % CHUNK) as usize],
                            1 => (i / CHUNK) as u8,
                            _ => unique[(i % CHUNK) as usize] ^ 0x5A,
                        })
                        .collect()
                } else {
                    g.bytes(len as usize..len as usize + 1)
                };
                let (dev_a, pipe_a) = chunk_rig(len, max_chain + 2, CHUNK, codec_root);
                let (dev_b, pipe_b) = chunk_rig(len, 2, CHUNK, false);
                let policy = DeltaPolicy {
                    max_dirty_ratio: 1.0,
                    max_chain,
                };
                let full = DeltaPolicy {
                    max_chain: 0,
                    ..policy
                };
                let telemetry = Telemetry::disabled();
                let src = HostSnapshot {
                    data: data.clone(),
                    step: 1,
                };
                let digest = src.digest().0;
                pipe_a
                    .checkpoint_framed(ctx(&telemetry), &src, 1, digest, policy)
                    .unwrap();
                assert_eq!(
                    delta_step(&pipe_b, &data, 1, vec![(0, len)], full),
                    DeltaOutcome::Full
                );
                if codec_root {
                    let root = pipe_a.store().latest_committed().unwrap();
                    let kinds: Vec<ChunkEncoding> =
                        (pipe_a.store().read_frame(&root).unwrap().records)
                            .iter()
                            .map(|r| r.kind)
                            .collect();
                    assert!(kinds.contains(&ChunkEncoding::Lz), "{kinds:?}");
                    assert!(kinds.contains(&ChunkEncoding::DedupSelf), "{kinds:?}");
                }
                for step in 2..=u64::from(max_chain) + 2 {
                    let mut dirty = Vec::new();
                    for _ in 0..g.range(1usize..4) {
                        let at = g.range(0..len);
                        let ranges = match g.range(0u8..5) {
                            // Straddling record boundaries.
                            0 | 1 => vec![(at, g.range(1..3 * CHUNK).min(len - at))],
                            // Adjacent ranges.
                            2 => {
                                let first = g.range(1..CHUNK).min(len - at);
                                let second = g.range(1..CHUNK).min(len - at - first);
                                vec![(at, first), (at + first, second)]
                            }
                            3 => vec![(at, 1)],
                            _ => vec![(0, len)],
                        };
                        dirty.extend(ranges.into_iter().filter(|&(_, n)| n > 0));
                    }
                    for &(off, n) in &dirty {
                        for b in &mut data[off as usize..(off + n) as usize] {
                            *b = b.wrapping_add(g.range(1u8..255));
                        }
                    }
                    if let DeltaOutcome::Delta { chain_depth, .. } =
                        delta_step(&pipe_a, &data, step, dirty, policy)
                    {
                        assert!(chain_depth <= max_chain);
                        deltas.fetch_add(1, Ordering::Relaxed);
                    }
                    delta_step(&pipe_b, &data, step, vec![(0, len)], full);
                    let twin = recover_with(&dev_b, 1);
                    assert_eq!((twin.iteration, &twin.payload), (step, &data));
                    for readers in [1, 4] {
                        let rec = recover_with(&dev_a, readers);
                        assert_eq!(rec.iteration, step, "{readers} readers");
                        assert!(
                            rec.payload == twin.payload,
                            "{readers} readers, step {step}"
                        );
                    }
                }
            },
        );
        assert!(
            deltas.into_inner() > 24,
            "the chains must take the delta path"
        );
    }

    #[test]
    fn a_delta_whose_splits_overflow_the_table_streams_a_full_frame() {
        // 64 records of 64 bytes fill the slot's 64-record table; one byte
        // dirtied inside each of two records would split each into three.
        let (device, pipeline) = chunk_rig(4096, 3, 64, false);
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data, 3);
        let policy = DeltaPolicy::default();
        assert_eq!(
            delta_step(&pipeline, &data, 1, vec![(0, 4096)], policy),
            DeltaOutcome::Full
        );
        data[100] ^= 1;
        data[1000] ^= 1;
        let kind = delta_step(&pipeline, &data, 2, vec![(100, 1), (1000, 1)], policy);
        assert_eq!(kind, DeltaOutcome::Full);
        let head = pipeline.store().latest_committed().unwrap();
        assert!(!head.is_delta() && pipeline.store().read_frame(&head).unwrap().is_raw());
        let rec = recover_with(&device, 4);
        assert_eq!((rec.iteration, rec.payload), (2, data));
    }

    #[test]
    fn corrupt_record_in_a_middle_chain_slot_falls_back_past_its_dependents() {
        // root ← d1 ← d2 ← d3, each delta touching one record elsewhere:
        // d3 references the pieces d2 materialized. Damage to one of them
        // fails d2 and d3; recovery lands on d1 with d1's exact bytes.
        let (device, pipeline) = chunk_rig(4096, 6, 256, false);
        let policy = DeltaPolicy::default();
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data, 9);
        let mut states = Vec::new();
        for (step, at) in [
            (1u64, None),
            (2, Some(100u64)),
            (3, Some(1000)),
            (4, Some(2000)),
        ] {
            let dirty = match at {
                None => vec![(0, 4096)],
                Some(at) => {
                    data[at as usize..at as usize + 10]
                        .iter_mut()
                        .for_each(|b| *b ^= 0xFF);
                    vec![(at, 10)]
                }
            };
            delta_step(&pipeline, &data, step, dirty, policy);
            states.push(data.clone());
        }
        let store = pipeline.store();
        let mut history = store.history().unwrap();
        history.reverse();
        let (d3, d2) = (history[0], history[1]);
        assert_eq!((d3.iteration, d3.chain_depth()), (4, 3));
        let into_d2 =
            store.read_frame(&d3).unwrap().records.iter().any(|r| {
                r.kind == ChunkEncoding::DedupBase && (r.aux, r.a) == (d2.slot, d2.counter)
            });
        assert!(into_d2, "d3 references d2's pieces");
        let off = store.slot_payload_offset(d2.slot);
        let mut byte = [0u8; 1];
        device.read_durable_at(off, &mut byte).unwrap();
        device.write_at(off, &[byte[0] ^ 0x40]).unwrap();
        device.persist(off, 1).unwrap();

        for readers in [1, 4] {
            let (rec, trace) = recover_instrumented_with(
                Arc::clone(&device),
                &Telemetry::disabled(),
                RestoreOptions { readers, job: None },
            )
            .unwrap();
            assert_eq!(
                (rec.iteration, trace.fallbacks),
                (2, 2),
                "{readers} readers"
            );
            assert_eq!(rec.payload, states[1]);
        }
    }
}
