//! Extension: incremental delta checkpointing sweep.
//!
//! Sweeps update sparsity × delta chain length through the concrete
//! [`PersistPipeline::checkpoint_delta`] path: each run drives a real
//! [`Gpu`] whose [`Gpu::update_sparse`] mutates only a fraction of every
//! tensor, so the pipeline's dirty-extent tracking decides per checkpoint
//! whether to persist a delta frame (the records the dirty extents touch,
//! split at the extent boundaries, plus references to every other record)
//! or fall back to a full streamed copy (dirty ratio above policy, chain
//! at its cap, no committed base, or a plan too large for the slot's
//! table). The row reports the persisted bytes, frame tables included,
//! against what the full path would have written — the persist-bytes
//! reduction `BENCH_pr4.json` asserts at 10% sparsity.

use std::sync::Arc;

use pccheck::{CheckpointStore, DeltaOutcome, DeltaPolicy, PersistPipeline, PipelineCtx};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Gpu, GpuConfig, TrainingState};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::{ByteSize, CsvWriter};

/// Update sparsities swept (fraction of each tensor mutated per step).
pub const SPARSITIES: [f64; 4] = [0.01, 0.10, 0.50, 1.00];

/// Delta chain-length caps swept.
pub const CHAIN_LENGTHS: [u32; 3] = [2, 4, 8];

/// Training-state size per run.
pub const STATE_BYTES: u64 = 256 * 1024;

/// Staging chunk size.
pub const CHUNK_BYTES: u64 = 8 * 1024;

/// One sweep row.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtDeltaRow {
    /// Fraction of each tensor mutated per step.
    pub sparsity: f64,
    /// Chain-length cap the policy enforced.
    pub max_chain: u32,
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Bytes the full path would persist (checkpoints × state size).
    pub full_bytes: u64,
    /// Bytes the delta path actually persisted.
    pub delta_bytes: u64,
    /// `full_bytes / delta_bytes`.
    pub bytes_saved_ratio: f64,
    /// Checkpoints that fell back to a full copy (first checkpoint, chain
    /// cap, or dirty ratio above policy).
    pub full_fallbacks: u64,
}

/// Runs `2 × (max_chain + 1)` checkpoints at one sparsity and returns the
/// measured row.
pub fn measure(sparsity: f64, max_chain: u32) -> ExtDeltaRow {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE_BYTES), 42),
    );
    gpu.update();
    // Chain roots stay pinned until their dependents retire, so the store
    // needs the whole chain plus a free slot to lease from.
    let slots = max_chain + 2;
    let cap = CheckpointStore::required_capacity(gpu.state_size(), slots) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let store = Arc::new(CheckpointStore::format(device, gpu.state_size(), slots, 0).unwrap());
    let pipeline = PersistPipeline::new(store)
        .with_writers(2)
        .with_staging(HostBufferPool::new(ByteSize::from_bytes(CHUNK_BYTES), 8));
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    // 0.75 keeps the 50%-sparse runs on the delta path while still letting
    // dense (100%) updates fall back to the full copy.
    let policy = DeltaPolicy {
        max_dirty_ratio: 0.75,
        max_chain,
    };
    let checkpoints = u64::from(max_chain + 1) * 2;
    let mut delta_bytes = 0u64;
    let mut full_fallbacks = 0u64;
    for iter in 1..=checkpoints {
        if iter > 1 {
            gpu.update_sparse(sparsity);
        }
        let guard = gpu.lock_weights_shared();
        let digest = guard.digest();
        let (_, kind) = pipeline
            .checkpoint_delta(ctx, &guard, iter, digest.0, policy)
            .unwrap();
        drop(guard);
        match kind {
            DeltaOutcome::Delta { payload_len, .. } => delta_bytes += payload_len,
            DeltaOutcome::Full => {
                delta_bytes += STATE_BYTES;
                full_fallbacks += 1;
            }
        }
    }
    let full_bytes = checkpoints * STATE_BYTES;
    ExtDeltaRow {
        sparsity,
        max_chain,
        checkpoints,
        full_bytes,
        delta_bytes,
        bytes_saved_ratio: full_bytes as f64 / delta_bytes as f64,
        full_fallbacks,
    }
}

/// Runs the full sparsity × chain-length sweep.
pub fn run() -> Vec<ExtDeltaRow> {
    let mut rows = Vec::new();
    for &sparsity in &SPARSITIES {
        for &max_chain in &CHAIN_LENGTHS {
            rows.push(measure(sparsity, max_chain));
        }
    }
    rows
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv<W: std::io::Write>(rows: &[ExtDeltaRow], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(
        out,
        &[
            "sparsity",
            "max_chain",
            "checkpoints",
            "full_bytes",
            "delta_bytes",
            "bytes_saved_ratio",
            "full_fallbacks",
        ],
    );
    for r in rows {
        w.row(&[
            &format_args!("{:.2}", r.sparsity),
            &r.max_chain,
            &r.checkpoints,
            &r.full_bytes,
            &r.delta_bytes,
            &format_args!("{:.2}", r.bytes_saved_ratio),
            &r.full_fallbacks,
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_updates_cut_persisted_bytes() {
        let row = measure(0.10, 4);
        // One full root per 5-checkpoint cycle, deltas otherwise.
        assert_eq!(row.checkpoints, 10);
        assert_eq!(row.full_fallbacks, 2, "one full root per chain cycle");
        assert!(
            row.bytes_saved_ratio > 2.0,
            "10% sparsity must save >2x, got {:.2}",
            row.bytes_saved_ratio
        );
    }

    #[test]
    fn dense_updates_always_fall_back_to_full_copies() {
        let row = measure(1.00, 2);
        assert_eq!(row.full_fallbacks, row.checkpoints);
        assert!((row.bytes_saved_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn longer_chains_save_more_at_fixed_sparsity() {
        let short = measure(0.10, 2);
        let long = measure(0.10, 8);
        assert!(
            long.bytes_saved_ratio > short.bytes_saved_ratio,
            "chain 8 ({:.2}x) must beat chain 2 ({:.2}x)",
            long.bytes_saved_ratio,
            short.bytes_saved_ratio
        );
    }

    #[test]
    fn csv_has_one_line_per_row_plus_header() {
        let rows = vec![measure(0.5, 2)];
        let mut buf = Vec::new();
        write_csv(&rows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("sparsity,max_chain,"));
    }
}
