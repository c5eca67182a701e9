//! Delta-checkpointing era benchmark: persisted bytes and per-checkpoint
//! latency through [`pccheck::PersistPipeline::checkpoint_delta`] at 10%
//! update sparsity vs the full streamed path, emitted as `BENCH_pr4.json`
//! at the repository root.
//!
//! Both paths drive the same sparse training workload on a
//! bandwidth-throttled SSD; only the persist path differs. A 13-pass cycle
//! (one full root + 12 chained deltas) must cut persisted payload bytes by
//! at least 5× and mean checkpoint latency by at least 2×, while dense
//! (100%) updates — which always fall back to the full copy — must stay
//! within 5% of the plain streamed path. CI runs this as a smoke test and
//! archives the JSON.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pccheck::{CheckpointStore, DeltaOutcome, DeltaPolicy, PersistPipeline, PipelineCtx};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Gpu, GpuConfig, TrainingState};
use pccheck_telemetry::Telemetry;
use pccheck_util::{Bandwidth, ByteSize};

/// Training-state size per checkpoint.
const STATE_BYTES: u64 = 4 * 1024 * 1024;
/// Staging chunk size.
const CHUNK_BYTES: u64 = 128 * 1024;
/// Simulated SSD write bandwidth.
const MEMBER_MBPS: f64 = 200.0;
/// Writer threads.
const WRITERS: usize = 8;
/// Delta chain cap: each cycle is one full root + `MAX_CHAIN` deltas.
const MAX_CHAIN: u32 = 12;
/// Checkpoints per cycle.
const CYCLE: u64 = MAX_CHAIN as u64 + 1;
/// The sparsity the acceptance targets are asserted at.
const SPARSITY: f64 = 0.10;

struct PathResult {
    mean_pass_secs: f64,
    payload_bytes: u64,
}

fn throttled_ssd(capacity: ByteSize) -> Arc<dyn PersistentDevice> {
    Arc::new(SsdDevice::new(DeviceConfig {
        capacity,
        write_bandwidth: Bandwidth::from_mb_per_sec(MEMBER_MBPS),
        throttled: true,
    }))
}

fn workload_gpu() -> Gpu {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE_BYTES), 7),
    );
    gpu.update();
    gpu
}

fn pipeline_on(slots: u32) -> (PersistPipeline, Arc<CheckpointStore>) {
    let state = ByteSize::from_bytes(STATE_BYTES);
    let cap = CheckpointStore::required_capacity(state, slots) + ByteSize::from_kb(4);
    let store = Arc::new(
        CheckpointStore::format(throttled_ssd(cap), state, slots, 0)
            .expect("device fits the slots"),
    );
    let chunks = (STATE_BYTES / CHUNK_BYTES) as usize;
    let pipeline = PersistPipeline::new(Arc::clone(&store))
        .with_writers(WRITERS)
        .with_staging(HostBufferPool::new(
            ByteSize::from_bytes(CHUNK_BYTES),
            chunks,
        ));
    (pipeline, store)
}

fn mutate(gpu: &Gpu, sparsity: f64) {
    if sparsity >= 1.0 {
        gpu.update();
    } else {
        gpu.update_sparse(sparsity);
    }
}

/// One warmup + one timed cycle through the full streamed path.
fn run_full(sparsity: f64) -> PathResult {
    let gpu = workload_gpu();
    let (pipeline, _store) = pipeline_on(2);
    let telemetry = Telemetry::disabled();
    let pass = |iteration: u64| {
        let span = telemetry.span_requested("bench_pr4", iteration, STATE_BYTES);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = gpu.lock_weights_shared();
        let digest = guard.digest();
        let total = guard.size();
        let lease = pipeline.lease_for(ctx, None).expect("owner namespace");
        let persist_start = pipeline
            .copy_streamed(ctx, &guard, &lease, total)
            .expect("streamed copy on healthy device");
        drop(guard);
        pipeline
            .seal(ctx, &lease, iteration, total, persist_start)
            .expect("seal on healthy device");
        pipeline
            .commit(ctx, lease, iteration, total.as_u64(), digest.0)
            .expect("commit on healthy device");
    };
    for i in 1..=CYCLE {
        if i > 1 {
            mutate(&gpu, sparsity);
        }
        pass(i);
    }
    let start = Instant::now();
    for i in CYCLE + 1..=2 * CYCLE {
        mutate(&gpu, sparsity);
        pass(i);
    }
    PathResult {
        mean_pass_secs: start.elapsed().as_secs_f64() / CYCLE as f64,
        payload_bytes: CYCLE * STATE_BYTES,
    }
}

/// One warmup + one timed cycle through the delta path.
fn run_delta(sparsity: f64) -> PathResult {
    let gpu = workload_gpu();
    let (pipeline, _store) = pipeline_on(MAX_CHAIN + 2);
    let telemetry = Telemetry::disabled();
    let policy = DeltaPolicy {
        max_dirty_ratio: 0.5,
        max_chain: MAX_CHAIN,
    };
    let mut payload_bytes = 0u64;
    let pass = |iteration: u64, bytes: &mut u64| {
        let span = telemetry.span_requested("bench_pr4", iteration, STATE_BYTES);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = gpu.lock_weights_shared();
        let digest = guard.digest();
        let (_, kind) = pipeline
            .checkpoint_delta(ctx, &guard, iteration, digest.0, policy)
            .expect("delta checkpoint on healthy device");
        drop(guard);
        *bytes += match kind {
            DeltaOutcome::Delta { payload_len, .. } => payload_len,
            DeltaOutcome::Full => STATE_BYTES,
        };
    };
    let mut sink = 0u64;
    for i in 1..=CYCLE {
        if i > 1 {
            mutate(&gpu, sparsity);
        }
        pass(i, &mut sink);
    }
    let start = Instant::now();
    for i in CYCLE + 1..=2 * CYCLE {
        mutate(&gpu, sparsity);
        pass(i, &mut payload_bytes);
    }
    PathResult {
        mean_pass_secs: start.elapsed().as_secs_f64() / CYCLE as f64,
        payload_bytes,
    }
}

fn main() {
    println!(
        "[bench_pr4] delta checkpointing at {:.0}% sparsity ({} MiB state, chain cap {}, \
         {} MB/s SSD)",
        SPARSITY * 100.0,
        STATE_BYTES / (1024 * 1024),
        MAX_CHAIN,
        MEMBER_MBPS
    );

    let full = run_full(SPARSITY);
    let delta = run_delta(SPARSITY);
    let bytes_reduction = full.payload_bytes as f64 / delta.payload_bytes as f64;
    let latency_reduction = full.mean_pass_secs / delta.mean_pass_secs;
    println!(
        "  sparse {:.0}%: full {} B @ {:.1} ms/pass, delta {} B @ {:.1} ms/pass \
         -> bytes {:.2}x, latency {:.2}x",
        SPARSITY * 100.0,
        full.payload_bytes,
        full.mean_pass_secs * 1e3,
        delta.payload_bytes,
        delta.mean_pass_secs * 1e3,
        bytes_reduction,
        latency_reduction
    );

    let dense_full = run_full(1.0);
    let dense_delta = run_delta(1.0);
    let dense_overhead = dense_delta.mean_pass_secs / dense_full.mean_pass_secs - 1.0;
    println!(
        "  dense: full {:.1} ms/pass, delta-path fallback {:.1} ms/pass -> overhead {:+.1}%",
        dense_full.mean_pass_secs * 1e3,
        dense_delta.mean_pass_secs * 1e3,
        dense_overhead * 100.0
    );

    let pass = bytes_reduction >= 5.0 && latency_reduction >= 2.0 && dense_overhead.abs() <= 0.05;
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_pr4\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"state_bytes\": {STATE_BYTES}, \"chunk_bytes\": {CHUNK_BYTES}, \
         \"member_mb_per_sec\": {MEMBER_MBPS}, \"writers\": {WRITERS}, \
         \"max_chain\": {MAX_CHAIN}, \"sparsity\": {SPARSITY}, \"cycle_passes\": {CYCLE}}},"
    );
    let _ = writeln!(
        json,
        "  \"sparse\": {{\"full_payload_bytes\": {}, \"delta_payload_bytes\": {}, \
         \"bytes_reduction\": {:.3}, \"full_mean_pass_ms\": {:.3}, \
         \"delta_mean_pass_ms\": {:.3}, \"latency_reduction\": {:.3}}},",
        full.payload_bytes,
        delta.payload_bytes,
        bytes_reduction,
        full.mean_pass_secs * 1e3,
        delta.mean_pass_secs * 1e3,
        latency_reduction
    );
    let _ = writeln!(
        json,
        "  \"dense\": {{\"full_mean_pass_ms\": {:.3}, \"delta_mean_pass_ms\": {:.3}, \
         \"overhead_frac\": {:.4}}},",
        dense_full.mean_pass_secs * 1e3,
        dense_delta.mean_pass_secs * 1e3,
        dense_overhead
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"bytes_reduction\": {:.3}, \"bytes_target\": 5.0, \
         \"latency_reduction\": {:.3}, \"latency_target\": 2.0, \
         \"dense_overhead_frac\": {:.4}, \"dense_target\": 0.05, \"pass\": {}}}\n}}",
        bytes_reduction, latency_reduction, dense_overhead, pass
    );

    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".into());
    let path = format!("{root}/BENCH_pr4.json");
    std::fs::write(&path, &json).expect("write BENCH_pr4.json");
    println!("[bench_pr4] wrote {path}");

    assert!(
        bytes_reduction >= 5.0,
        "persist-bytes reduction {bytes_reduction:.2}x below the 5x floor at 10% sparsity"
    );
    assert!(
        latency_reduction >= 2.0,
        "checkpoint-latency reduction {latency_reduction:.2}x below the 2x floor at 10% sparsity"
    );
    assert!(
        dense_overhead.abs() <= 0.05,
        "dense fallback {:.1}% off the full streamed path (5% budget)",
        dense_overhead * 100.0
    );
}
