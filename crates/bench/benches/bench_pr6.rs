//! Live-introspection overhead benchmark: the same throttled checkpointed
//! training run measured with telemetry only, then again with the full
//! exposition stack live — a [`MetricsRegistry`] behind a bound
//! [`MetricsServer`] being scraped continuously from another thread —
//! emitted as `BENCH_pr6.json` at the repository root.
//!
//! The scraper polls `GET /metrics` every 10 ms (far harder than any real
//! Prometheus interval) and `GET /metrics.json` on alternate polls, so
//! the measurement covers registry snapshotting, both encoders, and the
//! socket round-trip. Acceptance: the live configuration's median-of-reps
//! wall time is within 2% of the telemetry-only baseline, widened to the
//! measured inter-rep noise (relative IQR across both arms) when the host
//! is too noisy to resolve 2%; on a single-core host the number is
//! reported but not gated (the exposition thread time-shares the only
//! core with the trainer). Reps are interleaved (baseline, live,
//! baseline, ...) so machine drift hits both arms equally; the median
//! (not the min) summarizes each arm, and measured differences under the
//! noise estimate are reported as noise rather than as a real speedup or
//! slowdown — best-of-reps previously produced a nonsensical -0.8%
//! "overhead" here.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pccheck::{CheckpointStore, PcCheckConfig, PcCheckEngine};
use pccheck_bench::stats::{bench_json_path, host_cores, median, rel_iqr, NOISE_FLOOR};
use pccheck_device::{DeviceConfig, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_telemetry::{
    http_get, validate_prometheus_text, MetricsRegistry, MetricsServer, Telemetry,
};
use pccheck_util::{Bandwidth, ByteSize};

/// Training state size.
const STATE_KB: u64 = 1024;
/// Training iterations per rep.
const ITERATIONS: u64 = 120;
/// Checkpoint interval (iterations).
const INTERVAL: u64 = 3;
/// Per-iteration compute time.
const ITER_COMPUTE_MS: u64 = 1;
/// Simulated device bandwidth.
const DEVICE_MB_PER_SEC: f64 = 256.0;
/// Interleaved repetitions per arm.
const REPS: usize = 5;
/// Scrape period while the live arm trains.
const SCRAPE_PERIOD_MS: u64 = 10;
/// Acceptance ceiling: live exposition may cost at most this fraction.
const OVERHEAD_CEILING: f64 = 0.02;

/// One full training run; returns (wall seconds, scrapes served).
fn run_once(live: bool) -> (f64, u64) {
    let telemetry = Telemetry::enabled();
    let state = ByteSize::from_kb(STATE_KB);
    let cap = CheckpointStore::required_capacity(state, 3) + ByteSize::from_kb(4);
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(state, 7),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(64))
            .dram_chunks(8)
            .build()
            .expect("valid config"),
        Arc::new(SsdDevice::new(DeviceConfig {
            capacity: cap,
            write_bandwidth: Bandwidth::from_mb_per_sec(DEVICE_MB_PER_SEC),
            throttled: true,
        })),
        gpu.state_size(),
    )
    .expect("engine constructs")
    .with_telemetry(telemetry.clone());

    // The live arm binds the real server and scrapes it from another
    // thread for the whole run; the baseline arm skips all of it.
    let stop = Arc::new(AtomicBool::new(false));
    let (server, scraper) = if live {
        let server = MetricsServer::bind("127.0.0.1:0", MetricsRegistry::new(telemetry.clone()))
            .expect("bind metrics server");
        let addr = server.addr();
        let stop = Arc::clone(&stop);
        let scraper = std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Acquire) {
                let path = if scrapes.is_multiple_of(2) {
                    "/metrics"
                } else {
                    "/metrics.json"
                };
                let body = http_get(addr, path).expect("scrape succeeds");
                assert!(!body.is_empty());
                if path == "/metrics" {
                    validate_prometheus_text(&body).expect("exposition parses");
                }
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(SCRAPE_PERIOD_MS));
            }
            scrapes
        });
        (Some(server), Some(scraper))
    } else {
        (None, None)
    };

    let t0 = Instant::now();
    for iter in 1..=ITERATIONS {
        gpu.update();
        std::thread::sleep(Duration::from_millis(ITER_COMPUTE_MS));
        if iter % INTERVAL == 0 {
            engine.checkpoint(&gpu, iter);
        }
    }
    engine.drain();
    let secs = t0.elapsed().as_secs_f64();

    stop.store(true, Ordering::Release);
    let scrapes = scraper
        .map(|s| s.join().expect("scraper thread"))
        .unwrap_or(0);
    if let Some(server) = server {
        server.shutdown();
    }
    if live {
        assert!(scrapes > 0, "scraper must have observed the run");
    }
    (secs, scrapes)
}

fn main() {
    println!(
        "[bench_pr6] live exposition overhead: {STATE_KB} KiB state, {ITERATIONS} iters, \
         checkpoint every {INTERVAL}, {DEVICE_MB_PER_SEC} MB/s device, \
         scrape every {SCRAPE_PERIOD_MS} ms, {REPS} interleaved reps"
    );

    let mut baseline: Vec<f64> = Vec::with_capacity(REPS);
    let mut live: Vec<f64> = Vec::with_capacity(REPS);
    let mut scrapes_total = 0u64;
    for rep in 0..REPS {
        let (b, _) = run_once(false);
        let (l, s) = run_once(true);
        scrapes_total += s;
        println!(
            "  rep {rep}: baseline {:.1} ms, live {:.1} ms ({s} scrapes)",
            b * 1e3,
            l * 1e3
        );
        baseline.push(b);
        live.push(l);
    }
    let base_median = median(&baseline);
    let live_median = median(&live);
    let overhead = live_median / base_median - 1.0;
    // Gate against the host's own resolution: when identical reps of one
    // arm swing more than the ceiling (loaded or single-core runners), a
    // between-arm difference that size is unattributable — widen the gate
    // to the measured inter-rep noise.
    let noise = rel_iqr(&baseline).max(rel_iqr(&live)).max(NOISE_FLOOR);
    let effective_ceiling = OVERHEAD_CEILING.max(noise);
    // The ceiling models the deployment reality that the scrape/serve
    // path runs beside training on a spare core. On a single-core host
    // the exposition thread time-shares the only core with the trainer,
    // so its cost is governed by the scheduler, not by this code path —
    // report the number but don't gate on it.
    let cores = host_cores();
    let gate_enforced = cores >= 2;
    let pass = !gate_enforced || overhead <= effective_ceiling;
    let verdict = if overhead.abs() < noise {
        " (within noise)"
    } else {
        ""
    };
    println!(
        "  median-of-{REPS}: baseline {:.1} ms, live {:.1} ms -> overhead {:+.2}%{verdict} \
         (ceiling {:.0}%, measured noise {:.1}%, effective gate {:.1}%{})",
        base_median * 1e3,
        live_median * 1e3,
        overhead * 100.0,
        OVERHEAD_CEILING * 100.0,
        noise * 100.0,
        effective_ceiling * 100.0,
        if gate_enforced {
            ""
        } else {
            ", informational: single-core host"
        }
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_pr6\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"state_bytes\": {}, \"iterations\": {ITERATIONS}, \
         \"interval\": {INTERVAL}, \"device_mb_per_sec\": {DEVICE_MB_PER_SEC}, \
         \"scrape_period_ms\": {SCRAPE_PERIOD_MS}, \"reps\": {REPS}}},",
        STATE_KB * 1024
    );
    let row = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(json, "  \"baseline_secs\": [{}],", row(&baseline));
    let _ = writeln!(json, "  \"live_secs\": [{}],", row(&live));
    let _ = writeln!(json, "  \"scrapes_total\": {scrapes_total},");
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"baseline_median_secs\": {base_median:.4}, \
         \"live_median_secs\": {live_median:.4}, \"overhead\": {overhead:.4}, \
         \"ceiling\": {OVERHEAD_CEILING}, \"measured_noise\": {noise:.4}, \
         \"effective_ceiling\": {effective_ceiling:.4}, \"noise_floor\": {NOISE_FLOOR}, \
         \"cores\": {cores}, \"gate_enforced\": {gate_enforced}, \
         \"pass\": {pass}}}\n}}"
    );

    let path = bench_json_path("BENCH_pr6.json");
    std::fs::write(&path, &json).expect("write BENCH_pr6.json");
    println!("[bench_pr6] wrote {path}");

    assert!(
        pass,
        "live exposition overhead {:.2}% exceeds the {:.1}% gate (ceiling \
         {:.0}%, measured noise {:.1}%, {cores} cores)",
        overhead * 100.0,
        effective_ceiling * 100.0,
        OVERHEAD_CEILING * 100.0,
        noise * 100.0
    );
}
