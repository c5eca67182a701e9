//! Microbenchmarks of the persistence substrate: nt-store vs clwb PMEM
//! write paths (§3.3) and the commit protocol's fixed costs.
use std::sync::Arc;

use pccheck::CheckpointStore;
use pccheck_bench::stats::{print_timing, time_runs};
use pccheck_device::{DeviceConfig, PersistentDevice, PmemDevice, PmemWriteMode, SsdDevice};
use pccheck_util::ByteSize;

/// Timed runs per row.
const RUNS: usize = 20;
/// Commits per timed run of the commit-protocol row.
const COMMITS_PER_RUN: u64 = 1000;

fn pmem_write_paths() {
    let size = ByteSize::from_mb_u64(1);
    let payload = vec![0xA5u8; size.as_usize()];
    for mode in [PmemWriteMode::NtStore, PmemWriteMode::ClwbWriteBack] {
        let dev = PmemDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(2)), mode);
        let secs = time_runs(
            RUNS,
            || (),
            |()| {
                dev.write_at(0, &payload).expect("write");
                dev.sfence().expect("fence");
            },
        );
        print_timing(&format!("device/pmem_write_1mb/{mode:?}"), &secs, 1);
    }
}

fn commit_protocol() {
    let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
    let dev: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let store = CheckpointStore::format(dev, ByteSize::from_bytes(64), 3, 0).expect("format");
    let mut iter = 0u64;
    let secs = time_runs(
        RUNS,
        || (),
        |()| {
            for _ in 0..COMMITS_PER_RUN {
                iter += 1;
                let lease = store.begin_checkpoint(None).unwrap();
                store.write_payload(&lease, 0, &[1u8; 64]).expect("write");
                store.persist_payload(&lease, 0, 64).expect("persist");
                store.commit(lease, iter, 64, 0).expect("commit");
            }
        },
    );
    print_timing(
        "store/commit_protocol/begin_write_commit_64b",
        &secs,
        COMMITS_PER_RUN,
    );
}

fn main() {
    println!("[persist_checkpoint] PMEM write paths and commit-protocol fixed cost");
    pmem_write_paths();
    commit_protocol();
}
