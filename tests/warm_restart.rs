//! Warm-restart behaviour of the serving layer: a `CpiService` restarted
//! against the same `--state-dir` must serve its first fit request from
//! disk — zero regressions, byte-identical stacks — and a new counter
//! batch after the restart must force exactly one re-fit (the records
//! digest changed; stale parameters are never served). The streaming
//! refit path persists only full fits and never warm-loads.

use cpistack::counters::{LiveSource, ReplaySource};
use cpistack::model::FitOptions;
use cpistack::service::{CpiClient, CpiService, ModelKey, RefitMode, ServiceConfig};
use cpistack::sim::machine::MachineConfig;
use cpistack::workbench::MachineSpec;
use cpistack::SimSource;
use pmu::{MachineId, RunRecord, Suite};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn records(seed: u64) -> Vec<RunRecord> {
    SimSource::new()
        .suite(
            cpistack::workloads::suites::cpu2000()
                .into_iter()
                .take(12)
                .collect(),
        )
        .uops(3_000)
        .seed(seed)
        .collect_config(&MachineConfig::core2())
}

fn key() -> ModelKey {
    ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick())
}

/// One service lifetime: register, ingest the given batches, request
/// stacks once, and return the formatted stack lines plus the final
/// stats.
fn one_lifetime(
    state_dir: &Path,
    batches: &[Vec<RunRecord>],
) -> (bool, String, cpistack::ServiceStats) {
    let service = CpiService::start(
        ServiceConfig::new()
            .with_workers(2)
            .with_state_dir(state_dir),
    );
    let client = service.client();
    client
        .register(MachineSpec::from(MachineConfig::core2()))
        .expect("register");
    for batch in batches {
        client.ingest(batch.clone()).expect("ingest");
    }
    let (report, stacks) = client.stacks(key()).expect("stacks");
    let text: String = stacks
        .iter()
        .map(|(benchmark, stack)| format!("stack {benchmark} {stack}\n"))
        .collect();
    let stats = service.shutdown();
    (report.cached, text, stats)
}

#[test]
fn restart_serves_first_fit_from_disk_then_refits_once_on_new_data() {
    let dir = std::env::temp_dir().join(format!("cpistack_warm_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batch = records(7);

    // Cold start: the fit runs and its snapshot lands on disk.
    let (cached, cold_stacks, stats) = one_lifetime(&dir, std::slice::from_ref(&batch));
    assert!(!cached, "nothing on disk yet: first request fits");
    assert_eq!(stats.fits, 1);
    assert_eq!(stats.cache.warm_loads, 0);

    // Drop the service, restart against the same state dir, replay the
    // same ingest: the first request must be served from disk — zero
    // fits, all hits — and the stacks must be byte-identical.
    let (cached, warm_stacks, stats) = one_lifetime(&dir, std::slice::from_ref(&batch));
    assert!(cached, "the restored snapshot serves as a cache hit");
    assert_eq!(stats.fits, 0, "a warm restart re-fits nothing");
    assert_eq!(stats.cache.hits, 1, "all hits");
    assert_eq!(stats.cache.misses, 0);
    assert_eq!(stats.cache.warm_loads, 1);
    assert_eq!(
        warm_stacks, cold_stacks,
        "stacks survive the restart bit-for-bit"
    );

    // Restart again, but ingest one *new* batch on top: the generation
    // bump (and changed records digest) must force exactly one re-fit —
    // the old snapshot must not be served against the grown record set.
    let second = records(99);
    let (cached, grown_stacks, stats) = one_lifetime(&dir, &[batch.clone(), second.clone()]);
    assert!(!cached, "new data means a fresh fit");
    assert_eq!(stats.fits, 1, "exactly one re-fit");
    assert_eq!(stats.cache.warm_loads, 0);
    assert_ne!(
        grown_stacks, cold_stacks,
        "the model did change with the data"
    );

    // And the re-fit persisted too: replaying both batches warm-loads it.
    let (cached, replay_stacks, stats) = one_lifetime(&dir, &[batch, second]);
    assert!(cached);
    assert_eq!(stats.fits, 0);
    assert_eq!(replay_stacks, grown_stacks);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_records_never_hit_a_stale_snapshot() {
    let dir = std::env::temp_dir().join(format!("cpistack_warm_digest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, _, stats) = one_lifetime(&dir, &[records(7)]);
    assert_eq!(stats.fits, 1);
    // Same machine, same suite, same options — but different counter
    // values. The digest must miss and a fresh fit must run.
    let (cached, _, stats) = one_lifetime(&dir, &[records(8)]);
    assert!(!cached);
    assert_eq!(stats.fits, 1, "changed records fall through to a fresh fit");
    assert_eq!(stats.cache.warm_loads, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_fall_through_to_a_fresh_fit() {
    let dir = std::env::temp_dir().join(format!("cpistack_warm_corrupt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batch = records(7);
    let (_, cold_stacks, _) = one_lifetime(&dir, std::slice::from_ref(&batch));
    // Flip one byte in every snapshot file on disk.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("state dir exists") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|x| x == "cpis") {
            let mut bytes = std::fs::read(&path).expect("read snapshot");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, &bytes).expect("write corrupt snapshot");
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 1, "the lifetime persisted exactly one snapshot");
    // The corrupt file is detected, treated as a miss, and the fit
    // re-runs — output identical to the cold run (fitting is
    // deterministic), no panic, no garbage parameters.
    let (cached, refit_stacks, stats) = one_lifetime(&dir, &[batch]);
    assert!(!cached);
    assert_eq!(stats.fits, 1);
    assert_eq!(stats.cache.warm_loads, 0);
    assert_eq!(refit_stacks, cold_stacks);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in the state dir, by path, with its bytes.
fn dir_contents(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("state dir exists")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let bytes = std::fs::read(&path).expect("read state file");
            (path, bytes)
        })
        .collect()
}

/// A fresh service on `dir` with core2 registered and `batch` ingested.
fn started(dir: &Path, batch: &[RunRecord]) -> (CpiService, CpiClient) {
    let service = CpiService::start(ServiceConfig::new().with_workers(2).with_state_dir(dir));
    let client = service.client();
    client
        .register(MachineSpec::from(MachineConfig::core2()))
        .expect("register");
    client.ingest(batch.to_vec()).expect("ingest");
    (service, client)
}

#[test]
fn refits_persist_only_full_fits_and_never_warm_load() {
    let dir = std::env::temp_dir().join(format!("cpistack_warm_refit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batch = records(7);

    // Lifetime 1: the stream's anchor is a full fit, persisted like any
    // fit. A stationary batch (same workloads, jittered counters) is then
    // polished incrementally — and the polished model stays off disk.
    let (service, client) = started(&dir, &batch);
    let (_, mode) = client.refit(key(), false).expect("anchor");
    assert_eq!(mode, RefitMode::Full);
    let anchored = dir_contents(&dir);
    assert_eq!(anchored.len(), 1, "the full refit persisted one snapshot");
    let mut jitter = ReplaySource::new(batch.clone())
        .batch_size(batch.len())
        .rounds(2)
        .jitter(5);
    jitter.next_batch(); // round 0 replays the records verbatim
    let jittered = jitter.next_batch().expect("round 1");
    client
        .stream_batch(MachineId::Core2, jittered)
        .expect("stream batch");
    let (_, mode) = client.refit(key(), false).expect("polish");
    assert_eq!(mode, RefitMode::Incremental);
    service.shutdown();
    assert_eq!(
        dir_contents(&dir),
        anchored,
        "an incremental refit writes nothing"
    );

    // Lifetime 2: the plain fitting path serves the anchor from disk.
    let (service, client) = started(&dir, &batch);
    let report = client.fit(key()).expect("fit");
    assert!(report.cached, "the persisted anchor serves as a hit");
    let stats = service.shutdown();
    assert_eq!(stats.cache.warm_loads, 1);
    assert_eq!(stats.fits, 0);

    // Lifetime 3: a stream re-anchors from a full fit even though the
    // same snapshot sits on disk — the refit path never consults it.
    let (service, client) = started(&dir, &batch);
    let (report, mode) = client.refit(key(), false).expect("re-anchor");
    assert_eq!(mode, RefitMode::Full);
    assert!(!report.cached);
    let stats = service.shutdown();
    assert_eq!(stats.cache.warm_loads, 0);
    assert_eq!(stats.fits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
