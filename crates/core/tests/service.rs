//! Integration coverage for the serving layer: `ModelCache` accounting and
//! eviction, and multi-client `CpiService` sessions agreeing byte-for-byte
//! with the one-shot `Workbench` path.

use memodel::service::{CpiService, ModelCache, ModelKey, ServiceConfig, TenantId};
use memodel::workbench::{Grouping, MachineSpec, RecordsSource, SimSource, Workbench};
use memodel::FitOptions;
use oosim::machine::MachineConfig;
use pmu::{MachineId, RunRecord, Suite};
use std::sync::Arc;

const UOPS: u64 = 4_000;
const SEED: u64 = 1234;

fn campaign_records(config: &MachineConfig) -> Vec<RunRecord> {
    SimSource::new()
        .suite(
            specgen::suites::cpu2000()
                .into_iter()
                .take(12)
                .collect::<Vec<_>>(),
        )
        .uops(UOPS)
        .seed(SEED)
        .collect_config(config)
}

/// A cheap fitted model to populate cache entries with.
fn some_model() -> Arc<memodel::InferredModel> {
    let records = campaign_records(&MachineConfig::core2());
    let arch = memodel::MicroarchParams::from_machine(&MachineConfig::core2());
    Arc::new(
        memodel::InferredModel::fit(&arch, &records, &FitOptions::quick()).expect("12 records fit"),
    )
}

fn key_with_seed(seed: u64) -> ModelKey {
    ModelKey::new(
        MachineId::Core2,
        Some(Suite::Cpu2000),
        FitOptions::quick().with_seed(seed),
    )
}

#[test]
fn cache_counts_hits_and_misses() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(4);
    let key = key_with_seed(1);
    let model = some_model();
    assert!(cache.lookup(&local, &key, 1).is_none(), "cold cache misses");
    cache.insert(&local, &key, 1, model.clone());
    assert!(cache.lookup(&local, &key, 1).is_some());
    assert!(cache.lookup(&local, &key, 1).is_some());
    let stats = cache.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.inserts, 1);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.invalidations, 0);
    // Aggregate == the single tenant's view on a single-tenant cache.
    assert_eq!(stats, cache.stats_for(&local));
}

#[test]
fn cache_evicts_least_recently_used_at_capacity() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(2);
    let model = some_model();
    let (a, b, c) = (key_with_seed(1), key_with_seed(2), key_with_seed(3));
    cache.insert(&local, &a, 1, model.clone());
    cache.insert(&local, &b, 1, model.clone());
    assert_eq!(cache.len(), 2);
    // Touch `a` so `b` becomes the LRU entry, then overflow with `c`.
    assert!(cache.lookup(&local, &a, 1).is_some());
    cache.insert(&local, &c, 1, model.clone());
    assert_eq!(cache.len(), 2, "capacity is a hard bound");
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.contains(&local, &a, 1), "recently used survives");
    assert!(!cache.contains(&local, &b, 1), "LRU entry was evicted");
    assert!(cache.contains(&local, &c, 1));
    // Re-inserting an existing key replaces in place: no eviction.
    cache.insert(&local, &c, 1, model);
    assert_eq!(cache.stats().evictions, 1);
    assert_eq!(cache.len(), 2);
}

#[test]
fn cache_invalidates_on_generation_change() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(4);
    let key = key_with_seed(1);
    cache.insert(&local, &key, 1, some_model());
    assert!(cache.lookup(&local, &key, 1).is_some());
    // A new counter batch bumped the machine's generation: the cached
    // model is stale and must not be served.
    assert!(cache.lookup(&local, &key, 2).is_none());
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 1);
    assert_eq!(stats.misses, 1);
    assert!(cache.is_empty(), "stale entry was dropped");
}

#[test]
fn cache_insert_keeps_newer_generation() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(2);
    let key = key_with_seed(1);
    let model = some_model();
    cache.insert(&local, &key, 2, model.clone());
    // A straggler fit from an older snapshot must not clobber the
    // fresher entry.
    cache.insert(&local, &key, 1, model);
    assert!(cache.contains(&local, &key, 2), "newer entry survives");
    assert!(!cache.contains(&local, &key, 1));
    // The discarded stale insert counted nothing: exactly one insert
    // (the old insert-then-adjust code tallied both).
    assert_eq!(cache.stats().inserts, 1);
}

#[test]
fn cache_quota_is_per_tenant_and_flooding_cannot_cross_it() {
    let alpha = TenantId::new("alpha").unwrap();
    let beta = TenantId::new("beta").unwrap();
    let mut cache = ModelCache::new(2);
    let model = some_model();
    // Alpha fills its quota.
    cache.insert(&alpha, &key_with_seed(1), 1, model.clone());
    cache.insert(&alpha, &key_with_seed(2), 1, model.clone());
    // Beta floods far past the quota: only beta's own entries rotate.
    for seed in 10..20 {
        cache.insert(&beta, &key_with_seed(seed), 1, model.clone());
    }
    assert_eq!(cache.len_for(&alpha), 2, "alpha lost nothing");
    assert_eq!(cache.len_for(&beta), 2, "beta is clamped to its quota");
    assert!(cache.contains(&alpha, &key_with_seed(1), 1));
    assert!(cache.contains(&alpha, &key_with_seed(2), 1));
    assert_eq!(cache.stats_for(&alpha).evictions, 0);
    assert_eq!(cache.stats_for(&beta).evictions, 8);
    // The same key cached by both tenants is two distinct entries.
    cache.insert(&alpha, &key_with_seed(19), 1, model);
    assert!(cache.contains(&alpha, &key_with_seed(19), 1));
    assert!(cache.contains(&beta, &key_with_seed(19), 1));
    // And lookups never cross tenants.
    assert!(cache.lookup(&alpha, &key_with_seed(10), 1).is_none());
    assert_eq!(cache.stats_for(&alpha).misses, 1);
    assert_eq!(cache.stats_for(&beta).misses, 0);
}

/// The `promote_warm` accounting footgun (fixed): a warm promotion racing
/// a fresher same-key insert after a generation bump must keep the
/// counters exact — the promotion's store is discarded as stale, but the
/// lookup-miss it reclassifies still becomes exactly one warm hit, never
/// two, and `hits + misses` always equals total lookups.
#[test]
fn warm_promotion_racing_a_fresher_insert_counts_exactly_once() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(2);
    let key = key_with_seed(1);
    let model = some_model();
    // A worker misses at generation 2 (on its way to a warm disk load).
    assert!(cache.lookup(&local, &key, 2).is_none());
    // Meanwhile another worker fits and inserts at generation 3 (a batch
    // landed in between).
    cache.insert(&local, &key, 3, model.clone());
    // The warm load finishes and promotes its older-generation model.
    cache.promote_warm(&local, &key, 2, model.clone());
    let stats = cache.stats_for(&local);
    assert_eq!(stats.hits, 1, "the reclassified miss, once");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.warm_loads, 1);
    assert_eq!(stats.inserts, 1, "the stale promotion stored nothing");
    assert_eq!(stats.hits + stats.misses, 1, "lookups balance");
    // The fresher model survived the stale promotion.
    assert!(cache.contains(&local, &key, 3));
    assert!(!cache.contains(&local, &key, 2));

    // The quota path: promotions evict like inserts, within the tenant.
    cache.insert(&local, &key_with_seed(2), 1, model.clone());
    assert!(cache.lookup(&local, &key_with_seed(3), 1).is_none());
    cache.promote_warm(&local, &key_with_seed(3), 1, model);
    let stats = cache.stats_for(&local);
    assert_eq!(cache.len_for(&local), 2, "quota still holds");
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.warm_loads, 2);
    assert_eq!(
        stats.hits + stats.misses,
        2,
        "two lookups total, every one accounted"
    );
}

#[test]
fn service_ingestion_invalidates_cached_models() {
    let machine = MachineConfig::core2();
    let service = CpiService::start(ServiceConfig::new().with_workers(2));
    let client = service.client();
    client
        .register(MachineSpec::from(&machine))
        .expect("register");
    client.ingest(campaign_records(&machine)).expect("ingest");

    let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
    assert!(!client.fit(key.clone()).expect("first fit").cached);
    assert!(client.fit(key.clone()).expect("repeat").cached);

    // New batch arrives: next fit must retrain on all 24 records.
    let more = SimSource::new()
        .suite(
            specgen::suites::cpu2000()
                .into_iter()
                .skip(12)
                .take(12)
                .collect::<Vec<_>>(),
        )
        .uops(UOPS)
        .seed(SEED)
        .collect_config(&machine);
    client.ingest(more).expect("second batch");
    let refit = client.fit(key).expect("refit");
    assert!(!refit.cached);
    assert_eq!(refit.records, 24);

    let stats = service.shutdown();
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.invalidations, 1);
    assert_eq!(stats.fits, 2);
    assert_eq!(stats.ingested_records, 24);
}

#[test]
fn concurrent_clients_share_one_fit_and_match_workbench() {
    const CLIENTS: usize = 6;
    let machine = MachineConfig::core2();

    // Reference: the one-shot sequential Workbench under the same seed.
    let reference = Workbench::new()
        .machine(machine.clone())
        .source(
            SimSource::new()
                .suite(
                    specgen::suites::cpu2000()
                        .into_iter()
                        .take(12)
                        .collect::<Vec<_>>(),
                )
                .uops(UOPS)
                .seed(SEED),
        )
        .fit_options(FitOptions::quick())
        .parallel(false)
        .collect()
        .expect("collect")
        .fit()
        .expect("fit");
    let reference_csv = reference
        .group(MachineId::Core2, Suite::Cpu2000)
        .expect("group")
        .stacks_csv();

    // N concurrent clients hammer one warm service with the same key.
    let service = CpiService::start(ServiceConfig::new().with_workers(4));
    let seed_client = service.client();
    seed_client
        .register(MachineSpec::from(&machine))
        .expect("register");
    seed_client
        .ingest(campaign_records(&machine))
        .expect("ingest");

    let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
    let outputs: Vec<(bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = service.client();
                let key = key.clone();
                scope.spawn(move || {
                    let group = client.group(key).expect("group");
                    (client.stats().expect("stats").fits > 0, group.stacks_csv())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for (_, csv) in &outputs {
        assert_eq!(
            csv, &reference_csv,
            "every concurrent client must see byte-identical stacks"
        );
    }
    let stats = service.shutdown();
    assert_eq!(
        stats.fits, 1,
        "one machine on one shard: the regression runs exactly once"
    );
    assert_eq!(stats.cache.hits as usize, CLIENTS - 1);
    assert_eq!(stats.cache.misses, 1);
}

#[test]
fn workbench_fit_matches_the_service_path() {
    // Two machines, two suites: the one-shot path fits directly, and a
    // service session must agree with it group for group — per suite
    // and pooled (the CLI `fit` grouping), fanned out and sequential.
    let take12 = |suite: Vec<_>| suite.into_iter().take(12).collect::<Vec<_>>();
    let source = SimSource::new()
        .suite(take12(specgen::suites::cpu2000()))
        .suite(take12(specgen::suites::cpu2006()))
        .uops(UOPS)
        .seed(SEED);
    let collected = Workbench::new()
        .machine(MachineConfig::pentium4())
        .machine(MachineConfig::core2())
        .source(source.clone())
        .fit_options(FitOptions::quick())
        .collect()
        .expect("collect");

    let service = CpiService::start(ServiceConfig::new());
    let client = service.client();
    for config in [MachineConfig::pentium4(), MachineConfig::core2()] {
        let records = source.collect_config(&config);
        client
            .register(MachineSpec::from(config))
            .expect("register");
        client.ingest(records).expect("ingest");
    }
    for (grouping, parallel, groups) in [
        (Grouping::MachineSuite, true, 4),
        (Grouping::MachineSuite, false, 4),
        (Grouping::Machine, true, 2),
        (Grouping::Machine, false, 2),
    ] {
        let fitted = Workbench::new()
            .machine(MachineConfig::pentium4())
            .machine(MachineConfig::core2())
            .source(RecordsSource::new(collected.records().cloned().collect()))
            .fit_options(FitOptions::quick())
            .grouping(grouping)
            .parallel(parallel)
            .collect()
            .expect("collect")
            .fit()
            .expect("fit");
        assert_eq!(fitted.groups().len(), groups, "{grouping:?}");
        for group in fitted.groups() {
            let key = match group.suite {
                Some(suite) => ModelKey::new(group.machine, Some(suite), FitOptions::quick()),
                None => ModelKey::pooled(group.machine, FitOptions::quick()),
            };
            let served = client.group(key).expect("served group");
            let context = format!("{grouping:?} parallel={parallel} {:?}", group.suite);
            assert_eq!(served.model.params(), group.model.params(), "{context}");
            assert_eq!(
                served.model.objective().to_bits(),
                group.model.objective().to_bits(),
                "{context}"
            );
            assert_eq!(served.stacks_csv(), group.stacks_csv(), "{context}");
        }
    }
    service.shutdown();
}
