//! Per-layer probes for traced runs. Each layer is measured from the
//! outside, by timing calls into its public functions on the same inputs
//! the end-to-end phases used.

use crate::phases::{self, Campaign, Stream, Sweep};
use crate::report::{mean, median, quantile, Ledger, Metrics};
use crate::setup::{self, Inputs, ServingStack};
use memodel::service::persist::{self, ModelSnapshot, SnapshotStore};
use memodel::service::proto::{self, SessionSpec};
use memodel::service::sweep::expand;
use memodel::service::{CpiService, ServiceConfig};
use memodel::workbench::MachineSpec;
use memodel::{FitOptions, InferredModel};
use oosim::machine::MachineConfig;
use oosim::observer::NullObserver;
use oosim::pipeline::SimScratch;
use pmu::live::{LiveSource, ReplaySource};
use pmu::{MachineId, Suite};
use specgen::TraceGenerator;
use std::hint::black_box;
use std::time::Instant;

/// Every `SAMPLE`-th campaign item is re-run solo by the specgen/oosim
/// probe; totals are scaled back up to the whole campaign.
const SAMPLE: usize = 3;

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Trace generation and the pipeline model, on a sample of the campaign's
/// own (machine, benchmark) items.
pub fn simulation(m: &mut Metrics, campaign: &Campaign, uops: u64, sweep: &Sweep) {
    let seed = phases::TRAINING_SEED;
    let machines = MachineConfig::paper_machines();
    let profiles: Vec<_> = specgen::suites::cpu2000()
        .into_iter()
        .chain(specgen::suites::cpu2006())
        .collect();
    let items: Vec<_> = machines
        .iter()
        .flat_map(|mc| profiles.iter().map(move |p| (mc, p)))
        .collect();
    let (mut gen_s, mut run_s, mut sampled) = (0.0, 0.0, 0usize);
    let mut scratch = SimScratch::new();
    for (mc, p) in items.iter().step_by(SAMPLE) {
        let ((), g) = time(|| {
            let mut trace = TraceGenerator::new(p, mc.cracking, seed);
            for _ in 0..2 * uops {
                black_box(trace.next());
            }
        });
        let (record, r) = time(|| {
            oosim::run::run_workload_with(mc, p, uops, uops, seed, &mut NullObserver, &mut scratch)
        });
        black_box(record);
        gen_s += g;
        run_s += r;
        sampled += 1;
    }
    let scale = items.len() as f64 / sampled.max(1) as f64;
    let uops_sampled = (sampled as u64 * 2 * uops) as f64;
    m.set("specgen.ns_per_uop", gen_s * 1e9 / uops_sampled, "ns");
    m.set("specgen.busy_s", gen_s * scale, "s");
    m.set(
        "oosim.ns_per_uop",
        (run_s - gen_s) * 1e9 / uops_sampled,
        "ns",
    );
    m.set(
        "oosim.runs",
        (items.len() + sweep.simulated_runs) as f64,
        "count",
    );
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    m.set("workbench.collect_s", campaign.collect_s, "s");
    m.set(
        "workbench.pool_efficiency",
        run_s * scale / (campaign.collect_s * workers),
        "ratio",
    );
}

/// The six cold fits re-run one at a time through `fit_profiled`, and one
/// warm-start refit of a jittered batch.
pub fn fits(m: &mut Metrics, campaign: &Campaign, inputs: &Inputs, ledger: &mut Ledger) {
    let opts = FitOptions::default();
    let (mut walls, mut evals) = (Vec::new(), 0u64);
    for g in &campaign.groups {
        let (fit, wall) = time(|| InferredModel::fit_profiled(&g.arch, &g.records, &opts));
        match fit {
            Ok((model, profile)) => {
                ledger.check(model == g.model, || {
                    format!(
                        "fit_profiled differs from the service fit for {}",
                        g.machine
                    )
                });
                evals += profile.evals;
                walls.push(wall);
            }
            Err(e) => ledger.fail(format!("fit_profiled: {e}")),
        }
    }
    ledger.check(evals == campaign.evals, || {
        format!("profiled evals {evals} != service evals {}", campaign.evals)
    });
    m.set("fit.evals", campaign.evals as f64, "count");
    m.set(
        "fit.us_per_eval",
        walls.iter().sum::<f64>() * 1e6 / evals.max(1) as f64,
        "us",
    );
    m.set(
        "fit.straggler_ratio",
        walls.iter().copied().fold(0.0, f64::max) / mean(&walls).max(1e-12),
        "ratio",
    );

    let arch = *MachineSpec::from(&MachineConfig::core2()).arch();
    let base = match InferredModel::fit(&arch, &inputs.core2, &opts) {
        Ok(b) => b,
        Err(e) => {
            ledger.fail(format!("refit base: {e}"));
            return;
        }
    };
    let mut source = ReplaySource::new(inputs.core2.clone())
        .batch_size(inputs.core2.len())
        .rounds(2)
        .jitter(phases::TRAINING_SEED);
    let _verbatim = source.next_batch();
    let jittered = source.next_batch().unwrap_or_default();
    let warm_evals = memodel::service::RefitPolicy::default().warm_evals;
    let (mut ms, mut refit_evals) = (Vec::new(), 0);
    for _ in 0..5 {
        let (r, wall) = time(|| base.refit_profiled(&jittered, &opts, warm_evals));
        if let Ok((_, profile)) = r {
            refit_evals = profile.evals;
            ms.push(wall * 1e3);
        }
    }
    m.set("fit.refit_ms", median(&ms), "ms");
    m.set("fit.refit_evals", refit_evals as f64, "count");
}

pub fn sweep(m: &mut Metrics, rounds: &[Vec<Sweep>]) {
    let all: Vec<&Sweep> = rounds.iter().flatten().collect();
    let Some(sweep) = all.first() else { return };
    m.set("sweep.simulated_runs", sweep.simulated_runs as f64, "count");
    m.set(
        "sweep.simulated_configs",
        sweep.simulated_configs as f64,
        "count",
    );
    m.set(
        "sweep.warm_simulated_runs",
        all.iter().map(|s| s.warm_simulated_runs).sum::<usize>() as f64,
        "count",
    );
    m.set(
        "sweep.warm_simulated_configs",
        all.iter().map(|s| s.warm_simulated_configs).sum::<usize>() as f64,
        "count",
    );
    m.set("sweep.fit_s", sweep.fit_wall_s, "s");
    m.set("sweep.fit_evals", sweep.fit_evals as f64, "count");
    // One variant's simulations, solo: the per-run cost the cold sweep pays.
    let variants = expand(MachineId::Core2, &phases::sweep_grid()).unwrap_or_default();
    let profiles: Vec<_> = specgen::suites::cpu2000()
        .into_iter()
        .take(phases::SWEEP_BENCHMARKS)
        .collect();
    if let Some(v) = variants.first() {
        let mut scratch = SimScratch::new();
        let ((), wall) = time(|| {
            for p in &profiles {
                black_box(oosim::run::run_workload_with(
                    &v.config,
                    p,
                    phases::SWEEP_UOPS,
                    phases::SWEEP_UOPS,
                    phases::TRAINING_SEED,
                    &mut NullObserver,
                    &mut scratch,
                ));
            }
        });
        m.set(
            "sweep.sim_ms_per_run",
            wall * 1e3 / profiles.len() as f64,
            "ms",
        );
    }
}

/// Service, proto, tcp and cluster layers, on the live serving stack.
pub fn serving(m: &mut Metrics, stack: &ServingStack, ledger: &mut Ledger) {
    const N: usize = 300;
    let client = stack.service.client();
    let key = setup::serve_key();
    let mut warm = Vec::with_capacity(N);
    let mut stacks = Vec::new();
    for _ in 0..N {
        let (r, wall) = time(|| client.stacks(key.clone()));
        match r {
            Ok((report, s)) => {
                ledger.check(report.cached, || "warm stacks missed the cache".into());
                stacks = s;
            }
            Err(e) => ledger.fail(format!("warm stacks: {e}")),
        }
        warm.push(wall * 1e6);
    }
    m.set("service.warm_us", median(&warm), "us");
    if let Ok(stats) = client.stats() {
        let lookups = (stats.cache.hits + stats.cache.misses).max(1);
        m.set(
            "service.hit_ratio",
            stats.cache.hits as f64 / lookups as f64,
            "ratio",
        );
    }

    let mut session = SessionSpec::open(client.clone(), setup::serve_options()).session();
    let mut buf = Vec::new();
    let exec: Vec<f64> = (0..N)
        .map(|_| {
            buf.clear();
            time(|| proto::execute_line(&mut session, "stack core2 cpu2000", &mut buf)).1 * 1e6
        })
        .collect();
    let execute_us = median(&exec);
    m.set("proto.execute_us", execute_us, "us");
    let frame: Vec<f64> = (0..N)
        .map(|_| time(|| black_box(proto::encode_stack_frame(&stacks))).1 * 1e6)
        .collect();
    m.set("proto.frame_us", median(&frame), "us");

    // Closed-loop round trips, direct and through the router in turn, so
    // each router trip is paired with a direct one taken a moment before;
    // the hop is their difference, and a stall on either side lands in one
    // pair's tail instead of shifting a whole distribution.
    const TRIPS: usize = 1000;
    let conns = (
        crate::gen::connect(stack.front_addr()),
        crate::gen::connect(stack.router_addr()),
    );
    let (mut direct, mut hops) = (Vec::with_capacity(TRIPS), Vec::with_capacity(TRIPS));
    if let (Ok(mut d), Ok(mut r)) = conns {
        let mut scratch = Vec::new();
        let mut trip = |conn: &mut std::net::TcpStream| {
            let (res, wall) =
                time(|| crate::gen::roundtrip(conn, "stack core2 cpu2000", &mut scratch));
            res.ok().map(|_| wall * 1e6)
        };
        for _ in 0..TRIPS {
            if let (Some(dt), Some(rt)) = (trip(&mut d), trip(&mut r)) {
                direct.push(dt);
                hops.push(rt - dt);
            }
        }
    }
    ledger.check(direct.len() == TRIPS, || {
        "closed-loop round trips failed".into()
    });
    let d50 = quantile(&direct, 0.5);
    m.set("tcp.rtt_p50_us", d50, "us");
    m.set("tcp.rtt_p99_us", quantile(&direct, 0.99), "us");
    m.set("tcp.io_us", d50 - execute_us, "us");
    m.set("cluster.hop_p50_us", quantile(&hops, 0.5), "us");
    m.set("cluster.hop_p99_us", quantile(&hops, 0.99), "us");
}

/// Snapshot save/load, CSV parse and ingest.
pub fn storage(m: &mut Metrics, stack: &ServingStack, inputs: &Inputs, ledger: &mut Ledger) {
    const N: usize = 20;
    let key = setup::serve_key();
    let Ok(report) = stack.service.client().fit(key.clone()) else {
        ledger.fail("persist probe: no served model".into());
        return;
    };
    let model = &report.model;
    let snap = ModelSnapshot {
        machine: MachineId::Core2,
        suite: Some(Suite::Cpu2000),
        options_fingerprint: key.options.fingerprint(),
        records_digest: persist::records_digest(&inputs.core2),
        records: inputs.core2.len() as u32,
        arch: *model.arch(),
        params: *model.params(),
        interval_cap: model.interval_cap(),
        objective: model.objective(),
    };
    match SnapshotStore::open(inputs.work.join("persist-probe")) {
        Ok(store) => {
            let save: Vec<f64> = (0..N).map(|_| time(|| store.save(&snap)).1 * 1e3).collect();
            let mut loaded_ok = true;
            let load: Vec<f64> = (0..N)
                .map(|_| {
                    let (r, wall) = time(|| {
                        store.load(
                            snap.machine,
                            snap.suite,
                            snap.options_fingerprint,
                            snap.records_digest,
                        )
                    });
                    loaded_ok &= matches!(r, Ok(Some(ref s)) if *s == snap);
                    wall * 1e3
                })
                .collect();
            ledger.check(loaded_ok, || "snapshot did not round-trip".into());
            m.set("persist.save_ms", median(&save), "ms");
            m.set("persist.load_ms", median(&load), "ms");
            m.set(
                "persist.snapshot_bytes",
                persist::encode(&snap).len() as f64,
                "bytes",
            );
        }
        Err(e) => ledger.fail(format!("persist probe: {e}")),
    }

    let parse: Vec<f64> = (0..N)
        .map(|_| time(|| black_box(pmu::csv::from_csv(&inputs.core2_csv))).1)
        .collect();
    m.set(
        "pmu.csv_parse_us_per_record",
        median(&parse) * 1e6 / inputs.core2.len() as f64,
        "us",
    );
    let ingest: Vec<f64> = (0..5)
        .map(|_| {
            let service = CpiService::start(ServiceConfig::new().with_workers(1));
            let client = service.client();
            let _ = client.register(MachineSpec::from(&MachineConfig::core2()));
            let (r, wall) = time(|| client.ingest(inputs.core2.clone()));
            ledger.check(r.is_ok(), || "probe ingest".into());
            service.shutdown();
            wall * 1e3
        })
        .collect();
    m.set("pmu.ingest_ms", median(&ingest), "ms");
}

pub fn stream(m: &mut Metrics, streams: &[Stream]) {
    let full: Vec<f64> = streams
        .iter()
        .flat_map(|s| s.full_ms.iter().copied())
        .collect();
    let incremental: Vec<f64> = streams
        .iter()
        .flat_map(|s| s.incremental_ms.iter().copied())
        .collect();
    let per_segment = streams.len().max(1) as f64;
    m.set(
        "service.invalidations",
        streams.iter().map(|s| s.invalidations).sum::<u64>() as f64 / per_segment,
        "count",
    );
    m.set(
        "stream.full_refits",
        full.len() as f64 / per_segment,
        "count",
    );
    m.set(
        "stream.incremental_refits",
        incremental.len() as f64 / per_segment,
        "count",
    );
    m.set("stream.full_ms", median(&full), "ms");
    m.set("stream.incremental_ms", median(&incremental), "ms");
}
