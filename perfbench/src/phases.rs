//! The measured phases. Every workload runs all of them the same number of
//! times, so every run reports every end-to-end metric; a workload only
//! picks the request mix the serving phases send (see `Workload` in
//! `main.rs`).

use crate::gen::{self, Command, Load, Outcome};
use crate::report::{self, quantile, Ledger};
use crate::setup::{self, Inputs, ServingStack};
use crate::trace::{Open, Tracer};
use cpicounters::measure_stack;
use memodel::service::proto::{self, SessionSpec};
use memodel::service::sweep::{SweepGrid, SweepSpec};
use memodel::service::{CpiService, ModelKey, RefitMode, RefitPolicy, Response, ServiceConfig};
use memodel::workbench::{FittedGroup, MachineSpec, SimSource, Workbench};
use memodel::{CpiStack, FitOptions, InferredModel};
use oosim::machine::MachineConfig;
use pmu::live::{LiveSource, ReplaySource};
use pmu::{MachineId, RunRecord, Suite};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The full-scale campaign's inputs (103 × 3 benchmarks, 200k µops, seed
/// 12345, default fit options) and the parameter digest they must give.
pub const FULL_SCALE_UOPS: u64 = 200_000;
pub const FULL_SCALE_SEED: u64 = 12_345;
pub const FULL_SCALE_DIGEST: u64 = 0x3917_d9c6_9693_0711;

/// Trace seed of every record set the system trains on (the campaign, the
/// sweep's base runs, the served and streamed sets): the BENCH_10 seed, so
/// every run fits the same data and speed figures compare like with like.
/// The streamed counter jitter uses it too. `--seed` draws everything the
/// system does not train on: the held-back test runs and the request
/// schedules and mixes.
pub const TRAINING_SEED: u64 = FULL_SCALE_SEED;

/// Stacks must sum to their CPI within this.
const SUM_TOLERANCE: f64 = 1e-9;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn check_stack_sums(ledger: &mut Ledger, what: &str, model: &InferredModel, records: &[RunRecord]) {
    let worst = records
        .iter()
        .map(|r| (model.cpi_stack(r).total() - model.predict_record(r)).abs())
        .fold(0.0f64, f64::max);
    ledger.check(worst <= SUM_TOLERANCE, || {
        format!("{what}: a stack misses its predicted CPI by {worst:e}")
    });
}

// ---------------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------------

/// One cold campaign: collect, then the six (machine × suite) fits.
pub struct Campaign {
    pub collect_s: f64,
    pub fit_s: f64,
    /// µops simulated by the collect (warm-up included).
    pub uops_simulated: f64,
    pub groups: Vec<FittedGroup>,
    pub evals: u64,
}

pub fn campaign_keys() -> Vec<ModelKey> {
    MachineConfig::paper_machines()
        .iter()
        .flat_map(|m| Suite::ALL.map(|s| ModelKey::new(m.id, Some(s), FitOptions::default())))
        .collect()
}

pub fn campaign(uops: u64, ledger: &mut Ledger, tracer: &Tracer, parent: &Open) -> Campaign {
    let seed = TRAINING_SEED;
    let machines = MachineConfig::paper_machines();
    let start = Instant::now();
    let collected = tracer.time("workbench.collect", Some(parent), |_| {
        Workbench::new()
            .machines(machines.iter())
            .source(SimSource::paper_suites().uops(uops).seed(seed))
            .collect()
    });
    let collect_s = start.elapsed().as_secs_f64();
    ledger.ops(1);
    let records: Vec<RunRecord> = match collected {
        Ok(c) => c.records().cloned().collect(),
        Err(e) => {
            ledger.fail(format!("collect: {e}"));
            Vec::new()
        }
    };
    let expected =
        machines.len() * (specgen::suites::cpu2000().len() + specgen::suites::cpu2006().len());
    ledger.check(records.len() == expected, || {
        format!(
            "collect returned {} records, expected {expected}",
            records.len()
        )
    });

    let keys = campaign_keys();
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());
    let service = CpiService::start(
        ServiceConfig::new()
            .with_workers(keys.len())
            .with_fit_threads(budget),
    );
    let client = service.client();
    for m in &machines {
        ledger.check(client.register(m.into()).is_ok(), || {
            format!("register {}", m.id)
        });
    }
    ledger.check(client.ingest(records.clone()).is_ok(), || {
        "campaign ingest".into()
    });

    let start = Instant::now();
    let fits = tracer.begin("fit.cold", Some(parent));
    let streams: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| client.submit_group_at(i, key.clone()))
        .collect();
    let mut groups = Vec::with_capacity(keys.len());
    for (key, stream) in keys.iter().zip(streams) {
        let mut got = None;
        for response in stream {
            match response {
                Response::Group(g) => got = Some(*g),
                Response::Error(e) => ledger.fail(format!("fit {:?}: {e}", key.machine)),
                _ => {}
            }
        }
        ledger.ops(1);
        if let Some(g) = got {
            groups.push(g);
        } else {
            ledger.fail(format!("fit {:?} {:?}: no model", key.machine, key.suite));
        }
    }
    let fit_s = start.elapsed().as_secs_f64();
    tracer.end(fits);
    let stats = service.shutdown();

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for g in &groups {
        for b in &g.model.params().b {
            fnv(&mut digest, &b.to_bits().to_le_bytes());
        }
        fnv(&mut digest, &g.model.objective().to_bits().to_le_bytes());
        check_stack_sums(ledger, "campaign", &g.model, &g.records);
    }
    if uops == FULL_SCALE_UOPS && seed == FULL_SCALE_SEED {
        ledger.check(digest == FULL_SCALE_DIGEST, || {
            format!("full-scale params digest {digest:016x}, expected {FULL_SCALE_DIGEST:016x}")
        });
        eprintln!("perfbench: full-scale params digest {digest:016x}");
    }
    Campaign {
        collect_s,
        fit_s,
        uops_simulated: records.len() as f64 * 2.0 * uops as f64,
        groups,
        evals: stats.cache.fit_evals,
    }
}

/// Accuracy on held-back data: each machine's CPU2000-trained model
/// predicts CPU2006 runs made with other seeds. Those runs, and their
/// ground-truth stacks, are simulated here, outside every timed region,
/// and are never ingested or fitted.
pub struct Accuracy {
    pub cpi_err_pct: f64,
    pub stack_err_cpi: f64,
}

/// Held-back draws per run: each CPU2006 run is simulated with this many
/// test seeds, so the figures average over more than one draw of short
/// traces.
pub const TEST_DRAWS: u64 = 4;

pub fn accuracy(campaign: &Campaign, uops: u64, seed: u64, ledger: &mut Ledger) -> Accuracy {
    let test_seeds: Vec<u64> = (0..TEST_DRAWS)
        .map(|d| seed ^ 0xACC0_5EED_0000_0001 ^ (d << 40))
        .filter(|&s| s != TRAINING_SEED)
        .collect();
    let machines = MachineConfig::paper_machines();
    let profiles = specgen::suites::cpu2006();
    let items: Vec<(&MachineConfig, &specgen::WorkloadProfile, u64)> = machines
        .iter()
        .flat_map(|m| profiles.iter().map(move |p| (m, p)))
        .flat_map(|(m, p)| test_seeds.iter().map(move |&s| (m, p, s)))
        .collect();
    let next = AtomicUsize::new(0);
    let mut truths: Vec<Option<(RunRecord, cpicounters::TrueCpiStack)>> = vec![None; items.len()];
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let parts: Vec<Vec<(usize, (RunRecord, cpicounters::TrueCpiStack))>> =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(m, p, test_seed)) = items.get(i) else {
                                break;
                            };
                            out.push((i, measure_stack(m, p, uops, test_seed)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("accuracy worker"))
                .collect()
        });
    for (i, t) in parts.into_iter().flatten() {
        truths[i] = Some(t);
    }

    let (mut cpi_err, mut stack_err, mut n) = (0.0, 0.0, 0.0f64);
    for truth in truths.into_iter().flatten() {
        let (record, stack) = truth;
        ledger.check(
            (stack.total() - record.cpi()).abs() <= SUM_TOLERANCE,
            || {
                format!(
                    "ground-truth stack of {} misses its CPI",
                    record.benchmark()
                )
            },
        );
        let Some(group) = campaign
            .groups
            .iter()
            .find(|g| g.machine == record.machine() && g.suite == Some(Suite::Cpu2000))
        else {
            ledger.fail(format!("no CPU2000 model for {}", record.machine()));
            continue;
        };
        let predicted = group.model.predict_record(&record);
        cpi_err += (predicted - record.cpi()).abs() / record.cpi();
        let estimate: CpiStack = group.model.cpi_stack(&record);
        // The model has no "other" bucket: fold the ground truth's
        // unattributed residual into its resource component.
        let truth = [
            stack.base,
            stack.l1i,
            stack.llc_i,
            stack.itlb,
            stack.branch,
            stack.llc_d,
            stack.dtlb,
            stack.resource + stack.other,
        ];
        let err: f64 = estimate
            .components()
            .iter()
            .zip(truth)
            .map(|((_, e), t)| (e - t).abs())
            .sum();
        stack_err += err / truth.len() as f64;
        n += 1.0;
    }
    ledger.check(n as usize == items.len(), || {
        "accuracy test set incomplete".into()
    });
    Accuracy {
        cpi_err_pct: 100.0 * cpi_err / n.max(1.0),
        stack_err_cpi: stack_err / n.max(1.0),
    }
}

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

pub const SWEEP_UOPS: u64 = 20_000;
pub const SWEEP_BENCHMARKS: usize = 12;

pub fn sweep_grid() -> SweepGrid {
    SweepGrid::new()
        .rob([96, 192])
        .mshrs([16, 32])
        .dispatch([4, 6])
}

pub fn sweep_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(MachineId::Core2, sweep_grid(), Suite::Cpu2000);
    spec.options = FitOptions::quick();
    spec.uops = SWEEP_UOPS;
    spec.seed = TRAINING_SEED;
    spec.limit = Some(SWEEP_BENCHMARKS);
    spec
}

/// One cold sweep on a fresh service, then `warm_passes` re-sweeps of the
/// identical spec.
#[derive(Default)]
pub struct Sweep {
    pub cold_s: f64,
    pub warm_ms: Vec<f64>,
    pub simulated_runs: usize,
    pub simulated_configs: usize,
    pub warm_simulated_runs: usize,
    pub warm_simulated_configs: usize,
    pub fit_evals: u64,
    pub fit_wall_s: f64,
}

pub fn sweep(warm_passes: usize, ledger: &mut Ledger, tracer: &Tracer, parent: &Open) -> Sweep {
    let spec = sweep_spec();
    let service = CpiService::start(ServiceConfig::new());
    let client = service.client();
    let start = Instant::now();
    let cold = tracer.time("sweep.cold", Some(parent), |_| client.sweep(spec.clone()));
    let cold_s = start.elapsed().as_secs_f64();
    ledger.ops(1);
    let cold = match cold {
        Ok(c) => c,
        Err(e) => {
            ledger.fail(format!("cold sweep: {e}"));
            service.shutdown();
            return Sweep {
                cold_s,
                ..Sweep::default()
            };
        }
    };
    ledger.check(
        cold.simulated_configs > 0 && cold.results.len() == 8,
        || {
            format!(
                "cold sweep: {} configs simulated, {} variants",
                cold.simulated_configs,
                cold.results.len()
            )
        },
    );
    let before = client
        .stats()
        .map(|s| (s.fits, s.cache.fit_evals, s.cache.fit_wall_us));
    let (fits_before, fit_evals, fit_wall_us) = before.unwrap_or_default();
    let mut out = Sweep {
        cold_s,
        simulated_runs: cold.simulated_runs,
        simulated_configs: cold.simulated_configs,
        fit_evals,
        fit_wall_s: fit_wall_us as f64 / 1e6,
        ..Sweep::default()
    };
    let warm_span = tracer.begin("sweep.warm", Some(parent));
    for _ in 0..warm_passes {
        let start = Instant::now();
        let warm = client.sweep(spec.clone());
        out.warm_ms.push(start.elapsed().as_secs_f64() * 1e3);
        ledger.ops(1);
        match warm {
            Ok(w) => {
                out.warm_simulated_runs += w.simulated_runs;
                out.warm_simulated_configs += w.simulated_configs;
                let same = w.results.len() == cold.results.len()
                    && w.results.iter().zip(&cold.results).all(|(a, b)| {
                        a.cached && a.id == b.id && a.cpi.to_bits() == b.cpi.to_bits()
                    });
                ledger.check(
                    w.simulated_configs == 0 && w.simulated_runs == 0 && same,
                    || {
                        format!(
                            "warm re-sweep: simulated configs {} runs {}, identical {same}",
                            w.simulated_configs, w.simulated_runs
                        )
                    },
                );
            }
            Err(e) => ledger.fail(format!("warm sweep: {e}")),
        }
    }
    tracer.end(warm_span);
    let fits_after = client.stats().map(|s| s.fits).unwrap_or(u64::MAX);
    ledger.check(fits_after == fits_before, || {
        format!("warm re-sweeps changed fits {fits_before} -> {fits_after}")
    });
    service.shutdown();
    out
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// A read mix: `<verb> <machine> cpu2000` for each verb, each with the
/// reference bytes rendered in-process on the same service.
pub fn serve_mix(service: &CpiService, machine: &str, verbs: &[&str]) -> Vec<Command> {
    let mut session = SessionSpec::open(service.client(), setup::serve_options()).session();
    verbs
        .iter()
        .map(|verb| {
            let line = format!("{verb} {machine} cpu2000");
            let mut reference = Vec::new();
            proto::execute_line(&mut session, &line, &mut reference).expect("in-process render");
            Command { line, reference }
        })
        .collect()
}

/// Checks an open-loop outcome's correctness: every scheduled request sent
/// and answered, every response byte-equal to its reference.
pub fn check_outcome(ledger: &mut Ledger, what: &str, o: &Outcome) {
    ledger.ops((o.sent + o.dropped) as u64);
    if o.dropped > 0 {
        ledger.fail_n(
            o.dropped as u64,
            format!(
                "{what}: {} requests fell due on a closed connection",
                o.dropped
            ),
        );
    }
    if o.mismatched > 0 {
        ledger.fail_n(
            o.mismatched as u64,
            format!(
                "{what}: {} responses differ from the reference",
                o.mismatched
            ),
        );
    }
    if o.lost > 0 {
        ledger.fail_n(
            o.lost as u64,
            format!("{what}: {} requests never answered", o.lost),
        );
    }
}

/// Fixed offered rate of the direct and router windows, req/s: the middle
/// of the rates (500, 2 000, 5 000) a two-connection `cpistack loadgen`
/// probe measured on the benchmark box.
pub const SERVE_RATE: f64 = 2000.0;
/// Length of one fixed-rate window: 200 requests. A host stall of a few
/// milliseconds lands in most windows of a busy stretch but not in all, so
/// short windows leave clean ones to measure.
pub const WINDOW_S: f64 = 0.1;
/// One saturating burst: this many requests, all due within a millisecond,
/// pipelined over the connections. The node's capacity, about 10 000 req/s,
/// makes a burst about as long as a window.
pub const BURST_REQUESTS: f64 = 1000.0;
pub const BURST_RATE: f64 = 1e6;
/// First step of the `serve_max_rps` ladder, req/s (`SERVE_RATE`).
pub const LADDER_FIRST: f64 = SERVE_RATE;
/// Each ladder step offers this many times the previous one: 12 % apart,
/// so a change of that size in capacity moves the figure by a step.
pub const LADDER_RATIO: f64 = 1.12;
/// The ladder ends here, well above the box's capacity in its fast mode
/// (about 18 000 req/s on `mixed`).
pub const LADDER_LAST: f64 = 25_000.0;
/// Requests of one ladder step, so ten samples lie beyond its p99.
pub const LADDER_STEP_REQUESTS: f64 = 1000.0;

/// The ladder's offered rates, req/s.
pub fn ladder() -> Vec<f64> {
    std::iter::successors(Some(LADDER_FIRST), |r| Some(r * LADDER_RATIO))
        .take_while(|&r| r <= LADDER_LAST)
        .collect()
}

/// One saturating burst: completed requests per second, and the server's
/// CPU time per answered request in µs (every thread's CPU time but the
/// generator's).
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    pub rps: f64,
    pub cpu_us: f64,
}

/// The fixed-rate windows and saturating bursts of one round.
#[derive(Default)]
pub struct Serve {
    pub direct: Vec<Outcome>,
    pub router: Vec<Outcome>,
    pub direct_bursts: Vec<Burst>,
    pub router_bursts: Vec<Burst>,
}

/// `pairs` pairs of a direct and a router window at `SERVE_RATE` on the
/// live stack, sending `verbs` in turn, each pair followed by a saturating
/// burst, to the node and to the router in turn. Direct and router traffic
/// each keep their own connections for the whole phase.
pub fn serve(
    stack: &ServingStack,
    verbs: &[&str],
    pairs: usize,
    seed: u64,
    ledger: &mut Ledger,
    tracer: &Tracer,
    parent: &Open,
) -> Serve {
    let mix = serve_mix(&stack.service, "core2", verbs);
    let mut out = Serve::default();
    let load = |addr, rate: f64, seconds: f64, seed| Load {
        addr,
        conns: gen::MAX_CONNS,
        rate,
        duration: Duration::from_secs_f64(seconds),
        mix: &mix,
        seed,
        give_up_backlog: None,
        stop: None,
    };
    let window = load(stack.front_addr(), SERVE_RATE, WINDOW_S, seed);
    let burst = load(
        stack.front_addr(),
        BURST_RATE,
        BURST_REQUESTS / BURST_RATE,
        seed,
    );
    let opened = [stack.front_addr(), stack.router_addr()].map(|addr| {
        gen::Clients::open(&Load {
            addr,
            ..window.clone()
        })
    });
    let [Ok(mut to_direct), Ok(mut to_router)] = opened else {
        ledger.ops(1);
        ledger.fail("serve: connecting to the stack".into());
        return out;
    };
    for w in 0..pairs {
        for (name, clients, kept) in [
            ("serve.direct", &mut to_direct, &mut out.direct),
            ("serve.router", &mut to_router, &mut out.router),
        ] {
            let o = tracer.time(name, Some(parent), |span| {
                clients.run(&window, tracer, Some(span))
            });
            check_outcome(ledger, name, &o);
            kept.push(o);
        }
        let (name, clients, kept) = if w % 2 == 0 {
            ("serve.burst", &mut to_direct, &mut out.direct_bursts)
        } else {
            ("serve.router_burst", &mut to_router, &mut out.router_bursts)
        };
        let (o, cpu_s) = report::cpu_of_others(|| {
            tracer.time(name, Some(parent), |span| {
                clients.run(&burst, tracer, Some(span))
            })
        });
        check_outcome(ledger, name, &o);
        kept.push(Burst {
            rps: o.throughput,
            cpu_us: cpu_s * 1e6 / o.completed.max(1) as f64,
        });
    }
    out
}

/// One climb of the `serve_max_rps` ladder against the direct front.
/// Climbs until the first step that misses the p99 limit or keeps a
/// backlog it could not clear within the limit; returns the throughput of
/// the last step that held (0 if none did).
pub fn climb(
    stack: &ServingStack,
    verbs: &[&str],
    limit_ms: f64,
    seed: u64,
    ledger: &mut Ledger,
    tracer: &Tracer,
    parent: &Open,
) -> f64 {
    let mix = serve_mix(&stack.service, "core2", verbs);
    let mut max_rps = 0.0;
    for (i, rate) in ladder().into_iter().enumerate() {
        let clearable = (rate * limit_ms / 1e3).ceil() as usize;
        let load = Load {
            addr: stack.front_addr(),
            conns: gen::MAX_CONNS,
            rate,
            duration: Duration::from_secs_f64(LADDER_STEP_REQUESTS / rate),
            mix: &mix,
            seed: seed ^ (i as u64 + 2),
            give_up_backlog: Some(clearable),
            stop: None,
        };
        let o = match tracer.time("serve.ladder", Some(parent), |span| {
            gen::run(&load, tracer, Some(span))
        }) {
            Ok(o) => o,
            Err(e) => {
                ledger.ops(1);
                ledger.fail(format!("ladder {rate}: {e}"));
                break;
            }
        };
        // A step abandoned for backlog ends the climb, not the run; what it
        // did answer must still be right. A step counts as one operation:
        // how many requests a climb sends depends on how far it gets, and
        // that must not move `failed_ratio`.
        ledger.ops(1);
        if o.mismatched > 0 {
            ledger.fail_n(
                o.mismatched as u64,
                format!("ladder {rate}: {} responses differ", o.mismatched),
            );
        }
        if o.dropped > 0 {
            ledger.fail_n(
                o.dropped as u64,
                format!(
                    "ladder {rate}: {} requests fell due on a closed connection",
                    o.dropped
                ),
            );
        }
        let p99 = quantile(&o.latency_ms, 0.99);
        if o.gave_up || o.lost > 0 || o.dropped > 0 || o.backlog > clearable || p99 > limit_ms {
            break;
        }
        max_rps = o.throughput;
    }
    max_rps
}

// ---------------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------------

/// The refit policy re-anchors with a full refit every this many batches,
/// so one refit in four is full: `refit_p50_ms` sits among incremental
/// refits and `refit_p90_ms` among full ones, instead of on the edge
/// between them (the default cadence, 16, would put p90 on that edge).
pub const FULL_EVERY: u64 = 4;
/// Offered rate of the stream phase's reader, req/s: the lowest rate of
/// the two-connection probe behind `SERVE_RATE`.
pub const READ_RATE: f64 = 500.0;

/// One stream segment on a fresh service: `batches` jittered counter
/// batches upserted and refit back to back (as `stream::pump` replays
/// them) while a reader keeps reading another model's `stack` over TCP.
#[derive(Default)]
pub struct Stream {
    pub refit_ms: Vec<f64>,
    pub full_ms: Vec<f64>,
    pub incremental_ms: Vec<f64>,
    pub read: Option<Outcome>,
    pub read_p99_ms: f64,
    pub invalidations: u64,
}

pub fn stream(
    inputs: &Inputs,
    batches: usize,
    round: usize,
    ledger: &mut Ledger,
    tracer: &Tracer,
    parent: &Open,
) -> Stream {
    let mut out = Stream::default();
    let dir = inputs.work.join(format!("stream-state-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    // Two workers, as on the 2-core box: the reader's key shares a shard
    // with the streamed key, so reads queue behind refits.
    let service = match CpiService::try_start(
        ServiceConfig::new()
            .with_workers(2)
            .with_state_dir(&dir)
            .with_refit_policy(RefitPolicy::new().with_full_every(FULL_EVERY)),
    ) {
        Ok(s) => s,
        Err(e) => {
            ledger.ops(1);
            ledger.fail(format!("stream service: {e}"));
            return out;
        }
    };
    let client = service.client();
    ledger.check(
        client
            .register(MachineSpec::from(&MachineConfig::core2()))
            .is_ok(),
        || "register core2".into(),
    );
    ledger.check(
        client
            .register(MachineSpec::from(&MachineConfig::pentium4()))
            .is_ok(),
        || "register pentium4".into(),
    );
    ledger.check(client.ingest(inputs.pentium4.clone()).is_ok(), || {
        "ingest pentium4".into()
    });
    let reader_key = ModelKey::new(
        MachineId::Pentium4,
        Some(Suite::Cpu2000),
        setup::serve_options(),
    );
    ledger.check(client.fit(reader_key).is_ok(), || "reader model".into());
    let mix = serve_mix(&service, "pentium4", &["stack"]);
    let front = match setup::front(SessionSpec::open(client.clone(), setup::serve_options())) {
        Ok(f) => f,
        Err(e) => {
            ledger.ops(1);
            ledger.fail(format!("stream front: {e}"));
            service.shutdown();
            return out;
        }
    };

    let key = ModelKey::new(
        MachineId::Core2,
        Some(Suite::Cpu2000),
        FitOptions::default(),
    );
    let mut source = ReplaySource::new(inputs.core2.clone())
        .batch_size(inputs.core2.len())
        .rounds(batches)
        .jitter(TRAINING_SEED);
    let done = AtomicBool::new(false);
    let load = Load {
        addr: front.local_addr(),
        conns: 1,
        rate: READ_RATE,
        duration: Duration::from_secs(120),
        mix: &mix,
        seed: inputs.seed ^ 0x5EAD ^ round as u64,
        give_up_backlog: None,
        stop: Some(&done),
    };
    let mut final_model = None;
    let read = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let span = tracer.begin("stream.reader", Some(parent));
            let o = gen::run(&load, tracer, Some(&span));
            tracer.end(span);
            o
        });
        // Each batch arrives as soon as the previous refit was served; its
        // latency runs from arrival to the served refit.
        while let Some(batch) = source.next_batch() {
            let span = tracer.begin("stream.batch", Some(parent));
            let arrival = Instant::now();
            let landed = client.stream_batch(MachineId::Core2, batch);
            let refit = client.refit(key.clone(), false);
            let ms = arrival.elapsed().as_secs_f64() * 1e3;
            tracer.end(span);
            ledger.ops(2);
            if let Err(e) = landed {
                ledger.fail(format!("stream batch: {e}"));
                continue;
            }
            match refit {
                Ok((report, mode)) => {
                    out.refit_ms.push(ms);
                    match mode {
                        RefitMode::Full => out.full_ms.push(ms),
                        RefitMode::Incremental => out.incremental_ms.push(ms),
                        RefitMode::Cached => {}
                    }
                    final_model = Some(report.model);
                }
                Err(e) => ledger.fail(format!("refit: {e}")),
            }
        }
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    match read {
        Ok(o) => {
            check_outcome(ledger, "stream.read", &o);
            out.read_p99_ms = quantile(&o.latency_ms, 0.99);
            out.read = Some(o);
        }
        Err(e) => {
            ledger.ops(1);
            ledger.fail(format!("stream reader: {e}"));
        }
    }
    if let Some(model) = &final_model {
        check_stack_sums(ledger, "stream", model, &inputs.core2);
    }
    ledger.check(
        !out.full_ms.is_empty() && !out.incremental_ms.is_empty(),
        || {
            format!(
                "stream refits: {} full, {} incremental",
                out.full_ms.len(),
                out.incremental_ms.len()
            )
        },
    );
    out.invalidations = client.stats().map(|s| s.cache.invalidations).unwrap_or(0);
    front.shutdown();
    service.shutdown();
    let snapshots = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    // The reader's model plus at least one full refit of the streamed key.
    ledger.check(snapshots >= 2, || {
        format!("stream persisted {snapshots} snapshots")
    });
    out
}
