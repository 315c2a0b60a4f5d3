//! The `cpistack bench` harness: a reproducible timing snapshot of the
//! three cold/warm paths every release cares about.
//!
//! After the serving layer (PR 2) and persistence (PR 3), warm queries are
//! cache hits — so the system's latency story is decided by two cold
//! paths: **cold collect** (the `oosim` measurement campaign) and **cold
//! fit** (the first nonlinear regression per cache key), plus the **warm
//! serve** fast path that everything else amortises into. This module
//! times all three on the paper campaign (103 benchmarks × 3 machines),
//! verifies that the parallel multi-start fit is *byte-identical* to the
//! strictly-sequential path while timing both, and writes a
//! machine-readable JSON snapshot (`BENCH_10.json`) — the start of a perf
//! trajectory later PRs append to and CI guards against.
//!
//! Since the cluster tier (PR 6), the report also carries a **cluster**
//! section: the same warm `stack` request timed against a backend node
//! directly and through the consistent-hash router, so the router-hop
//! overhead is a tracked number rather than folklore.
//!
//! Since the streaming subsystem (PR 7), a **streaming** section replays
//! a jittered multi-round counter stream through [`stream::pump`] and
//! splits the steady-state refit cost into the full multi-start fan-out
//! versus the warm-start incremental polish — the order-of-magnitude
//! saving the drift-guarded refit path claims is a recorded number here,
//! not an assertion. The streamed campaign also runs the simulator with a
//! quarter-length warm-up ([`SimSource::warmup`]), and the µops that
//! saves per workload is reported alongside.
//!
//! A **connection-scaling** section drives the [`loadgen`] harness at
//! two targets over the same warm model: the readiness-loop node front
//! and the cluster router, each at 4× the baseline connection count
//! (`conns`) with the aggregate offered load held at the baseline's.
//! Every campaign is open-loop, asserts zero in-band errors and zero
//! dropped connections, and records its p99 latency, so the event loop's
//! connection ceiling stays a tracked number.
//!
//! Since the work-stealing collect pool (PR 9), the cold-collect section
//! times the parallel campaign **and** a strictly-sequential reference,
//! asserts the two record sets are byte-identical, and records the
//! `collect_speedup` alongside. The cold-fit section runs on one thread
//! budget (`--threads` caps each fit's work-stealing multi-start fan-out;
//! concurrent fits time-share it) and carries the fan-outs'
//! objective-evaluation totals — which must also agree between the
//! parallel and sequential legs, since evaluation counts are
//! schedule-independent.
//!
//! Since the design-space sweep service (PR 10), a **sweep** section
//! drives one grid request (ROB × MSHRs × dispatch width over the Core 2)
//! twice through a fresh service: the cold pass simulates and fits every
//! variant, the warm re-sweep of the identical spec must simulate *zero*
//! configurations and refit *nothing* (asserted, not assumed), and both
//! walls are recorded with their variants-per-second rates. Smoke-mode
//! collect walls are also hardened here: sub-second walls are
//! scheduler-sensitive, so smoke runs record the **median of three**
//! repetitions for both collect legs instead of a single draw.
//!
//! The JSON carries a `config_fingerprint` folding every knob that shapes
//! the numbers (µop budget, seed, suite sizes, fit options fingerprint);
//! [`check_against`] only compares runs with equal fingerprints, so a
//! smoke run is never judged against a full-scale baseline.

use crate::loadgen::{self, LoadgenConfig};
use crate::model::workbench::{SimSource, Workbench};
use crate::model::FitOptions;
use crate::service::cluster::{ClusterHarness, RouterConfig};
use crate::service::proto::{self, SessionSpec, TcpServerConfig};
use crate::service::sweep::{SweepGrid, SweepSpec};
use crate::service::{stream, CpiService, ModelKey, RefitMode, Response, ServiceConfig};
use crate::sim::machine::MachineConfig;
use pmu::live::ReplaySource;
use pmu::{MachineId, RunRecord, Suite};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Scale and knobs of one bench run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Reduced-budget mode for CI smoke runs.
    pub smoke: bool,
    /// µops simulated per benchmark (the warm-up adds the same again).
    pub uops: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Thread budget for the whole bench (`0` = one per hardware
    /// thread): the collect pool's worker count, and each cold fit's
    /// multi-start fan-out cap (concurrent fits time-share the budget;
    /// the knob never silently compounds into a shards × fit-threads
    /// product the way the pre-PR-9 defaults did).
    pub threads: usize,
    /// Warm-serve repetitions per model key.
    pub warm_iters: usize,
    /// Connection-scaling baseline: the readiness-loop front and the
    /// router are measured at 4× this many concurrent connections, at
    /// this many connections' aggregate offered load.
    pub conns: usize,
}

impl BenchConfig {
    /// Full scale: the paper campaign at the experiment harness budget.
    pub fn full() -> Self {
        Self {
            smoke: false,
            uops: 200_000,
            seed: 12345,
            threads: 0,
            warm_iters: 20,
            conns: 64,
        }
    }

    /// Reduced budgets for CI: same campaign structure, cheaper µops.
    pub fn smoke() -> Self {
        Self {
            smoke: true,
            uops: 10_000,
            conns: 16,
            ..Self::full()
        }
    }

    /// A fingerprint of every *configured* knob that shapes the timings —
    /// including `threads`, which is invisible to model cache keys (it
    /// cannot change fitted bits) but very much changes wall-clock. Two
    /// runs are comparable only if their fingerprints match; hardware
    /// differences between hosts remain the caller's problem (a
    /// wall-clock gate is only meaningful against a baseline from
    /// comparable hardware).
    pub fn fingerprint(&self, benchmarks: usize, machines: usize) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.uops.hash(&mut h);
        self.seed.hash(&mut h);
        self.smoke.hash(&mut h);
        self.threads.hash(&mut h);
        self.conns.hash(&mut h);
        benchmarks.hash(&mut h);
        machines.hash(&mut h);
        FitOptions::default().fingerprint().hash(&mut h);
        h.finish()
    }
}

/// One bench run's measurements — serialised to `BENCH_10.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"full"` or `"smoke"`.
    pub mode: &'static str,
    /// The configuration measured.
    pub config: BenchConfig,
    /// Benchmarks per machine.
    pub benchmarks: usize,
    /// Machines collected.
    pub machines: usize,
    /// Total records collected.
    pub records: usize,
    /// Config fingerprint (see [`BenchConfig::fingerprint`]).
    pub config_fingerprint: u64,
    /// Wall-clock of the simulator campaign (all machines) on the
    /// work-stealing pool, ms.
    pub cold_collect_ms: f64,
    /// The same campaign strictly sequential (one worker), ms.
    pub cold_collect_seq_ms: f64,
    /// `cold_collect_seq_ms / cold_collect_ms` (records byte-identical —
    /// asserted, not assumed).
    pub collect_speedup: f64,
    /// Wall-clock of the six cold fits through the service, ms.
    pub cold_fit_ms: f64,
    /// The same six fits, strictly sequential (1 worker, 1 fit thread), ms.
    pub cold_fit_seq_ms: f64,
    /// `cold_fit_seq_ms / cold_fit_ms`.
    pub fit_speedup: f64,
    /// Objective evaluations the six cold fits spent in total — equal on
    /// the parallel and sequential legs by construction (evaluation
    /// counts are schedule-independent; the run fails otherwise).
    pub fit_evals: u64,
    /// Mean wall-clock of one warm `stacks` request, ms.
    pub warm_serve_ms: f64,
    /// Mean warm `stack` round-trip straight to the owning cluster node, ms.
    pub cluster_warm_direct_ms: f64,
    /// The same warm `stack` round-trip through the cluster router, ms.
    pub cluster_warm_router_ms: f64,
    /// `cluster_warm_router_ms - cluster_warm_direct_ms`: what one router
    /// hop costs (raw difference, so timing noise can make it slightly
    /// negative on very fast hosts).
    pub router_hop_ms: f64,
    /// Batches pumped by the streaming section (reconciliation included).
    pub stream_batches: usize,
    /// Streaming refits served by the full multi-start fan-out.
    pub stream_full_refits: u64,
    /// Streaming refits served by the warm-start incremental polish.
    pub stream_incremental_refits: u64,
    /// Mean wall-clock of one full streaming refit, ms.
    pub stream_full_ms: f64,
    /// Mean wall-clock of one incremental streaming refit, ms.
    pub stream_incremental_ms: f64,
    /// `stream_full_ms / stream_incremental_ms`: the steady-state saving
    /// the incremental path buys on a stationary stream.
    pub stream_speedup: f64,
    /// µops the streaming campaign's quarter-length warm-up saves per
    /// workload versus the default (warm-up = measurement length).
    pub warmup_saved_uops: u64,
    /// Named variants in the sweep section's grid (stock point included).
    pub sweep_variants: usize,
    /// Wall-clock of the cold sweep — every variant simulated and
    /// fitted, ms.
    pub sweep_cold_ms: f64,
    /// Wall-clock of the warm re-sweep of the identical spec — zero
    /// simulations, zero refits (asserted), ms.
    pub sweep_warm_ms: f64,
    /// Variants ranked per second on the cold pass.
    pub sweep_cold_rate: f64,
    /// Variants ranked per second on the warm pass.
    pub sweep_warm_rate: f64,
    /// Open-loop request rate per connection in the scaling sections,
    /// requests/second.
    pub loadgen_rate: f64,
    /// Connections sustained by the readiness event loop (zero errors,
    /// zero drops) — 4× the `conns` baseline by construction.
    pub serve_events_conns: usize,
    /// p99 latency at that load on the readiness engine, ms.
    pub serve_events_p99_ms: f64,
    /// Connections sustained through the cluster router (readiness
    /// engine, backed by pooled per-node connections).
    pub router_events_conns: usize,
    /// p99 latency at that load through the router, ms.
    pub router_events_p99_ms: f64,
    /// FNV-1a digest over every fitted parameter's bits, in key order —
    /// equal for the parallel and sequential paths by construction (the
    /// run fails otherwise).
    pub params_digest: u64,
}

impl BenchReport {
    /// Renders the machine-readable snapshot (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": 7,");
        let _ = writeln!(s, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(s, "  \"config\": {{");
        let _ = writeln!(s, "    \"uops\": {},", self.config.uops);
        let _ = writeln!(s, "    \"seed\": {},", self.config.seed);
        let _ = writeln!(s, "    \"threads\": {},", self.config.threads);
        let _ = writeln!(s, "    \"warm_iters\": {},", self.config.warm_iters);
        let _ = writeln!(s, "    \"conns\": {},", self.config.conns);
        let _ = writeln!(s, "    \"benchmarks\": {},", self.benchmarks);
        let _ = writeln!(s, "    \"machines\": {}", self.machines);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(
            s,
            "  \"config_fingerprint\": \"{:016x}\",",
            self.config_fingerprint
        );
        let _ = writeln!(s, "  \"records\": {},", self.records);
        let _ = writeln!(s, "  \"cold_collect_ms\": {:.3},", self.cold_collect_ms);
        let _ = writeln!(
            s,
            "  \"cold_collect_seq_ms\": {:.3},",
            self.cold_collect_seq_ms
        );
        let _ = writeln!(s, "  \"collect_speedup\": {:.3},", self.collect_speedup);
        let _ = writeln!(s, "  \"cold_fit_ms\": {:.3},", self.cold_fit_ms);
        let _ = writeln!(s, "  \"cold_fit_seq_ms\": {:.3},", self.cold_fit_seq_ms);
        let _ = writeln!(s, "  \"fit_speedup\": {:.3},", self.fit_speedup);
        let _ = writeln!(s, "  \"fit_evals\": {},", self.fit_evals);
        let _ = writeln!(s, "  \"warm_serve_ms\": {:.4},", self.warm_serve_ms);
        let _ = writeln!(
            s,
            "  \"cluster_warm_direct_ms\": {:.4},",
            self.cluster_warm_direct_ms
        );
        let _ = writeln!(
            s,
            "  \"cluster_warm_router_ms\": {:.4},",
            self.cluster_warm_router_ms
        );
        let _ = writeln!(s, "  \"router_hop_ms\": {:.4},", self.router_hop_ms);
        let _ = writeln!(s, "  \"stream_batches\": {},", self.stream_batches);
        let _ = writeln!(s, "  \"stream_full_refits\": {},", self.stream_full_refits);
        let _ = writeln!(
            s,
            "  \"stream_incremental_refits\": {},",
            self.stream_incremental_refits
        );
        let _ = writeln!(s, "  \"stream_full_ms\": {:.3},", self.stream_full_ms);
        let _ = writeln!(
            s,
            "  \"stream_incremental_ms\": {:.4},",
            self.stream_incremental_ms
        );
        let _ = writeln!(s, "  \"stream_speedup\": {:.2},", self.stream_speedup);
        let _ = writeln!(s, "  \"warmup_saved_uops\": {},", self.warmup_saved_uops);
        let _ = writeln!(s, "  \"sweep_variants\": {},", self.sweep_variants);
        let _ = writeln!(s, "  \"sweep_cold_ms\": {:.3},", self.sweep_cold_ms);
        let _ = writeln!(s, "  \"sweep_warm_ms\": {:.3},", self.sweep_warm_ms);
        let _ = writeln!(s, "  \"sweep_cold_rate\": {:.2},", self.sweep_cold_rate);
        let _ = writeln!(s, "  \"sweep_warm_rate\": {:.1},", self.sweep_warm_rate);
        let _ = writeln!(s, "  \"loadgen_rate\": {:.1},", self.loadgen_rate);
        let _ = writeln!(s, "  \"serve_events_conns\": {},", self.serve_events_conns);
        let _ = writeln!(
            s,
            "  \"serve_events_p99_ms\": {:.3},",
            self.serve_events_p99_ms
        );
        let _ = writeln!(
            s,
            "  \"router_events_conns\": {},",
            self.router_events_conns
        );
        let _ = writeln!(
            s,
            "  \"router_events_p99_ms\": {:.3},",
            self.router_events_p99_ms
        );
        let _ = writeln!(s, "  \"params_digest\": \"{:016x}\"", self.params_digest);
        let _ = writeln!(s, "}}");
        s
    }

    /// Human summary for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "cpistack bench ({} | {} benchmarks × {} machines, {} µops, seed {})\n\
             cold collect   {:>10.1} ms  (work-stealing pool)\n\
             collect (seq)  {:>10.1} ms  → speedup {:.2}×, records byte-identical\n\
             cold fit       {:>10.1} ms  ({} keys, parallel multi-start, {} evals)\n\
             cold fit (seq) {:>10.1} ms  → speedup {:.2}×, params byte-identical\n\
             warm serve     {:>10.3} ms/request (all cache hits)\n\
             cluster warm   {:>10.3} ms direct / {:.3} ms via router (hop {:+.3} ms)\n\
             streaming      {:>10.1} ms full / {:.2} ms incremental per refit → \
             {:.1}× ({} full / {} incremental over {} batches)\n\
             warm-up        quarter-length streaming warm-up saves {} µops/workload\n\
             sweep          {:>10.1} ms cold / {:.1} ms warm re-sweep over {} variants → \
             {:.2} / {:.0} variants/s (warm pass simulates and refits nothing)\n\
             connections    events {} conns p99 {:.3} ms ({:.0} req/s aggregate open-loop) \
             | router {} conns p99 {:.3} ms (half aggregate; zero errors/drops throughout)\n",
            self.mode,
            self.benchmarks,
            self.machines,
            self.config.uops,
            self.config.seed,
            self.cold_collect_ms,
            self.cold_collect_seq_ms,
            self.collect_speedup,
            self.cold_fit_ms,
            self.machines * 2,
            self.fit_evals,
            self.cold_fit_seq_ms,
            self.fit_speedup,
            self.warm_serve_ms,
            self.cluster_warm_direct_ms,
            self.cluster_warm_router_ms,
            self.router_hop_ms,
            self.stream_full_ms,
            self.stream_incremental_ms,
            self.stream_speedup,
            self.stream_full_refits,
            self.stream_incremental_refits,
            self.stream_batches,
            self.warmup_saved_uops,
            self.sweep_cold_ms,
            self.sweep_warm_ms,
            self.sweep_variants,
            self.sweep_cold_rate,
            self.sweep_warm_rate,
            self.serve_events_conns,
            self.serve_events_p99_ms,
            self.loadgen_rate * self.config.conns as f64,
            self.router_events_conns,
            self.router_events_p99_ms,
        )
    }
}

/// FNV-1a over a byte stream.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs the six paper-campaign fits through a [`CpiService`] and returns
/// `(wall ms, fitted-params digest, objective evaluations spent)`.
fn timed_fits(
    config: ServiceConfig,
    machines: &[MachineConfig],
    records: &[RunRecord],
    keys: &[ModelKey],
) -> (f64, u64, u64) {
    let service = CpiService::start(config);
    let client = service.client();
    for machine in machines {
        client.register(machine.into()).expect("register");
    }
    client.ingest(records.to_vec()).expect("ingest");

    let start = Instant::now();
    let streams: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| client.submit_group_at(i, key.clone()))
        .collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for stream in streams {
        for response in stream {
            match response {
                Response::Group(group) => {
                    for b in &group.model.params().b {
                        fnv(&mut digest, &b.to_bits().to_le_bytes());
                    }
                    fnv(
                        &mut digest,
                        &group.model.objective().to_bits().to_le_bytes(),
                    );
                }
                Response::Error(e) => panic!("bench fit failed: {e}"),
                _ => {}
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let stats = service.shutdown();
    (elapsed, digest, stats.cache.fit_evals)
}

/// Opens a protocol connection and swallows the banner line.
fn protocol_conn(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect to cluster node");
    stream.set_nodelay(true).ok();
    let mut conn = BufReader::new(stream);
    let mut banner = String::new();
    conn.read_line(&mut banner).expect("banner");
    conn
}

/// Sends one protocol line and reads the complete response — payload
/// lines up to and including the `ok` / `err: ` terminator.
fn roundtrip(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("send command");
    let mut response = String::new();
    loop {
        let mut next = String::new();
        if conn.read_line(&mut next).expect("read response") == 0 {
            panic!("server closed the connection mid-response");
        }
        response.push_str(&next);
        let trimmed = next.trim_end();
        if trimmed == "ok" || trimmed.starts_with("err: ") {
            return response;
        }
    }
}

/// Mean wall-clock of `iters` warm `stack core2 cpu2000` round-trips on
/// one pooled connection, ms.
fn timed_warm_stacks(conn: &mut BufReader<TcpStream>, iters: usize) -> f64 {
    // One untimed request first: the node loads the snapshot / primes the
    // cache, so the timed loop measures the steady warm path only.
    let warm_up = roundtrip(conn, "stack core2 cpu2000");
    assert!(
        !warm_up.contains("err: "),
        "cluster warm-up failed: {warm_up}"
    );
    let iters = iters.max(1);
    let start = Instant::now();
    for _ in 0..iters {
        let resp = roundtrip(conn, "stack core2 cpu2000");
        assert!(!resp.contains("err: "), "cluster warm serve failed: {resp}");
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// The open-loop traffic shape of the connection-scaling sections,
/// derived from the bench mode: smoke keeps campaigns short for CI, full
/// runs longer at a gentler per-connection cadence.
struct ScalingLoad {
    rate: f64,
    duration: Duration,
    /// Campaigns per engine; the recorded p99 is the median. On a small
    /// box the scheduler's bad luck can double a single campaign's tail,
    /// so full mode runs three and smoke (CI) keeps one for speed.
    trials: usize,
}

impl ScalingLoad {
    fn of(config: &BenchConfig) -> Self {
        if config.smoke {
            Self {
                rate: 20.0,
                duration: Duration::from_millis(750),
                trials: 1,
            }
        } else {
            // 64 conns × 5 req/s = 320 req/s aggregate: comfortably
            // below the single-loop engines' rendering saturation on a
            // small box, so every section measures steady-state latency
            // rather than queue backlog. Four seconds per campaign keeps
            // the p99 from being set by a single scheduler stall.
            Self {
                rate: 5.0,
                duration: Duration::from_secs(4),
                trials: 3,
            }
        }
    }

    /// Per-connection cadence at `scale`× the baseline connection
    /// count, holding the *aggregate* offered load constant — the
    /// scaling sections compare connection counts, not throughputs.
    fn rate_at(&self, scale: usize) -> f64 {
        self.rate / scale.max(1) as f64
    }
}

/// Drives [`ScalingLoad::trials`] open-loop loadgen campaigns of mixed
/// warm `stack` / `binstack` traffic at `addr` and returns the median
/// p99 latency in ms.
///
/// # Panics
///
/// Panics on any in-band protocol error or dropped connection — the
/// scaling sections report latency *at sustained load*, never latency
/// with casualties.
fn scaling_loadgen(
    addr: SocketAddr,
    conns: usize,
    scale: usize,
    load: &ScalingLoad,
    what: &str,
) -> f64 {
    let config = LoadgenConfig::new(addr, "core2", "cpu2000")
        .with_connections(conns)
        .with_rate(load.rate_at(scale))
        .with_duration(load.duration);
    let mut p99s: Vec<f64> = (0..load.trials.max(1))
        .map(|_| {
            let report = loadgen::run(&config).expect("loadgen campaign");
            assert_eq!(
                report.errors, 0,
                "{what}: in-band errors under {conns}-connection load"
            );
            assert_eq!(
                report.dropped, 0,
                "{what}: dropped connections under {conns}-connection load"
            );
            report.p99.as_secs_f64() * 1e3
        })
        .collect();
    p99s.sort_by(|a, b| a.total_cmp(b));
    p99s[p99s.len() / 2]
}

/// The direct-serve half of the connection-scaling section: one warm
/// service behind the readiness-loop front, driven at 4× the baseline
/// connection count. Returns the p99 in ms.
fn connection_bench(config: &BenchConfig, records: &[RunRecord]) -> f64 {
    let machine = MachineConfig::core2();
    let core2: Vec<RunRecord> = records
        .iter()
        .filter(|r| r.machine() == MachineId::Core2)
        .cloned()
        .collect();
    let service = CpiService::start(ServiceConfig::new().with_workers(2).with_cache_capacity(8));
    let client = service.client();
    client.register((&machine).into()).expect("register");
    client.ingest(core2).expect("ingest");
    let options = FitOptions::quick();
    client
        .fit(ModelKey::new(
            MachineId::Core2,
            Some(Suite::Cpu2000),
            options.clone(),
        ))
        .expect("warm fit");
    let conns = config.conns * 4;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind bench front");
    let front = proto::serve_tcp(
        listener,
        SessionSpec::open(client, options),
        TcpServerConfig::new("cpistack bench")
            .with_idle_timeout(None)
            .with_poll_interval(Duration::from_millis(2))
            .with_max_connections(conns + 8),
    )
    .expect("bench front starts");
    let p99 = scaling_loadgen(
        front.local_addr(),
        conns,
        4,
        &ScalingLoad::of(config),
        "readiness engine",
    );
    front.shutdown();
    service.shutdown();
    p99
}

/// The cluster section of the bench: boots a 3-node tier, fits Core 2 /
/// CPU2000 once through the router (untimed), then times the same warm
/// `stack` request direct-to-owner and through the router, and finally
/// drives the router half of the connection-scaling section (4× the
/// baseline connection count through the readiness-engine router).
/// Returns `(direct ms, router ms, router loadgen p99 ms)`.
///
/// The fit itself uses [`FitOptions::quick`] — the section measures the
/// serving transport, and a warm `stack` round-trip does not depend on
/// how the cached model was fitted.
fn cluster_warm_bench(config: &BenchConfig, records: &[RunRecord]) -> (f64, f64, f64) {
    let dir = std::env::temp_dir().join(format!("cpistack_bench_cluster_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench cluster scratch dir");
    let core2: Vec<RunRecord> = records
        .iter()
        .filter(|r| r.machine() == MachineId::Core2)
        .cloned()
        .collect();
    let csv = dir.join("core2.csv");
    std::fs::write(&csv, pmu::csv::to_csv(&core2)).expect("write bench csv");

    let router_conns = config.conns * 4;
    let harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(3)
        .with_workers(2)
        .with_cache(8)
        .with_options(FitOptions::quick())
        .with_router(
            RouterConfig::new("cpistack bench cluster")
                .with_poll_interval(Duration::from_millis(2))
                .with_idle_timeout(Some(Duration::from_secs(60)))
                .with_max_connections(router_conns + 8),
        )
        .start()
        .expect("bench cluster boots");

    // Untimed setup through the router: register, ingest, cold fit.
    let mut router = protocol_conn(harness.router_addr());
    for line in [
        "machine core2 4 14 19 169 30".to_string(),
        format!("ingest {}", csv.display()),
        "fit core2 cpu2000".to_string(),
    ] {
        let resp = roundtrip(&mut router, &line);
        assert!(
            !resp.contains("err: "),
            "bench cluster setup failed at `{line}`: {resp}"
        );
    }

    let owner = harness
        .owner_index("local", "core2")
        .expect("core2 has an owner");
    let mut direct = protocol_conn(harness.node_addr(owner));
    let direct_ms = timed_warm_stacks(&mut direct, config.warm_iters);
    let router_ms = timed_warm_stacks(&mut router, config.warm_iters);

    // Router scaling: the same warm traffic at 4× the `conns`
    // baseline's connection count through the router, at HALF the
    // direct sections' aggregate rate (scale 8, not 4). One readiness
    // loop proxies both directions of every request here while the
    // 3-node tier shares the same cores, so the direct sections' full
    // aggregate is past this topology's steady state on a small bench
    // box — and a saturated queue measures backlog, not latency.
    let router_p99 = scaling_loadgen(
        harness.router_addr(),
        router_conns,
        8,
        &ScalingLoad::of(config),
        "router",
    );

    roundtrip(&mut router, "quit");
    roundtrip(&mut direct, "quit");
    drop(router);
    drop(direct);
    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (direct_ms, router_ms, router_p99)
}

/// The streaming section's measured numbers.
struct StreamingNumbers {
    batches: usize,
    full_refits: u64,
    incremental_refits: u64,
    full_ms: f64,
    incremental_ms: f64,
    saved_uops: u64,
}

/// The streaming section: collect a Core 2 / CPU2000 campaign with a
/// quarter-length warm-up, replay it as a jittered multi-round stream
/// through [`stream::pump`] (one batch per round, full-budget options so
/// the fan-out cost matches the cold-fit section), and split the mean
/// refit wall-clock by mode. Rounds derive from `warm_iters` so the
/// config fingerprint is untouched.
fn streaming_bench(config: &BenchConfig) -> StreamingNumbers {
    let machine = MachineConfig::core2();
    let warmup = config.uops / 4;
    let records = SimSource::new()
        .suite(crate::workloads::suites::cpu2000())
        .uops(config.uops)
        .warmup(warmup)
        .seed(config.seed)
        .collect_config(&machine);
    let batch = records.len().max(1);
    let mut source = ReplaySource::new(records)
        .batch_size(batch)
        .rounds(config.warm_iters.max(3))
        .jitter(config.seed);
    let options = FitOptions::default().with_threads(config.threads);
    let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), options);
    let service = CpiService::start(ServiceConfig::new().with_workers(2));
    let client = service.client();
    client.register((&machine).into()).expect("register");
    let (mut full_ms, mut full_n) = (0.0f64, 0u64);
    let (mut incr_ms, mut incr_n) = (0.0f64, 0u64);
    let summary = stream::pump(
        &client,
        &key,
        &mut source,
        &stream::PumpOptions::default(),
        |batch, _| match batch.mode {
            Some(RefitMode::Full) => {
                full_ms += batch.millis;
                full_n += 1;
            }
            Some(RefitMode::Incremental) => {
                incr_ms += batch.millis;
                incr_n += 1;
            }
            _ => {}
        },
    )
    .expect("streaming pump");
    service.shutdown();
    StreamingNumbers {
        batches: summary.batches + usize::from(summary.reconciled),
        full_refits: full_n,
        incremental_refits: incr_n,
        full_ms: full_ms / full_n.max(1) as f64,
        incremental_ms: incr_ms / incr_n.max(1) as f64,
        saved_uops: config.uops - warmup,
    }
}

/// The sweep section's measured numbers.
struct SweepNumbers {
    variants: usize,
    cold_ms: f64,
    warm_ms: f64,
}

/// The sweep section: one design-space grid (ROB 96/192 × MSHRs 16/32 ×
/// dispatch 4/6 over the Core 2, a 12-benchmark CPU2000 slice) driven
/// twice through a fresh service. The cold pass simulates and fits every
/// variant; the warm re-sweep of the identical spec must come back with
/// `simulated 0 configs` and every variant served from cache — asserted
/// here, so the recorded warm wall is genuinely the zero-refit path.
fn sweep_bench(config: &BenchConfig) -> SweepNumbers {
    let grid = SweepGrid::new()
        .rob([96, 192])
        .mshrs([16, 32])
        .dispatch([4, 6]);
    let mut spec = SweepSpec::new(MachineId::Core2, grid, Suite::Cpu2000);
    spec.options = FitOptions::quick().with_threads(config.threads);
    spec.uops = config.uops;
    spec.seed = config.seed;
    spec.limit = Some(12);

    let service = CpiService::start(ServiceConfig::new());
    let client = service.client();

    let start = Instant::now();
    let cold = client.sweep(spec.clone()).expect("cold sweep");
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        cold.simulated_configs > 0,
        "cold sweep must simulate its grid"
    );

    let start = Instant::now();
    let warm = client.sweep(spec).expect("warm re-sweep");
    let warm_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        warm.simulated_configs, 0,
        "warm re-sweep must simulate nothing"
    );
    assert_eq!(warm.simulated_runs, 0, "warm re-sweep must run nothing");
    assert!(
        warm.results.iter().all(|r| r.cached),
        "warm re-sweep must serve every variant from cache"
    );
    assert_eq!(cold.results.len(), warm.results.len());
    service.shutdown();

    SweepNumbers {
        variants: cold.results.len(),
        cold_ms,
        warm_ms,
    }
}

/// Runs `trials` timed repetitions of `collect` and returns the median
/// wall-clock in ms plus the (byte-identical, asserted) record set.
///
/// Smoke-mode collect walls are sub-second and scheduler-sensitive: a
/// single bad draw used to trip — or mask — the `--check` cold-collect
/// gate even at its 3× slack. The median of three keeps one outlier from
/// deciding the gate; full-scale walls are long enough that one run
/// (`trials == 1`) stays representative.
fn median_collect(trials: usize, collect: impl Fn() -> Vec<RunRecord>) -> (f64, Vec<RunRecord>) {
    let mut walls = Vec::with_capacity(trials.max(1));
    let mut records: Option<Vec<RunRecord>> = None;
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        let got = collect();
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        match &records {
            Some(first) => assert_eq!(first, &got, "collect repetitions must be byte-identical"),
            None => records = Some(got),
        }
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    (walls[walls.len() / 2], records.expect("at least one trial"))
}

/// Runs the whole bench: cold collect, cold fit (parallel and sequential,
/// asserting byte-identical parameters), warm serve.
///
/// # Panics
///
/// Panics if any pipeline stage fails, or if the parallel and sequential
/// fits disagree — that would be a correctness bug, not a perf number.
pub fn run_bench(config: BenchConfig) -> BenchReport {
    let machines = MachineConfig::paper_machines();
    let source = || {
        SimSource::paper_suites()
            .uops(config.uops)
            .seed(config.seed)
    };

    // --- Cold collect: the simulator campaign on the work-stealing
    // --- pool, then a strictly-sequential reference over the same
    // --- source. The record streams must be byte-identical — the pool
    // --- pre-assigns output slots, so scheduling can't reorder them.
    // --- Smoke walls are the median of three (see `median_collect`). ----
    let collect_trials = if config.smoke { 3 } else { 1 };
    let (cold_collect_ms, records) = median_collect(collect_trials, || {
        Workbench::new()
            .machines(machines.iter())
            .source(source())
            .threads(config.threads)
            .collect()
            .expect("bench collect")
            .records()
            .cloned()
            .collect()
    });
    let benchmarks = records.len() / machines.len();

    let (cold_collect_seq_ms, seq_records) = median_collect(collect_trials, || {
        Workbench::new()
            .machines(machines.iter())
            .source(source())
            .parallel(false)
            .collect()
            .expect("bench sequential collect")
            .records()
            .cloned()
            .collect()
    });
    assert_eq!(
        records, seq_records,
        "work-stealing and sequential collect must be byte-identical"
    );
    drop(seq_records);

    let options = FitOptions::default().with_threads(config.threads);
    let keys: Vec<ModelKey> = machines
        .iter()
        .flat_map(|m| Suite::ALL.map(|suite| ModelKey::new(m.id, Some(suite), options.clone())))
        .collect();

    // --- Cold fit: parallel multi-start across the worker shards. ------
    // One thread budget for the whole stage: every fit's multi-start may
    // fan out over the full budget, and concurrent fits time-share it.
    // The fits are heavily skewed (one key can cost 2–3× the mean in
    // objective evaluations), so an even budget/fits split starves the
    // straggler at the tail — once the short fits drain, the long fit's
    // work-stealing start pool is what keeps the idle cores busy. What
    // capped BENCH_8 at 1.25× was not thread count but the *static
    // stride* inside each fit: starts were pre-dealt to threads, so the
    // unlucky thread serialised the tail no matter how many cores were
    // free.
    let budget = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.threads
    };
    let (cold_fit_ms, digest, fit_evals) = timed_fits(
        ServiceConfig::new()
            .with_workers(keys.len())
            .with_fit_threads(budget),
        &machines,
        &records,
        &keys,
    );

    // --- Cold fit, strictly sequential: 1 shard, 1 fit thread. ---------
    let (cold_fit_seq_ms, seq_digest, seq_fit_evals) = timed_fits(
        ServiceConfig::new().with_workers(1).with_fit_threads(1),
        &machines,
        &records,
        &keys,
    );
    assert_eq!(
        digest, seq_digest,
        "parallel and sequential fits must be byte-identical"
    );
    assert_eq!(
        fit_evals, seq_fit_evals,
        "objective-evaluation counts are schedule-independent"
    );

    // --- Warm serve: every repeat request is a cache hit. --------------
    let service = CpiService::start(ServiceConfig::new());
    let client = service.client();
    for machine in &machines {
        client.register(machine.into()).expect("register");
    }
    client.ingest(records.clone()).expect("ingest");
    for key in &keys {
        client.fit(key.clone()).expect("warm-up fit");
    }
    let start = Instant::now();
    let mut served = 0usize;
    for _ in 0..config.warm_iters {
        for key in &keys {
            let (report, stacks) = client.stacks(key.clone()).expect("warm stacks");
            assert!(report.cached, "warm serve must be a cache hit");
            assert!(!stacks.is_empty());
            served += 1;
        }
    }
    let warm_serve_ms = start.elapsed().as_secs_f64() * 1e3 / served.max(1) as f64;
    service.shutdown();

    // --- Cluster warm serve: router hop vs direct-to-owner, plus the
    // --- router half of the connection-scaling section. ----------------
    let (cluster_warm_direct_ms, cluster_warm_router_ms, router_events_p99_ms) =
        cluster_warm_bench(&config, &records);

    // --- Connection scaling: the readiness-loop front at 4× conns. -----
    let serve_events_p99_ms = connection_bench(&config, &records);
    let scaling_load = ScalingLoad::of(&config);

    // --- Streaming: incremental vs full refit on a jittered stream. ----
    let streaming = streaming_bench(&config);

    // --- Sweep: one grid request cold, then the identical spec warm. ---
    let sweep = sweep_bench(&config);

    let config_fingerprint = config.fingerprint(benchmarks, machines.len());
    BenchReport {
        mode: if config.smoke { "smoke" } else { "full" },
        benchmarks,
        machines: machines.len(),
        records: records.len(),
        config_fingerprint,
        cold_collect_ms,
        cold_collect_seq_ms,
        collect_speedup: cold_collect_seq_ms / cold_collect_ms.max(1e-9),
        cold_fit_ms,
        cold_fit_seq_ms,
        fit_speedup: cold_fit_seq_ms / cold_fit_ms.max(1e-9),
        fit_evals,
        warm_serve_ms,
        cluster_warm_direct_ms,
        cluster_warm_router_ms,
        router_hop_ms: cluster_warm_router_ms - cluster_warm_direct_ms,
        stream_batches: streaming.batches,
        stream_full_refits: streaming.full_refits,
        stream_incremental_refits: streaming.incremental_refits,
        stream_full_ms: streaming.full_ms,
        stream_incremental_ms: streaming.incremental_ms,
        stream_speedup: if streaming.incremental_refits > 0 {
            streaming.full_ms / streaming.incremental_ms.max(1e-9)
        } else {
            0.0
        },
        warmup_saved_uops: streaming.saved_uops,
        sweep_variants: sweep.variants,
        sweep_cold_ms: sweep.cold_ms,
        sweep_warm_ms: sweep.warm_ms,
        sweep_cold_rate: sweep.variants as f64 / (sweep.cold_ms / 1e3).max(1e-9),
        sweep_warm_rate: sweep.variants as f64 / (sweep.warm_ms / 1e3).max(1e-9),
        loadgen_rate: scaling_load.rate,
        serve_events_conns: config.conns * 4,
        serve_events_p99_ms,
        router_events_conns: config.conns * 4,
        router_events_p99_ms,
        params_digest: digest,
        config,
    }
}

/// Pulls `"key": <number>` out of a bench JSON snapshot.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls `"key": "<string>"` out of a bench JSON snapshot.
fn json_string<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

/// The regression gate behind `cpistack bench --check <baseline>`:
/// compares this run's cold-fit wall-clock against a committed baseline
/// and fails when it regressed beyond `tolerance` (0.25 = +25%). The
/// noisier surfaces get proportionally more slack: cold collect at 3×
/// the tolerance, readiness-engine p99 at 4×.
///
/// Runs with different `config_fingerprint`s are incomparable (different
/// scale, suite set or fit options) and pass with a note — the gate never
/// judges a smoke run against a full-scale snapshot.
///
/// # Errors
///
/// An explanatory message when the baseline is unreadable or a gated
/// wall-clock regressed past its limit.
pub fn check_against(
    current: &BenchReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<String, String> {
    let base_fp = json_string(baseline_json, "config_fingerprint")
        .ok_or("baseline JSON has no config_fingerprint")?;
    let current_fp = format!("{:016x}", current.config_fingerprint);
    if base_fp != current_fp {
        return Ok(format!(
            "baseline incomparable (config {base_fp} vs {current_fp}); skipping regression gate"
        ));
    }
    let base_fit =
        json_number(baseline_json, "cold_fit_ms").ok_or("baseline JSON has no cold_fit_ms")?;
    let limit = base_fit * (1.0 + tolerance);
    if current.cold_fit_ms > limit {
        return Err(format!(
            "cold fit regressed: {:.1} ms vs baseline {:.1} ms (limit {:.1} ms, +{:.0}%)",
            current.cold_fit_ms,
            base_fit,
            limit,
            tolerance * 100.0
        ));
    }
    // Schema-5 baselines also gate the cold-collect wall-clock: the
    // collect pool is now a tracked perf surface, and a regression there
    // is exactly the wall PR 9 tore down. The smoke collect wall is
    // short (~0.6 s) and scheduler-sensitive, so like the p99 gate below
    // it gets extra slack — 3× the cold-fit tolerance (+75% at the
    // default 0.25) — and since schema 6 both sides of the comparison are
    // the *median of three* runs in smoke mode rather than single draws
    // (one unlucky scheduling draw used to trip, or mask, the gate even
    // at that slack); the byte-identity assertion and the collect_scaling
    // bench guard are the tight structural checks. Older baselines pass
    // the collect gate vacuously (the comparison above already requires
    // matching fingerprints, so in practice schema < 5 never reaches
    // here — the fingerprint folds the fit options).
    let mut collect_note = String::new();
    if let Some(base_collect) = json_number(baseline_json, "cold_collect_ms") {
        let collect_limit = base_collect * (1.0 + 3.0 * tolerance);
        if current.cold_collect_ms > collect_limit {
            return Err(format!(
                "cold collect regressed: {:.1} ms vs baseline {:.1} ms (limit {:.1} ms, +{:.0}%)",
                current.cold_collect_ms,
                base_collect,
                collect_limit,
                3.0 * tolerance * 100.0
            ));
        }
        collect_note = format!(
            "; cold collect {:.1} ms within {:.1} ms budget",
            current.cold_collect_ms, collect_limit
        );
    }
    // Schema-4 baselines also gate the readiness engine's p99 under the
    // connection-scaling load. Latency tails are far noisier than a
    // six-fit wall-clock, so the slack is 4× the cold-fit tolerance
    // (+100% at the default 0.25) — the gate catches an engine that
    // collapsed, not one that wobbled. Schema-3 baselines lack the field
    // and skip this check.
    let mut p99_note = String::new();
    if let Some(base_p99) = json_number(baseline_json, "serve_events_p99_ms") {
        let p99_limit = base_p99 * (1.0 + 4.0 * tolerance);
        if current.serve_events_p99_ms > p99_limit {
            return Err(format!(
                "readiness-engine p99 regressed: {:.3} ms vs baseline {:.3} ms (limit {:.3} ms)",
                current.serve_events_p99_ms, base_p99, p99_limit
            ));
        }
        p99_note = format!(
            "; events p99 {:.3} ms within {:.3} ms budget",
            current.serve_events_p99_ms, p99_limit
        );
    }
    // Schema-6 baselines also gate the cold sweep wall-clock — the
    // design-space grid is simulation-dominated like the collect wall,
    // so it shares the 3× slack. The warm re-sweep is asserted
    // structurally inside the bench (zero simulations, all cache hits)
    // rather than gated on wall-clock: a few milliseconds of pure cache
    // serving is all noise in relative terms.
    let mut sweep_note = String::new();
    if let Some(base_sweep) = json_number(baseline_json, "sweep_cold_ms") {
        let sweep_limit = base_sweep * (1.0 + 3.0 * tolerance);
        if current.sweep_cold_ms > sweep_limit {
            return Err(format!(
                "cold sweep regressed: {:.1} ms vs baseline {:.1} ms (limit {:.1} ms, +{:.0}%)",
                current.sweep_cold_ms,
                base_sweep,
                sweep_limit,
                3.0 * tolerance * 100.0
            ));
        }
        sweep_note = format!(
            "; cold sweep {:.1} ms within {:.1} ms budget",
            current.sweep_cold_ms, sweep_limit
        );
    }
    Ok(format!(
        "cold fit {:.1} ms within {:.1} ms budget (baseline {:.1} ms +{:.0}%){collect_note}{p99_note}{sweep_note}",
        current.cold_fit_ms,
        limit,
        base_fit,
        tolerance * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            smoke: true,
            uops: 1_000,
            seed: 7,
            threads: 0,
            warm_iters: 1,
            // Keeps the scaling sections cheap in unit tests: events and
            // router at 8 connections.
            conns: 2,
        }
    }

    #[test]
    fn tiny_bench_round_trips_and_gates() {
        // One reduced-budget end-to-end run exercises every stage,
        // including the parallel-vs-sequential byte-identity assertion.
        let mut config = tiny();
        config.warm_iters = 1;
        let report = run_bench(config);
        assert_eq!(report.machines, 3);
        assert_eq!(report.benchmarks, 103);
        assert!(report.cold_collect_ms > 0.0);
        assert!(report.cold_fit_ms > 0.0);
        assert!(report.cluster_warm_direct_ms > 0.0);
        assert!(report.cluster_warm_router_ms > 0.0);
        // Streaming: the first round anchors full, later jittered rounds
        // polish incrementally, and the polish must be the cheaper path.
        assert!(report.stream_full_refits >= 1);
        assert!(report.stream_incremental_refits >= 1);
        assert!(
            report.stream_speedup > 1.0,
            "incremental refits should beat the full fan-out ({:.2}×)",
            report.stream_speedup
        );
        assert_eq!(report.warmup_saved_uops, 750, "1000 µops - 250 warm-up");
        // Connection scaling: the readiness engine and the router carried
        // 4× the `conns` baseline with zero errors/drops (asserted inside
        // the sections) and real latency numbers.
        assert_eq!(report.serve_events_conns, 8);
        assert_eq!(report.router_events_conns, 8);
        assert!(report.serve_events_p99_ms > 0.0);
        assert!(report.router_events_p99_ms > 0.0);
        // The collect reference leg ran and the speedup is a real ratio
        // (the byte-identity of the two record sets is asserted inside
        // `run_bench` itself).
        assert!(report.cold_collect_seq_ms > 0.0);
        assert!(report.collect_speedup > 0.0);
        assert!(report.fit_evals > 0, "six cold fits spent zero evals?");
        // Sweep: the cold pass simulated the grid, the warm re-sweep
        // served it all from cache (asserted inside the section), and
        // the recorded rates are real ratios.
        assert_eq!(
            report.sweep_variants, 8,
            "2×2×2 grid, stock point collapsed"
        );
        assert!(report.sweep_cold_ms > 0.0);
        assert!(report.sweep_warm_ms > 0.0);
        assert!(report.sweep_cold_rate > 0.0);
        assert!(report.sweep_warm_rate > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": 7"));
        assert!(
            !json.contains("serve_threads"),
            "schema 7 dropped the thread engine"
        );
        assert!(json.contains("\"cold_collect_seq_ms\""));
        assert!(json.contains("\"collect_speedup\""));
        assert!(json.contains(&format!("\"fit_evals\": {}", report.fit_evals)));
        assert!(json.contains("\"cluster_warm_router_ms\""));
        assert!(json.contains("\"stream_speedup\""));
        assert!(json.contains("\"warmup_saved_uops\": 750"));
        assert!(json.contains("\"serve_events_conns\": 8"));
        assert!(json.contains("\"serve_events_p99_ms\""));
        assert!(json.contains("\"sweep_variants\": 8"));
        assert!(json.contains("\"sweep_cold_ms\""));
        assert!(json.contains("\"sweep_warm_rate\""));
        let parsed = json_number(&json, "cold_collect_ms").expect("field present");
        assert!((parsed - report.cold_collect_ms).abs() < 0.01);

        // Same fingerprint: the gate passes against itself…
        let ok = check_against(&report, &json, 0.25).expect("self-comparison passes");
        assert!(ok.contains("within"), "{ok}");
        // …and fails against an impossibly fast doctored baseline.
        let doctored = json.replace(
            &format!("\"cold_fit_ms\": {:.3}", report.cold_fit_ms),
            "\"cold_fit_ms\": 0.001",
        );
        let err = check_against(&report, &doctored, 0.25).expect_err("regression detected");
        assert!(err.contains("regressed"), "{err}");
        // …and the cold-collect gate trips on its own doctored baseline.
        let doctored = json.replace(
            &format!("\"cold_collect_ms\": {:.3}", report.cold_collect_ms),
            "\"cold_collect_ms\": 0.001",
        );
        let err = check_against(&report, &doctored, 0.25).expect_err("collect regression detected");
        assert!(err.contains("cold collect regressed"), "{err}");
        // …and the p99 gate trips against an impossibly tight baseline.
        let doctored = json.replace(
            &format!("\"serve_events_p99_ms\": {:.3}", report.serve_events_p99_ms),
            "\"serve_events_p99_ms\": 0.00001",
        );
        let err = check_against(&report, &doctored, 0.25).expect_err("p99 regression detected");
        assert!(err.contains("p99 regressed"), "{err}");
        // …and the sweep gate trips against an impossibly fast baseline.
        let doctored = json.replace(
            &format!("\"sweep_cold_ms\": {:.3}", report.sweep_cold_ms),
            "\"sweep_cold_ms\": 0.001",
        );
        let err = check_against(&report, &doctored, 0.25).expect_err("sweep regression detected");
        assert!(err.contains("cold sweep regressed"), "{err}");

        // Different fingerprint: incomparable, never a failure.
        let other = json.replace(
            &format!("{:016x}", report.config_fingerprint),
            "deadbeefdeadbeef",
        );
        let skipped = check_against(&report, &other, 0.25).expect("incomparable passes");
        assert!(skipped.contains("incomparable"), "{skipped}");
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        let report = BenchReport {
            mode: "smoke",
            config: tiny(),
            benchmarks: 103,
            machines: 3,
            records: 309,
            config_fingerprint: 1,
            cold_collect_ms: 1.0,
            cold_collect_seq_ms: 1.0,
            collect_speedup: 1.0,
            cold_fit_ms: 1.0,
            cold_fit_seq_ms: 1.0,
            fit_speedup: 1.0,
            fit_evals: 100,
            warm_serve_ms: 0.1,
            cluster_warm_direct_ms: 0.1,
            cluster_warm_router_ms: 0.2,
            router_hop_ms: 0.1,
            stream_batches: 4,
            stream_full_refits: 2,
            stream_incremental_refits: 2,
            stream_full_ms: 10.0,
            stream_incremental_ms: 1.0,
            stream_speedup: 10.0,
            warmup_saved_uops: 750,
            sweep_variants: 8,
            sweep_cold_ms: 100.0,
            sweep_warm_ms: 1.0,
            sweep_cold_rate: 80.0,
            sweep_warm_rate: 8000.0,
            loadgen_rate: 20.0,
            serve_events_conns: 8,
            serve_events_p99_ms: 1.0,
            router_events_conns: 8,
            router_events_p99_ms: 1.0,
            params_digest: 2,
        };
        assert!(check_against(&report, "not json", 0.25).is_err());
        assert!(check_against(
            &report,
            "{\"config_fingerprint\": \"0000000000000001\"}",
            0.25
        )
        .is_err());
    }
}
