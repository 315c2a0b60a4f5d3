//! perfbench — the repository's benchmark harness.
//!
//! ```text
//! perfbench --workload <mixed|text> --seed <n> --seconds <s> --trace <0|1> [--uops <n>]
//! ```
//!
//! Every workload runs the whole system the same way: the serving stack's
//! set-up, a cold paper campaign with held-back accuracy, a design-space
//! sweep, open-loop serving and streaming refits. Workloads differ only in
//! the requests the serving phases send, the mixes `cpistack loadgen`
//! defines. With `--trace 0` the last stdout line is the end-to-end result;
//! with `--trace 1` spans are recorded, the layer probes run, and the last
//! line carries the per-layer metrics instead. See `README.md` beside this
//! crate.

mod gen;
mod layers;
mod phases;
mod report;
mod setup;
mod trace;

use report::{median, quantile, Ledger, Metrics};
use setup::{Inputs, ServingStack};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Campaign µops per benchmark unless `--uops` says otherwise.
const CAMPAIGN_UOPS: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// `cpistack loadgen --mix mixed`: `stack` and `binstack` in turn.
    Mixed,
    /// `cpistack loadgen --mix text`: `stack` only.
    Text,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "mixed" => Self::Mixed,
            "text" => Self::Text,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::Mixed => "mixed",
            Self::Text => "text",
        }
    }

    /// The verbs each serving connection sends in turn.
    fn verbs(self) -> &'static [&'static str] {
        match self {
            Self::Mixed => &["stack", "binstack"],
            Self::Text => &["stack"],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    uops: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let number = |flag: &str, default: Option<u64>| -> Result<u64, String> {
        match value(flag)? {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: not a whole number: {v}")),
            None => default.ok_or_else(|| format!("missing {flag}")),
        }
    };
    let name = value("--workload")?.ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match number("--trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", None)?,
        seconds: number("--seconds", None)?.max(1) as f64,
        trace,
        uops: number("--uops", Some(CAMPAIGN_UOPS))?.max(1_000),
    })
}

/// Seconds of measuring per round (about 10 on the benchmark box);
/// `--seconds` sets the number of rounds. Every round runs every phase
/// once, so each metric's samples spread over the whole run rather than
/// one stretch of it.
const ROUND_S: f64 = 10.0;
/// Serving-stack bring-ups per round, timed in `SETUP_SPOTS` batches at
/// different points of the round (before each phase) so the median sees
/// the box in more than one state.
const SETUPS_PER_ROUND: usize = 8;
const SETUP_SPOTS: usize = 4;
/// Direct windows per round, each followed by a router window.
const WINDOW_PAIRS_PER_ROUND: usize = 12;
/// Cold sweeps per round, each followed by `WARM_PASSES` re-sweeps.
const SWEEPS_PER_ROUND: usize = 2;
const WARM_PASSES: usize = 20;
/// Batches of one stream segment: three full refits and seven incremental.
const STREAM_BATCHES: usize = 10;

fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_S).round() as usize).max(2)
}

/// The p99 limit of the `serve_max_rps` ladder, read from the workload's
/// `why` in `BENCHMARK.json` ("… p99 limit <n> ms …").
fn ladder_limit_ms(benchmark_json: &Path, workload: Workload) -> Result<f64, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let at = text
        .find(&format!("\"name\": \"{}\"", workload.name()))
        .ok_or_else(|| format!("BENCHMARK.json has no {} workload", workload.name()))?;
    let rest = &text[at..];
    let rest = &rest[..rest.find('}').unwrap_or(rest.len())];
    let why = rest
        .find("p99 limit ")
        .ok_or("the workload states no `p99 limit <n> ms`")?;
    let tail = &rest[why + "p99 limit ".len()..];
    let end = tail.find(" ms").ok_or("p99 limit has no `ms` unit")?;
    tail[..end]
        .trim()
        .parse()
        .map_err(|_| format!("bad p99 limit `{}`", &tail[..end]))
}

/// Times one batch of bring-ups of the serving stack (batch `spot` of
/// `round`) and keeps the last.
fn set_up(
    inputs: &Inputs,
    round: usize,
    spot: usize,
    walls: &mut Vec<f64>,
    ledger: &mut Ledger,
    tracer: &Tracer,
) -> Result<ServingStack, String> {
    let batch = SETUPS_PER_ROUND / SETUP_SPOTS;
    let mut kept = None;
    for i in 0..batch {
        let root = inputs
            .prepare_state(
                round * SETUPS_PER_ROUND + spot * batch + i,
                setup::CLUSTER_NODES,
            )
            .map_err(|e| format!("state dirs: {e}"))?;
        let span = tracer.begin("setup", None);
        let start = Instant::now();
        let (stack, fits) = setup::bring_up(inputs, &root)?;
        walls.push(start.elapsed().as_secs_f64());
        tracer.end(span);
        ledger.check(fits == 0, || {
            format!("set-up ran {fits} fresh fits instead of warm-loading")
        });
        if let Some(old) = kept.replace(stack) {
            ServingStack::shutdown(old);
        }
    }
    Ok(kept.expect("at least one set-up"))
}

#[derive(Default)]
struct Pipeline {
    setup_walls: Vec<f64>,
    /// Peak resident set of each round; the run's figure is the highest.
    rss_mb: Vec<f64>,
    campaigns: Vec<phases::Campaign>,
    accuracy: Option<phases::Accuracy>,
    sweeps: Vec<Vec<phases::Sweep>>,
    serves: Vec<phases::Serve>,
    /// Ladder climbs, one per round of a traced run.
    climbs: Vec<f64>,
    streams: Vec<phases::Stream>,
}

/// Runs the rounds, then the held-back accuracy check. When tracing, each
/// round also climbs the `serve_max_rps` ladder, and the serving-stack layer
/// probes run in the first round while the stack is up.
fn run_pipeline(
    args: &Args,
    inputs: &Inputs,
    limit_ms: f64,
    ledger: &mut Ledger,
    tracer: &Tracer,
    layer_metrics: &mut Metrics,
) -> Result<Pipeline, String> {
    let mut p = Pipeline::default();
    let verbs = args.workload.verbs();
    for round in 0..rounds(args.seconds) {
        let seed = args.seed ^ ((round as u64) << 32);
        report::trim_heap();
        report::reset_peak_rss();
        let t = Instant::now();
        let stack = set_up(inputs, round, 0, &mut p.setup_walls, ledger, tracer)?;
        let span = tracer.begin("phase.serve", None);
        p.serves.push(phases::serve(
            &stack,
            verbs,
            WINDOW_PAIRS_PER_ROUND,
            seed,
            ledger,
            tracer,
            &span,
        ));
        if tracer.enabled() {
            p.climbs.push(phases::climb(
                &stack, verbs, limit_ms, seed, ledger, tracer, &span,
            ));
        }
        tracer.end(span);
        if tracer.enabled() && round == 0 {
            tracer.time("probe.serving", None, |_| {
                layers::serving(layer_metrics, &stack, ledger);
                layers::storage(layer_metrics, &stack, inputs, ledger);
            });
        }
        stack.shutdown();
        let t_serve = t.elapsed().as_secs_f64();

        let t = Instant::now();
        set_up(inputs, round, 1, &mut p.setup_walls, ledger, tracer)?.shutdown();
        let span = tracer.begin("phase.campaign", None);
        p.campaigns
            .push(phases::campaign(args.uops, ledger, tracer, &span));
        tracer.end(span);
        let t_campaign = t.elapsed().as_secs_f64();

        let t = Instant::now();
        set_up(inputs, round, 2, &mut p.setup_walls, ledger, tracer)?.shutdown();
        let span = tracer.begin("phase.sweep", None);
        p.sweeps.push(
            (0..SWEEPS_PER_ROUND)
                .map(|_| phases::sweep(WARM_PASSES, ledger, tracer, &span))
                .collect(),
        );
        tracer.end(span);
        let t_sweep = t.elapsed().as_secs_f64();

        let t = Instant::now();
        set_up(inputs, round, 3, &mut p.setup_walls, ledger, tracer)?.shutdown();
        let span = tracer.begin("phase.stream", None);
        p.streams.push(phases::stream(
            inputs,
            STREAM_BATCHES,
            round,
            ledger,
            tracer,
            &span,
        ));
        tracer.end(span);
        p.rss_mb.push(report::peak_rss_mb());
        eprintln!(
            "perfbench: round {round}: set-up + serve {t_serve:.1} s, campaign {t_campaign:.1} s, sweep {t_sweep:.1} s, stream {:.1} s",
            t.elapsed().as_secs_f64()
        );
    }
    if tracer.enabled() {
        ledger.check(p.climbs.iter().any(|&r| r > 0.0), || {
            "no ladder climb held its first step".into()
        });
    }
    let t = Instant::now();
    p.accuracy = Some(phases::accuracy(
        &p.campaigns[0],
        args.uops,
        args.seed,
        ledger,
    ));
    eprintln!("perfbench: accuracy {:.1} s", t.elapsed().as_secs_f64());
    Ok(p)
}

/// The run's figure from a metric's samples.
type Statistic = fn(&[f64]) -> f64;

fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Every sample behind an end-to-end metric: name, unit, the statistic
/// that makes the run's figure, samples.
///
/// Every figure is a median but `peak_rss_mb`, the highest round's.
fn samples(p: &Pipeline) -> Vec<(&'static str, &'static str, Statistic, Vec<f64>)> {
    let sweeps = || p.sweeps.iter().flatten();
    let refits: Vec<f64> = p
        .streams
        .iter()
        .flat_map(|s| s.refit_ms.iter().copied())
        .collect();
    let reads: Vec<f64> = p
        .streams
        .iter()
        .filter_map(|s| s.read.as_ref())
        .flat_map(|o| o.latency_ms.iter().copied())
        .collect();
    vec![
        ("setup_s", "s", median, p.setup_walls.clone()),
        ("peak_rss_mb", "MiB", highest, p.rss_mb.clone()),
        (
            "sim_uops_per_s",
            "1/s",
            median,
            p.campaigns
                .iter()
                .map(|c| c.uops_simulated / c.collect_s.max(1e-9))
                .collect(),
        ),
        (
            "fit_s",
            "s",
            median,
            p.campaigns.iter().map(|c| c.fit_s).collect(),
        ),
        (
            "sweep_cold_s",
            "s",
            median,
            sweeps().map(|s| s.cold_s).collect(),
        ),
        (
            "sweep_warm_ms",
            "ms",
            median,
            sweeps().flat_map(|s| s.warm_ms.iter().copied()).collect(),
        ),
        (
            "serve_cpu_us",
            "us",
            median,
            p.serves
                .iter()
                .flat_map(|s| s.direct_bursts.iter().map(|b| b.cpu_us))
                .collect(),
        ),
        (
            "router_cpu_us",
            "us",
            median,
            p.serves
                .iter()
                .flat_map(|s| s.router_bursts.iter().map(|b| b.cpu_us))
                .collect(),
        ),
        ("refit_p50_ms", "ms", median, vec![quantile(&refits, 0.5)]),
        ("refit_p90_ms", "ms", median, vec![quantile(&refits, 0.9)]),
        (
            "stream_read_p99_ms",
            "ms",
            median,
            vec![quantile(&reads, 0.99)],
        ),
    ]
}

/// The end-to-end figures. The refit and stream-read figures are quantiles
/// of every refit and read of the run, pooled over its stream segments.
/// The samples themselves go to stderr, for studying the spread between
/// runs.
fn end_to_end(p: &Pipeline, ledger: &Ledger) -> Metrics {
    let mut m = Metrics::default();
    let accuracy = p.accuracy.as_ref().expect("accuracy ran");
    m.set("failed_ratio", ledger.failed_ratio(), "ratio");
    m.set("cpi_err_pct", accuracy.cpi_err_pct, "%");
    m.set("stack_err_cpi", accuracy.stack_err_cpi, "cpi");
    let mut dump = Vec::new();
    for (name, unit, statistic, values) in samples(p) {
        m.set(name, statistic(&values), unit);
        let list: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        dump.push(format!("\"{name}\": [{}]", list.join(", ")));
    }
    eprintln!("perfbench: samples {{{}}}", dump.join(", "));
    m
}

/// The direct windows' median p50, once untraced and once traced, for the
/// tracing-overhead comparison: the serving path is where spans are
/// recorded per request.
fn headline(args: &Args, inputs: &Inputs, tracer: &Tracer) -> Result<f64, String> {
    let mut ledger = Ledger::default();
    let span = tracer.begin("overhead", None);
    let root = inputs
        .prepare_state(10_000 + usize::from(tracer.enabled()), setup::CLUSTER_NODES)
        .map_err(|e| e.to_string())?;
    let (stack, _) = setup::bring_up(inputs, &root)?;
    let s = phases::serve(
        &stack,
        args.workload.verbs(),
        WINDOW_PAIRS_PER_ROUND,
        args.seed,
        &mut ledger,
        tracer,
        &span,
    );
    stack.shutdown();
    tracer.end(span);
    if ledger.correct() {
        let p50s: Vec<f64> = s
            .direct
            .iter()
            .map(|o| quantile(&o.latency_ms, 0.5))
            .collect();
        Ok(median(&p50s))
    } else {
        Err("overhead pass failed a check".into())
    }
}

fn run(args: &Args) -> Result<(Ledger, Metrics), String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let limit_ms = ladder_limit_ms(&cwd.join("BENCHMARK.json"), args.workload)?;
    let work =
        cwd.join(".bench_work")
            .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let inputs = Inputs::generate(args.seed, work.clone()).map_err(|e| format!("inputs: {e}"))?;
    let tracer = Tracer::new(args.trace);
    let mut ledger = Ledger::default();
    let mut layer = Metrics::default();

    let pipeline = run_pipeline(args, &inputs, limit_ms, &mut ledger, &tracer, &mut layer);
    let pipeline = match pipeline {
        Ok(p) => p,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&work);
            return Err(e);
        }
    };
    let metrics = if args.trace {
        let c = &pipeline.campaigns[0];
        let sweep = &pipeline.sweeps[0][0];
        tracer.time("probe.simulation", None, |_| {
            layers::simulation(&mut layer, c, args.uops, sweep)
        });
        tracer.time("probe.fit", None, |_| {
            layers::fits(&mut layer, c, &inputs, &mut ledger)
        });
        layers::sweep(&mut layer, &pipeline.sweeps);
        layers::stream(&mut layer, &pipeline.streams);
        let windows: Vec<&gen::Outcome> = pipeline
            .serves
            .iter()
            .flat_map(|s| s.direct.iter().chain(&s.router))
            .collect();
        // Serving latency and capacity, which on the shared box measure the
        // host as much as the program: p50 and p99 over every request of
        // the run's fixed-rate windows, the median burst and the best
        // ladder climb.
        let pooled = |pick: fn(&phases::Serve) -> &Vec<gen::Outcome>| -> Vec<f64> {
            pipeline
                .serves
                .iter()
                .flat_map(pick)
                .flat_map(|o| o.latency_ms.iter().copied())
                .collect()
        };
        layer.set("serve_p50_ms", quantile(&pooled(|s| &s.direct), 0.5), "ms");
        layer.set("serve_p99_ms", quantile(&pooled(|s| &s.direct), 0.99), "ms");
        layer.set(
            "router_p99_ms",
            quantile(&pooled(|s| &s.router), 0.99),
            "ms",
        );
        let bursts: Vec<f64> = pipeline
            .serves
            .iter()
            .flat_map(|s| s.direct_bursts.iter().map(|b| b.rps))
            .collect();
        layer.set("serve_sat_rps", median(&bursts), "1/s");
        layer.set("serve_max_rps", highest(&pipeline.climbs), "1/s");
        let late: Vec<f64> = windows
            .iter()
            .copied()
            .chain(pipeline.streams.iter().filter_map(|s| s.read.as_ref()))
            .flat_map(|o| o.late_ms.iter().copied())
            .collect();
        layer.set("gen.late_p99_ms", quantile(&late, 0.99), "ms");
        // The stream reader's requests queue behind refits by design, and
        // bursts are overload by design, so only the fixed-rate windows say
        // whether the server kept up.
        layer.set(
            "gen.backlog",
            windows.iter().map(|o| o.backlog).max().unwrap_or(0) as f64,
            "count",
        );
        // Tracing overhead: the same serving windows once untraced, once
        // traced.
        let off = headline(args, &inputs, &Tracer::new(false));
        let on = headline(args, &inputs, &tracer);
        match (off, on) {
            (Ok(off), Ok(on)) => layer.set(
                "trace.overhead_pct",
                100.0 * (on - off) / off.max(1e-12),
                "%",
            ),
            (Err(e), _) | (_, Err(e)) => ledger.fail(format!("overhead: {e}")),
        }
        let out = cwd.join(".bench_out").join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&out) {
            ledger.ops(1);
            ledger.fail(format!("writing {}: {e}", out.display()));
        }
        layer
    } else {
        end_to_end(&pipeline, &ledger)
    };
    let _ = std::fs::remove_dir_all(&work);
    Ok((ledger, metrics))
}

fn work_root_cleanup(cwd: &Path) {
    let root: PathBuf = cwd.join(".bench_work");
    if std::fs::read_dir(&root)
        .map(|mut d| d.next().is_none())
        .unwrap_or(false)
    {
        let _ = std::fs::remove_dir(&root);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <mixed|text> --seed <n> --seconds <s> --trace <0|1> [--uops <n>]");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((ledger, metrics)) => {
            if let Ok(cwd) = std::env::current_dir() {
                work_root_cleanup(&cwd);
            }
            for (name, value, unit) in metrics.iter() {
                println!("{:<32} {value:>16.6} {unit}", name);
            }
            println!("{}", report::result_json(&ledger, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
