//! The unified pipeline API: one way to run the paper's Fig. 1 workflow.
//!
//! Every consumer of this reproduction — the CLI, the examples, the
//! experiment campaign, the integration tests — needs the same four-stage
//! pipeline: **collect** performance counters, **fit** the Eq. 1–6 model,
//! read off **CPI (delta) stacks**, and **export** the results. This
//! module packages that pipeline as a builder, [`Workbench`], over a
//! pluggable [`CounterSource`]:
//!
//! * [`SimSource`] — the built-in out-of-order simulator (the seeded
//!   "measurement campaign" the paper ran on real Intel machines),
//! * [`CsvSource`] — counter CSVs from real hardware (perfex/perfmon
//!   logs exported through `pmu::csv`),
//! * [`RecordsSource`] — in-memory records, for tests and embedding.
//!
//! Multi-machine collection runs on a single work-stealing pool under one
//! thread budget ([`Workbench::threads`], `0` = auto): the simulator
//! flattens the whole campaign into (machine × benchmark) work items whose
//! output slots are pre-assigned in sequential order, so any schedule —
//! and any thread count — produces **byte-identical** records to the
//! sequential path. Failures at any stage surface as one typed
//! [`PipelineError`] that says *which stage* (source → fit → export) and
//! *which machine* went wrong.
//!
//! # Examples
//!
//! The end-to-end flow on two simulated machines:
//!
//! ```
//! use memodel::workbench::{SimSource, Workbench};
//! use memodel::FitOptions;
//! use oosim::machine::MachineConfig;
//! use pmu::{MachineId, Suite};
//!
//! let suite: Vec<_> = specgen::suites::cpu2000().into_iter().take(12).collect();
//! let fitted = Workbench::new()
//!     .machine(MachineConfig::pentium4())
//!     .machine(MachineConfig::core2())
//!     .source(SimSource::new().suite(suite).uops(20_000).seed(42))
//!     .fit_options(FitOptions::quick())
//!     .collect()
//!     .expect("simulation cannot fail")
//!     .fit()
//!     .expect("12 records are enough for 10 parameters");
//! let delta = fitted
//!     .delta(MachineId::Pentium4, MachineId::Core2, Suite::Cpu2000)
//!     .expect("both machines were collected");
//! println!("Core 2 vs Pentium 4: {delta}");
//! for group in fitted.groups() {
//!     for (benchmark, stack) in group.stacks() {
//!         println!("{benchmark}: {stack}");
//!     }
//! }
//! ```

use crate::delta::{suite_delta, DeltaStacks};
use crate::export;
use crate::fit::{FitError, FitOptions, InferredModel};
use crate::params::MicroarchParams;
use crate::stack::CpiStack;
use oosim::machine::MachineConfig;
use pmu::csv::ParseCsvError;
use pmu::{MachineId, RunRecord, Suite};
use specgen::WorkloadProfile;
use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Error from a [`CounterSource`] — the pipeline's first stage.
#[derive(Debug)]
#[non_exhaustive]
pub enum SourceError {
    /// Reading the backing file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// Parsing counter data failed.
    Parse {
        /// Where the data came from (a path, or `"<memory>"`).
        origin: String,
        /// The underlying error.
        error: ParseCsvError,
    },
    /// The source has no records for a requested machine.
    NoRecords {
        /// The machine nothing was found for.
        machine: MachineId,
        /// The source's self-description.
        source: String,
    },
    /// The source needs a full [`MachineConfig`], but the pipeline only
    /// has microarchitectural constants for this machine.
    NeedsMachineConfig {
        /// The machine missing a config.
        machine: MachineId,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Io { path, error } => {
                write!(f, "reading `{}` failed: {error}", path.display())
            }
            SourceError::Parse { origin, error } => {
                write!(f, "parsing counters from {origin} failed: {error}")
            }
            SourceError::NoRecords { machine, source } => {
                write!(
                    f,
                    "{source} has no records for machine `{}`",
                    machine.name()
                )
            }
            SourceError::NeedsMachineConfig { machine } => write!(
                f,
                "the simulator source needs a full MachineConfig for `{}`, \
                 not just microarchitectural constants",
                machine.name()
            ),
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceError::Io { error, .. } => Some(error),
            SourceError::Parse { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// One typed error for the whole pipeline, tagged by stage: configuration,
/// source (collect), fit, or export. This is the only error type
/// `Workbench` users handle, end to end.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// The pipeline was assembled inconsistently (no source, no machines,
    /// a delta between uncollected machines, …).
    Config(String),
    /// The collect stage failed.
    Source(SourceError),
    /// The fit stage failed for one (machine, suite) group.
    Fit {
        /// The machine whose model could not be inferred.
        machine: MachineId,
        /// The suite group (`None` when suites were pooled).
        suite: Option<Suite>,
        /// The underlying fit error.
        error: FitError,
    },
    /// The export stage failed to write a file.
    Export {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Config(msg) => write!(f, "pipeline configuration: {msg}"),
            PipelineError::Source(e) => write!(f, "collect stage: {e}"),
            PipelineError::Fit {
                machine,
                suite,
                error,
            } => match suite {
                Some(suite) => write!(f, "fit stage ({} / {suite}): {error}", machine.name()),
                None => write!(f, "fit stage ({}): {error}", machine.name()),
            },
            PipelineError::Export { path, error } => {
                write!(f, "export stage (`{}`): {error}", path.display())
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Source(e) => Some(e),
            PipelineError::Fit { error, .. } => Some(error),
            PipelineError::Export { error, .. } => Some(error),
            PipelineError::Config(_) => None,
        }
    }
}

impl From<SourceError> for PipelineError {
    fn from(e: SourceError) -> Self {
        PipelineError::Source(e)
    }
}

// ---------------------------------------------------------------------------
// Machines
// ---------------------------------------------------------------------------

/// One machine the pipeline models: its identity, the five
/// microarchitectural constants the model needs, and — when the machine is
/// simulated rather than real — the full simulator configuration.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    id: MachineId,
    arch: MicroarchParams,
    config: Option<MachineConfig>,
}

impl MachineSpec {
    /// A real machine: known constants, no simulator config. This is the
    /// hardware path — counters must come from a [`CsvSource`] or
    /// [`RecordsSource`].
    pub fn real(id: MachineId, arch: MicroarchParams) -> Self {
        Self {
            id,
            arch,
            config: None,
        }
    }

    /// Attaches a simulator config while keeping the constants set so
    /// far — a simulated machine fitted with *calibrated* (rather than
    /// spec-sheet) latencies, as in the `calibrate_latencies` example.
    pub fn with_config(mut self, config: MachineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// The machine's identity.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// The microarchitectural constants (Table 2) used for fitting.
    pub fn arch(&self) -> &MicroarchParams {
        &self.arch
    }

    /// The simulator configuration, if this machine is simulated.
    pub fn config(&self) -> Option<&MachineConfig> {
        self.config.as_ref()
    }
}

impl From<MachineConfig> for MachineSpec {
    fn from(config: MachineConfig) -> Self {
        Self {
            id: config.id,
            arch: MicroarchParams::from_machine(&config),
            config: Some(config),
        }
    }
}

impl From<&MachineConfig> for MachineSpec {
    fn from(config: &MachineConfig) -> Self {
        Self::from(config.clone())
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Where counter records come from — the pluggable first stage of the
/// pipeline.
///
/// Implementations must be [`Sync`]: the workbench collects machines on
/// parallel threads, each calling [`CounterSource::collect`] through a
/// shared reference. `collect` must be deterministic per machine so the
/// parallel and sequential paths agree byte for byte.
pub trait CounterSource: Sync {
    /// One-line self-description for error messages and banners.
    fn describe(&self) -> String;

    /// The machines this source can enumerate on its own (`None` when the
    /// pipeline must name machines explicitly, as with the simulator).
    fn machine_ids(&self) -> Option<Vec<MachineId>>;

    /// Collects every record for one machine. `threads` is the budget for
    /// internal fan-out (1 = strictly sequential).
    fn collect(&self, machine: &MachineSpec, threads: usize)
        -> Result<Vec<RunRecord>, SourceError>;

    /// Collects every machine of a campaign under **one** thread budget
    /// (the returned vector is parallel to `specs`).
    ///
    /// The default fans machines out across at most `threads` scoped
    /// workers pulling from a shared atomic work index, each collecting
    /// one machine sequentially — so the budget is an upper bound on live
    /// threads rather than a per-machine multiplier. Sources that can
    /// parallelise *within* a machine (the simulator) override this with
    /// a finer-grained pool. Every implementation must return records in
    /// an order independent of the schedule.
    fn collect_all(
        &self,
        specs: &[MachineSpec],
        threads: usize,
    ) -> Vec<Result<Vec<RunRecord>, SourceError>> {
        let workers = threads.clamp(1, specs.len().max(1));
        if workers == 1 {
            return specs.iter().map(|s| self.collect(s, 1)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<Vec<RunRecord>, SourceError>>> = Vec::new();
        slots.resize_with(specs.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(spec) = specs.get(i) else {
                                break done;
                            };
                            done.push((i, self.collect(spec, 1)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in join_unwinding(handle) {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every machine was collected"))
            .collect()
    }
}

/// Counter collection by running the built-in out-of-order simulator —
/// the paper's measurement campaign, minus the machine room.
///
/// Configure suites (defaults to both paper suites when none are given),
/// the per-benchmark µop budget, the warm-up budget, and the campaign
/// seed. With a thread budget above one, a machine's suites are simulated
/// on parallel threads; each workload is seeded independently, so results
/// do not depend on the schedule.
#[derive(Debug, Clone)]
pub struct SimSource {
    suites: Vec<Vec<WorkloadProfile>>,
    uops: u64,
    /// Warm-up µops per run; `None` = warm for the measurement budget
    /// (the historical 2×-cost default).
    warmup: Option<u64>,
    seed: u64,
}

impl SimSource {
    /// A simulator source with no suites yet (collect uses both paper
    /// suites if none are added).
    pub fn new() -> Self {
        Self {
            suites: Vec::new(),
            uops: oosim::run::DEFAULT_UOPS,
            warmup: None,
            seed: 42,
        }
    }

    /// A source preloaded with both full paper suites (48 + 55
    /// benchmark–input pairs).
    pub fn paper_suites() -> Self {
        Self::new()
            .suite(specgen::suites::cpu2000())
            .suite(specgen::suites::cpu2006())
    }

    /// Adds one suite (a parallel collection chunk) to the campaign.
    pub fn suite(mut self, profiles: Vec<WorkloadProfile>) -> Self {
        self.suites.push(profiles);
        self
    }

    /// Sets the µop budget per benchmark run.
    pub fn uops(mut self, uops: u64) -> Self {
        self.uops = uops;
        self
    }

    /// Sets the warm-up budget per benchmark run in µops. The default
    /// warms for the full measurement budget (caches, TLBs and the
    /// predictor see `uops` µops before counting starts — a 2× total
    /// simulation cost); campaigns whose workloads reach stationary
    /// counter rates sooner can cut the bill with a smaller budget.
    /// Changing the warm-up changes the measured records (and therefore
    /// every digest downstream) — it is a *campaign* knob, not a
    /// scheduling knob.
    pub fn warmup(mut self, warmup: u64) -> Self {
        self.warmup = Some(warmup);
        self
    }

    /// Sets the campaign seed (every workload derives its stream from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Convenience: collects sequentially for one fully-configured
    /// simulated machine (the simulator cannot fail when a config is
    /// present).
    pub fn collect_config(&self, machine: &MachineConfig) -> Vec<RunRecord> {
        self.collect(&machine.into(), 1)
            .expect("the simulator source cannot fail for a configured machine")
    }

    fn effective_suites(&self) -> Vec<Vec<WorkloadProfile>> {
        if self.suites.is_empty() {
            vec![specgen::suites::cpu2000(), specgen::suites::cpu2006()]
        } else {
            self.suites.clone()
        }
    }

    /// Runs the flattened `(machine × benchmark)` work-list on `workers`
    /// threads pulling items from one shared atomic index — the
    /// work-stealing pool behind both `collect` and `collect_all`.
    ///
    /// Determinism: each item's output slot is assigned *before* any worker
    /// starts (item `i` writes slot `i`, and the item list is in exact
    /// sequential order: machine-major, then suite, then benchmark), and
    /// every workload is independently seeded, so which worker simulates
    /// which benchmark — and in what order — can never change a single
    /// record byte. Each worker reuses one [`oosim::pipeline::SimScratch`]
    /// across all its items (machine switches included; `prepare` resizes).
    fn run_pool(
        &self,
        items: &[(&MachineConfig, &WorkloadProfile)],
        workers: usize,
    ) -> Vec<RunRecord> {
        let warmup = self.warmup.unwrap_or(self.uops);
        let run_one = |(config, profile): &(&MachineConfig, &WorkloadProfile),
                       scratch: &mut oosim::pipeline::SimScratch| {
            oosim::run::run_workload_with(
                config,
                profile,
                warmup,
                self.uops,
                self.seed,
                &mut oosim::observer::NullObserver,
                scratch,
            )
        };
        if workers <= 1 {
            let mut scratch = oosim::pipeline::SimScratch::new();
            return items
                .iter()
                .map(|item| run_one(item, &mut scratch))
                .collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<RunRecord>> = vec![None; items.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = oosim::pipeline::SimScratch::new();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                break done;
                            };
                            done.push((i, run_one(item, &mut scratch)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (i, record) in join_unwinding(handle) {
                    slots[i] = Some(record);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every work item was simulated"))
            .collect()
    }
}

impl Default for SimSource {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterSource for SimSource {
    fn describe(&self) -> String {
        let n: usize = self.effective_suites().iter().map(Vec::len).sum();
        match self.warmup {
            Some(warmup) => format!(
                "simulator campaign ({n} benchmarks, {} µops each after {warmup} warm-up, seed {})",
                self.uops, self.seed
            ),
            None => format!(
                "simulator campaign ({n} benchmarks, {} µops each, seed {})",
                self.uops, self.seed
            ),
        }
    }

    fn machine_ids(&self) -> Option<Vec<MachineId>> {
        None // the simulator needs full configs from the pipeline
    }

    fn collect(
        &self,
        machine: &MachineSpec,
        threads: usize,
    ) -> Result<Vec<RunRecord>, SourceError> {
        self.collect_all(std::slice::from_ref(machine), threads)
            .pop()
            .expect("one spec in, one result out")
    }

    /// The work-stealing pool: every `(machine, benchmark)` pair of the
    /// campaign becomes one item in a single flattened work-list shared by
    /// at most `threads` workers — so the budget never multiplies across
    /// machines, and no worker idles behind a heavy suite while another
    /// machine still has benchmarks queued. Output slots are pre-assigned
    /// in sequential order; see [`SimSource::run_pool`] for why any
    /// schedule yields byte-identical records.
    fn collect_all(
        &self,
        specs: &[MachineSpec],
        threads: usize,
    ) -> Vec<Result<Vec<RunRecord>, SourceError>> {
        let suites = self.effective_suites();
        let benchmarks: Vec<&WorkloadProfile> = suites.iter().flatten().collect();
        // Machine-major, suite-order, benchmark-order: the exact sequential
        // record order, so machine `m`'s records are the contiguous slot
        // range starting at its offset.
        let mut items: Vec<(&MachineConfig, &WorkloadProfile)> = Vec::new();
        for spec in specs {
            if let Some(config) = spec.config() {
                items.extend(benchmarks.iter().map(|&p| (config, p)));
            }
        }
        let workers = threads.clamp(1, items.len().max(1));
        let mut records = self.run_pool(&items, workers).into_iter();
        specs
            .iter()
            .map(|spec| {
                if spec.config().is_some() {
                    Ok(records.by_ref().take(benchmarks.len()).collect())
                } else {
                    Err(SourceError::NeedsMachineConfig { machine: spec.id })
                }
            })
            .collect()
    }
}

/// Counter records parsed from a `pmu::csv` file — the real-hardware
/// path: run SPEC under perfex/perfmon, export a CSV, fit here.
#[derive(Debug, Clone)]
pub struct CsvSource {
    origin: String,
    records: Vec<RunRecord>,
}

impl CsvSource {
    /// Reads and parses a counters CSV from disk.
    ///
    /// # Errors
    ///
    /// [`SourceError::Io`] when the file cannot be read,
    /// [`SourceError::Parse`] when it is not a valid counters CSV.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, SourceError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|error| SourceError::Io {
            path: path.to_path_buf(),
            error,
        })?;
        Self::parse(&text, path.display().to_string())
    }

    /// Parses counters CSV text already in memory.
    ///
    /// # Errors
    ///
    /// [`SourceError::Parse`] when the text is not a valid counters CSV.
    pub fn from_text(text: &str) -> Result<Self, SourceError> {
        Self::parse(text, "<memory>".to_owned())
    }

    fn parse(text: &str, origin: String) -> Result<Self, SourceError> {
        let records = pmu::csv::from_csv(text).map_err(|error| SourceError::Parse {
            origin: origin.clone(),
            error,
        })?;
        Ok(Self { origin, records })
    }

    /// All parsed records, before any per-machine filtering.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }
}

impl CounterSource for CsvSource {
    fn describe(&self) -> String {
        format!(
            "counters CSV `{}` ({} records)",
            self.origin,
            self.records.len()
        )
    }

    fn machine_ids(&self) -> Option<Vec<MachineId>> {
        Some(distinct_machines(&self.records))
    }

    fn collect(
        &self,
        machine: &MachineSpec,
        _threads: usize,
    ) -> Result<Vec<RunRecord>, SourceError> {
        filter_records(&self.records, machine.id, || self.describe())
    }
}

/// In-memory records as a source — for tests, embedding, and replaying a
/// previous collection without touching disk.
#[derive(Debug, Clone)]
pub struct RecordsSource {
    records: Vec<RunRecord>,
}

impl RecordsSource {
    /// Wraps a record set.
    pub fn new(records: Vec<RunRecord>) -> Self {
        Self { records }
    }
}

impl From<Vec<RunRecord>> for RecordsSource {
    fn from(records: Vec<RunRecord>) -> Self {
        Self::new(records)
    }
}

impl CounterSource for RecordsSource {
    fn describe(&self) -> String {
        format!("in-memory records ({})", self.records.len())
    }

    fn machine_ids(&self) -> Option<Vec<MachineId>> {
        Some(distinct_machines(&self.records))
    }

    fn collect(
        &self,
        machine: &MachineSpec,
        _threads: usize,
    ) -> Result<Vec<RunRecord>, SourceError> {
        filter_records(&self.records, machine.id, || self.describe())
    }
}

fn distinct_machines(records: &[RunRecord]) -> Vec<MachineId> {
    let mut ids = Vec::new();
    for r in records {
        if !ids.contains(&r.machine()) {
            ids.push(r.machine());
        }
    }
    ids
}

fn filter_records(
    records: &[RunRecord],
    id: MachineId,
    describe: impl Fn() -> String,
) -> Result<Vec<RunRecord>, SourceError> {
    let picked: Vec<RunRecord> = records
        .iter()
        .filter(|r| r.machine() == id)
        .cloned()
        .collect();
    if picked.is_empty() {
        return Err(SourceError::NoRecords {
            machine: id,
            source: describe(),
        });
    }
    Ok(picked)
}

/// Joins a scoped worker, re-raising its panic with the original payload
/// (a bare `expect` would bury the actionable message under `Any { .. }`).
fn join_unwinding<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

// ---------------------------------------------------------------------------
// The workbench builder
// ---------------------------------------------------------------------------

/// How collected records are grouped for fitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Grouping {
    /// One model per (machine, suite) pair — the paper's protocol, which
    /// enables cross-suite robustness checks.
    #[default]
    MachineSuite,
    /// One model per machine, pooling all suites — the pragmatic hardware
    /// path when suite membership is incidental.
    Machine,
}

/// Builder for the measurement-and-modeling pipeline. See the
/// [module docs](self) for the full picture.
pub struct Workbench {
    specs: Vec<MachineSpec>,
    default_arch: Option<MicroarchParams>,
    source: Option<Box<dyn CounterSource>>,
    options: FitOptions,
    grouping: Grouping,
    parallel: bool,
    threads: usize,
}

impl Default for Workbench {
    fn default() -> Self {
        Self::new()
    }
}

impl Workbench {
    /// An empty workbench: add machines and a source, then `collect()`.
    pub fn new() -> Self {
        Self {
            specs: Vec::new(),
            default_arch: None,
            source: None,
            options: FitOptions::default(),
            grouping: Grouping::default(),
            parallel: true,
            threads: 0,
        }
    }

    /// Adds one machine (a [`MachineConfig`] for simulated machines, or a
    /// [`MachineSpec::real`] for real hardware).
    pub fn machine(mut self, spec: impl Into<MachineSpec>) -> Self {
        self.specs.push(spec.into());
        self
    }

    /// Adds several machines at once.
    pub fn machines<I>(mut self, specs: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<MachineSpec>,
    {
        self.specs.extend(specs.into_iter().map(Into::into));
        self
    }

    /// Applies one set of microarchitectural constants to *every* machine
    /// of the pipeline: those named with `.machine(...)` (overriding the
    /// constants their specs carry — e.g. fitting a simulated machine
    /// with calibrated rather than spec-sheet latencies) and, when none
    /// are named, every machine the source enumerates — the CLI path,
    /// where the user states width/depth/latencies once for the CSV they
    /// measured.
    pub fn arch(mut self, arch: MicroarchParams) -> Self {
        self.default_arch = Some(arch);
        self
    }

    /// Plugs in the counter source.
    pub fn source(mut self, source: impl CounterSource + 'static) -> Self {
        self.source = Some(Box::new(source));
        self
    }

    /// Sets the fit options used by [`Collected::fit`].
    pub fn fit_options(mut self, options: FitOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets how records group into models (default: per machine × suite).
    pub fn grouping(mut self, grouping: Grouping) -> Self {
        self.grouping = grouping;
        self
    }

    /// Enables or disables thread fan-out (default: enabled). The
    /// sequential path produces byte-identical records; disabling is only
    /// useful for measurement baselines and debugging.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Sets the collection thread budget (`0` = one worker per hardware
    /// thread). This is the **total** budget for the whole campaign — the
    /// source's pool spreads it across every (machine × benchmark) work
    /// item, so it never multiplies with the machine count. Purely a
    /// scheduling knob: records are byte-identical for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the collection stage: every machine's records from the source,
    /// machines fanned out across scoped threads when parallelism is on.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] when no source is set or no machines can
    /// be determined; [`PipelineError::Source`] when the source fails.
    pub fn collect(self) -> Result<Collected, PipelineError> {
        let source = self.source.as_deref().ok_or_else(|| {
            PipelineError::Config("no counter source set — call .source(...)".into())
        })?;
        let specs: Vec<MachineSpec> = if !self.specs.is_empty() {
            let mut specs = self.specs.clone();
            if let Some(arch) = self.default_arch {
                // .arch(...) overrides every named machine's constants —
                // silently ignoring it would fit a different model than
                // the caller asked for.
                for spec in &mut specs {
                    spec.arch = arch;
                }
            }
            specs
        } else {
            let ids = source.machine_ids().ok_or_else(|| {
                PipelineError::Config(format!(
                    "{} cannot enumerate machines — add them with .machine(...)",
                    source.describe()
                ))
            })?;
            let arch = self.default_arch.ok_or_else(|| {
                PipelineError::Config(
                    "machines inferred from the source need constants — call .arch(...) \
                     or add full .machine(...) specs"
                        .into(),
                )
            })?;
            if ids.is_empty() {
                return Err(PipelineError::Config(format!(
                    "{} contains no machines",
                    source.describe()
                )));
            }
            ids.into_iter()
                .map(|id| MachineSpec::real(id, arch))
                .collect()
        };
        for (i, spec) in specs.iter().enumerate() {
            if specs[..i].iter().any(|s| s.id() == spec.id()) {
                // Fitted groups are looked up by machine id, so a second
                // spec for one machine would shadow the first's models.
                return Err(PipelineError::Config(format!(
                    "machine `{}` was added twice",
                    spec.id().name()
                )));
            }
        }

        // One budget for the whole campaign: the source's pool decides how
        // to spread it across machines and benchmarks (historically the
        // per-machine fan-out here *multiplied* with the source's inner
        // suite workers — machines × threads live threads on a 2-core box).
        let budget = if !self.parallel {
            1
        } else if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let results = source.collect_all(&specs, budget);
        let mut records = Vec::with_capacity(specs.len());
        for result in results {
            records.push(result?);
        }
        Ok(Collected {
            specs,
            records,
            options: self.options,
            grouping: self.grouping,
            parallel: self.parallel,
        })
    }
}

impl fmt::Debug for Workbench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workbench")
            .field(
                "machines",
                &self.specs.iter().map(MachineSpec::id).collect::<Vec<_>>(),
            )
            .field("source", &self.source.as_ref().map(|s| s.describe()))
            .field("grouping", &self.grouping)
            .field("parallel", &self.parallel)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Collected → Fitted
// ---------------------------------------------------------------------------

/// Output of the collect stage: per-machine record sets, ready to fit or
/// export.
#[derive(Debug, Clone)]
pub struct Collected {
    specs: Vec<MachineSpec>,
    /// Parallel to `specs`.
    records: Vec<Vec<RunRecord>>,
    options: FitOptions,
    grouping: Grouping,
    parallel: bool,
}

impl Collected {
    /// The machines collected, in pipeline order.
    pub fn machines(&self) -> Vec<MachineId> {
        self.specs.iter().map(MachineSpec::id).collect()
    }

    /// One machine's records.
    pub fn machine_records(&self, id: MachineId) -> Option<&[RunRecord]> {
        self.specs
            .iter()
            .position(|s| s.id() == id)
            .map(|i| self.records[i].as_slice())
    }

    /// All records, machine-major, in deterministic pipeline order.
    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.records.iter().flatten()
    }

    /// Serializes every record as a `pmu::csv` counters CSV.
    pub fn to_csv(&self) -> String {
        let all: Vec<RunRecord> = self.records().cloned().collect();
        pmu::csv::to_csv(&all)
    }

    /// Writes the counters CSV to disk.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Export`] when the file cannot be written.
    pub fn export_to(&self, path: impl AsRef<Path>) -> Result<(), PipelineError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_csv()).map_err(|error| PipelineError::Export {
            path: path.to_path_buf(),
            error,
        })
    }

    /// Runs the fit stage: one model per group (machine × suite by
    /// default), each an [`InferredModel::fit`] call on the group's
    /// records. With parallelism on, every group fits on its own scoped
    /// thread; fitting is deterministic, so the threading never changes
    /// results. The long-lived serving layer wraps the same call behind
    /// its model cache and snapshot store.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Fit`] naming the first group, in pipeline order,
    /// whose inference failed.
    pub fn fit(self) -> Result<Fitted, PipelineError> {
        // Deterministic group order: specs in pipeline order, suites in
        // Suite::ALL order, empty groups skipped.
        let mut groups: Vec<(&MachineSpec, Option<Suite>, Vec<RunRecord>)> = Vec::new();
        for (spec, records) in self.specs.iter().zip(self.records) {
            match self.grouping {
                Grouping::Machine => groups.push((spec, None, records)),
                Grouping::MachineSuite => {
                    for suite in Suite::ALL {
                        let picked: Vec<RunRecord> = records
                            .iter()
                            .filter(|r| r.suite() == suite)
                            .cloned()
                            .collect();
                        if !picked.is_empty() {
                            groups.push((spec, Some(suite), picked));
                        }
                    }
                }
            }
        }
        let fit_group = |(spec, suite, records): (&MachineSpec, Option<Suite>, Vec<RunRecord>)| {
            let machine = spec.id();
            match InferredModel::fit(spec.arch(), &records, &self.options) {
                Ok(model) => Ok(FittedGroup {
                    machine,
                    suite,
                    arch: *spec.arch(),
                    model,
                    records,
                }),
                Err(error) => Err(PipelineError::Fit {
                    machine,
                    suite,
                    error,
                }),
            }
        };
        let fitted: Vec<Result<FittedGroup, PipelineError>> = if self.parallel {
            let fit_group = &fit_group;
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|group| scope.spawn(move || fit_group(group)))
                    .collect();
                handles.into_iter().map(join_unwinding).collect()
            })
        } else {
            groups.into_iter().map(fit_group).collect()
        };
        Ok(Fitted {
            groups: fitted.into_iter().collect::<Result<_, _>>()?,
        })
    }
}

/// One fitted model with the records it was trained on.
#[derive(Debug, Clone)]
pub struct FittedGroup {
    /// The machine modeled.
    pub machine: MachineId,
    /// The suite group (`None` when suites were pooled).
    pub suite: Option<Suite>,
    /// The constants the model was built with.
    pub arch: MicroarchParams,
    /// The inferred model.
    pub model: InferredModel,
    /// The training records, in collection order.
    pub records: Vec<RunRecord>,
}

impl FittedGroup {
    /// The model-estimated CPI stack per benchmark, in collection order —
    /// the paper's headline deliverable.
    pub fn stacks(&self) -> Vec<(&str, CpiStack)> {
        self.records
            .iter()
            .map(|r| (r.benchmark(), self.model.cpi_stack(r)))
            .collect()
    }

    /// This group's stacks as CSV (`memodel::export` format).
    pub fn stacks_csv(&self) -> String {
        export::stacks_csv(&self.model, &self.records)
    }

    /// This group's measured-vs-predicted dump as CSV.
    pub fn predictions_csv(&self) -> String {
        export::predictions_csv(&self.model, &self.records)
    }
}

/// Output of the fit stage: every group's model, stacks, deltas and
/// exports.
#[derive(Debug, Clone)]
pub struct Fitted {
    groups: Vec<FittedGroup>,
}

impl Fitted {
    /// Assembles a `Fitted` from groups produced elsewhere — e.g. by
    /// `Group` requests against the long-lived serving layer. Group order
    /// is preserved.
    pub fn from_groups(groups: Vec<FittedGroup>) -> Self {
        Self { groups }
    }

    /// All fitted groups, in pipeline order.
    pub fn groups(&self) -> &[FittedGroup] {
        &self.groups
    }

    /// The group for a machine and suite, if it was collected and fitted.
    /// With [`Grouping::Machine`], pass the machine's pooled group via
    /// [`Fitted::pooled_group`] instead.
    pub fn group(&self, machine: MachineId, suite: Suite) -> Option<&FittedGroup> {
        self.groups
            .iter()
            .find(|g| g.machine == machine && g.suite == Some(suite))
    }

    /// The pooled group for a machine (under [`Grouping::Machine`]).
    pub fn pooled_group(&self, machine: MachineId) -> Option<&FittedGroup> {
        self.groups
            .iter()
            .find(|g| g.machine == machine && g.suite.is_none())
    }

    /// The fitted model for a machine and suite.
    pub fn model(&self, machine: MachineId, suite: Suite) -> Option<&InferredModel> {
        self.group(machine, suite).map(|g| &g.model)
    }

    /// The training records for a machine and suite.
    pub fn records(&self, machine: MachineId, suite: Suite) -> Option<&[RunRecord]> {
        self.group(machine, suite).map(|g| g.records.as_slice())
    }

    /// CPI-delta stacks explaining `new` vs `old` on one suite (Fig. 6).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] when either machine has no fitted group
    /// for `suite`.
    pub fn delta(
        &self,
        old: MachineId,
        new: MachineId,
        suite: Suite,
    ) -> Result<DeltaStacks, PipelineError> {
        let pick = |id: MachineId| {
            self.group(id, suite).ok_or_else(|| {
                PipelineError::Config(format!(
                    "no fitted group for machine `{}` on {suite} — was it collected?",
                    id.name()
                ))
            })
        };
        let (a, b) = (pick(old)?, pick(new)?);
        Ok(suite_delta(&a.model, &a.records, &b.model, &b.records))
    }

    /// Every group's CPI stacks as one CSV document. Groups beyond the
    /// first are separated by `# machine suite` comment lines so the file
    /// stays trivially splittable.
    pub fn stacks_csv(&self) -> String {
        let mut out = String::new();
        for (i, g) in self.groups.iter().enumerate() {
            if self.groups.len() > 1 {
                let suite = g.suite.map(|s| s.name()).unwrap_or("all");
                if i > 0 {
                    out.push('\n');
                }
                out.push_str(&format!("# {} {suite}\n", g.machine.name()));
            }
            out.push_str(&g.stacks_csv());
        }
        out
    }

    /// Writes [`Fitted::stacks_csv`] to disk.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Export`] when the file cannot be written.
    pub fn export_stacks_to(&self, path: impl AsRef<Path>) -> Result<(), PipelineError> {
        let path = path.as_ref();
        std::fs::write(path, self.stacks_csv()).map_err(|error| PipelineError::Export {
            path: path.to_path_buf(),
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_suite(n: usize) -> Vec<WorkloadProfile> {
        specgen::suites::cpu2000().into_iter().take(n).collect()
    }

    fn two_machine_bench(parallel: bool) -> Collected {
        Workbench::new()
            .machine(MachineConfig::pentium4())
            .machine(MachineConfig::core2())
            .source(SimSource::new().suite(small_suite(12)).uops(4_000).seed(99))
            .fit_options(FitOptions::quick())
            .parallel(parallel)
            .collect()
            .expect("sim collection succeeds")
    }

    #[test]
    fn arch_overrides_named_machine_constants() {
        // .arch(...) alongside .machine(config) fits with the given
        // constants (e.g. calibrated latencies), not the config's own.
        let override_arch = MicroarchParams::new(4.0, 14.0, 25.0, 200.0, 40.0);
        let fitted = Workbench::new()
            .machine(MachineConfig::core2())
            .arch(override_arch)
            .source(SimSource::new().suite(small_suite(12)).uops(4_000).seed(1))
            .fit_options(FitOptions::quick())
            .collect()
            .expect("collect")
            .fit()
            .expect("fit");
        let group = fitted
            .group(MachineId::Core2, Suite::Cpu2000)
            .expect("group");
        assert_eq!(group.arch, override_arch);
        assert_eq!(group.model.arch(), &override_arch);
    }

    #[test]
    fn suite_chunk_fanout_honours_budget_and_order() {
        // Three suite chunks under budgets 1, 2, 3 and 16: records always
        // come back in chunk order, regardless of worker count.
        let all = small_suite(9);
        let source = SimSource::new()
            .suite(all[0..3].to_vec())
            .suite(all[3..6].to_vec())
            .suite(all[6..9].to_vec())
            .uops(2_000)
            .seed(5);
        let machine = MachineConfig::core2();
        let sequential = source.collect(&(&machine).into(), 1).expect("collect");
        assert_eq!(sequential.len(), 9);
        for budget in [2, 3, 16] {
            let fanned = source.collect(&(&machine).into(), budget).expect("collect");
            assert_eq!(fanned, sequential, "budget {budget} reordered records");
        }
    }

    #[test]
    fn warmup_knob_defaults_to_full_and_scales_down() {
        let machine = MachineConfig::core2();
        let base = SimSource::new().suite(small_suite(3)).uops(8_000).seed(4);
        let implicit = base.clone().collect_config(&machine);
        // warmup(uops) is exactly the historical default.
        let explicit = base.clone().warmup(8_000).collect_config(&machine);
        assert_eq!(implicit, explicit);
        // A reduced warm-up is a different campaign (colder counters).
        let colder = base.warmup(1_000).collect_config(&machine);
        assert_ne!(implicit, colder);
        assert_eq!(colder.len(), 3);
    }

    #[test]
    fn parallel_collect_is_byte_identical_to_sequential() {
        let par = two_machine_bench(true);
        let seq = two_machine_bench(false);
        assert_eq!(par.to_csv(), seq.to_csv());
        assert_eq!(par.machines(), seq.machines());
    }

    #[test]
    fn parallel_and_sequential_fits_agree() {
        let par = two_machine_bench(true).fit().expect("fit");
        let seq = two_machine_bench(false).fit().expect("fit");
        assert_eq!(par.groups().len(), seq.groups().len());
        for (a, b) in par.groups().iter().zip(seq.groups()) {
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.suite, b.suite);
            assert_eq!(a.model.params(), b.model.params());
        }
    }

    #[test]
    fn csv_source_round_trips_through_workbench() {
        let collected = two_machine_bench(true);
        let csv = collected.to_csv();
        let refit = Workbench::new()
            .machine(MachineConfig::pentium4())
            .machine(MachineConfig::core2())
            .source(CsvSource::from_text(&csv).expect("valid csv"))
            .fit_options(FitOptions::quick())
            .collect()
            .expect("csv collection succeeds");
        assert_eq!(refit.to_csv(), csv);
    }

    #[test]
    fn csv_source_enumerates_machines_with_shared_arch() {
        let csv = two_machine_bench(true).to_csv();
        let fitted = Workbench::new()
            .arch(MicroarchParams::new(4.0, 14.0, 19.0, 169.0, 30.0))
            .source(CsvSource::from_text(&csv).expect("valid csv"))
            .fit_options(FitOptions::quick())
            .grouping(Grouping::Machine)
            .collect()
            .expect("collection succeeds")
            .fit()
            .expect("fit succeeds");
        assert_eq!(fitted.groups().len(), 2);
        assert!(fitted.pooled_group(MachineId::Pentium4).is_some());
        assert!(fitted.pooled_group(MachineId::Core2).is_some());
    }

    #[test]
    fn records_source_feeds_tests_without_io() {
        let records: Vec<RunRecord> = two_machine_bench(true).records().cloned().collect();
        let fitted = Workbench::new()
            .machine(MachineConfig::core2())
            .source(RecordsSource::new(records))
            .fit_options(FitOptions::quick())
            .collect()
            .expect("records collection succeeds")
            .fit()
            .expect("fit succeeds");
        let group = fitted
            .group(MachineId::Core2, Suite::Cpu2000)
            .expect("group");
        assert_eq!(group.stacks().len(), 12);
        assert!(group.stacks_csv().starts_with("benchmark,"));
    }

    #[test]
    fn delta_flows_through_the_pipeline() {
        let fitted = two_machine_bench(true).fit().expect("fit");
        let delta = fitted
            .delta(MachineId::Pentium4, MachineId::Core2, Suite::Cpu2000)
            .expect("both machines fitted");
        // The Core 2 beats the Pentium 4 overall on any reasonable draw.
        assert!(delta.overall.total() < 0.0, "{delta}");
        let missing = fitted.delta(MachineId::Pentium4, MachineId::CoreI7, Suite::Cpu2000);
        assert!(matches!(missing, Err(PipelineError::Config(_))));
    }

    #[test]
    fn configuration_errors_are_typed() {
        let no_source = Workbench::new().machine(MachineConfig::core2()).collect();
        assert!(matches!(no_source, Err(PipelineError::Config(_))));
        let no_machines = Workbench::new()
            .source(SimSource::new().suite(small_suite(4)))
            .collect();
        assert!(matches!(no_machines, Err(PipelineError::Config(_))));
    }

    #[test]
    fn source_errors_carry_stage_and_machine() {
        // A CSV of core2-only records cannot serve a pentium4 pipeline.
        let csv = Workbench::new()
            .machine(MachineConfig::core2())
            .source(SimSource::new().suite(small_suite(2)).uops(1_000))
            .collect()
            .expect("collect")
            .to_csv();
        let err = Workbench::new()
            .machine(MachineSpec::real(
                MachineId::Pentium4,
                MicroarchParams::new(3.0, 31.0, 28.0, 344.0, 57.0),
            ))
            .source(CsvSource::from_text(&csv).expect("valid csv"))
            .collect()
            .expect_err("no pentium4 rows");
        match &err {
            PipelineError::Source(SourceError::NoRecords { machine, .. }) => {
                assert_eq!(*machine, MachineId::Pentium4);
            }
            other => panic!("expected NoRecords, got {other:?}"),
        }
        assert!(err.to_string().contains("collect stage"));
    }

    #[test]
    fn fit_errors_name_the_group() {
        // Two records are far too few for ten parameters.
        let err = Workbench::new()
            .machine(MachineConfig::core2())
            .source(SimSource::new().suite(small_suite(2)).uops(1_000))
            .collect()
            .expect("collect")
            .fit()
            .expect_err("underdetermined");
        match err {
            PipelineError::Fit {
                machine,
                suite,
                error: FitError::TooFewRecords { got },
            } => {
                assert_eq!(machine, MachineId::Core2);
                assert_eq!(suite, Some(Suite::Cpu2000));
                assert_eq!(got, 2);
            }
            other => panic!("expected Fit error, got {other:?}"),
        }

        // Two failing machines: the error names the first in pipeline
        // order, however the fan-out schedules the fits.
        let (p4, c2) = (MachineConfig::pentium4(), MachineConfig::core2());
        for order in [[p4.clone(), c2.clone()], [c2, p4]] {
            let first = order[0].id;
            for parallel in [true, false] {
                let err = Workbench::new()
                    .machines(order.clone())
                    .source(SimSource::new().suite(small_suite(2)).uops(1_000))
                    .parallel(parallel)
                    .collect()
                    .expect("collect")
                    .fit()
                    .expect_err("underdetermined");
                assert!(
                    matches!(err, PipelineError::Fit { machine, .. } if machine == first),
                    "parallel={parallel}: expected a Fit error naming {first:?}, got {err:?}"
                );
            }
        }
    }

    #[test]
    fn file_errors_name_the_path_and_line() {
        let dir = std::env::temp_dir().join(format!("workbench_errpath_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A malformed row: the message must say which file and which line.
        let bad = dir.join("bad.csv");
        let mut csv = two_machine_bench(false).to_csv();
        let second_row = csv.lines().nth(1).unwrap().to_owned();
        csv = csv.replace(&second_row, &second_row.replace(',', ";"));
        std::fs::write(&bad, &csv).unwrap();
        let err = CsvSource::from_path(&bad).expect_err("malformed row");
        let msg = err.to_string();
        assert!(msg.contains("bad.csv"), "path missing: {msg}");
        assert!(msg.contains("line 2"), "line missing: {msg}");

        // A missing file: the message must say which path failed to read.
        let gone = dir.join("does_not_exist.csv");
        let msg = CsvSource::from_path(&gone)
            .expect_err("io error")
            .to_string();
        assert!(msg.contains("does_not_exist.csv"), "path missing: {msg}");

        // A failed export: the message must say which path failed to write.
        let collected = two_machine_bench(false);
        let target = dir.join("no_such_dir").join("out.csv");
        let msg = collected
            .export_to(&target)
            .expect_err("unwritable")
            .to_string();
        assert!(msg.contains("out.csv"), "path missing: {msg}");
        assert!(msg.contains("export stage"), "stage missing: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_writes_and_reports_failures() {
        let collected = Workbench::new()
            .machine(MachineConfig::core2())
            .source(SimSource::new().suite(small_suite(12)).uops(2_000))
            .fit_options(FitOptions::quick())
            .collect()
            .expect("collect");
        // Per-process dir: parallel checkouts on a shared host must not
        // collide on a fixed /tmp path.
        let dir =
            std::env::temp_dir().join(format!("workbench_export_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("counters.csv");
        collected.export_to(&path).expect("write succeeds");
        let reread = CsvSource::from_path(&path).expect("file parses back");
        assert_eq!(reread.records().len(), 12);
        let bad = collected.export_to("/nonexistent/dir/counters.csv");
        assert!(matches!(bad, Err(PipelineError::Export { .. })));
        let fitted = collected.fit().expect("fit");
        fitted
            .export_stacks_to(dir.join("stacks.csv"))
            .expect("stacks write");
        assert!(fitted.stacks_csv().starts_with("benchmark,"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
