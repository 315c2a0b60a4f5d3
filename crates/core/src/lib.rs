//! The mechanistic-empirical ("gray-box") processor performance model of
//! Eyerman, Hoste and Eeckhout (ISPASS 2011) — the paper's contribution.
//!
//! The model estimates total cycles from performance-counter data through a
//! parameterized formula derived from mechanistic interval modeling
//! (Eq. 1), with three submodels whose ten parameters are inferred by
//! nonlinear regression (Eq. 2–6): the branch resolution time, the
//! memory-level-parallelism (MLP) correction factor, and the resource-stall
//! component. Because every term of Eq. 1 is attributable to a cause, a
//! fitted model yields **CPI stacks** on hardware that has no stack-capable
//! counters — and **CPI-delta stacks** that explain where performance
//! differences between machines come from (Fig. 6).
//!
//! Module map:
//!
//! * [`params`] — machine-level inputs (Table 2) and the ten `b`-parameters,
//! * [`inputs`] — counter-derived per-benchmark rates (`mpµ_x`, `fp`, CPI),
//! * [`equations`] — Eq. 1–6 as pure functions,
//! * [`stack`] — model-estimated CPI stacks,
//! * [`fit`] — model inference by relative-squared-error regression,
//! * [`eval`] — accuracy/robustness evaluation harnesses (Fig. 2–4),
//! * [`baselines`] — the purely empirical comparison models (linear
//!   regression, ANN) over the same inputs,
//! * [`delta`] — CPI-delta stacks between machines (Fig. 6),
//! * [`stability`] — bootstrap parameter-stability diagnostics,
//! * [`export`] — CSV dumps of predictions and stacks for external plots,
//! * [`workbench`] — the one-shot collect → fit → stacks/delta → export
//!   pipeline builder,
//! * [`service`] — the long-lived serving layer: [`CpiService`] batches
//!   requests from many concurrent clients over a sharded worker pool,
//!   memoizing fitted models in an LRU [`service::ModelCache`] around
//!   the same fit [`Workbench::fit`](workbench::Collected::fit) calls
//!   directly. Its [`service::proto`]
//!   submodule is the serve-session protocol codec (stdio *and* TCP
//!   fronts, binary framing for bulk stacks) and [`service::persist`] is
//!   the durable model store that lets a restarted service warm up
//!   without refitting.
//!
//! # Examples
//!
//! The whole Fig. 1 flow — collect, fit, stacks — through the unified
//! [`workbench`] pipeline:
//!
//! ```
//! use memodel::workbench::{SimSource, Workbench};
//! use memodel::FitOptions;
//! use oosim::machine::MachineConfig;
//! use pmu::{MachineId, Suite};
//!
//! let suite: Vec<_> = specgen::suites::cpu2000().into_iter().take(12).collect();
//! let fitted = Workbench::new()
//!     .machine(MachineConfig::core2())
//!     .source(SimSource::new().suite(suite).uops(40_000).seed(42))
//!     .fit_options(FitOptions::quick())
//!     .collect()
//!     .unwrap()
//!     .fit()
//!     .unwrap();
//! let group = fitted.group(MachineId::Core2, Suite::Cpu2000).unwrap();
//! for (benchmark, stack) in group.stacks() {
//!     println!("{benchmark}: {stack}");
//! }
//! ```

pub mod baselines;
pub mod delta;
pub mod equations;
pub mod eval;
pub mod export;
pub mod fit;
pub mod inputs;
pub mod params;
pub mod service;
pub mod stability;
pub mod stack;
pub mod workbench;

pub use fit::{FitError, FitOptions, InferredModel};
pub use inputs::ModelInputs;
pub use params::{MicroarchParams, ModelParams};
pub use service::{
    CpiClient, CpiService, ModelKey, RefitMode, RefitPolicy, Request, Response, ServiceConfig,
    ServiceError, ServiceStats, TenantId,
};
pub use stack::CpiStack;
pub use workbench::{
    CounterSource, CsvSource, PipelineError, RecordsSource, SimSource, SourceError, Workbench,
};
