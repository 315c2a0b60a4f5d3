//! Input generation (untimed) and the serving-stack bring-up that
//! `setup_s` times.
//!
//! Inputs are made from `--seed` alone: the counter records the serving
//! and streaming phases use, their CSV text, and a snapshot of the serving
//! model. The program under test only ever receives these inputs.

use crate::gen;
use memodel::service::cluster::{ClusterHarness, RouterConfig};
use memodel::service::proto::{self, SessionSpec, TcpServer, TcpServerConfig};
use memodel::service::{CpiService, ModelKey, ServiceConfig};
use memodel::workbench::{MachineSpec, SimSource};
use memodel::FitOptions;
use oosim::machine::MachineConfig;
use pmu::{MachineId, RunRecord, Suite};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};

/// µops per benchmark for the serving and streaming record sets.
const SERVE_UOPS: u64 = 10_000;

/// Everything a run needs, generated from the seed.
pub struct Inputs {
    pub seed: u64,
    /// Core 2 / CPU2000 records: the served model's training set and the
    /// streamed counter source.
    pub core2: Vec<RunRecord>,
    /// The same records as counter CSV — what set-up parses.
    pub core2_csv: String,
    /// Pentium 4 / CPU2000 records: the key the stream phase's reader reads.
    pub pentium4: Vec<RunRecord>,
    /// Per-run scratch directory inside the checkout.
    pub work: PathBuf,
    /// The serving model's snapshot files, copied into every state dir.
    pub snapshots: Vec<PathBuf>,
}

/// Fit options of every served model (and of the cluster nodes).
pub fn serve_options() -> FitOptions {
    FitOptions::quick()
}

pub fn serve_key() -> ModelKey {
    ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), serve_options())
}

/// The `machine` protocol line registering the Core 2's constants.
pub fn machine_line(config: &MachineConfig) -> String {
    let arch = *MachineSpec::from(config).arch();
    format!(
        "machine {} {} {} {} {} {}",
        config.id.name(),
        arch.width,
        arch.fe_depth,
        arch.c_l2,
        arch.c_mem,
        arch.c_tlb
    )
}

impl Inputs {
    pub fn generate(seed: u64, work: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work)?;
        let collect = |machine: &MachineConfig| {
            SimSource::new()
                .suite(specgen::suites::cpu2000())
                .uops(SERVE_UOPS)
                .seed(crate::phases::TRAINING_SEED)
                .collect_config(machine)
        };
        let core2 = collect(&MachineConfig::core2());
        let pentium4 = collect(&MachineConfig::pentium4());
        let core2_csv = pmu::csv::to_csv(&core2);
        std::fs::write(work.join("core2.csv"), &core2_csv)?;

        // Fit the served model once into a state dir so every set-up
        // warm-loads it instead of fitting.
        let seed_state = work.join("seed-state");
        let service = CpiService::try_start(
            ServiceConfig::new()
                .with_workers(1)
                .with_state_dir(&seed_state),
        )
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        let client = service.client();
        client
            .register(MachineSpec::from(&MachineConfig::core2()))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        client
            .ingest(core2.clone())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        client
            .fit(serve_key())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        service.shutdown();
        let mut snapshots: Vec<PathBuf> = std::fs::read_dir(&seed_state)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        snapshots.sort();
        Ok(Self {
            seed,
            core2,
            core2_csv,
            pentium4,
            work,
            snapshots,
        })
    }

    pub fn csv_path(&self) -> PathBuf {
        self.work.join("core2.csv")
    }

    /// Fresh state dirs for set-up `round`, seeded with the snapshots:
    /// one for the direct service, one per cluster node.
    pub fn prepare_state(&self, round: usize, nodes: usize) -> std::io::Result<PathBuf> {
        let root = self.work.join(format!("setup-{round}"));
        let _ = std::fs::remove_dir_all(&root);
        let mut dirs = vec![root.join("direct")];
        dirs.extend((0..nodes).map(|i| root.join("cluster").join(format!("node-{i}"))));
        for dir in dirs {
            std::fs::create_dir_all(&dir)?;
            for snap in &self.snapshots {
                std::fs::copy(
                    snap,
                    dir.join(snap.file_name().expect("snapshot file name")),
                )?;
            }
        }
        Ok(root)
    }
}

/// The running serving stack: one warm node behind a TCP front, and a
/// 3-node cluster behind its router.
pub struct ServingStack {
    pub service: CpiService,
    pub front: TcpServer,
    pub cluster: ClusterHarness,
}

pub const CLUSTER_NODES: usize = 3;

impl ServingStack {
    pub fn front_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    pub fn router_addr(&self) -> SocketAddr {
        self.cluster.router_addr()
    }

    pub fn shutdown(self) {
        self.front.shutdown();
        self.cluster.shutdown();
        self.service.shutdown();
    }
}

/// A TCP front over `client` with the serving limits every phase uses.
pub fn front(spec: SessionSpec) -> std::io::Result<TcpServer> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    proto::serve_tcp(
        listener,
        spec,
        TcpServerConfig::new("perfbench")
            .with_idle_timeout(None)
            .with_max_connections(16),
    )
}

/// Brings the serving stack up from the inputs: parse the counter CSV,
/// start a service on a state dir, ingest, warm-load the model from its
/// snapshot, open the TCP front, boot the cluster and prime its router.
/// Returns the stack and the number of fresh fits the bring-up ran (0 when
/// every model came from a snapshot).
pub fn bring_up(inputs: &Inputs, state_root: &Path) -> Result<(ServingStack, u64), String> {
    let records = pmu::csv::from_csv(&inputs.core2_csv).map_err(|e| format!("csv: {e}"))?;
    let service = CpiService::try_start(
        ServiceConfig::new()
            .with_workers(2)
            .with_cache_capacity(8)
            .with_state_dir(state_root.join("direct")),
    )
    .map_err(|e| format!("service start: {e}"))?;
    let client = service.client();
    client
        .register(MachineSpec::from(&MachineConfig::core2()))
        .map_err(|e| format!("register: {e}"))?;
    client.ingest(records).map_err(|e| format!("ingest: {e}"))?;
    client
        .fit(serve_key())
        .map_err(|e| format!("warm load: {e}"))?;
    let fits = client.stats().map_err(|e| format!("stats: {e}"))?.fits;
    let front =
        front(SessionSpec::open(client, serve_options())).map_err(|e| format!("front: {e}"))?;

    let cluster = ClusterHarness::builder(state_root.join("cluster"))
        .with_nodes(CLUSTER_NODES)
        .with_workers(1)
        .with_cache(8)
        .with_options(serve_options())
        .with_router(
            RouterConfig::new("perfbench")
                .with_idle_timeout(None)
                .with_max_connections(16),
        )
        .start()
        .map_err(|e| format!("cluster: {e}"))?;
    let mut conn = gen::connect(cluster.router_addr()).map_err(|e| format!("router: {e}"))?;
    let mut scratch = Vec::new();
    for line in [
        machine_line(&MachineConfig::core2()),
        format!("ingest {}", inputs.csv_path().display()),
        "stack core2 cpu2000".to_owned(),
    ] {
        let resp =
            gen::roundtrip(&mut conn, &line, &mut scratch).map_err(|e| format!("prime: {e}"))?;
        if resp.starts_with(b"err: ") || resp.windows(6).any(|w| w == b"\nerr: ") {
            return Err(format!(
                "prime `{line}`: {}",
                String::from_utf8_lossy(&resp)
            ));
        }
    }
    let _ = gen::roundtrip(&mut conn, "quit", &mut scratch);
    Ok((
        ServingStack {
            service,
            front,
            cluster,
        },
        fits,
    ))
}
