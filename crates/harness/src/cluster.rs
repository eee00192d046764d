//! The experiment driver: build a cluster for any of the paper's six
//! systems inside one deterministic simulation, run a YCSB workload with N
//! closed-loop clients, and report latency/throughput in virtual time.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use efactory::client::{ClientConfig, RemoteKv};
use efactory::cluster::MetaClient;
use efactory::log::StoreLayout;
use efactory::pipeline::{OpCompletion, OpKind, PipelineConfig, PipelinedClient};
use efactory::protocol::{Status, StoreError};
use efactory::server::ServerConfig;
use efactory::store::{Routes, Store, StoreClient};
use efactory_baselines::{Baseline, BaselineClient, BaselineServer};
use efactory_obs::{Breakdown, FoldConfig, Obs, Subsystem};
use efactory_pmem::PmemPool;
use efactory_rnic::{CostModel, Fabric, FaultPlan, Node};
use efactory_sim as sim;
use efactory_sim::{Nanos, Sim};
use efactory_ycsb::{make_value, Mix, Op, OpStream, WorkloadConfig};

use crate::stats::LatencyStats;

/// The systems under comparison (paper §5.3 + the factor-analysis variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum SystemKind {
    /// The paper's contribution.
    EFactory,
    /// eFactory with the hybrid read disabled (always RPC+RDMA read).
    EFactoryNoHr,
    /// Send-after-write.
    Saw,
    /// write_with_imm.
    Imm,
    /// Erda (client-side CRC).
    Erda,
    /// Forca (server-side CRC on reads).
    Forca,
    /// Client-active without persistence (Figure 1 baseline).
    CaNoper,
    /// Plain RPC store (Figure 1 baseline).
    Rpc,
}

impl SystemKind {
    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::EFactory => "eFactory",
            SystemKind::EFactoryNoHr => "eFactory w/o hr",
            SystemKind::Saw => "SAW",
            SystemKind::Imm => "IMM",
            SystemKind::Erda => "Erda",
            SystemKind::Forca => "Forca",
            SystemKind::CaNoper => "CA w/o persistence",
            SystemKind::Rpc => "RPC",
        }
    }

    /// eFactory, with or without the hybrid read.
    pub fn is_efactory(self) -> bool {
        self.baseline().is_none()
    }

    /// The comparison system this kind runs; `None` for eFactory.
    pub fn baseline(self) -> Option<Baseline> {
        Some(match self {
            SystemKind::EFactory | SystemKind::EFactoryNoHr => return None,
            SystemKind::Saw => Baseline::Saw,
            SystemKind::Imm => Baseline::Imm,
            SystemKind::Erda => Baseline::Erda,
            SystemKind::Forca => Baseline::Forca,
            SystemKind::CaNoper => Baseline::CaNoper,
            SystemKind::Rpc => Baseline::Rpc,
        })
    }

    /// The six systems of Figures 9/10, in the paper's legend order.
    pub fn comparison() -> [SystemKind; 6] {
        [
            SystemKind::EFactory,
            SystemKind::EFactoryNoHr,
            SystemKind::Saw,
            SystemKind::Imm,
            SystemKind::Erda,
            SystemKind::Forca,
        ]
    }
}

/// Log-cleaning configuration for eFactory runs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum Cleaning {
    /// Single pool sized for the whole workload; no cleaner process.
    Disabled,
    /// Dual pools of `pool_len` bytes each; clean at `threshold` fill.
    Enabled {
        /// Fill fraction that triggers cleaning.
        threshold: f64,
        /// Per-pool capacity in bytes.
        pool_len: usize,
    },
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// System under test.
    pub system: SystemKind,
    /// Operation mix.
    pub mix: Mix,
    /// Value size in bytes.
    pub value_len: usize,
    /// Key size in bytes (the paper uses 32).
    pub key_len: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Measured operations per client.
    pub ops_per_client: usize,
    /// Distinct keys (preloaded before measurement).
    pub record_count: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Cleaning mode (eFactory only; baselines never clean).
    pub cleaning: Cleaning,
    /// Force one cleaning pass right as measurement starts (Figure 11:
    /// latency *during* cleaning). Requires `Cleaning::Enabled`.
    pub force_clean: bool,
    /// Shard count (eFactory only; baselines require 1). With more than
    /// one shard the key space is hash-partitioned across independent
    /// servers, each on its own node with its own verifier and cleaner.
    pub shards: usize,
    /// Doorbell batch length for recv-ring refills and verifier flush
    /// fences (eFactory only; 0 = flat per-message charging).
    pub doorbell_batch: usize,
    /// Backup replicas per server (eFactory only; 0 = unreplicated, 1 =
    /// primary–backup mirroring with one backup node per shard; single-node
    /// stores only). Composes with `Cleaning::Enabled`: the backup indexes
    /// mirrored objects by content, so relocation is transparent to it.
    pub replicas: usize,
    /// Fault injection: power-fail every shard's primary this many virtual
    /// nanoseconds after the measurement window opens. Requires
    /// `replicas > 0`; clients ride through via transparent failover.
    pub fault_at: Option<Nanos>,
    /// Fault injection: a lossy-fabric plan installed as the default for
    /// every link (message drop/duplicate/delay — see
    /// [`efactory_rnic::FaultPlan`]). Clients ride through via RPC
    /// deadlines + idempotent retry; the stalls are part of the measured
    /// latency. `None` = perfect fabric.
    pub fault_plan: Option<FaultPlan>,
    /// Run the background CRC scrubber on every eFactory server
    /// (repairs/quarantines bit-rotted objects — see [`efactory::scrub`]).
    pub scrub: bool,
    /// Pipeline window per client: each client keeps up to this many
    /// operations in flight through [`efactory::PipelinedClient`] (one
    /// routed client per slot, per-key hazards, doorbell-batched send
    /// posts), on any eFactory topology. `1` (the default) drives the
    /// serial client. Values above 1 require a mix without snapshot reads.
    pub window: usize,
    /// Enable the client-side location cache (key → object offset), so
    /// repeat GETs skip the bucket-probe RDMA read (eFactory only).
    pub loc_cache: bool,
    /// Background snapshot-reader processes running for the whole
    /// measurement window: each captures an MVCC snapshot, reads a handful
    /// of keys under it, and repeats until the workload clients finish.
    /// Used to measure snapshot/writer interference (eFactory only). With
    /// `Cleaning::Enabled` a pool swap expires open snapshots; readers
    /// re-capture on `Status::Expired`.
    pub snap_readers: usize,
    /// Data nodes hosting the shards. `1` (the default) runs the
    /// [`efactory::Store`] on one data node; above 1 it runs on several
    /// ([`efactory::Store::format_nodes`]) — shards placed round-robin
    /// across nodes, a 3-replica metadata service, and clients that
    /// retarget on placement changes. Requires eFactory with
    /// `replicas == 0`.
    pub nodes: usize,
    /// Live-migrate shard 0 to the next node (`(owner + 1) % nodes`)
    /// this many virtual nanoseconds after the measurement window opens,
    /// while the measured workload keeps flowing. Requires `nodes > 1`.
    pub migrate_at: Option<Nanos>,
    /// Simulation executor override (`None` = [`Sim::new`]'s default:
    /// fibers where supported, threads elsewhere). Used by the equivalence
    /// tests and the `sim` bench probe to pin a backend per run. Deliberately
    /// excluded from report params: both backends produce byte-identical
    /// reports, and stamping the executor would break that check.
    pub exec: Option<efactory_sim::ExecModel>,
}

/// Keys per multi-key transaction (and per snapshot read) in the
/// transactional mixes — the YCSB-T write-set width.
pub const TXN_KEYS: usize = 4;

/// A spec combination the harness cannot run, reported by
/// [`ExperimentSpec::validate`] before any simulation starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `shards` or `nodes` is zero.
    EmptyTopology,
    /// More than one backup per shard.
    TooManyReplicas(usize),
    /// Backups on a multi-node cluster: cluster shards survive node death
    /// by restart and recovery, and move by live migration, instead.
    BackupsOnCluster,
    /// A baseline with shards, nodes, replicas, or a pipeline window: the
    /// baselines run one serial client against one unreplicated server.
    BaselineTopology(SystemKind),
    /// Transactions or snapshot readers on a baseline, which has no
    /// transactional surface.
    BaselineTxn(SystemKind),
    /// Snapshot reads in a pipelined op stream: the pipelined driver has
    /// no snapshot lane (use `snap_readers` instead).
    PipelinedSnapReads,
    /// `fault_at` without a backup to fail over to.
    FaultNeedsReplicas,
    /// `migrate_at` without a second node to migrate to.
    MigrateNeedsNodes,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyTopology => write!(f, "shards and nodes must be at least 1"),
            SpecError::TooManyReplicas(n) => {
                write!(f, "{n} replicas: a shard has at most one backup")
            }
            SpecError::BackupsOnCluster => {
                write!(f, "replicas > 0 requires nodes == 1")
            }
            SpecError::BaselineTopology(k) => write!(
                f,
                "{k:?} runs one unreplicated shard on one node with window 1"
            ),
            SpecError::BaselineTxn(k) => write!(
                f,
                "{k:?} has no transactions: transactional mixes and snapshot readers require eFactory"
            ),
            SpecError::PipelinedSnapReads => {
                write!(f, "window > 1 cannot drive a mix with snapshot reads")
            }
            SpecError::FaultNeedsReplicas => write!(f, "fault_at requires replicas > 0"),
            SpecError::MigrateNeedsNodes => write!(f, "migrate_at requires nodes > 1"),
        }
    }
}

impl std::error::Error for SpecError {}

impl ExperimentSpec {
    /// A paper-flavored spec: 32-byte keys, 4 K records, 8 clients.
    pub fn paper(system: SystemKind, mix: Mix, value_len: usize) -> ExperimentSpec {
        ExperimentSpec {
            system,
            mix,
            value_len,
            key_len: 32,
            clients: 8,
            ops_per_client: 2_000,
            record_count: 4_096,
            seed: 42,
            cleaning: Cleaning::Disabled,
            force_clean: false,
            shards: 1,
            doorbell_batch: 0,
            replicas: 0,
            fault_at: None,
            fault_plan: None,
            scrub: false,
            window: 1,
            loc_cache: false,
            snap_readers: 0,
            nodes: 1,
            migrate_at: None,
            exec: None,
        }
    }

    /// Check that the harness can run this spec. [`run`] and its siblings
    /// panic with the error's message before the simulation starts.
    pub fn validate(&self) -> Result<(), SpecError> {
        let efactory = self.system.is_efactory();
        if self.shards == 0 || self.nodes == 0 {
            return Err(SpecError::EmptyTopology);
        }
        if self.replicas > 1 {
            return Err(SpecError::TooManyReplicas(self.replicas));
        }
        if !efactory && (self.shards > 1 || self.nodes > 1 || self.replicas > 0 || self.window > 1)
        {
            return Err(SpecError::BaselineTopology(self.system));
        }
        if !efactory && (self.mix.transactional() || self.snap_readers > 0) {
            return Err(SpecError::BaselineTxn(self.system));
        }
        if self.nodes > 1 && self.replicas > 0 {
            return Err(SpecError::BackupsOnCluster);
        }
        if self.window > 1 && self.mix.snap_fraction() > 0.0 {
            return Err(SpecError::PipelinedSnapReads);
        }
        if self.fault_at.is_some() && self.replicas == 0 {
            return Err(SpecError::FaultNeedsReplicas);
        }
        if self.migrate_at.is_some() && self.nodes < 2 {
            return Err(SpecError::MigrateNeedsNodes);
        }
        Ok(())
    }
}

/// What a run produced.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunResult {
    /// System label.
    pub system: &'static str,
    /// Measured operations (across all clients).
    pub total_ops: u64,
    /// Virtual time of the measurement window.
    pub elapsed_ns: Nanos,
    /// Throughput in million operations per virtual second.
    pub mops: f64,
    /// GET latencies.
    pub get: LatencyStats,
    /// PUT latencies.
    pub put: LatencyStats,
    /// All-op latencies (Figure 11 plots the combined average).
    pub all: LatencyStats,
    /// Server-side RPC GETs (eFactory: the fallback count).
    pub server_rpc_gets: u64,
    /// Objects persisted by the background verifier (eFactory).
    pub bg_verified: u64,
    /// Log cleanings completed (eFactory).
    pub cleanings: u64,
    /// Seed the run was driven by (determinism provenance).
    pub seed: u64,
    /// Host time and kernel events before and inside the window.
    pub host: HostSplit,
    /// End-of-run metric registry snapshot, sorted by name
    /// (`server.*`, `pmem.*`, `fabric.*`).
    pub counters: Vec<(String, u64)>,
    /// Per-op critical-path breakdown folded from the trace over the
    /// measurement window (None on an untraced run, when the trace captured
    /// no attributed ops — e.g. baseline systems that don't emit `"op"`
    /// root spans — or when the trace ring overflowed and dropped records).
    /// Serialized separately by the report writer, not via serde.
    pub breakdown: Option<Breakdown>,
}

/// Where a run's host time and kernel events went: before the
/// measurement window opened (format, load and start, or a comparison
/// system's preload) and inside it. Wall-clock, so it differs between two
/// runs of one seed; reports keep it in their `wall` objects.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct HostSplit {
    /// Host ns from the run's start to the window's opening.
    pub load_ns: u64,
    /// Host ns from the window's opening to its close.
    pub window_ns: u64,
    /// Kernel events dispatched before the window opened.
    pub load_events: u64,
    /// Kernel events dispatched inside the window.
    pub window_events: u64,
}

impl HostSplit {
    /// Kernel events dispatched per host second inside the window.
    pub fn window_events_per_sec(&self) -> f64 {
        self.window_events as f64 / (self.window_ns.max(1) as f64 / 1e9)
    }
}

/// One edge of the measurement window: its virtual instant, with the host
/// clock and the kernel's dispatched-event count there.
#[derive(Clone, Copy)]
struct Edge {
    at: Nanos,
    host: Instant,
    events: u64,
}

impl Edge {
    /// The edge at this instant. Must run inside a simulated process.
    fn now() -> Edge {
        Edge {
            at: sim::now(),
            host: Instant::now(),
            events: sim::events_dispatched(),
        }
    }
}

#[derive(Default)]
struct Collected {
    get: Vec<Nanos>,
    put: Vec<Nanos>,
    end: Nanos,
}

enum AnyServer {
    Store(Store),
    Baseline(BaselineServer),
}

impl AnyServer {
    fn start(&self, fabric: &Arc<Fabric>) {
        match self {
            AnyServer::Store(s) => s.start(),
            AnyServer::Baseline(s) => s.start(fabric),
        }
    }

    fn shutdown(&self) {
        match self {
            AnyServer::Store(s) => s.shutdown(),
            AnyServer::Baseline(s) => s.shutdown(),
        }
    }

    /// Sum a server counter across shards (a baseline is one shard).
    fn stat_sum(
        &self,
        pick: impl Fn(&efactory::server::ServerStats) -> &efactory_obs::Counter,
    ) -> u64 {
        match self {
            AnyServer::Store(s) => s.stat_sum(pick),
            AnyServer::Baseline(s) => pick(s.stats()).get(),
        }
    }

    /// What eFactory clients connect with.
    fn routes(&self) -> Routes {
        match self {
            AnyServer::Store(s) => s.routes(),
            AnyServer::Baseline(_) => unreachable!("baselines have no routed client"),
        }
    }

    /// Attach pool counters (under each server's counter prefix) and the
    /// pmem tracer to the run's observability context. eFactory servers
    /// register their server counters at construction through `cfg.obs`;
    /// baselines share the same `ServerStats` type and attach here.
    fn attach_obs(&self, obs: &Obs) {
        let attach = |pool: &PmemPool, prefix: &str| {
            pool.stats().register_prefixed(&obs.registry, prefix);
            pool.set_tracer(obs.tracer.clone());
        };
        match self {
            AnyServer::Store(s) => {
                for g in 0..s.shards() {
                    let shared = Arc::clone(s.seat(g).server.shared());
                    let prefix = &shared.cfg.counter_prefix;
                    attach(&shared.pool, prefix);
                    if let Some(b) = s.backup(g) {
                        attach(b.pool(), &format!("{prefix}backup."));
                    }
                }
            }
            AnyServer::Baseline(s) => {
                s.stats().register(&obs.registry);
                attach(s.pool(), "");
            }
        }
    }

    /// Connect a workload client: the routed client for eFactory, the
    /// baseline's own client (through its server) otherwise.
    fn connect(
        &self,
        spec: &ExperimentSpec,
        fabric: &Arc<Fabric>,
        local: &Node,
        obs: &Obs,
    ) -> Box<dyn RemoteKv> {
        fn boxed<C: RemoteKv + 'static>(
            c: Result<C, StoreError>,
        ) -> Result<Box<dyn RemoteKv>, StoreError> {
            c.map(|c| Box::new(c) as Box<dyn RemoteKv>)
        }
        let connected = match self {
            AnyServer::Store(_) => boxed(StoreClient::connect(
                fabric,
                local,
                &self.routes(),
                client_cfg(spec, obs),
            )),
            AnyServer::Baseline(s) => boxed(BaselineClient::connect(fabric, local, s)),
        };
        connected.unwrap_or_else(|e| panic!("{}: client connect failed: {e}", spec.system.label()))
    }
}

/// Record `id` as every system's store starts with it: eFactory's load and
/// the comparison systems' loader PUT the same bytes.
fn preload_record(wl: &WorkloadConfig, id: u64) -> (Vec<u8>, Vec<u8>) {
    (wl.key(id), make_value(wl.value_len, id, 0))
}

/// Why a measured GET that found nothing fails the run: every key an op
/// stream draws was preloaded and no mix deletes one, so the store lost
/// the record.
fn lost_record(key: &[u8]) -> String {
    format!(
        "GET found no record for preloaded key {:?}",
        String::from_utf8_lossy(key)
    )
}

/// The eFactory client configuration a spec asks for.
fn client_cfg(spec: &ExperimentSpec, obs: &Obs) -> ClientConfig {
    ClientConfig {
        hybrid_read: spec.system == SystemKind::EFactory,
        loc_cache: spec.loc_cache,
        obs: obs.clone(),
    }
}

fn build_server(
    fabric: &Arc<Fabric>,
    node: &Node,
    spec: &ExperimentSpec,
    obs: &Obs,
    cfg_tweak: Option<&(dyn Fn(&mut ServerConfig) + Send + Sync)>,
) -> AnyServer {
    // Size the store to hold preload + every measured PUT with slack. A
    // transactional write op stages `TXN_KEYS` objects plus one (smaller)
    // commit record, so count it as `TXN_KEYS + 1` puts.
    let write_frac = (1.0 - spec.mix.read_fraction() - spec.mix.snap_fraction()).max(0.0);
    let puts_per_write = if spec.mix.transactional() {
        (TXN_KEYS + 1) as f64
    } else {
        1.0
    };
    let total_puts = ((spec.clients * spec.ops_per_client) as f64 * write_frac * puts_per_write)
        .ceil() as usize
        + 16;
    let sized = StoreLayout::for_workload(
        spec.record_count as usize,
        total_puts,
        spec.key_len,
        spec.value_len,
        1.3,
        false,
    );
    if let Some(kind) = spec.system.baseline() {
        return AnyServer::Baseline(BaselineServer::format(kind, fabric, node, sized));
    }
    let (layout, mut cfg) = match spec.cleaning {
        Cleaning::Disabled => (
            sized,
            ServerConfig {
                clean_enabled: false,
                ..ServerConfig::default()
            },
        ),
        Cleaning::Enabled {
            threshold,
            pool_len,
        } => (
            StoreLayout::new((spec.record_count as usize * 4).max(1024), pool_len, true),
            ServerConfig {
                clean_enabled: true,
                clean_threshold: threshold,
                ..ServerConfig::default()
            },
        ),
    };
    cfg.obs = obs.clone();
    cfg.doorbell_batch = spec.doorbell_batch;
    cfg.scrub_enabled = spec.scrub;
    if let Some(tweak) = cfg_tweak {
        tweak(&mut cfg);
    }
    if spec.nodes > 1 {
        // The `node` arg ("server") stays unused in this topology.
        return AnyServer::Store(Store::format_nodes(
            fabric,
            spec.nodes,
            spec.shards,
            layout,
            cfg,
        ));
    }
    // Each shard keeps the full-workload layout: the router spreads keys,
    // but Zipf skew makes the hottest shard's share unpredictable, and
    // simulated bytes are cheap. A lone unreplicated shard serves from the
    // run's `server` node; every other shape names its nodes per shard —
    // node names and creation order are part of a replay.
    AnyServer::Store(if spec.shards == 1 && spec.replicas == 0 {
        Store::format_on(fabric, node, layout, cfg, 0)
    } else {
        Store::format(fabric, "server", layout, cfg, spec.shards, spec.replicas)
    })
}

/// Drive one client's workload through a [`PipelinedClient`]
/// (`spec.window > 1`). Op latencies run submit → completion, including
/// any wait behind the window or a per-key hazard. Must run inside the
/// client's simulated process.
#[allow(clippy::too_many_arguments)]
fn run_pipelined(
    spec: &ExperimentSpec,
    fabric: &Arc<Fabric>,
    node: &Node,
    routes: &Routes,
    obs: &Obs,
    cid: usize,
    stream: &mut OpStream,
    get: &mut Vec<Nanos>,
    put: &mut Vec<Nanos>,
) {
    let pcfg = PipelineConfig {
        window: spec.window,
        doorbell_batch: spec.doorbell_batch,
        client: client_cfg(spec, obs),
    };
    let mut pc = PipelinedClient::connect(fabric, node, routes, pcfg, &format!("client-{cid}"))
        .unwrap_or_else(|e| panic!("{}: pipelined connect failed: {e}", spec.system.label()));
    let record = |comps: Vec<OpCompletion>, get: &mut Vec<Nanos>, put: &mut Vec<Nanos>| {
        for comp in comps {
            match (&comp.kind, &comp.result) {
                (_, Err(e)) => panic!("{:?} failed: {e:?}", comp.kind),
                (OpKind::Get, Ok(None)) => panic!("{}", lost_record(&comp.key)),
                _ => {}
            }
            match comp.kind {
                OpKind::Get => get.push(comp.latency()),
                OpKind::Put => put.push(comp.latency()),
                OpKind::Del => {}
                // One latency sample per written key, so transactional
                // throughput counts key-writes like the serial driver.
                OpKind::Txn => {
                    for _ in 0..comp.txn_keys.len().max(1) {
                        put.push(comp.latency());
                    }
                }
            }
        }
    };
    for _ in 0..spec.ops_per_client {
        let comps = match stream.next_op() {
            Op::Get { key } => pc.submit_get(&key),
            Op::Put { key, value } => pc.submit_put(&key, &value),
            Op::Txn { puts } => pc.submit_txn(&puts),
            Op::SnapRead { .. } => {
                unreachable!("validate() rejects snapshot reads when window > 1")
            }
        };
        record(comps, get, put);
    }
    record(pc.finish(), get, put);
}

/// Drive one client's workload serially. Latencies: one sample per written
/// key for a transaction (so throughput counts key-writes), one sample per
/// read key for a snapshot read. Must run inside the client's simulated
/// process.
fn run_serial(
    kv: &dyn RemoteKv,
    ops_per_client: usize,
    stream: &mut OpStream,
    get: &mut Vec<Nanos>,
    put: &mut Vec<Nanos>,
) {
    let txn = || {
        kv.txn()
            .expect("validate() keeps transactional mixes on eFactory")
    };
    for _ in 0..ops_per_client {
        match stream.next_op() {
            Op::Get { key } => {
                let t0 = sim::now();
                let found = kv.kv_get(&key).expect("get failed");
                assert!(found.is_some(), "{}", lost_record(&key));
                get.push(sim::now() - t0);
            }
            Op::Put { key, value } => {
                let t0 = sim::now();
                if let Err(e) = kv.kv_put(&key, &value) {
                    panic!("put failed: {e:?}");
                }
                put.push(sim::now() - t0);
            }
            Op::Txn { puts } => {
                let t0 = sim::now();
                // The routed txn driver retries Busy/Conflict with backoff
                // and the routed client rides out Busy/NoSpace; anything
                // surviving that is a real failure.
                txn().txn_put_all(&puts).expect("txn commit failed");
                let dt = sim::now() - t0;
                for _ in 0..puts.len() {
                    put.push(dt);
                }
            }
            Op::SnapRead { keys } => {
                let t0 = sim::now();
                // A cleaning pool swap expires open snapshots (the swap
                // recycles old-pool offsets); re-capture and restart the
                // scan — the retry latency is part of the measurement.
                'scan: loop {
                    let snap = txn().snapshot().expect("snapshot capture failed");
                    for k in &keys {
                        match txn().snap_get(k, &snap) {
                            Ok(_) => {}
                            Err(StoreError::Status(Status::Expired)) => continue 'scan,
                            Err(e) => panic!("snap get failed: {e:?}"),
                        }
                    }
                    break;
                }
                let dt = sim::now() - t0;
                for _ in 0..keys.len() {
                    get.push(dt);
                }
            }
        }
    }
}

/// Execute one experiment, recording metrics only (no trace, so no
/// breakdown). Deterministic in `spec.seed`.
pub fn run(spec: &ExperimentSpec) -> RunResult {
    run_with_cost(spec, CostModel::default())
}

/// Execute one experiment with a custom cost model (ablations).
pub fn run_with_cost(spec: &ExperimentSpec, cost: CostModel) -> RunResult {
    run_inner(spec, cost, None, None)
}

/// Execute one experiment against a caller-supplied observability handle:
/// the run's metrics land in `obs.registry` and, when `obs.tracer` is on
/// ([`Obs::with_trace_capacity`]), its spans/events in `obs.tracer`, so the
/// caller can export a trace, read the breakdown, or inspect counters after
/// the run. Deterministic in `spec.seed` — same seed, same trace.
pub fn run_observed(spec: &ExperimentSpec, cost: CostModel, obs: &Obs) -> RunResult {
    run_inner(spec, cost, None, Some(obs.clone()))
}

/// Execute one experiment with a tweak applied to the eFactory
/// `ServerConfig` (verifier/cleaner ablations). No effect on baselines.
pub fn run_with_server_cfg(
    spec: &ExperimentSpec,
    cost: CostModel,
    tweak: impl Fn(&mut ServerConfig) + Send + Sync + 'static,
) -> RunResult {
    run_inner(spec, cost, Some(Arc::new(tweak)), None)
}

type CfgTweak = Arc<dyn Fn(&mut ServerConfig) + Send + Sync>;

fn run_inner(
    spec: &ExperimentSpec,
    cost: CostModel,
    tweak: Option<CfgTweak>,
    obs: Option<Obs>,
) -> RunResult {
    if let Err(e) = spec.validate() {
        panic!("invalid experiment spec: {e}");
    }
    let t_host = Instant::now();
    let obs = obs.unwrap_or_default();
    let mut simu = match spec.exec {
        Some(model) => Sim::with_exec(spec.seed, model),
        None => Sim::new(spec.seed),
    };
    let fabric = Fabric::new(cost);
    if let Some(plan) = spec.fault_plan {
        fabric.set_fault_plan(Some(plan));
    }
    // On a traced run, NIC verbs become spans on the trace's nic lane,
    // covering the verb's full start→completion window (retransmissions and
    // fault delays included). The probe fires on the issuing thread, so the
    // record inherits the active op id for critical-path attribution.
    if obs.tracer.is_on() {
        let nic_tracer = obs.tracer.clone();
        fabric.set_verb_probe(move |verb, bytes, start, end| {
            nic_tracer.record_span_at(
                Subsystem::Nic,
                verb,
                start,
                end.saturating_sub(start),
                &[("bytes", bytes as u64)],
            );
        });
    }
    let server_node = fabric.add_node("server");
    let server = Arc::new(build_server(
        &fabric,
        &server_node,
        spec,
        &obs,
        tweak.as_deref(),
    ));
    server.attach_obs(&obs);
    let wl = WorkloadConfig {
        mix: spec.mix,
        record_count: spec.record_count,
        key_len: spec.key_len,
        value_len: spec.value_len,
        txn_keys: TXN_KEYS,
    };
    // eFactory's store is loaded straight into its image before it starts;
    // the comparison systems preload through their own PUT paths below.
    if let AnyServer::Store(store) = &*server {
        store
            .load((0..spec.record_count).map(|id| preload_record(&wl, id)))
            .unwrap_or_else(|s| panic!("{}: load failed: {s:?}", spec.system.label()));
    }

    let collected: Arc<Mutex<Collected>> = Arc::default();
    let window: Arc<Mutex<Option<(Edge, Edge)>>> = Arc::default();

    let spec2 = spec.clone();
    let f2 = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    let collected2 = Arc::clone(&collected);
    let window2 = Arc::clone(&window);
    let obs2 = obs.clone();
    simu.spawn("orchestrator", move || {
        server2.start(&f2);

        // ---- comparison systems' preload ------------------------------------
        // Each comparison system's PUT path ends in its own state (Erda's
        // packed two-version entry, CA's unflushed lines, ...), so they keep
        // a loader client.
        if !spec2.system.is_efactory() {
            let loader_node = f2.add_node("loader");
            let loader = server2.connect(&spec2, &f2, &loader_node, &obs2);
            for id in 0..spec2.record_count {
                let (key, value) = preload_record(&wl, id);
                loader.kv_put(&key, &value).expect("preload put");
            }
            // Forca verifies+persists on *first read*; sweep the keyspace
            // once so measurement starts from the verified steady state, as
            // eFactory's loaded store does.
            if matches!(spec2.system, SystemKind::Forca) {
                for id in 0..spec2.record_count {
                    loader.kv_get(&wl.key(id)).expect("preload warm get");
                }
            }
        }

        // ---- measured clients ----------------------------------------------
        // A store on several data nodes serves its placement map once its
        // metadata service has elected a leader. Read the map once here, so
        // the election runs before the window, not inside every measured
        // client's connect.
        if let (true, AnyServer::Store(s)) = (spec2.nodes > 1, &*server2) {
            let reader = f2.add_node("map-reader");
            MetaClient::new(&f2, &reader, s.meta_nodes())
                .get_map(sim::now() + sim::millis(5))
                .expect("the metadata service never served its placement map");
        }
        if let (true, AnyServer::Store(s)) = (spec2.force_clean, &*server2) {
            for g in 0..s.shards() {
                let seat = s.seat(g);
                seat.server
                    .shared()
                    .clean_request
                    .store(true, Ordering::Relaxed);
            }
        }
        let open = Edge::now();
        let t_start = open.at;
        // Fault injection: power-fail every shard's primary at the chosen
        // instant (validate() guarantees a replicated store). Clients ride
        // through via failover; the stall is part of the measured latency.
        if let (Some(fault_at), AnyServer::Store(store)) = (spec2.fault_at, &*server2) {
            for i in 0..store.shards() {
                f2.schedule_crash(
                    store.shard(i).node(),
                    t_start + fault_at,
                    efactory_pmem::CrashSpec::DropAll,
                    spec2.seed ^ 0x0FAB_u64 ^ ((i as u64) << 17),
                );
            }
        }
        // Live migration mid-window: shard 0 moves to the next node
        // while the measured clients keep operating. The driver runs in
        // its own process; clients retarget on WrongEpoch. The handle is
        // joined before shutdown: at reduced op scales the window can end
        // before `migrate_at`, and the migration must still run against a
        // live cluster rather than race the teardown.
        let mut migrator = None;
        if let Some(migrate_at) = spec2.migrate_at {
            let server3 = Arc::clone(&server2);
            let t0 = t_start + migrate_at;
            let nodes = spec2.nodes;
            migrator = Some(sim::spawn("migrator", move || {
                sim::sleep(t0.saturating_sub(sim::now()));
                let AnyServer::Store(s) = &*server3 else {
                    unreachable!("validate() keeps migrate_at on eFactory")
                };
                let to = (s.owner_of(0) + 1) % nodes;
                s.migrate(0, to).expect("mid-window migration failed");
            }));
        }
        // Background snapshot readers: continuous capture + multi-key
        // snapshot reads for the whole measurement window, stopped once
        // the workload clients finish. Their point is interference
        // measurement — they must not block (or be blocked by) writers.
        let snap_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut snap_handles = Vec::new();
        for rid in 0..spec2.snap_readers {
            let f3 = Arc::clone(&f2);
            let spec3 = spec2.clone();
            let wl = wl.clone();
            let obs3 = obs2.clone();
            let server3 = Arc::clone(&server2);
            let stop = Arc::clone(&snap_stop);
            snap_handles.push(sim::spawn(&format!("snap-reader-{rid}"), move || {
                let node = f3.add_node(&format!("snapnode-{rid}"));
                let client = server3.connect(&spec3, &f3, &node, &obs3);
                let kv = client
                    .txn()
                    .expect("validate() keeps snapshot readers on eFactory");
                // Deterministic key picks: a per-reader xorshift stream.
                let mut z = spec3.seed ^ ((rid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut next_id = || {
                    z ^= z << 13;
                    z ^= z >> 7;
                    z ^= z << 17;
                    z % spec3.record_count
                };
                // Scan cadence: readers model periodic analytics scans
                // (capture + 4 reads, then a 60 µs pause — ~12k scans/s
                // per reader), not closed-loop stress. Every scan RPC
                // still shares the server CPU with writer allocations, so
                // the interference measurement stays honest; the cadence
                // only bounds how much scan load the probe applies.
                while !stop.load(Ordering::Relaxed) {
                    let snap = kv.snapshot().expect("snap capture");
                    for _ in 0..TXN_KEYS {
                        // A cleaning pool swap expires the snapshot
                        // mid-scan; abandon it and re-capture on the next
                        // iteration (readers model periodic scans, not
                        // exactly-once reads).
                        match kv.snap_get(&wl.key(next_id()), &snap) {
                            Ok(_) => {}
                            Err(StoreError::Status(Status::Expired)) => break,
                            Err(e) => panic!("snap get: {e:?}"),
                        }
                    }
                    sim::sleep(sim::micros(60));
                }
            }));
        }
        let mut handles = Vec::new();
        for cid in 0..spec2.clients {
            let f3 = Arc::clone(&f2);
            let spec3 = spec2.clone();
            let wl = wl.clone();
            let collected3 = Arc::clone(&collected2);
            let obs3 = obs2.clone();
            let server3 = Arc::clone(&server2);
            handles.push(sim::spawn(&format!("client-{cid}"), move || {
                let node = f3.add_node(&format!("cnode-{cid}"));
                let mut stream = OpStream::new(wl, spec3.seed, cid as u64);
                let mut get = Vec::with_capacity(spec3.ops_per_client);
                let mut put = Vec::with_capacity(spec3.ops_per_client);
                if spec3.window > 1 {
                    run_pipelined(
                        &spec3,
                        &f3,
                        &node,
                        &server3.routes(),
                        &obs3,
                        cid,
                        &mut stream,
                        &mut get,
                        &mut put,
                    );
                } else {
                    let kv = server3.connect(&spec3, &f3, &node, &obs3);
                    run_serial(&*kv, spec3.ops_per_client, &mut stream, &mut get, &mut put);
                }
                let mut c = collected3.lock().unwrap();
                c.get.extend_from_slice(&get);
                c.put.extend_from_slice(&put);
                c.end = c.end.max(sim::now());
            }));
        }
        for h in &handles {
            h.join();
        }
        snap_stop.store(true, Ordering::Relaxed);
        for h in &snap_handles {
            h.join();
        }
        let close = Edge {
            at: collected2.lock().unwrap().end,
            ..Edge::now()
        };
        if let Some(h) = migrator {
            h.join();
        }
        *window2.lock().unwrap() = Some((open, close));
        server2.shutdown();
    });

    let outcome = simu.run();
    if let efactory_sim::RunOutcome::Failed { error, .. } = outcome {
        panic!("experiment failed: {error}");
    }

    let mut c = collected.lock().unwrap();
    let (open, close) = window
        .lock()
        .unwrap()
        .expect("the orchestrator closes the window");
    let start = open.at;
    let elapsed = close.at.saturating_sub(start).max(1);
    let host = HostSplit {
        load_ns: open.host.duration_since(t_host).as_nanos() as u64,
        window_ns: close.host.duration_since(open.host).as_nanos() as u64,
        load_events: open.events,
        window_events: close.events - open.events,
    };
    let total_ops = (c.get.len() + c.put.len()) as u64;
    let mut all: Vec<Nanos> = c.get.iter().chain(c.put.iter()).copied().collect();
    // Mirror the fabric's raw telemetry into the registry so the final
    // snapshot carries the full server/pmem/fabric picture.
    let fstats = fabric.stats();
    for (name, v) in [
        ("fabric.sends", &fstats.sends),
        ("fabric.rdma_reads", &fstats.rdma_reads),
        ("fabric.rdma_writes", &fstats.rdma_writes),
        ("fabric.bytes_on_wire", &fstats.bytes_on_wire),
        ("fabric.crashes", &fstats.crashes),
        ("fabric.fault.dropped", &fstats.fault_dropped),
        ("fabric.fault.duplicated", &fstats.fault_duplicated),
        ("fabric.fault.delayed", &fstats.fault_delayed),
        ("fabric.fault.retrans", &fstats.fault_retrans),
    ] {
        obs.registry
            .counter(name)
            .store(v.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    obs.registry
        .counter("fabric.links_down")
        .store(fabric.links_down_count() as u64, Ordering::Relaxed);
    obs.registry
        .counter("obs.trace_dropped")
        .store(obs.tracer.dropped(), Ordering::Relaxed);
    // Mirror the kernel's execution telemetry the same way. Only the
    // backend-invariant counters go in (`stack_bytes` stays out): these
    // values are a function of the deterministic event sequence, so a
    // fiber run and a thread run of the same spec report identical
    // numbers — the equivalence tests assert exactly that.
    let sc = simu.counters().backend_invariant();
    for (name, v) in [
        ("sim.events_scheduled", sc.events_scheduled),
        ("sim.events_dispatched", sc.events_dispatched),
        ("sim.calls", sc.calls),
        ("sim.chan_wakes", sc.chan_wakes),
        ("sim.wakes_stale", sc.wakes_stale),
        ("sim.ctx_switches", sc.ctx_switches),
        ("sim.allocs", sc.allocs),
        ("sim.slab_reused", sc.slab_reused),
    ] {
        obs.registry.counter(name).store(v, Ordering::Relaxed);
    }
    // Fold a traced run's trace into the per-op critical-path breakdown,
    // clipped to the measurement window (preload ops start before `start`
    // and are excluded by min_start). A ring that overflowed kept only its
    // newest records, so its fold would cover an arbitrary subset of the
    // ops: skip it.
    let breakdown = (obs.tracer.is_on() && obs.tracer.dropped() == 0)
        .then(|| {
            efactory_obs::critical_path::fold(
                &obs.tracer.records(),
                &FoldConfig {
                    min_start: start,
                    exemplars: 4,
                },
            )
        })
        .filter(|b| b.ops > 0);
    RunResult {
        system: spec.system.label(),
        total_ops,
        elapsed_ns: elapsed,
        mops: total_ops as f64 / (elapsed as f64 / 1e9) / 1e6,
        get: LatencyStats::from_samples(&mut c.get),
        put: LatencyStats::from_samples(&mut c.put),
        all: LatencyStats::from_samples(&mut all),
        server_rpc_gets: server.stat_sum(|s| &s.gets),
        bg_verified: server.stat_sum(|s| &s.bg_verified),
        cleanings: server.stat_sum(|s| &s.cleanings),
        seed: spec.seed,
        host,
        counters: obs.registry.snapshot(),
        breakdown,
    }
}
