//! The cluster layer: a [`Store`] on several data nodes — multi-node
//! placement, a replicated membership/metadata service, and live shard
//! migration.
//!
//! [`Store::format_nodes`] hosts a store's shards on **N independent
//! server nodes** and makes ownership a first-class, *changeable* fact:
//!
//! * [`placement::PlacementMap`] — the deterministic shard→node map,
//!   tagged with a monotonically increasing **placement epoch**;
//! * [`meta`] — a small leader-based, log-replicated metadata service
//!   (3 replicas over the same simulated fabric) that owns the placement
//!   map, detects node death via heartbeats on the virtual clock, and
//!   serializes every ownership change;
//! * [`migrate`] — **live shard migration**: snapshot-copy the shard's
//!   pool to the destination while client traffic keeps flowing, catch
//!   up through the verifier's delta stream, seal + drain, verify the
//!   copy byte-identical to the (now frozen) source, and only then flip
//!   ownership with an epoch bump;
//! * [`StoreClient`](crate::store::StoreClient) over [`Store::routes`]
//!   — clients retarget transparently on a sealed source's `WrongEpoch`
//!   or a retired source's transport error.
//!
//! The store holds this control plane beside its seat table: a migration
//! commit or a node restart installs the shard's new server as its seat.
//!
//! # Topology and naming
//!
//! The simulated fabric allows one listener per node, so a *cluster node*
//! `i` is a named family of fabric nodes: seat `n{i}.g{g}` hosts shard
//! `g` when node `i` owns it, and `n{i}.agent` is the node's agent — a
//! client-only endpoint that heartbeats the metadata leader (and lends
//! its identity to the migration driver). All `nodes × shards` seats are
//! created up front so names are stable across crashes, restarts, and
//! repeated migrations; [`efactory_rnic::Fabric::node_by_name`] is the
//! directory that resolves them.
//!
//! Cluster shards may run with cleaning enabled: the cleaner and the
//! migration engine exclude each other at pass granularity (the cleaner's
//! gate skips sealed or migrating shards; [`migrate`] waits for any
//! in-flight pass to finish or abort before parking its delta-stream
//! attachment — see [`migrate::MigrateError::CleanTimeout`]). A migrated
//! copy is taken from a sealed, drained source, so it is a crash-consistent
//! image and the standard recovery rules — including cleaning-progress
//! records — apply to it unchanged. Shards run without per-shard backups:
//! node death is survived the same way the single-node system survives
//! power failure — restart + recovery over the NVM pool — while *planned*
//! moves use live migration.

pub mod meta;
pub mod migrate;
pub mod placement;

pub use meta::{MetaClient, MetaCmd, MetaService, MetaState, MetaStats};
pub use migrate::{MigrateError, MigrationReport};
pub use placement::{key_shard, PlacementMap};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use efactory_obs::{Counter, Registry};
use efactory_pmem::{CrashSpec, PmemPool};
use efactory_rnic::{Fabric, Node};
use efactory_sim as sim;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::Nanos;

use crate::log::StoreLayout;
use crate::recovery::{self, RecoveryReport};
use crate::repl::ReplStats;
use crate::server::{Server, ServerConfig};
use crate::store::{Seat, Seats, Store};

/// Agent heartbeat period.
const AGENT_HEARTBEAT: Nanos = sim::micros(40);

/// Counters for the cluster layer (migration driver + client routing).
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Migrations started (MigrateStart committed).
    pub migrations_started: Counter,
    /// Migrations committed (ownership flipped).
    pub migrations_committed: Counter,
    /// Migrations aborted (any phase).
    pub migrations_aborted: Counter,
    /// Snapshot-copy bytes shipped to destinations.
    pub snapshot_bytes: Counter,
    /// Snapshot-copy chunks shipped.
    pub snapshot_chunks: Counter,
    /// Bytes rewritten by the post-drain fixup pass.
    pub fixup_bytes: Counter,
    /// Byte differences found by the final verify pass (must stay 0 —
    /// a nonzero value means the copy was *not* stop-the-world-identical).
    pub verify_diff_bytes: Counter,
    /// Seal→drain waits completed.
    pub drain_waits: Counter,
    /// Data nodes power-failed through the cluster API.
    pub node_kills: Counter,
    /// Data nodes restarted + recovered through the cluster API.
    pub node_restarts: Counter,
    /// Client-side: ops retargeted after a `WrongEpoch` rejection.
    pub client_retargets: Counter,
    /// Client-side: placement refreshes from the metadata service.
    pub client_refreshes: Counter,
}

impl ClusterStats {
    /// Attach every counter to `reg` under `cluster.*` names.
    pub fn register(&self, reg: &Registry) {
        let pairs: [(&str, &Counter); 12] = [
            ("cluster.migrate.started", &self.migrations_started),
            ("cluster.migrate.committed", &self.migrations_committed),
            ("cluster.migrate.aborted", &self.migrations_aborted),
            ("cluster.migrate.snapshot_bytes", &self.snapshot_bytes),
            ("cluster.migrate.snapshot_chunks", &self.snapshot_chunks),
            ("cluster.migrate.fixup_bytes", &self.fixup_bytes),
            ("cluster.migrate.verify_diff_bytes", &self.verify_diff_bytes),
            ("cluster.migrate.drain_waits", &self.drain_waits),
            ("cluster.node_kills", &self.node_kills),
            ("cluster.node_restarts", &self.node_restarts),
            ("cluster.client.retargets", &self.client_retargets),
            ("cluster.client.refreshes", &self.client_refreshes),
        ];
        for (name, c) in pairs {
            reg.attach_counter(name, c);
        }
    }
}

/// What a client needs of the metadata service: where its replicas are,
/// and where retargets and refreshes are counted.
#[derive(Clone)]
pub(crate) struct MetaRoute {
    pub(crate) nodes: Vec<Node>,
    pub(crate) stats: Arc<ClusterStats>,
}

/// A migration's destination artifacts, parked in the control plane the
/// moment the copy begins. This models the destination machine's NVM: the
/// pool must outlive the migration *driver* (whose endpoint may die with
/// the destination machine) so that a `MigrateCommit` the driver never
/// learned the outcome of can still be settled afterwards — promoted
/// from this staging if the metadata service says the move committed,
/// abandoned if it aborted. See [`Store::reconcile`].
pub(crate) struct StagedMigration {
    shard: usize,
    to: usize,
    pool: Arc<PmemPool>,
    /// The recovered destination server, parked just before the commit
    /// window opens (present iff the driver reached step 6).
    server: Option<Server>,
}

/// The control plane of a store on several data nodes: data seats, node
/// agents, the replicated metadata service, and the migration staging.
pub(crate) struct Plane {
    /// Per-shard NVM geometry.
    layout: StoreLayout,
    /// Per-shard server template; each seat's counter prefix is its seat
    /// name. `clean_enabled` is honored per shard (see module docs for
    /// how cleaning and migration serialize).
    server: ServerConfig,
    /// `seat_nodes[i][g]` = fabric node `n{i}.g{g}`.
    seat_nodes: Vec<Vec<Node>>,
    /// `agent_nodes[i]` = fabric node `n{i}.agent`.
    agent_nodes: Vec<Node>,
    pub(crate) meta: MetaService,
    stats: Arc<ClusterStats>,
    /// Delta-stream (migration mirror) counters, under `cluster.migrate.`.
    migrate_repl: Arc<ReplStats>,
    /// In-flight migration's destination artifacts (at most one — the
    /// metadata service serializes migrations).
    staged: Mutex<Option<StagedMigration>>,
    /// A `MigrateAbort` whose proposal never reached a metadata majority:
    /// `(shard, to)` of the dead migration still occupying the slot.
    /// With both endpoints alive the death sweep will never free it, so
    /// [`Store::reconcile`] re-proposes it once a majority is reachable
    /// again.
    pending_abort: Mutex<Option<(u32, u32)>>,
    stop: Arc<AtomicBool>,
}

/// The name of node `i`'s seat for shard `g`.
fn seat_name(i: usize, g: usize) -> String {
    format!("n{i}.g{g}")
}

impl Plane {
    pub(crate) fn meta_route(&self) -> MetaRoute {
        MetaRoute {
            nodes: self.meta.nodes().to_vec(),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Shard `g`'s server config on data node `i`.
    fn seat_cfg(&self, i: usize, g: usize) -> ServerConfig {
        let mut cfg = self.server.clone();
        cfg.counter_prefix = format!("{}.", seat_name(i, g));
        cfg
    }

    /// One agent per data node: heartbeats the metadata leader so the
    /// death detector sees the node, for as long as the node is up. It
    /// survives crash/restart cycles of its node (heartbeats simply fail
    /// while the node is down), mirroring a host daemon that comes back
    /// with the machine.
    pub(crate) fn spawn_agents(&self, fabric: &Arc<Fabric>) {
        for (i, local) in self.agent_nodes.iter().enumerate() {
            let fabric = Arc::clone(fabric);
            let local = local.clone();
            let meta_nodes = self.meta.nodes().to_vec();
            let stop = Arc::clone(&self.stop);
            sim::spawn(&format!("efactory-agent-n{i}"), move || {
                let mut mc = MetaClient::new(&fabric, &local, &meta_nodes);
                while !stop.load(Ordering::Relaxed) {
                    if !local.is_crashed() {
                        mc.heartbeat(i, sim::now() + AGENT_HEARTBEAT / 2);
                    }
                    sim::sleep(AGENT_HEARTBEAT);
                }
            });
        }
    }

    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Park a migration's destination pool (step 2 of the protocol; the
    /// pool is the destination machine's NVM and must outlive the
    /// driver).
    pub(crate) fn stage_pool(&self, shard: usize, to: usize, pool: Arc<PmemPool>) {
        // A dead driver's staging may still be parked here (its
        // migration was auto-aborted and this is the retry): wind it
        // down before installing ours.
        self.clear_staged();
        *self.staged.lock().unwrap() = Some(StagedMigration {
            shard,
            to,
            pool,
            server: None,
        });
    }

    /// Park the recovered destination server just before the commit
    /// window opens (step 7 of the protocol).
    pub(crate) fn stage_server(&self, server: Server) {
        if let Some(st) = self.staged.lock().unwrap().as_mut() {
            st.server = Some(server);
        }
    }

    /// Take the staged destination server back out (commit confirmed).
    pub(crate) fn take_staged_server(&self) -> Option<Server> {
        self.staged.lock().unwrap().take().and_then(|st| st.server)
    }

    /// Drop any staged migration (abort with a provably-uncommitted
    /// flip). The staged server, if recovery already produced one, is
    /// wound down.
    pub(crate) fn clear_staged(&self) {
        if let Some(st) = self.staged.lock().unwrap().take() {
            if let Some(server) = st.server {
                server.shutdown();
            }
        }
    }

    /// Record a `MigrateAbort` whose proposal found no metadata majority
    /// (see the field doc on `pending_abort`).
    pub(crate) fn note_unacked_abort(&self, shard: usize, to: usize) {
        *self.pending_abort.lock().unwrap() = Some((shard as u32, to as u32));
    }

    /// A new migration start supersedes any recorded unacked abort: the
    /// slot either freed in the meantime or was re-adopted by the new
    /// driver (same pair), and re-proposing the stale abort would kill
    /// the live migration.
    pub(crate) fn clear_pending_abort(&self) {
        *self.pending_abort.lock().unwrap() = None;
    }

    /// Re-propose a dropped `MigrateAbort` if the slot still holds that
    /// exact migration. Returns the (possibly post-abort) state staging
    /// reconciliation should judge against.
    fn resolve_pending_abort(&self, mc: &mut MetaClient, state: MetaState) -> MetaState {
        let Some((shard, to)) = *self.pending_abort.lock().unwrap() else {
            return state;
        };
        if state.migrating != Some((shard, to)) {
            // Settled without us: the death sweep's auto-abort fired, or
            // a new migration took the slot.
            self.clear_pending_abort();
            return state;
        }
        match mc.propose(
            &MetaCmd::MigrateAbort { shard },
            sim::now() + sim::millis(2),
        ) {
            meta::ProposeOutcome::Committed(s) => {
                self.clear_pending_abort();
                s
            }
            meta::ProposeOutcome::Rejected => {
                self.clear_pending_abort();
                state
            }
            meta::ProposeOutcome::Unavailable => state,
        }
    }
}

impl Store {
    /// A store of `shards` shards on `nodes` data nodes: create all fabric
    /// nodes, format the initial owners' shards (round-robin placement:
    /// shard `g` on node `g % nodes`), and build the unstarted metadata
    /// service. Each shard gets the full `layout`, and its counters the
    /// prefix `n{i}.g{g}.` of its seat.
    pub fn format_nodes(
        fabric: &Arc<Fabric>,
        nodes: usize,
        shards: usize,
        layout: StoreLayout,
        server: ServerConfig,
    ) -> Store {
        assert!(nodes >= 1 && shards >= 1);
        let seat_nodes: Vec<Vec<Node>> = (0..nodes)
            .map(|i| {
                (0..shards)
                    .map(|g| fabric.add_node(&seat_name(i, g)))
                    .collect()
            })
            .collect();
        let agent_nodes: Vec<Node> = (0..nodes)
            .map(|i| fabric.add_node(&format!("n{i}.agent")))
            .collect();

        let stats = Arc::new(ClusterStats::default());
        stats.register(&server.obs.registry);
        let migrate_repl = Arc::new(ReplStats::default());
        migrate_repl.register_prefixed(&server.obs.registry, "cluster.migrate.");
        let meta_stats = Arc::new(MetaStats::default());
        meta_stats.register(&server.obs.registry);

        let stop = Arc::new(AtomicBool::new(false));
        let meta = MetaService::new(
            fabric,
            nodes,
            MetaState::initial(shards, nodes),
            meta_stats,
            Arc::clone(&stop),
        );
        let plane = Plane {
            layout,
            server,
            seat_nodes,
            agent_nodes,
            meta,
            stats,
            migrate_repl,
            staged: Mutex::new(None),
            pending_abort: Mutex::new(None),
            stop,
        };
        let seats = Arc::new(Seats::default());
        for g in 0..shards {
            let owner = g % nodes;
            let node = &plane.seat_nodes[owner][g];
            let server = Server::format(fabric, node, layout, plane.seat_cfg(owner, g));
            seats.push(Seat { owner, server });
        }
        Store {
            fabric: Arc::clone(fabric),
            shards: Vec::new(),
            seats,
            plane: Some(Box::new(plane)),
        }
    }

    /// The control plane; only a store on several data nodes has one.
    fn plane(&self) -> &Plane {
        self.plane
            .as_ref()
            .expect("a store on one data node has no control plane")
    }

    /// The metadata replicas' fabric nodes.
    pub fn meta_nodes(&self) -> &[Node] {
        self.plane().meta.nodes()
    }

    /// Cluster-layer counters.
    pub fn stats(&self) -> &Arc<ClusterStats> {
        &self.plane().stats
    }

    /// Delta-stream (migration mirror) counters.
    pub fn migrate_repl_stats(&self) -> &Arc<ReplStats> {
        &self.plane().migrate_repl
    }

    /// Agent (client-only) fabric node of data node `i` — also the local
    /// endpoint the migration driver issues its copy verbs from.
    pub fn agent_node(&self, i: usize) -> &Node {
        &self.plane().agent_nodes[i]
    }

    /// The seat fabric node for (`node`, `shard`).
    pub fn seat_node(&self, i: usize, g: usize) -> &Node {
        &self.plane().seat_nodes[i][g]
    }

    /// Install shard `g`'s new serving instance (migration commit or
    /// node-restart recovery) as its seat, and decommission the replaced
    /// instance: its seal/poison already stopped it serving, but its
    /// handler and verifier processes would otherwise spin for the rest
    /// of the simulation.
    pub(crate) fn install_seat(&self, g: usize, owner: usize, server: Server) {
        self.seats
            .install(g, Seat { owner, server })
            .server
            .shutdown();
    }

    /// Recover shard `g` on data node `i` from `pool` and start serving
    /// it there.
    fn recover_seat(&self, i: usize, g: usize, pool: Arc<PmemPool>) -> RecoveryReport {
        let p = self.plane();
        let node = &p.seat_nodes[i][g];
        self.fabric.restart_node(node);
        let (server, report) =
            recovery::recover(&self.fabric, node, pool, p.layout, p.seat_cfg(i, g));
        server.start(&self.fabric);
        self.install_seat(g, i, server);
        report
    }

    /// Settle any staged migration against the authoritative placement:
    /// promote the staged destination if the metadata service says the
    /// move committed, abandon it (and unseal the surviving owner, which
    /// a dead driver may have left sealed) if it aborted, leave it
    /// parked while the migration is still marked in flight. Also
    /// re-proposes a `MigrateAbort` the metadata service never acked
    /// (the slot would otherwise stay occupied forever — no endpoint
    /// died, so the death sweep never auto-aborts).
    ///
    /// [`restart_data_node`](Self::restart_data_node) runs this
    /// automatically; call it directly after waiting out a convergence
    /// window when no node restart is involved. Must run inside a
    /// simulated process. No-op when nothing is staged or pending, or no
    /// metadata majority is reachable.
    pub fn reconcile(&self) {
        let p = self.plane();
        let staged_to = p.staged.lock().unwrap().as_ref().map(|st| st.to);
        let pending_to = p.pending_abort.lock().unwrap().map(|(_, to)| to as usize);
        let Some(local) = staged_to.or(pending_to) else {
            return;
        };
        let mut mc = MetaClient::new(&self.fabric, &p.agent_nodes[local], p.meta.nodes());
        if let Some(state) = mc.get_map(sim::now() + sim::millis(5)) {
            let state = p.resolve_pending_abort(&mut mc, state);
            self.reconcile_staged(&state);
        }
    }

    fn reconcile_staged(&self, state: &MetaState) {
        let p = self.plane();
        let st = match p.staged.lock().unwrap().take() {
            Some(st) => st,
            None => return,
        };
        if state.placement.node_of_shard(st.shard) == st.to {
            // The commit landed even though the driver never learned it.
            // The staged pool holds the verified byte-identical copy; the
            // staged server (if the destination machine survived) is
            // already serving it.
            match st.server {
                Some(server) if !p.seat_nodes[st.to][st.shard].is_crashed() => {
                    self.install_seat(st.shard, st.to, server);
                }
                _ => {
                    // The destination machine power-failed after the
                    // commit: this is its reboot path — ordinary recovery
                    // over the surviving NVM copy.
                    self.recover_seat(st.to, st.shard, st.pool);
                }
            }
        } else if state.migrating.is_none() {
            // Aborted (driver abort or the death detector's auto-abort):
            // the old owner keeps the shard. A driver that died inside
            // the commit window left it sealed — restore service.
            if let Some(server) = st.server {
                server.shutdown();
            }
            self.seat(st.shard).server.shared().unseal();
        } else {
            // Still marked in flight; not ours to settle yet.
            *p.staged.lock().unwrap() = Some(st);
        }
    }

    /// Power-fail data node `i`: crash its agent endpoint and **every**
    /// seat endpoint the node hosts (in-flight DMA torn per `spec`) —
    /// the seats it currently owns, retired tombstone seats, and equally
    /// the scaffolding seat of a migration *to* this node, so a staged
    /// destination pool stops absorbing delta/snapshot writes the
    /// instant the machine dies. The metadata leader notices the
    /// heartbeat silence and commits `NodeDown`.
    pub fn crash_data_node(&self, i: usize, spec: CrashSpec, seed: u64) {
        let p = self.plane();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD5_EED5);
        self.fabric.crash_node(&p.agent_nodes[i], spec, &mut rng);
        for node in &p.seat_nodes[i] {
            if !node.is_crashed() {
                self.fabric.crash_node(node, spec, &mut rng);
            }
        }
        p.stats.node_kills.inc();
    }

    /// Restart data node `i`: restart its fabric endpoints and run
    /// recovery over every owned shard's surviving NVM pool, then start
    /// the recovered servers. The resuming agent heartbeats bring the
    /// node back to `alive` in the metadata service. Must run inside a
    /// simulated process. Returns one recovery report per recovered
    /// shard.
    pub fn restart_data_node(&self, i: usize) -> Vec<(usize, RecoveryReport)> {
        let p = self.plane();
        self.fabric.restart_node(&p.agent_nodes[i]);
        // Consult the authoritative placement before trusting the local
        // seat table: a migration whose driver died inside the commit
        // window may have flipped ownership without the table hearing.
        // Shards the metadata service says moved away are NOT recovered
        // here (recovering them would double-own the shard); a staged
        // destination copy this restart makes promotable is settled by
        // the reconciliation below. With no majority reachable the seat
        // table is the best available truth and recovery proceeds on it.
        let mut mc = MetaClient::new(&self.fabric, &p.agent_nodes[i], p.meta.nodes());
        let state = mc.get_map(sim::now() + sim::millis(5));
        let owned: Vec<(usize, Arc<PmemPool>)> = self
            .seats
            .all()
            .iter()
            .enumerate()
            .filter(|(g, s)| {
                s.owner == i
                    && state
                        .as_ref()
                        .is_none_or(|st| st.placement.node_of_shard(*g) == i)
            })
            .map(|(g, s)| (g, Arc::clone(&s.server.shared().pool)))
            .collect();
        if let Some(state) = state {
            let state = p.resolve_pending_abort(&mut mc, state);
            self.reconcile_staged(&state);
        }
        let reports = owned
            .into_iter()
            .map(|(g, pool)| (g, self.recover_seat(i, g, pool)))
            .collect();
        // Reboot the node's remaining crashed endpoints (idle seats,
        // tombstones, a migration scaffolding seat the machine failure
        // took down) so future migrations can target them again. Runs
        // AFTER the staging reconciliation above: its is_crashed() check
        // must still observe the crash.
        for node in &p.seat_nodes[i] {
            if node.is_crashed() {
                self.fabric.restart_node(node);
            }
        }
        p.stats.node_restarts.inc();
        reports
    }

    /// Power-fail metadata replica `r` (volatile state lost).
    pub fn crash_meta_replica(&self, r: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3E7A_0000);
        self.fabric
            .crash_node(&self.meta_nodes()[r], CrashSpec::DropAll, &mut rng);
    }

    /// Restart metadata replica `r` from its simulated stable storage:
    /// term, vote, snapshot, and log survive the power failure (see
    /// [`MetaService::restart_replica`]). Must run inside a simulated
    /// process.
    pub fn restart_meta_replica(&self, r: usize) {
        self.plane().meta.restart_replica(&self.fabric, r);
    }
}
