//! The cluster layer: a [`Store`] under a control plane — multi-node
//! placement, a replicated membership/metadata service, backup promotion,
//! and live shard migration.
//!
//! [`Store::format_nodes`] hosts a store's shards on **N independent
//! server nodes**, optionally with one backup per shard, and makes
//! ownership a first-class, *changeable* fact:
//!
//! * [`placement::PlacementMap`] — the deterministic shard→node map,
//!   tagged with a monotonically increasing **placement epoch**;
//! * [`meta`] — a small leader-based metadata service (3 replicas over
//!   the same simulated fabric) that replicates one versioned state: it
//!   owns the placement map and each shard's in-sync backup, detects node
//!   death via heartbeats on the virtual clock, and serializes every
//!   ownership change — it is the only code that decides who serves a
//!   shard;
//! * [`migrate`] — **live shard migration**: copy the shard's pool to
//!   the destination while client traffic keeps flowing, seal + drain,
//!   repair what the copy raced in a fixup pass, verify the copy
//!   byte-identical to the (now frozen) source, and only then flip
//!   ownership with an epoch bump;
//! * [`StoreClient`](crate::store::StoreClient) over [`Store::routes`]
//!   — clients retarget transparently on a sealed source's `WrongEpoch`
//!   or a retired source's transport error.
//!
//! The store holds this control plane beside its seat table: a migration
//! commit, a promotion or a node restart installs the shard's new server
//! as its seat.
//!
//! # Node agents: promotion and settling migrations
//!
//! Each data node runs an agent that heartbeats the metadata leader and
//! acts on the committed state every heartbeat is answered with:
//!
//! * when the placement names this node for a shard whose backup it
//!   holds, the agent fences the deposed owner, lets the backup drain its
//!   in-flight mirror tail, recovers it and installs it as the shard's
//!   seat ([`crate::repl`]);
//! * when a shard this node serves lost its mirror, the agent commits
//!   `BackupLost` and only then, if the committed placement still names
//!   this node, lets the shard take writes again;
//! * it runs the settle step on the plane's migration record, which
//!   finishes a migration its driver could not (see [`migrate`]): it
//!   installs the verified copy once the commit shows, re-proposes the
//!   commit or abort the driver wants while the slot still holds the
//!   migration, and drops the record once the slot has moved on.
//!
//! A shard without an in-sync backup survives its node's death the way
//! the single-node system survives power failure: restart and recovery
//! over the NVM pool ([`Store::restart_data_node`]).
//!
//! # Topology and naming
//!
//! The simulated fabric allows one listener per node, so a *cluster node*
//! `i` is a named family of fabric nodes: seat `n{i}.g{g}` hosts shard
//! `g` when node `i` owns it, and `n{i}.agent` is the node's agent — a
//! client-only endpoint that heartbeats the metadata leader (and lends
//! its identity to the migration driver). All `nodes × shards` seats are
//! created up front so names are stable across crashes, restarts, and
//! repeated migrations.
//!
//! Cluster shards may run with cleaning enabled: a pass may run during a
//! migration's live copy (the fixup pass repairs whatever it rewrote), and
//! the two exclude each other only at the seal — the cleaner's gate starts
//! no pass on a sealed shard, and [`migrate`] seals only once no pass is
//! in flight (see [`migrate::MigrateError::CleanTimeout`]). A migrated
//! copy is taken from a sealed, drained source, so it is a crash-consistent
//! image and the standard recovery rules — including cleaning-progress
//! records — apply to it unchanged.

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
use crate::repl::Backup;
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

/// What a migration's driver wants the settle step to finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// The driver is still at work and settles the migration itself.
    Copying,
    /// The copy verified: commit the move.
    Commit,
    /// Abandon the move; the source stays the one owner.
    Abort,
}

/// The one migration the plane records: written by the driver before it
/// proposes the start, finished by [`Plane::settle`] from committed state.
/// The destination pool models the destination machine's NVM, so it
/// outlives the driver, whose borrowed endpoint may die with that machine.
pub(crate) struct Migration {
    pub(crate) shard: usize,
    pub(crate) to: usize,
    /// The placement epoch the start committed at (0 until it has).
    pub(crate) epoch: u64,
    /// The destination pool the copy fills.
    pub(crate) pool: Arc<PmemPool>,
    pub(crate) want: Want,
}

/// The control plane of a store on several data nodes or with backups:
/// the metadata service, the node agents, and the migration record.
pub(crate) struct Plane {
    fabric: Arc<Fabric>,
    seats: Arc<Seats>,
    /// Per-shard NVM geometry.
    layout: StoreLayout,
    /// Per-shard server template; each seat's counter prefix is its seat
    /// name. `clean_enabled` is honored per shard (see module docs for
    /// where cleaning and migration exclude each other).
    server: ServerConfig,
    /// `seat_nodes[i][g]` = fabric node `n{i}.g{g}`.
    seat_nodes: Vec<Vec<Node>>,
    /// `agent_nodes[i]` = fabric node `n{i}.agent`.
    agent_nodes: Vec<Node>,
    pub(crate) meta: MetaService,
    stats: Arc<ClusterStats>,
    /// The migration being driven or settled (at most one: a driver that
    /// finds a record is refused).
    migration: Mutex<Option<Migration>>,
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

    /// One [`Agent`] per data node. It survives crash/restart cycles of
    /// its node (heartbeats simply fail while the node is down),
    /// mirroring a host daemon that comes back with the machine.
    pub(crate) fn spawn_agents(self: &Arc<Self>, backups: &[Option<Backup>]) {
        for (i, local) in self.agent_nodes.iter().enumerate() {
            let agent = Agent {
                i,
                local: local.clone(),
                mc: MetaClient::new(&self.fabric, local, self.meta.nodes()),
                backups: backups.to_vec(),
                plane: Arc::clone(self),
            };
            sim::spawn(&format!("efactory-agent-n{i}"), move || agent.run());
        }
    }

    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Record migration `m`; `false`, leaving the plane as it is, while
    /// another migration is recorded.
    pub(crate) fn record(&self, m: Migration) -> bool {
        let mut rec = self.migration.lock().unwrap();
        if rec.is_some() {
            return false;
        }
        *rec = Some(m);
        true
    }

    /// Update the recorded migration.
    pub(crate) fn record_mut(&self, f: impl FnOnce(&mut Migration)) {
        if let Some(m) = self.migration.lock().unwrap().as_mut() {
            f(m);
        }
    }

    /// Make `server` shard `g`'s seat on data node `owner`, and shut the
    /// replaced instance down: its seal or deposition already stopped it
    /// serving, but its handler and verifier would otherwise spin for the
    /// rest of the simulation.
    fn install_seat(&self, g: usize, owner: usize, server: Server) {
        self.seats
            .install(g, Seat { owner, server })
            .server
            .shutdown();
    }

    /// Recover shard `g` on data node `i` from `pool` and start serving
    /// it there.
    fn recover_seat(&self, i: usize, g: usize, pool: Arc<PmemPool>) -> RecoveryReport {
        let node = &self.seat_nodes[i][g];
        self.fabric.restart_node(node);
        let (server, report) =
            recovery::recover(&self.fabric, node, pool, self.layout, self.seat_cfg(i, g));
        server.start(&self.fabric);
        self.install_seat(g, i, server);
        report
    }

    /// The settle step: finish the recorded migration as far as the
    /// committed `state` allows, and return the newest committed state it
    /// saw.
    ///
    /// * Once a placement newer than the start names the destination of a
    ///   migration whose driver wants the commit, recover the verified
    ///   copy there and install it as the seat — unless the destination
    ///   machine is down, whose restart does it.
    /// * While the slot still holds the recorded migration, re-propose the
    ///   commit or abort the driver wants (nothing while it is copying).
    /// * Once the slot has moved on without it, drop the record of a
    ///   driver that is done, and unseal the source if the slot is empty.
    ///
    /// Without a record it does nothing, so a migration started with no
    /// driver is left alone. Must run inside a simulated process.
    pub(crate) fn settle(&self, mc: &mut MetaClient, mut state: MetaState) -> MetaState {
        loop {
            let mut rec = self.migration.lock().unwrap();
            let Some(m) = rec.as_ref() else { return state };
            if self.stop.load(Ordering::Relaxed) {
                return state;
            }
            let (g, to) = (m.shard, m.to);
            if m.want == Want::Commit
                && state.placement.epoch > m.epoch
                && state.placement.node_of_shard(g) == to
            {
                if !self.agent_nodes[to].is_crashed() {
                    let m = rec.take().expect("checked above");
                    self.recover_seat(to, g, m.pool);
                }
                return state;
            }
            if state.migrating != Some((g as u32, to as u32)) {
                if m.want != Want::Copying {
                    rec.take();
                    if state.migrating.is_none() {
                        self.seats.get(g).server.shared().unseal();
                    }
                }
                return state;
            }
            let cmd = match m.want {
                Want::Copying => return state,
                Want::Commit => MetaCmd::MigrateCommit { shard: g as u32 },
                Want::Abort => MetaCmd::MigrateAbort { shard: g as u32 },
            };
            drop(rec);
            match mc.propose(&cmd, sim::now() + AGENT_HEARTBEAT) {
                meta::ProposeOutcome::Committed(s) => state = s,
                _ => return state,
            }
        }
    }
}

/// Data node `i`'s agent: heartbeats the metadata leader so the death
/// detector sees the node, and acts on the committed state each heartbeat
/// is answered with (see the module docs).
struct Agent {
    i: usize,
    local: Node,
    mc: MetaClient,
    backups: Vec<Option<Backup>>,
    plane: Arc<Plane>,
}

impl Agent {
    fn run(mut self) {
        while !self.plane.stop.load(Ordering::Relaxed) {
            if !self.local.is_crashed() {
                let deadline = sim::now() + AGENT_HEARTBEAT / 2;
                if let Some(state) = self.mc.heartbeat(self.i, deadline) {
                    self.promote(&state);
                    self.report_lost_mirrors(&state);
                    self.plane.settle(&mut self.mc, state);
                }
            }
            sim::sleep(AGENT_HEARTBEAT);
        }
    }

    /// Serve every shard `state` moved onto a backup this node holds:
    /// fence each deposed owner first, then, once each claimed backup has
    /// drained, recover it and install it as the shard's seat.
    fn promote(&self, state: &MetaState) {
        let p = &self.plane;
        let mut claimed = Vec::new();
        for (g, b) in self.backups.iter().enumerate() {
            let Some(b) = b else { continue };
            let here = b.data_node() == self.i && state.placement.node_of_shard(g) == self.i;
            let seat = p.seats.get(g);
            if here && seat.owner != self.i && b.claim() {
                seat.server.shared().depose();
                claimed.push((g, b));
            }
        }
        for (g, b) in claimed {
            let server = b.promote(&p.fabric);
            p.install_seat(g, self.i, server.clone());
            if p.stop.load(Ordering::Relaxed) {
                // The store shut down while the backup drained.
                server.shutdown();
            }
        }
    }

    /// Let each shard this node serves whose mirror failed take writes
    /// again once a committed state shows this node still owning it with
    /// its backup out of sync, committing `BackupLost` first where `state`
    /// still counts the backup. A shard the state has moved away (its
    /// backup promoted) stays `Busy` to writes until the promotion fences
    /// it.
    fn report_lost_mirrors(&mut self, state: &MetaState) {
        let me = self.i;
        let unbacked_here =
            |s: &MetaState, g: usize| s.placement.node_of_shard(g) == me && s.backups[g].is_none();
        for (g, seat) in self.plane.seats.all().into_iter().enumerate() {
            let shared = seat.server.shared();
            if seat.owner != me
                || state.placement.node_of_shard(g) != me
                || !shared.mirror_lost.load(Ordering::Relaxed)
            {
                continue;
            }
            let lost = unbacked_here(state, g)
                || matches!(
                    self.mc.propose(
                        &MetaCmd::BackupLost { shard: g as u32 },
                        sim::now() + AGENT_HEARTBEAT,
                    ),
                    meta::ProposeOutcome::Committed(s) if unbacked_here(&s, g)
                );
            if lost {
                shared.mirror_lost.store(false, Ordering::Relaxed);
            }
        }
    }
}

impl Store {
    /// A store of `shards` shards on `nodes` data nodes, each shard with
    /// `replicas` (0 or 1) backups: create all fabric nodes, format the
    /// initial owners' shards (round-robin placement: shard `g` on node
    /// `g % nodes`) and each backup on its owner's next data node, and
    /// build the unstarted metadata service. One node with backups gets a
    /// second, backup-only data node. Each shard and backup gets the full
    /// `layout`, and its counters the prefix `n{i}.g{g}.` of its seat.
    pub fn format_nodes(
        fabric: &Arc<Fabric>,
        nodes: usize,
        shards: usize,
        replicas: usize,
        layout: StoreLayout,
        server: ServerConfig,
    ) -> Store {
        assert!(nodes >= 1 && shards >= 1);
        assert!(replicas <= 1, "a shard has at most one backup");
        let init = MetaState::initial(shards, nodes, replicas);
        let data_nodes = init.alive.len();
        let seat_nodes: Vec<Vec<Node>> = (0..data_nodes)
            .map(|i| {
                (0..shards)
                    .map(|g| fabric.add_node(&seat_name(i, g)))
                    .collect()
            })
            .collect();
        let agent_nodes: Vec<Node> = (0..data_nodes)
            .map(|i| fabric.add_node(&format!("n{i}.agent")))
            .collect();

        let stats = Arc::new(ClusterStats::default());
        stats.register(&server.obs.registry);
        let meta_stats = Arc::new(MetaStats::default());
        meta_stats.register(&server.obs.registry);

        let stop = Arc::new(AtomicBool::new(false));
        let meta = MetaService::new(
            fabric,
            data_nodes,
            init.clone(),
            meta_stats,
            Arc::clone(&stop),
        );
        let seats = Arc::new(Seats::default());
        let plane = Plane {
            fabric: Arc::clone(fabric),
            seats: Arc::clone(&seats),
            layout,
            server,
            seat_nodes,
            agent_nodes,
            meta,
            stats,
            migration: Mutex::new(None),
            stop,
        };
        let mut backups = Vec::with_capacity(shards);
        for g in 0..shards {
            let owner = init.placement.node_of_shard(g);
            let node = &plane.seat_nodes[owner][g];
            let server = Server::format(fabric, node, layout, plane.seat_cfg(owner, g));
            seats.push(Seat { owner, server });
            backups.push(init.backups[g].map(|b| {
                let b = b as usize;
                let cfg = plane.seat_cfg(b, g);
                Backup::format(&plane.seat_nodes[b][g], b, layout, cfg, &plane.stop)
            }));
        }
        Store {
            fabric: Arc::clone(fabric),
            seats,
            backups,
            plane: Some(Arc::new(plane)),
        }
    }

    /// The control plane; a store without backups on one data node has
    /// none.
    fn plane(&self) -> &Plane {
        self.plane
            .as_ref()
            .expect("a store without backups on one data node has no control plane")
    }

    /// The metadata replicas' fabric nodes.
    pub fn meta_nodes(&self) -> &[Node] {
        self.plane().meta.nodes()
    }

    /// Cluster-layer counters.
    pub fn stats(&self) -> &Arc<ClusterStats> {
        &self.plane().stats
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

    /// Power-fail data node `i`: crash its agent endpoint and **every**
    /// seat endpoint the node hosts (in-flight DMA torn per `spec`) —
    /// the seats it currently owns, retired tombstone seats, and equally
    /// the scaffolding seat of a migration *to* this node, so the
    /// recorded destination pool stops absorbing copy and fixup writes
    /// the instant the machine dies. The metadata leader notices the
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
    /// the recovered servers, and run the settle step on the committed
    /// state (a migration that committed onto this node while it was down
    /// is installed here). The resuming agent heartbeats bring the node
    /// back to `alive` in the metadata service. Must run inside a
    /// simulated process. Returns one recovery report per recovered
    /// owned shard.
    pub fn restart_data_node(&self, i: usize) -> Vec<(usize, RecoveryReport)> {
        let p = self.plane();
        self.fabric.restart_node(&p.agent_nodes[i]);
        // Consult the committed placement before trusting the local seat
        // table: a shard a migration moved away while this node was down
        // is NOT recovered here (that would double-own it). With no
        // majority reachable the seat table is the best available truth.
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
        let reports = owned
            .into_iter()
            .map(|(g, pool)| (g, p.recover_seat(i, g, pool)))
            .collect();
        // Reboot the node's remaining crashed endpoints (idle seats,
        // tombstones, a migration destination the machine failure took
        // down) so future migrations can target them again.
        for node in &p.seat_nodes[i] {
            if node.is_crashed() {
                self.fabric.restart_node(node);
            }
        }
        if let Some(state) = state {
            p.settle(&mut mc, state);
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
    /// term, vote, version and state survive the power failure (see
    /// [`MetaService::restart_replica`]). Must run inside a simulated
    /// process.
    pub fn restart_meta_replica(&self, r: usize) {
        self.plane().meta.restart_replica(&self.fabric, r);
    }
}
