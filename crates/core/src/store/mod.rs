//! The store: `shards` hash-partitioned eFactory servers on one fabric,
//! on one data node or several, and the routed client that drives them.
//!
//! Each shard is a complete [`Server`] — its own fabric node (one listener
//! per node), NVM pool(s), hash table, append log, background verifier,
//! and log cleaner. Nothing is shared between shards, so no path
//! coordinates across them:
//!
//! * GET's pure one-sided path goes straight to the owning shard's MR;
//! * PUT's client-active path RPCs the owning shard's handler and then
//!   RDMA-writes the value into that shard's pool;
//! * each shard's verifier, cleaner, and backup run as independent
//!   processes.
//!
//! Where a shard is served is its [`Seat`]: one seat table per store,
//! which every move of a shard installs into and every client connects
//! through. A shard moves in one of two ways:
//!
//! * on one data node with `replicas = 1`, each shard has a [`Backup`] on
//!   a second node that the verifier mirrors into (see [`crate::repl`]);
//!   when the primary dies the backup promotes and takes the seat;
//! * on several data nodes ([`Store::format_nodes`]), the store also holds
//!   the control plane of [`crate::cluster`] — the metadata service that
//!   places shards, one agent per node, and live migration — and a
//!   migration commit or a node restart takes the seat.
//!
//! Clients route with [`key_shard`](crate::cluster::placement::key_shard):
//! every key maps to exactly one shard, the same on every client, every
//! connection, and every run. [`Routes`] tells a [`StoreClient`] how to
//! re-resolve a shard after an error.

mod client;

pub use client::StoreClient;

use std::sync::{Arc, Mutex};

use efactory_obs::Counter;
use efactory_rnic::{Fabric, Node};

use crate::cluster::{MetaRoute, Plane};
use crate::log::StoreLayout;
use crate::repl::{Backup, ReplStats};
use crate::server::{Server, ServerConfig, ServerStats};

/// One shard of a store on one data node: its primary [`Server`] and its
/// optional backup.
pub struct Shard {
    server: Server,
    backup: Option<Backup>,
}

impl Shard {
    /// The primary server.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The primary's fabric node.
    pub fn node(&self) -> &Node {
        &self.server.shared().node
    }

    /// The backup, when the store is replicated.
    pub fn backup(&self) -> Option<&Backup> {
        self.backup.as_ref()
    }
}

/// Where a shard is served now.
#[derive(Clone)]
pub struct Seat {
    /// The owning data node. On a store with backups, the primary is 0
    /// and a promoted backup is [`PROMOTED`](crate::repl::PROMOTED).
    pub owner: usize,
    /// The serving instance.
    pub server: Server,
}

/// Each shard's [`Seat`], in shard order, shared by a store, its backups
/// and its clients.
#[derive(Default)]
pub(crate) struct Seats(Mutex<Vec<Seat>>);

impl Seats {
    pub(crate) fn get(&self, g: usize) -> Seat {
        self.0.lock().unwrap()[g].clone()
    }

    pub(crate) fn all(&self) -> Vec<Seat> {
        self.0.lock().unwrap().clone()
    }

    pub(crate) fn push(&self, seat: Seat) {
        self.0.lock().unwrap().push(seat);
    }

    /// Make `seat` shard `g`'s, returning the seat it replaces.
    pub(crate) fn install(&self, g: usize, seat: Seat) -> Seat {
        std::mem::replace(&mut self.0.lock().unwrap()[g], seat)
    }
}

/// `shards` eFactory servers over one fabric: on one data node, each with
/// `replicas` (0 or 1) backups, or on several data nodes under a control
/// plane ([`Store::format_nodes`]).
pub struct Store {
    pub(crate) fabric: Arc<Fabric>,
    /// Each shard's primary and backup on one data node; empty on several,
    /// where migrations and restarts replace a shard's server.
    pub(crate) shards: Vec<Shard>,
    pub(crate) seats: Arc<Seats>,
    /// The control plane of a store on several data nodes.
    pub(crate) plane: Option<Box<Plane>>,
}

impl Store {
    /// Create `shards` freshly formatted shards on new nodes named
    /// `{name}-shard{i}` (backups: `{name}-shard{i}-backup`), each with a
    /// full copy of `layout` (the per-shard fill is what matters for
    /// cleaning, so a layout sized for the whole workload leaves generous
    /// slack under any skew). Counter names get a `shard{i}.` prefix when
    /// `shards > 1`.
    pub fn format(
        fabric: &Arc<Fabric>,
        name: &str,
        layout: StoreLayout,
        cfg: ServerConfig,
        shards: usize,
        replicas: usize,
    ) -> Store {
        let nodes = (0..shards).map(|i| fabric.add_node(&format!("{name}-shard{i}")));
        Self::build(fabric, nodes, layout, cfg, replicas)
    }

    /// A one-shard store served from `node` (backup: `{node}-backup`).
    pub fn format_on(
        fabric: &Arc<Fabric>,
        node: &Node,
        layout: StoreLayout,
        cfg: ServerConfig,
        replicas: usize,
    ) -> Store {
        Self::build(fabric, std::iter::once(node.clone()), layout, cfg, replicas)
    }

    /// Nodes are drawn lazily, so each backup's node is created right
    /// after its primary's.
    fn build(
        fabric: &Arc<Fabric>,
        nodes: impl ExactSizeIterator<Item = Node>,
        layout: StoreLayout,
        cfg: ServerConfig,
        replicas: usize,
    ) -> Store {
        let n = nodes.len();
        assert!(n >= 1, "a store has at least one shard");
        assert!(replicas <= 1, "a shard has at most one backup");
        let seats = Arc::new(Seats::default());
        let shards = nodes
            .enumerate()
            .map(|(i, node)| {
                let mut scfg = cfg.clone();
                if n > 1 {
                    scfg.counter_prefix = format!("{}shard{i}.", cfg.counter_prefix);
                }
                let server = Server::format(fabric, &node, layout, scfg.clone());
                seats.push(Seat {
                    owner: 0,
                    server: server.clone(),
                });
                let backup =
                    (replicas == 1).then(|| Backup::format(fabric, &node, layout, scfg, &seats, i));
                Shard { server, backup }
            })
            .collect();
        Store {
            fabric: Arc::clone(fabric),
            shards,
            seats,
            plane: None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.seats.0.lock().unwrap().len()
    }

    /// Shard `i` of a store on one data node, as formatted.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Shard `g`'s backup, if it has one.
    pub fn backup(&self, g: usize) -> Option<&Backup> {
        self.shards.get(g).and_then(Shard::backup)
    }

    /// Where shard `g` is served now.
    pub fn seat(&self, g: usize) -> Seat {
        self.seats.get(g)
    }

    /// Shard `g`'s current owner.
    pub fn owner_of(&self, g: usize) -> usize {
        self.seat(g).owner
    }

    /// The fabric the store lives on.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// What clients connect with.
    pub fn routes(&self) -> Routes {
        Routes {
            seats: Arc::clone(&self.seats),
            backups: self.shards.iter().any(|s| s.backup.is_some()),
            meta: self.plane.as_deref().map(Plane::meta_route),
        }
    }

    /// Start everything: the metadata replicas, then every shard — a
    /// backup's apply loop before its primary (its listener must exist
    /// when the primary's verifier connects) — then the node agents. Must
    /// run inside a simulated process.
    pub fn start(&self) {
        if let Some(p) = &self.plane {
            p.meta.start(&self.fabric);
        }
        for (g, seat) in self.seats.all().iter().enumerate() {
            let mirror = self
                .backup(g)
                .map(|b| b.start(&self.fabric, &seat.server.shared().node));
            seat.server.start_with(&self.fabric, mirror);
        }
        if let Some(p) = &self.plane {
            p.spawn_agents(&self.fabric);
        }
    }

    /// Wind down every shard's processes, including promoted backups, and
    /// the control plane.
    pub fn shutdown(&self) {
        if let Some(p) = &self.plane {
            p.stop();
        }
        for seat in self.seats.all() {
            seat.server.shutdown();
        }
        for s in &self.shards {
            s.server.shutdown();
            if let Some(b) = &s.backup {
                b.shutdown();
            }
        }
    }

    /// Sum a server counter across the shards' primaries: a promoted
    /// backup counts under `promoted.` instead, so a failed-over shard
    /// still sums its dead primary.
    pub fn stat_sum(&self, pick: impl Fn(&ServerStats) -> &Counter) -> u64 {
        let seats = self.seats.all();
        seats
            .iter()
            .enumerate()
            .map(|(g, seat)| {
                let primary = self.shards.get(g).map_or(&seat.server, Shard::server);
                pick(&primary.shared().stats).get()
            })
            .sum()
    }

    /// Sum a replication counter across backups.
    pub fn repl_stat_sum(&self, pick: impl Fn(&ReplStats) -> &Counter) -> u64 {
        self.shards
            .iter()
            .filter_map(Shard::backup)
            .map(|b| pick(b.stats()).get())
            .sum()
    }
}

/// How a [`StoreClient`] reaches a store's shards, and how it re-resolves
/// a shard after an error. Cheap to clone into client processes.
#[derive(Clone)]
pub struct Routes {
    seats: Arc<Seats>,
    /// Every shard has a backup to fail over to.
    backups: bool,
    /// The metadata service placing the shards, on several data nodes.
    meta: Option<MetaRoute>,
}

impl Routes {
    /// Fixed servers, one per shard in order, that never re-resolve.
    pub fn servers<'a>(servers: impl IntoIterator<Item = &'a Server>) -> Routes {
        let seats = Seats::default();
        for server in servers {
            seats.push(Seat {
                owner: 0,
                server: server.clone(),
            });
        }
        Routes {
            seats: Arc::new(seats),
            backups: false,
            meta: None,
        }
    }
}
