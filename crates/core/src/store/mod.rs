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
//! through. A store without backups on one data node ([`Store::format`])
//! never moves a shard. Every other store — on several data nodes, or with
//! a [`Backup`] per shard mirrored by the verifier (see [`crate::repl`]) —
//! holds the control plane of [`crate::cluster`] ([`Store::format_nodes`]):
//! the metadata service decides who serves each shard, and a migration
//! commit, a promotion after a committed `NodeDown`, or a node restart
//! installs the new seat.
//!
//! Clients route with [`key_shard`]: every key maps to exactly one
//! shard, the same on every client, every connection, and every run.
//! [`Routes`] tells a [`StoreClient`] how to re-resolve a shard after an
//! error.

mod client;

pub use client::StoreClient;

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use efactory_checksum::crc32c;
use efactory_obs::Counter;
use efactory_rnic::{Fabric, Node};

use crate::cluster::placement::key_shard;
use crate::cluster::{MetaRoute, Plane};
use crate::layout::flags;
use crate::log::StoreLayout;
use crate::protocol::Status;
use crate::repl::{Backup, ReplStats};
use crate::server::{Server, ServerConfig, ServerStats};

/// Where a shard is served now.
#[derive(Clone)]
pub struct Seat {
    /// The owning data node.
    pub owner: usize,
    /// The serving instance.
    pub server: Server,
}

/// Each shard's [`Seat`], in shard order, shared by a store, its node
/// agents and its clients.
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

/// `shards` eFactory servers over one fabric: on one data node without
/// backups ([`Store::format`]), or under a control plane
/// ([`Store::format_nodes`]).
pub struct Store {
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) seats: Arc<Seats>,
    /// Each shard's backup as formatted, in shard order (empty without
    /// backups). Only the metadata service decides whether one may serve.
    pub(crate) backups: Vec<Option<Backup>>,
    /// The control plane: present on several data nodes or with backups.
    pub(crate) plane: Option<Arc<Plane>>,
}

impl Store {
    /// Create `shards` freshly formatted shards, each with a full copy of
    /// `layout` (the per-shard fill is what matters for cleaning, so a
    /// layout sized for the whole workload leaves generous slack under any
    /// skew). Without backups the shards sit on one data node, on new
    /// fabric nodes named `{name}-shard{i}`, and counter names get a
    /// `shard{i}.` prefix when `shards > 1`. With `replicas = 1` this is
    /// [`format_nodes`](Self::format_nodes) on one data node.
    pub fn format(
        fabric: &Arc<Fabric>,
        name: &str,
        layout: StoreLayout,
        cfg: ServerConfig,
        shards: usize,
        replicas: usize,
    ) -> Store {
        if replicas > 0 {
            return Self::format_nodes(fabric, 1, shards, replicas, layout, cfg);
        }
        let nodes = (0..shards).map(|i| fabric.add_node(&format!("{name}-shard{i}")));
        Self::build(fabric, nodes, layout, cfg)
    }

    /// A one-shard store without backups served from `node`.
    pub fn format_on(
        fabric: &Arc<Fabric>,
        node: &Node,
        layout: StoreLayout,
        cfg: ServerConfig,
    ) -> Store {
        Self::build(fabric, std::iter::once(node.clone()), layout, cfg)
    }

    fn build(
        fabric: &Arc<Fabric>,
        nodes: impl ExactSizeIterator<Item = Node>,
        layout: StoreLayout,
        cfg: ServerConfig,
    ) -> Store {
        let n = nodes.len();
        assert!(n >= 1, "a store has at least one shard");
        let seats = Arc::new(Seats::default());
        for (i, node) in nodes.enumerate() {
            let mut scfg = cfg.clone();
            if n > 1 {
                scfg.counter_prefix = format!("{}shard{i}.", cfg.counter_prefix);
            }
            let server = Server::format(fabric, &node, layout, scfg);
            seats.push(Seat { owner: 0, server });
        }
        Store {
            fabric: Arc::clone(fabric),
            seats,
            backups: Vec::new(),
            plane: None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.seats.0.lock().unwrap().len()
    }

    /// Shard `g`'s backup as formatted, if the store has backups. Whether
    /// it is still in sync is the metadata service's to say.
    pub fn backup(&self, g: usize) -> Option<&Backup> {
        self.backups.get(g).and_then(Option::as_ref)
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
            meta: self.plane.as_deref().map(Plane::meta_route),
        }
    }

    /// Write `records` straight into a freshly formatted store, before
    /// [`start`](Self::start): each record ends in the state a drained PUT
    /// leaves, without simulating one. The record goes to its
    /// [`key_shard`] seat as one version, written whole, flushed, flagged
    /// `DURABLE` and linked by the no-yield block PUTs and staging share,
    /// and the seat's verifier cursor moves past it; on a replicated shard
    /// the backup copies the object and indexes it through its apply step.
    ///
    /// The load runs outside the simulation and charges no virtual time.
    /// It counts what it stores, not the work it skips: each record is one
    /// `server.puts` on its seat, pool writes count under `pmem.*` and a
    /// backup's apply step under `repl.applied_*`, while client, fabric,
    /// verifier and mirror counters stay at 0. It writes no commit
    /// timestamp, so a loaded version reads as timestamp 0, like a
    /// recovered one. Records stream through one at a time. Fails with
    /// the status of the first record that did not fit.
    pub fn load(
        &self,
        records: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<(), Status> {
        let seats = self.seats.all();
        for (key, value) in records {
            let g = key_shard(&key, seats.len());
            let shared = seats[g].server.shared();
            let vlen = value.len() as u32;
            let (off, hdr, _) =
                shared.link_version(&key, vlen, crc32c(&value), flags::VALID, Some(&value))?;
            debug_assert_eq!(
                shared.cursor.load(Ordering::Relaxed) as usize,
                off,
                "load runs before the verifier has work"
            );
            shared
                .cursor
                .store((off + hdr.object_size()) as u64, Ordering::Relaxed);
            shared.stats.puts.inc();
            if let Some(b) = self.backup(g) {
                b.load_object(&shared.pool, off, &hdr);
            }
        }
        Ok(())
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
            let mirror = self.backup(g).map(|b| b.start(&self.fabric));
            seat.server.start_with(&self.fabric, mirror);
        }
        if let Some(p) = &self.plane {
            p.spawn_agents(&self.backups);
        }
    }

    /// Wind down the control plane, every backup's apply loop, and every
    /// shard's current server.
    pub fn shutdown(&self) {
        if let Some(p) = &self.plane {
            p.stop();
        }
        for seat in self.seats.all() {
            seat.server.shutdown();
        }
    }

    /// Sum a server counter across the shards' current servers.
    pub fn stat_sum(&self, pick: impl Fn(&ServerStats) -> &Counter) -> u64 {
        let seats = self.seats.all();
        seats
            .iter()
            .map(|seat| pick(&seat.server.shared().stats).get())
            .sum()
    }

    /// Sum a replication counter across backups.
    pub fn repl_stat_sum(&self, pick: impl Fn(&ReplStats) -> &Counter) -> u64 {
        self.backups
            .iter()
            .flatten()
            .map(|b| pick(b.stats()).get())
            .sum()
    }
}

/// How a [`StoreClient`] reaches a store's shards, and how it re-resolves
/// a shard after an error. Cheap to clone into client processes.
#[derive(Clone)]
pub struct Routes {
    seats: Arc<Seats>,
    /// The metadata service placing the shards, on a store with a control
    /// plane.
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
            meta: None,
        }
    }
}
