//! The store: `shards` hash-partitioned eFactory servers on one fabric,
//! each optionally mirrored to a backup, and the routed client that drives
//! them.
//!
//! Each shard is a complete [`Server`] — its own fabric node (one listener
//! per node), NVM pool(s), hash table, append log, background verifier,
//! and log cleaner — plus, with `replicas = 1`, a [`Backup`] on a second
//! node that the verifier mirrors into (see [`crate::repl`]). Nothing is
//! shared between shards, so no path coordinates across them:
//!
//! * GET's pure one-sided path goes straight to the owning shard's MR;
//! * PUT's client-active path RPCs the owning shard's handler and then
//!   RDMA-writes the value into that shard's pool;
//! * each shard's verifier, cleaner, and backup run as independent
//!   processes.
//!
//! Clients route with [`key_shard`](crate::cluster::placement::key_shard):
//! every key maps to exactly one shard, the same on every client, every
//! connection, and every run. The multi-node
//! [`Cluster`](crate::cluster::Cluster) hosts the same shards on several
//! machines and is driven by the same [`StoreClient`]; [`Routes`] is what
//! tells the client which of the two it talks to.

mod client;

pub(crate) use client::ShardConn;
pub use client::StoreClient;

use std::sync::Arc;

use efactory_obs::Counter;
use efactory_rnic::{Fabric, Node};

use crate::cluster::{ClusterHandle, ClusterStats};
use crate::log::StoreLayout;
use crate::repl::{Backup, ReplHandle, ReplStats};
use crate::server::{Server, ServerConfig, ServerStats, StoreDesc};

/// One shard: a [`Server`] and its optional backup.
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

/// `shards` × (server + `replicas` backups) over one fabric, `replicas`
/// being 0 or 1.
pub struct Store {
    shards: Vec<Shard>,
}

impl Store {
    /// Create `shards` freshly formatted shards on new nodes named
    /// `{name}-shard{i}` (backups: `{name}-shard{i}-backup`), each with a
    /// full copy of `layout` (the per-shard fill is what matters for
    /// cleaning, so a layout sized for the whole workload leaves generous
    /// slack under any skew). Counter names get a `shard{i}.` prefix when
    /// `shards > 1`.
    pub fn format(
        fabric: &Fabric,
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
        fabric: &Fabric,
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
        fabric: &Fabric,
        nodes: impl ExactSizeIterator<Item = Node>,
        layout: StoreLayout,
        cfg: ServerConfig,
        replicas: usize,
    ) -> Store {
        let n = nodes.len();
        assert!(n >= 1, "a store has at least one shard");
        assert!(replicas <= 1, "a shard has at most one backup");
        let shards = nodes
            .enumerate()
            .map(|(i, node)| {
                let mut scfg = cfg.clone();
                if n > 1 {
                    scfg.counter_prefix = format!("{}shard{i}.", cfg.counter_prefix);
                }
                let server = Server::format(fabric, &node, layout, scfg.clone());
                let backup = (replicas == 1).then(|| Backup::format(fabric, &node, layout, scfg));
                Shard { server, backup }
            })
            .collect();
        Store { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// What clients connect with.
    pub fn routes(&self) -> Routes {
        Routes::Shards(
            self.shards
                .iter()
                .map(|s| ShardRoute {
                    failover: s.backup.as_ref().map(|b| Arc::clone(b.handle())),
                    ..s.server.route()
                })
                .collect(),
        )
    }

    /// Start every shard: a backup's apply loop first (its listener must
    /// exist when the primary's verifier connects), then the primary. Must
    /// run inside a simulated process.
    pub fn start(&self, fabric: &Arc<Fabric>) {
        for s in &self.shards {
            let mirror = s.backup.as_ref().map(|b| b.start(fabric, s.node()));
            s.server.start_with(fabric, mirror);
        }
    }

    /// Wind down every shard's processes, including promoted backups.
    pub fn shutdown(&self) {
        for s in &self.shards {
            s.server.shutdown();
            if let Some(b) = &s.backup {
                b.shutdown();
            }
        }
    }

    /// Sum a primary server counter across shards.
    pub fn stat_sum(&self, pick: impl Fn(&ServerStats) -> &Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| pick(&s.server.shared().stats).get())
            .sum()
    }

    /// Sum a replication counter across backups.
    pub fn repl_stat_sum(&self, pick: impl Fn(&ReplStats) -> &Counter) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.backup.as_ref())
            .map(|b| pick(b.stats()).get())
            .sum()
    }
}

/// How a [`StoreClient`] reaches a store's shards, and how it re-resolves
/// a shard after an error. Cheap to clone into client processes.
#[derive(Clone)]
pub enum Routes {
    /// Fixed servers, one per shard; a shard with a failover handle
    /// re-resolves to its promoted backup.
    Shards(Vec<ShardRoute>),
    /// A [`Cluster`](crate::cluster::Cluster)'s shards, placed by its metadata
    /// service.
    Cluster {
        /// The metadata replicas' fabric nodes.
        meta_nodes: Vec<Node>,
        /// The seat table migrations and restarts update.
        handle: Arc<ClusterHandle>,
        /// Where retargets and refreshes are counted.
        stats: Arc<ClusterStats>,
    },
}

/// One shard of [`Routes::Shards`].
#[derive(Clone)]
pub struct ShardRoute {
    /// The serving node.
    pub node: Node,
    /// Its store descriptor.
    pub desc: StoreDesc,
    /// The shard backup's failover rendezvous, if it has a backup.
    pub failover: Option<Arc<ReplHandle>>,
}
