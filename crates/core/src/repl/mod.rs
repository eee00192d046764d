//! Primary–backup replication: synchronous mirroring of durable objects
//! with deterministic failover.
//!
//! eFactory makes a single server crash-*consistent*; this module makes it
//! *available*: each server gets a *backup node* on the same simulated
//! fabric, holding a byte-identical copy of the primary's log in its own
//! NVM pool, indexed by its own hash table.
//!
//! # Replication point: the verifier
//!
//! The background verifier is already the place where an object becomes
//! durable (CRC verified + flushed), so it doubles as the replication
//! point. Every object the verifier's cursor advances past is pushed into a
//! [`Mirror`]: contiguous objects coalesce into runs, and each run ships to
//! the backup with a single doorbell-batched `rdma_write_imm` whose
//! immediate carries the run's log offset. Mirroring therefore sits
//! entirely **off the client's critical path** — a PUT still completes at
//! RDMA-write ack, and the mirror rides behind the verifier exactly like
//! durability does.
//!
//! The backup runs its own apply loop ([`backup`]): on each `WriteImm`
//! completion it walks the mirrored run object by object, *re-verifies the
//! CRC*, flushes the bytes to its own media, and only then links its own
//! hash entry — so an object is indexed on the backup only after **remote
//! persistence**, mirroring the primary's durability-flag discipline.
//!
//! # Failover
//!
//! A fault-injection hook ([`efactory_rnic::Fabric::schedule_crash`]) kills
//! the primary's node at a chosen virtual instant. The backup's apply loop
//! notices (its receive deadline fires with the primary marked crashed),
//! drains the in-flight mirror tail, and **promotes**: it runs the ordinary
//! [`crate::recovery`] replay over its mirrored log — the same code path a
//! rebooted primary would run — and starts serving as a full server.
//! The promoted server takes the shard's seat in the store's seat table
//! (the simulated metadata service); clients detect the failure (RPC
//! deadline / one-sided read error), wait for the seat to change, and
//! reconnect to the promoted store
//! ([`StoreClient`](crate::store::StoreClient)).
//!
//! # Consistency contract
//!
//! The mirrored log is a **hole-free prefix** of the primary's log (every
//! advanced object is mirrored, including invalidated ones, so the backup's
//! recovery scan never stops early). Failover therefore preserves the
//! paper's old-or-new guarantee per key: a version is readable on the
//! promoted backup iff it was mirrored and intact — never torn. Versions
//! the primary acknowledged but had not yet verified+mirrored roll back to
//! the previous durable version, the same contract a primary-local crash
//! gives.
//!
//! # Cleaning under replication
//!
//! The backup does **not** mirror by offset: it re-indexes every mirrored
//! object into its own hash table (last-mirrored-wins), so primary-side
//! log cleaning composes with mirroring. After a pool swap the verifier's
//! cursor re-bases to the new pool and re-walks it from the base,
//! re-mirroring every relocated object; until that re-walk completes the
//! backup serves a mixed image (old-pool copies still indexed). Promotion
//! erases any mirrored cleaning-progress records first
//! ([`crate::recovery::neutralize_clean_records`]) because the mirror
//! ships a swapped pool lowest-offset-first — a `Done` record can arrive
//! before the relocations it describes, and recovery's record rules only
//! hold for crash-consistent primary images. Merge-phase writes the
//! primary acknowledged but had not yet re-mirrored roll back on
//! promotion, the same bounded-loss contract as any unverified write.

mod backup;
mod mirror;

pub use mirror::Mirror;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use efactory_obs::{Counter, Registry};
use efactory_pmem::PmemPool;
use efactory_rnic::{Fabric, Node, RemoteMr};
use efactory_sim as sim;

use crate::log::StoreLayout;
use crate::server::{process_suffix, ServerConfig};
use crate::store::Seats;

/// The owner of a shard's [`Seat`](crate::store::Seat) once its backup has
/// promoted: the backup's node counts as the shard's second data node.
pub const PROMOTED: usize = 1;

/// Counters exposed by the replication tier (primary-side mirroring,
/// backup-side apply, promotion). All monotonically increasing.
#[derive(Debug, Default)]
pub struct ReplStats {
    /// Mirror batches shipped (one `rdma_write_imm` each).
    pub mirror_batches: Counter,
    /// Objects mirrored to the backup.
    pub mirror_objects: Counter,
    /// Log bytes mirrored to the backup.
    pub mirror_bytes: Counter,
    /// Mirror writes that failed (backup unreachable; mirroring degrades
    /// to unreplicated operation).
    pub mirror_failures: Counter,
    /// Objects the backup verified, persisted, and indexed.
    pub applied_objects: Counter,
    /// Mirrored bytes the backup persisted.
    pub applied_bytes: Counter,
    /// Apply-side rejections (CRC mismatch on an invalidated object is
    /// expected; table-full is not).
    pub apply_failures: Counter,
    /// Backup promotions completed (0 or 1 per backup).
    pub promotions: Counter,
}

impl ReplStats {
    /// Attach every counter to `reg` under `{prefix}repl.*` names.
    pub fn register_prefixed(&self, reg: &Registry, prefix: &str) {
        let pairs: [(&str, &Counter); 8] = [
            ("repl.mirror_batches", &self.mirror_batches),
            ("repl.mirror_objects", &self.mirror_objects),
            ("repl.mirror_bytes", &self.mirror_bytes),
            ("repl.mirror_failures", &self.mirror_failures),
            ("repl.applied_objects", &self.applied_objects),
            ("repl.applied_bytes", &self.applied_bytes),
            ("repl.apply_failures", &self.apply_failures),
            ("repl.promotions", &self.promotions),
        ];
        for (name, c) in pairs {
            reg.attach_counter(&format!("{prefix}{name}"), c);
        }
    }
}

/// Where a primary's verifier mirrors to. Handed to
/// [`Server::start_with`]; the verifier process connects its own QP to the
/// backup at startup.
#[derive(Clone)]
pub struct ReplTarget {
    /// The backup's fabric node (must be listening).
    pub backup: Node,
    /// Registration covering the backup's whole pool (offsets line up 1:1
    /// with the primary's, since both pools share one layout).
    pub mr: RemoteMr,
    /// Shared replication counters.
    pub stats: Arc<ReplStats>,
    /// Mirror batch length in objects (doorbell batching; >= 1).
    pub batch: usize,
}

/// A shard's backup replica: a second fabric node with its own NVM pool,
/// fed by the primary's verifier and promoted to a full server when the
/// primary dies. Owned by a [`Shard`](crate::store::Shard).
pub struct Backup {
    node: Node,
    pool: Arc<PmemPool>,
    mr: RemoteMr,
    layout: StoreLayout,
    cfg: ServerConfig,
    stats: Arc<ReplStats>,
    /// The store's seat table and this backup's shard in it: promotion
    /// installs the promoted server there.
    seats: Arc<Seats>,
    shard: usize,
    stop: Arc<AtomicBool>,
}

impl Backup {
    /// A backup for the primary on `primary`: a new node named
    /// `{primary}-backup` over a fresh pool of the same layout. Counters
    /// register as `{cfg.counter_prefix}repl.*`.
    ///
    /// Log cleaning (when `cfg.clean_enabled`) runs on the primary as in an
    /// unreplicated store; the backup re-indexes mirrored objects by content
    /// rather than offset, so relocation is transparent to it (see the
    /// module docs for the swap re-mirror and promotion rules).
    pub(crate) fn format(
        fabric: &Fabric,
        primary: &Node,
        layout: StoreLayout,
        cfg: ServerConfig,
        seats: &Arc<Seats>,
        shard: usize,
    ) -> Backup {
        let node = fabric.add_node(&format!("{}-backup", primary.name()));
        let pool = Arc::new(PmemPool::new(layout.total_len()));
        let mr = node.register_mr(&pool, 0, layout.total_len());
        let stats = Arc::new(ReplStats::default());
        stats.register_prefixed(&cfg.obs.registry, &cfg.counter_prefix);
        Backup {
            node,
            pool,
            mr,
            layout,
            cfg,
            stats,
            seats: Arc::clone(seats),
            shard,
            stop: Arc::default(),
        }
    }

    /// Start the apply loop watching `primary`, and return the mirror
    /// target the primary's verifier ships to. Must run inside a simulated
    /// process, before the primary starts.
    pub(crate) fn start(&self, fabric: &Arc<Fabric>, primary: &Node) -> ReplTarget {
        let listener =
            self.node
                .listen_with(fabric, crate::server::BATCHED_RECV, self.cfg.doorbell_batch);
        let ctx = backup::BackupCtx {
            fabric: Arc::clone(fabric),
            primary: primary.clone(),
            node: self.node.clone(),
            pool: Arc::clone(&self.pool),
            layout: self.layout,
            cfg: self.cfg.clone(),
            cost: fabric.cost().clone(),
            stats: Arc::clone(&self.stats),
            seats: Arc::clone(&self.seats),
            shard: self.shard,
            stop: Arc::clone(&self.stop),
        };
        sim::spawn(
            &format!("efactory-backup{}", process_suffix(&self.cfg)),
            move || backup::run(ctx, listener),
        );
        ReplTarget {
            backup: self.node.clone(),
            mr: self.mr,
            stats: Arc::clone(&self.stats),
            batch: self.cfg.doorbell_batch.max(1),
        }
    }

    /// Wind down the apply loop and, if it promoted, the promoted server.
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let seat = self.seats.get(self.shard);
        if seat.owner == PROMOTED {
            seat.server.shutdown();
        }
    }

    /// The backup's fabric node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The backup's NVM pool (tests, double-fault recovery).
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Replication counters.
    pub fn stats(&self) -> &Arc<ReplStats> {
        &self.stats
    }
}
