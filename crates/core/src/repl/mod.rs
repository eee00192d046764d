//! Primary–backup replication: synchronous mirroring of durable objects
//! with deterministic failover.
//!
//! eFactory makes a single server crash-*consistent*; this module makes it
//! *available*: each shard gets a *backup* on another data node of the
//! same simulated fabric, holding a byte-identical copy of the primary's
//! log in its own NVM pool, indexed by its own hash table.
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
//! The [`Backup`] runs its own apply loop: on each `WriteImm`
//! completion it walks the mirrored run object by object, *re-verifies the
//! CRC*, flushes the bytes to its own media, and only then links its own
//! hash entry — so an object is indexed on the backup only after **remote
//! persistence**, mirroring the primary's durability-flag discipline.
//!
//! # Failover
//!
//! The backup never decides to promote itself: the metadata service of
//! [`crate::cluster`] is the one ownership authority. It records each
//! shard's in-sync backup, and a committed `NodeDown` for the primary's
//! data node moves every shard whose backup is in sync to the backup's
//! node, with an epoch bump. The backup node's agent sees that placement,
//! fences the deposed primary (sealed, read paths poisoned, processes
//! stopped), lets the apply loop drain the in-flight mirror tail, drops
//! the mirror's registration on the backup node, and runs the ordinary
//! [`crate::recovery`] replay over the mirrored log — the same code path a
//! rebooted primary would run. The promoted server takes the shard's
//! [`Seat`](crate::store::Seat); clients learn of the move from the
//! placement map, like any other ([`StoreClient`](crate::store::StoreClient)).
//!
//! A mirror write that fails (backup crashed, link cut) ends the mirror
//! for good and makes the primary answer `Busy` to writes until the
//! metadata service commits `BackupLost` for the shard; from then on the
//! shard runs unreplicated and its stale backup is never promoted. A
//! primary whose shard a `NodeDown` moved first stays `Busy` until the
//! promotion fences it. Bringing a stale backup back in sync is not
//! implemented.
//!
//! # Consistency contract
//!
//! The mirrored log is a **hole-free prefix** of the primary's log (every
//! advanced object is mirrored, including invalidated ones, so the backup's
//! recovery scan never stops early). Failover therefore preserves the
//! paper's old-or-new guarantee per key: a version is readable on the
//! promoted backup iff it was mirrored and intact — never torn. Only the
//! mirror's in-flight tail can roll back: versions the primary
//! acknowledged but had not yet verified and mirrored return to the
//! previous durable version, the same contract a primary-local crash
//! gives. Nothing written after a known mirror failure is lost, because
//! the primary takes no write until the failure is committed and the
//! stale backup can no longer be promoted.
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

use efactory_obs::{Counter, Registry, Subsystem};
use efactory_pmem::PmemPool;
use efactory_rnic::{Fabric, Node, RemoteMr};
use efactory_sim as sim;

use crate::layout::ObjHeader;
use crate::log::StoreLayout;
use crate::server::{process_suffix, Server, ServerConfig};

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
    /// Mirror writes that failed (backup unreachable): each ends the
    /// mirror and holds the primary's writes until `BackupLost` commits.
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
/// [`Server::start_with`](crate::server::Server::start_with); the verifier
/// process connects its own QP to the backup at startup.
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

/// A shard's backup replica: a pool of the shard's layout on another data
/// node's seat for the shard, fed by the primary's verifier, and served
/// from that seat once the metadata service promotes it (see the module
/// docs). Clones share the one backup.
#[derive(Clone)]
pub struct Backup {
    /// The data node holding the backup.
    data_node: usize,
    node: Node,
    pool: Arc<PmemPool>,
    mr: RemoteMr,
    layout: StoreLayout,
    /// The config the promoted server runs with.
    cfg: ServerConfig,
    stats: Arc<ReplStats>,
    /// Taken for a promotion, or retired: the apply loop drains and exits.
    claimed: Arc<AtomicBool>,
    /// The apply loop is running.
    applying: Arc<AtomicBool>,
    /// The store is shutting down.
    stop: Arc<AtomicBool>,
}

impl Backup {
    /// A backup on `node`, the seat of data node `data_node`, over a fresh
    /// pool of `layout`. `cfg` is the seat's: its counter prefix names the
    /// pool's `pmem.*` counters, the `repl.*` counters and the promoted
    /// server's. Log cleaning runs
    /// on the primary as in an unreplicated store; the backup re-indexes
    /// mirrored objects by content rather than offset, so relocation is
    /// transparent to it (see the module docs for the swap re-mirror and
    /// promotion rules).
    pub(crate) fn format(
        node: &Node,
        data_node: usize,
        layout: StoreLayout,
        cfg: ServerConfig,
        stop: &Arc<AtomicBool>,
    ) -> Backup {
        let pool = Arc::new(PmemPool::new(layout.total_len()));
        pool.stats()
            .register_prefixed(&cfg.obs.registry, &cfg.counter_prefix);
        pool.set_tracer(cfg.obs.tracer.clone());
        let mr = node.register_mr(&pool, 0, layout.total_len());
        let stats = Arc::new(ReplStats::default());
        stats.register_prefixed(&cfg.obs.registry, &cfg.counter_prefix);
        Backup {
            data_node,
            node: node.clone(),
            pool,
            mr,
            layout,
            cfg,
            stats,
            claimed: Arc::default(),
            applying: Arc::default(),
            stop: Arc::clone(stop),
        }
    }

    /// Start the apply loop, and return the mirror target the primary's
    /// verifier ships to. Must run inside a simulated process, before the
    /// primary starts.
    pub(crate) fn start(&self, fabric: &Arc<Fabric>) -> ReplTarget {
        let listener =
            self.node
                .listen_with(fabric, crate::server::BATCHED_RECV, self.cfg.doorbell_batch);
        let ctx = backup::BackupCtx {
            node: self.node.clone(),
            pool: Arc::clone(&self.pool),
            layout: self.layout,
            cost: fabric.cost().clone(),
            stats: Arc::clone(&self.stats),
            claimed: Arc::clone(&self.claimed),
            stop: Arc::clone(&self.stop),
        };
        self.applying.store(true, Ordering::Relaxed);
        let applying = Arc::clone(&self.applying);
        sim::spawn(
            &format!("efactory-backup{}", process_suffix(&self.cfg)),
            move || {
                backup::run(ctx, listener);
                applying.store(false, Ordering::Relaxed);
            },
        );
        ReplTarget {
            backup: self.node.clone(),
            mr: self.mr,
            stats: Arc::clone(&self.stats),
            batch: self.cfg.doorbell_batch.max(1),
        }
    }

    /// Load the object at `off` of `primary`, the pool of this backup's
    /// primary, where [`Store::load`](crate::store::Store::load) has just
    /// linked it durable: copy its bytes to the same offset here and run
    /// the apply loop's step on them. Charges no virtual time and counts
    /// `repl.applied_*`, as the apply loop does.
    pub(crate) fn load_object(&self, primary: &PmemPool, off: usize, hdr: &ObjHeader) {
        let mut bytes = vec![0u8; hdr.object_size()];
        primary.read(off, &mut bytes);
        self.pool.write(off, &bytes);
        let (ht, regions) = (self.layout.hashtable(), self.layout.regions());
        backup::apply_step(&self.pool, &ht, &regions, &self.stats, off, hdr);
        self.stats.applied_objects.inc();
        self.stats.applied_bytes.add(bytes.len() as u64);
    }

    /// Take the backup for a promotion, or retire it: `false` if it was
    /// already taken. Either way its apply loop drains the in-flight
    /// mirror tail and exits.
    pub(crate) fn claim(&self) -> bool {
        !self.claimed.swap(true, Ordering::Relaxed)
    }

    /// Serve the claimed backup: wait for its apply loop to drain and
    /// exit, drop the mirror's registration and listener on the backup's
    /// node (nothing the deposed primary still sends lands in this pool),
    /// and replay the mirrored log through the standard recovery path.
    /// Must run inside a simulated process.
    ///
    /// Cleaning-progress records are erased first: the mirror re-sends a
    /// swapped pool lowest-offset-first, so the backup image can hold a
    /// `Done` record whose relocated data never arrived — recovery's record
    /// rules assume a crash-consistent primary image and would zero the
    /// fully-mirrored old region. With the records gone, recovery falls
    /// back to the fill heuristic + dual-slot candidate walks, which handle
    /// the mixed image correctly.
    pub(crate) fn promote(&self, fabric: &Arc<Fabric>) -> Server {
        while self.applying.load(Ordering::Relaxed) {
            sim::sleep(sim::micros(5));
        }
        fabric.restart_node(&self.node);
        let mut sp = self.cfg.obs.tracer.span(Subsystem::Repl, "promote");
        let erased = crate::recovery::neutralize_clean_records(&self.pool, &self.layout);
        sp.arg("clean_records_erased", erased as u64);
        let (srv, report) = crate::recovery::recover(
            fabric,
            &self.node,
            Arc::clone(&self.pool),
            self.layout,
            self.cfg.clone(),
        );
        sp.arg("keys_intact", report.keys_intact as u64);
        sp.arg("keys_rolled_back", report.keys_rolled_back as u64);
        sp.arg("keys_lost", report.keys_lost as u64);
        srv.start(fabric);
        self.stats.promotions.inc();
        srv
    }

    /// The data node holding the backup.
    pub fn data_node(&self) -> usize {
        self.data_node
    }

    /// The backup's fabric node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The backup's NVM pool (tests).
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Replication counters.
    pub fn stats(&self) -> &Arc<ReplStats> {
        &self.stats
    }
}
