//! The eFactory server: shared state, the PUT/GET/DEL request handler, and
//! process startup.
//!
//! Three simulated processes share one [`ServerShared`]:
//!
//! * the **request handler** (this module) — SEND-based RPCs: PUT
//!   allocation, the RPC+RDMA GET fallback with the *selective durability
//!   guarantee*, DELETE tombstones;
//! * the **background verifier** ([`crate::verifier`]) — CRC verification
//!   and persisting off the critical path;
//! * the **log cleaner** ([`crate::cleaner`]) — two-stage compress/merge
//!   reclamation.
//!
//! # Concurrency discipline
//!
//! State is shared exclusively through atomics (the pmem pool is
//! word-atomic; counters/cursors are `AtomicU64`). The simulator serializes
//! execution, so the only interleaving points are *simulated-time yields*
//! (`sim::work` / `sim::sleep`). Every multi-word mutation (filling an
//! object header, updating a hash entry) therefore runs **without any yield
//! in the middle**, making it atomic as observed by the other server
//! processes and by clients' one-sided reads. CPU costs are charged before
//! or after a mutation block, never inside one. Violating this rule is the
//! one way to corrupt this server — keep it in mind when editing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use efactory_checksum::crc32c;
use efactory_obs::{Counter, Obs, Registry, Subsystem};
use efactory_pmem::PmemPool;
use efactory_rnic::{CostModel, Fabric, Incoming, Listener, Node, QpId, RemoteMr};
use efactory_sim as sim;
use efactory_sim::Nanos;

use crate::hashtable::{Entry, HashTable, HtError};
use crate::layout::{self, flags, ObjHeader, NIL};
use crate::log::{LogRegion, StoreLayout};
use crate::protocol::{Request, Response, Status};

/// Cleaning phase (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CleanPhase {
    /// No cleaning in progress.
    Normal = 0,
    /// Stage 1: reverse-scan the old pool, relocate latest versions. New
    /// writes still go to the old pool.
    Compress = 1,
    /// Stage 2: merge writes that happened during compression. New writes
    /// go to the new pool.
    Merge = 2,
}

impl CleanPhase {
    fn from_u8(v: u8) -> CleanPhase {
        match v {
            1 => CleanPhase::Compress,
            2 => CleanPhase::Merge,
            _ => CleanPhase::Normal,
        }
    }
}

/// Fixed CPU charge per object the verifier touches.
pub const VERIFY_STEP_COST: Nanos = 50;

/// Fixed CPU charge per object the scrubber touches.
pub const SCRUB_STEP_COST: Nanos = 50;

/// eFactory posts its receive regions through the batched ring (its
/// optimization over posting them one at a time, as the baselines do).
pub const BATCHED_RECV: bool = true;

/// Tunables for an eFactory server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Verifier timeout: an object whose CRC has not matched for this long
    /// after allocation is marked invalid (paper §4.3.2).
    pub verify_timeout: Nanos,
    /// Verifier sleep when it has nothing to do (or is head-of-line
    /// blocked on an in-flight object).
    pub verify_idle: Nanos,
    /// Start log cleaning when the active pool passes this fill fraction.
    pub clean_threshold: f64,
    /// Whether the cleaner process runs at all (needs a second pool).
    pub clean_enabled: bool,
    /// Cleaner poll period while idle.
    pub clean_poll: Nanos,
    /// Doorbell batching: post recv WRs (and issue the verifier's flush
    /// fences) in chains of this length, amortizing the per-post MMIO cost.
    /// `0` or `1` keeps the batched ring's flat per-message charging and
    /// per-object verifier fences.
    pub doorbell_batch: usize,
    /// Run the background CRC scrubber ([`crate::scrub`]). Off by default:
    /// it only earns its keep when media faults are being injected (or
    /// modeled), and every experiment that wants it opts in.
    pub scrub_enabled: bool,
    /// Scrubber sleep between passes over the log (and while cleaning is
    /// in progress).
    pub scrub_interval: Nanos,
    /// Presumed-abort timeout for prepared (in-doubt) transactions: a 2PC
    /// participant whose coordinator has not decided within this window is
    /// unilaterally aborted by the handler's sweep. Must exceed the
    /// worst-case prepare→decide gap (including chaos retries).
    pub txn_abort_timeout: Nanos,
    /// **Test-only fault injection**: snapshot GETs skip the newest
    /// eligible version and serve its predecessor — a deliberate
    /// stale-read mutation the consistency checker must catch.
    pub snap_serve_stale: bool,
    /// Prefix for registry counter names: `"shard3."` for shard 3 of a
    /// [`crate::store::Store`] on one data node, `"n1.g3."` for its seat
    /// on data node 1 of a store on several; empty for the plain
    /// `server.*` names.
    pub counter_prefix: String,
    /// Observability context (tracer + metrics registry). The default is a
    /// private fully-enabled context; the harness injects one per run.
    pub obs: Obs,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            verify_timeout: sim::micros(200),
            verify_idle: sim::micros(2),
            clean_threshold: 0.7,
            clean_enabled: true,
            clean_poll: sim::micros(20),
            doorbell_batch: 0,
            scrub_enabled: false,
            scrub_interval: sim::micros(50),
            txn_abort_timeout: sim::millis(5),
            snap_serve_stale: false,
            counter_prefix: String::new(),
            obs: Obs::new(),
        }
    }
}

/// Counters exposed by the server (all monotonically increasing). Each field
/// is a shareable [`Counter`] so the same values can be read through a
/// metrics [`Registry`] (see [`ServerStats::register`]).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// PUT requests handled, plus records a bulk load
    /// ([`crate::store::Store::load`]) linked.
    pub puts: Counter,
    /// DELETE requests handled.
    pub dels: Counter,
    /// GET requests handled via RPC (the fallback path), not counting
    /// those answered `Busy` on an in-doubt head.
    pub gets: Counter,
    /// RPC GETs that found the object already durable (fast durability
    /// check — the "selective durability guarantee").
    pub gets_already_durable: Counter,
    /// RPC GETs where the handler verified + persisted on demand.
    pub gets_persisted_on_demand: Counter,
    /// RPC GETs served from a previous version (torn head).
    pub gets_from_previous_version: Counter,
    /// Objects verified + persisted by the background process.
    pub bg_verified: Counter,
    /// Objects invalidated after the verify timeout.
    pub bg_timeouts: Counter,
    /// Log cleanings completed.
    pub cleanings: Counter,
    /// Objects relocated by cleaning (compress + merge).
    pub relocated: Counter,
    /// Stale versions skipped by cleaning.
    pub reclaimed_versions: Counter,
    /// Cleaner stalls: the destination pool ran out of space mid-clean and
    /// the cleaner parked (writes answer `Busy` until it resumes or
    /// unwinds).
    pub cleaner_stalls: Counter,
    /// Total virtual ns the cleaner spent parked on destination-pool
    /// space.
    pub cleaner_park_ns: Counter,
    /// Allocation failures (table full / no space), PUT or DEL.
    pub put_failures: Counter,
    /// Retried requests answered from the dedup table (the retry's request
    /// id matched the last one executed for that connection, so the stored
    /// reply was resent instead of re-executing).
    pub dup_hits: Counter,
    /// Retried requests older than the connection's dedup window (request
    /// id below the last executed one) — dropped without a reply.
    pub dup_stale: Counter,
    /// Transactions committed (fused or 2PC-decided) on this shard.
    pub txn_commits: Counter,
    /// Transactions aborted on this shard (explicit decide-abort, staging
    /// failure, or presumed-abort sweep).
    pub txn_aborts: Counter,
    /// 2PC prepare requests handled.
    pub txn_prepares: Counter,
    /// 2PC decide requests handled.
    pub txn_decides: Counter,
    /// Transactional conflicts: read-set validation failures and in-doubt
    /// write-write collisions.
    pub txn_conflicts: Counter,
    /// Snapshot-clock captures.
    pub snap_captures: Counter,
    /// Snapshot GETs handled.
    pub snap_gets: Counter,
    /// Snapshot GETs answered `Busy` (in-doubt head or in-flight value).
    pub snap_busy: Counter,
    /// Client data ops rejected with `WrongEpoch` while the shard was
    /// sealed for migration (the cluster client's retarget signal).
    pub wrong_epoch: Counter,
}

impl ServerStats {
    /// Attach every counter to `reg` under `server.*` names (sharing the
    /// underlying values, so the registry always reads live).
    pub fn register(&self, reg: &Registry) {
        self.register_prefixed(reg, "");
    }

    /// Like [`register`](Self::register) but under `{prefix}server.*`
    /// names — each shard of a sharded store registers its own counters
    /// (e.g. `shard2.server.puts`) in the one shared registry.
    pub fn register_prefixed(&self, reg: &Registry, prefix: &str) {
        let pairs: [(&str, &Counter); 25] = [
            ("server.puts", &self.puts),
            ("server.dels", &self.dels),
            ("server.gets", &self.gets),
            ("server.gets_already_durable", &self.gets_already_durable),
            (
                "server.gets_persisted_on_demand",
                &self.gets_persisted_on_demand,
            ),
            (
                "server.gets_from_previous_version",
                &self.gets_from_previous_version,
            ),
            ("server.bg_verified", &self.bg_verified),
            ("server.bg_timeouts", &self.bg_timeouts),
            ("server.cleanings", &self.cleanings),
            ("server.relocated", &self.relocated),
            ("server.reclaimed_versions", &self.reclaimed_versions),
            ("server.cleaner.stalls", &self.cleaner_stalls),
            ("server.cleaner.park_ns", &self.cleaner_park_ns),
            ("server.put_failures", &self.put_failures),
            ("server.dup_hits", &self.dup_hits),
            ("server.dup_stale", &self.dup_stale),
            ("server.txn.commits", &self.txn_commits),
            ("server.txn.aborts", &self.txn_aborts),
            ("server.txn.prepares", &self.txn_prepares),
            ("server.txn.decides", &self.txn_decides),
            ("server.txn.conflicts", &self.txn_conflicts),
            ("server.txn.snap_captures", &self.snap_captures),
            ("server.txn.snap_gets", &self.snap_gets),
            ("server.txn.snap_busy", &self.snap_busy),
            ("server.wrong_epoch", &self.wrong_epoch),
        ];
        for (name, c) in pairs {
            reg.attach_counter(&format!("{prefix}{name}"), c);
        }
    }
}

/// State shared by the handler, verifier, and cleaner processes.
pub struct ServerShared {
    /// The fabric node this server runs on.
    pub node: Node,
    /// The NVM device.
    pub pool: Arc<PmemPool>,
    /// Virtual-hardware cost model (copied from the fabric).
    pub cost: CostModel,
    /// NVM geometry.
    pub layout: StoreLayout,
    /// The hash index.
    pub ht: HashTable,
    /// Data pools A and B (B may be zero-sized).
    pub logs: [LogRegion; 2],
    /// Index of the pool taking new writes outside the merge phase.
    pub active: AtomicUsize,
    /// Current cleaning phase.
    pub clean_phase: AtomicU8,
    /// Bumped whenever the cleaner swaps pools; the verifier revalidates
    /// its cursor against it.
    pub clean_epoch: AtomicU64,
    /// Background-verifier position: absolute offset within `cursor_pool`.
    pub cursor: AtomicU64,
    /// Which pool the verifier is scanning.
    pub cursor_pool: AtomicUsize,
    /// Configuration.
    pub cfg: ServerConfig,
    /// Counters.
    pub stats: ServerStats,
    /// Scrubber counters (live even when the scrubber is disabled — they
    /// just stay zero).
    pub scrub: crate::scrub::ScrubStats,
    /// Cooperative shutdown flag (in addition to crash detection).
    pub stop: AtomicBool,
    /// One-shot manual cleaning trigger (experiments force cleaning at a
    /// chosen instant; normally the fill threshold drives it).
    pub clean_request: AtomicBool,
    /// The cleaner is parked on destination-pool space: the handler
    /// answers PUT/DEL with `Busy` (retryable backpressure) instead of
    /// consuming the bytes the stalled clean needs to make progress.
    pub clean_stalled: AtomicBool,
    /// Node crash epoch at server creation; a later epoch means this server
    /// instance died with a crash and must never touch state again (even if
    /// the node was restarted for a recovered instance).
    pub born_epoch: u64,
    /// Transactional state: commit watermark, per-offset commit
    /// timestamps, in-doubt 2PC participants. A `std::sync` mutex is safe
    /// here: only the handler process and recovery take it, never across a
    /// simulated yield.
    pub txn: std::sync::Mutex<crate::txn::TxnState>,
    /// Sealed for migration: the handler answers every client data op
    /// with `WrongEpoch` (the retarget signal) while the verifier drains.
    /// `TxnDecide` stays admissible — it resolves already-prepared 2PC
    /// state, and rejecting it would break atomicity for transactions
    /// whose other shards already committed.
    pub sealed: AtomicBool,
    /// Live-migration delta-stream rendezvous between the migration
    /// driver and this server's verifier (see [`MigrateSlot`]).
    pub migrate_out: std::sync::Mutex<MigrateSlot>,
    /// Event-broadcast handle for this server's listener, stashed by
    /// [`Server::start_with`] so the migration decommission step can push
    /// a `CleanStart` to connected clients (pinning them off the pure
    /// one-sided read path) without owning the handler's listener.
    pub notifier: std::sync::Mutex<Option<efactory_rnic::Notifier>>,
}

/// Handshake cell for attaching a live-migration delta stream to the
/// verifier. The driver parks a [`ReplTarget`](crate::repl::ReplTarget)
/// aimed at the destination pool; the verifier (the only process that may
/// own the connection) connects a second [`Mirror`](crate::repl::Mirror)
/// and acks with its cursor at attach time — the exclusive upper bound of
/// the snapshot copy, and the point from which the delta stream is
/// hole-free.
pub enum MigrateSlot {
    /// No migration in progress.
    Idle,
    /// Driver request: connect a delta mirror to this target.
    Attach(crate::repl::ReplTarget),
    /// Verifier ack: delta stream live; `cursor` was the verifier position
    /// at attach (everything below it is the snapshot copy's job).
    Active { cursor: u64 },
    /// Verifier could not connect to the destination; driver must abort.
    Failed,
    /// Driver request: flush and drop the delta mirror.
    Detach,
}

impl ServerShared {
    /// Current cleaning phase.
    pub fn phase(&self) -> CleanPhase {
        CleanPhase::from_u8(self.clean_phase.load(Ordering::Relaxed))
    }

    /// True when the handler/verifier/cleaner should exit.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
            || self.node.is_crashed()
            || self.node.epoch() != self.born_epoch
    }

    /// Seal the shard for migration: every client data op is answered
    /// `WrongEpoch` from here on (`TxnDecide` excepted — see [`Self::sealed`]).
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::Relaxed);
    }

    /// Reopen a sealed shard (migration aborted; the source remains the
    /// one owner).
    pub fn unseal(&self) {
        self.sealed.store(false, Ordering::Relaxed);
    }

    /// Whether the shard is sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::Relaxed)
    }

    /// Pool index new allocations go to, given the cleaning phase: the old
    /// pool through compression, the new pool during merging (§4.4).
    pub fn alloc_pool(&self) -> usize {
        let active = self.active.load(Ordering::Relaxed);
        match self.phase() {
            CleanPhase::Merge => 1 - active,
            _ => active,
        }
    }

    /// The newest version's offset for `entry`. The `new_valid` bit always
    /// means "the current version lives in the non-mark slot": set by
    /// merge-phase writes and by relocation (where the copy duplicates the
    /// mark-slot head, so either slot serves the same bytes), and — after a
    /// mid-clean crash leaves anchors in both regions — by plain writes to
    /// the active pool of keys whose recovered mark points at the other
    /// pool. Honoring it unconditionally keeps reads on the newest version
    /// in every one of those states.
    pub fn current_off(&self, entry: &Entry) -> u64 {
        if entry.ctl.new_valid() {
            entry.other()
        } else {
            entry.current()
        }
    }

    /// Whether the version at `off` is staged by an in-doubt transaction
    /// (`VALID | PENDING`): readers wait on it and writers back off, until
    /// the decide RPC or the presumed-abort sweep resolves it.
    pub fn in_doubt(&self, off: u64) -> bool {
        off != 0 && off != NIL && {
            let hdr = ObjHeader::read_from(&self.pool, off as usize);
            hdr.has(flags::VALID) && hdr.has(flags::PENDING)
        }
    }

    /// Persist the object at `off` and set its durability flag. Returns the
    /// number of cache lines actually flushed (for cost charging).
    pub fn persist_object(&self, off: usize, hdr: &ObjHeader) -> usize {
        let mut lines = self.pool.flush(off, hdr.object_size());
        layout::update_flags(&self.pool, off, flags::DURABLE, 0);
        lines += self.pool.flush(off, 8);
        self.pool.drain();
        lines
    }

    /// Make the not-yet-durable version at `off` durable if it is intact:
    /// charge its CRC, compare, and persist it. Returns the lines flushed
    /// (the caller charges the flush), or `None` when the value does not
    /// match its CRC. Must be called from a server process.
    pub fn persist_if_intact(&self, off: usize, hdr: &ObjHeader) -> Option<usize> {
        sim::work(self.cost.crc_hw(hdr.vlen as usize));
        layout::value_intact(&self.pool, off, hdr).then(|| self.persist_object(off, hdr))
    }

    /// The "durability guarantee" step of the hybrid-read fallback
    /// (§4.3.3, step 7): the newest version on the chain from `off` that is
    /// valid, not in doubt, and durable — or intact, and then persisted
    /// here. Returns its offset and header, plus the lines flushed when it
    /// was persisted on demand (the caller charges them); `None` when no
    /// such version exists.
    pub fn ensure_durable_version(&self, mut off: u64) -> Option<(u64, ObjHeader, Option<usize>)> {
        while off != 0 && off != NIL {
            let hdr = ObjHeader::read_from(&self.pool, off as usize);
            // In-doubt (PENDING) versions are not readable.
            if hdr.has(flags::VALID) && !hdr.has(flags::PENDING) {
                // Durability check first — the selective durability
                // guarantee that distinguishes eFactory from Forca.
                if hdr.has(flags::DURABLE) {
                    return Some((off, hdr, None));
                }
                if let Some(lines) = self.persist_if_intact(off as usize, &hdr) {
                    return Some((off, hdr, Some(lines)));
                }
            }
            off = hdr.pre_ptr;
        }
        None
    }

    /// Link a new version of `key` at the head of its chain: the one
    /// no-yield block PUT/DEL allocation, transactional staging and the bulk
    /// load share.
    /// It claims the bucket, answers `Busy` on an in-doubt (`VALID |
    /// PENDING`) head, allocates, writes the header (`flags`) and key,
    /// links the predecessor, persists, and links and persists the hash
    /// entry. With a `value` (staging: it rode the RPC) the whole object is
    /// written, flushed and flagged durable; without one (a PUT, whose
    /// client writes the value later) the header and key are persisted.
    /// Returns the new version's offset, header and lines flushed. Yields
    /// nothing, so the caller's block may go on after it returns.
    pub(crate) fn link_version(
        &self,
        key: &[u8],
        vlen: u32,
        crc: u32,
        flags: u8,
        value: Option<&[u8]>,
    ) -> Result<(usize, ObjHeader, usize), Status> {
        let fp = crate::hashtable::fingerprint(key);
        let size = layout::object_size(key.len(), vlen as usize);
        let (idx, entry) = self
            .ht
            .lookup_or_claim(&self.pool, fp)
            .map_err(|HtError::TableFull| Status::TableFull)?;
        let prev = self.current_off(&entry);
        if self.in_doubt(prev) {
            // Linking above an in-doubt head would break the chain-order ==
            // commit-timestamp-order invariant snapshots rely on.
            return Err(Status::Busy);
        }
        let pool_idx = self.alloc_pool();
        let off = self.logs[pool_idx].alloc(size).ok_or(Status::NoSpace)?;
        let hdr = ObjHeader {
            klen: key.len() as u16,
            vlen,
            flags,
            pre_ptr: if prev == 0 { NIL } else { prev },
            next_ptr: NIL,
            crc,
            seq: entry.ctl.seq() as u32 + 1,
            // A bulk load ([`crate::store::Store::load`]) links outside the
            // simulation, at instant 0; nothing reads `alloc_time` once the
            // object is durable.
            alloc_time: sim::try_now().unwrap_or(0),
        };
        hdr.write_to(&self.pool, off);
        self.pool.write(off + hdr.key_off(), key);
        if let Some(value) = value {
            self.pool.write(off + hdr.value_off(), value);
        }
        if prev != 0 && prev != NIL {
            // Maintain the forward link used by log cleaning. Not flushed —
            // recovery rebuilds chains from pre_ptrs.
            layout::set_next_ptr(&self.pool, prev as usize, off as u64);
        }
        // Persist before exposing the object (§4.3.1 step 4: "after all
        // the metadata has been updated and persisted ...").
        let mut lines = match value {
            Some(_) => self.persist_object(off, &hdr),
            None => {
                let lines = self.pool.flush(off, hdr.value_off());
                self.pool.drain();
                lines
            }
        };
        // Slots correspond to pools 1:1; the new-valid bit flags a current
        // version living in the non-mark slot (merge-phase writes land in
        // the new pool before the mark flips at finish).
        let slot = pool_idx;
        let ctl = if slot == entry.ctl.mark() {
            entry.ctl.bumped().with_new_valid(false)
        } else if entry.current() == 0 {
            // Fresh (or cleaning-reclaimed) bucket whose default mark points
            // at the inactive pool: repoint the mark instead of flagging
            // new-valid — there is no old version to keep reachable.
            entry.ctl.with_mark(slot).with_new_valid(false).bumped()
        } else {
            entry.ctl.bumped().with_new_valid(true)
        };
        self.ht.set_slot(&self.pool, idx, slot, off as u64);
        self.ht.set_sizes(&self.pool, idx, key.len() as u16, vlen);
        self.ht.set_ctl(&self.pool, idx, ctl);
        lines += self.ht.persist_entry(&self.pool, idx);
        Ok((off, hdr, lines))
    }
}

/// Everything a client needs to talk to a store: the memory registration
/// and the geometry. Handed out at connection setup, like the paper's
/// "addresses and corresponding registration keys" (§4.3).
#[derive(Debug, Clone, Copy)]
pub struct StoreDesc {
    /// Registration covering the whole NVM region.
    pub mr: RemoteMr,
    /// Geometry (hash table + pools).
    pub layout: StoreLayout,
}

/// Process-name suffix for a server's processes: `-{prefix}` from its
/// counter prefix, so each shard gets its own lane in the trace (the
/// tracer keys spans by simulated process).
pub(crate) fn process_suffix(cfg: &ServerConfig) -> String {
    let tag = cfg.counter_prefix.trim_end_matches('.');
    if tag.is_empty() {
        String::new()
    } else {
        format!("-{tag}")
    }
}

/// An eFactory server instance. Clones share the one instance.
#[derive(Clone)]
pub struct Server {
    shared: Arc<ServerShared>,
    desc: StoreDesc,
}

impl Server {
    /// Create a fresh (formatted) store on `node`, registering the NVM
    /// region on the fabric.
    pub fn format(fabric: &Fabric, node: &Node, layout: StoreLayout, cfg: ServerConfig) -> Server {
        let pool = Arc::new(PmemPool::new(layout.total_len()));
        Self::with_pool(fabric, node, pool, layout, cfg)
    }

    /// Create a server over an existing pool (used by recovery).
    pub fn with_pool(
        fabric: &Fabric,
        node: &Node,
        pool: Arc<PmemPool>,
        layout: StoreLayout,
        cfg: ServerConfig,
    ) -> Server {
        let mr = node.register_mr(&pool, 0, layout.total_len());
        let logs = layout.regions();
        let cursor0 = logs[0].base() as u64;
        let shared = Arc::new(ServerShared {
            node: node.clone(),
            pool,
            cost: fabric.cost().clone(),
            ht: layout.hashtable(),
            logs,
            layout,
            active: AtomicUsize::new(0),
            clean_phase: AtomicU8::new(CleanPhase::Normal as u8),
            clean_epoch: AtomicU64::new(0),
            cursor: AtomicU64::new(cursor0),
            cursor_pool: AtomicUsize::new(0),
            cfg,
            stats: ServerStats::default(),
            scrub: crate::scrub::ScrubStats::default(),
            stop: AtomicBool::new(false),
            clean_request: AtomicBool::new(false),
            clean_stalled: AtomicBool::new(false),
            born_epoch: node.epoch(),
            txn: std::sync::Mutex::new(crate::txn::TxnState::default()),
            sealed: AtomicBool::new(false),
            migrate_out: std::sync::Mutex::new(MigrateSlot::Idle),
            notifier: std::sync::Mutex::new(None),
        });
        shared
            .stats
            .register_prefixed(&shared.cfg.obs.registry, &shared.cfg.counter_prefix);
        shared
            .scrub
            .register_prefixed(&shared.cfg.obs.registry, &shared.cfg.counter_prefix);
        Server {
            shared,
            desc: StoreDesc { mr, layout },
        }
    }

    /// The descriptor clients connect with.
    pub fn desc(&self) -> StoreDesc {
        self.desc
    }

    /// Shared state (verifier/cleaner/tests).
    pub fn shared(&self) -> &Arc<ServerShared> {
        &self.shared
    }

    /// Ask all server processes to wind down (they notice on their next
    /// wakeup or request).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Spawn the server's processes (request handler, background verifier,
    /// log cleaner). Must be called from within a simulated process so the
    /// listener channels can be created. The listener exists when this
    /// returns, so clients may connect immediately after.
    pub fn start(&self, fabric: &Arc<Fabric>) -> Arc<ServerShared> {
        self.start_with(fabric, None)
    }

    /// Like [`start`](Self::start), with an optional replication target:
    /// the verifier connects to the backup and mirrors every object it
    /// advances past (see [`crate::repl`]).
    pub fn start_with(
        &self,
        fabric: &Arc<Fabric>,
        repl: Option<crate::repl::ReplTarget>,
    ) -> Arc<ServerShared> {
        let shared = Arc::clone(&self.shared);
        let listener = shared
            .node
            .listen_with(fabric, BATCHED_RECV, shared.cfg.doorbell_batch);
        let notifier = listener.notifier();
        *shared.notifier.lock().unwrap() = Some(listener.notifier());
        let suffix = process_suffix(&shared.cfg);

        let h_shared = Arc::clone(&shared);
        sim::spawn(&format!("efactory-handler{suffix}"), move || {
            run_handler(&h_shared, &listener);
        });

        let scrub_repl = shared.cfg.scrub_enabled.then(|| repl.clone()).flatten();

        let v_shared = Arc::clone(&shared);
        let v_fabric = Arc::clone(fabric);
        sim::spawn(&format!("efactory-verifier{suffix}"), move || {
            let mirror = repl
                .as_ref()
                .and_then(|t| crate::repl::Mirror::connect(&v_fabric, &v_shared, t));
            crate::verifier::run_with_mirror(&v_shared, Some(&v_fabric), mirror);
        });

        if shared.cfg.scrub_enabled {
            let s_shared = Arc::clone(&shared);
            let s_fabric = Arc::clone(fabric);
            sim::spawn(&format!("efactory-scrubber{suffix}"), move || {
                crate::scrub::run(&s_shared, &s_fabric, scrub_repl.as_ref());
            });
        }

        if shared.cfg.clean_enabled && !shared.logs[1].is_empty() {
            let c_shared = Arc::clone(&shared);
            sim::spawn(&format!("efactory-cleaner{suffix}"), move || {
                crate::cleaner::run(&c_shared, &notifier);
            });
        }
        shared
    }
}

/// The request-handler loop.
///
/// Requests arrive either in the legacy unframed encoding (baselines) or
/// in the framed at-most-once envelope (the eFactory client): a per-QP
/// monotonic request id the client *reuses across retries* of one logical
/// operation. The handler keeps, per connection, the last executed id and
/// its reply; a retry with the same id resends the stored reply instead of
/// re-executing (a retried PUT must return the *same* allocation so the
/// client rewrites the same offsets), and an id below the last executed
/// one is a stale duplicate still bouncing around the fabric — dropped.
/// This is what turns the lossy fabric's at-least-once delivery into
/// exactly-once request execution.
fn run_handler(shared: &ServerShared, listener: &Listener) {
    // (last executed request id, its encoded framed reply) per connection.
    let mut dedup: HashMap<QpId, (u64, Vec<u8>)> = HashMap::new();
    // Presumed-abort sweep deadline for in-doubt 2PC transactions. The
    // sweep is free (no virtual time) while no transaction is prepared, so
    // non-transactional workloads replay byte-identically.
    let mut next_sweep = sim::now() + shared.cfg.txn_abort_timeout;
    loop {
        // A periodic deadline lets the handler observe `stop` even when no
        // requests arrive.
        let msg = match listener.recv_deadline(sim::now() + sim::micros(100)) {
            Ok(m) => m,
            Err(efactory_rnic::QpError::Timeout) => {
                if shared.stopping() {
                    return;
                }
                if sim::now() >= next_sweep {
                    crate::txn::sweep_expired(shared);
                    next_sweep = sim::now() + shared.cfg.txn_abort_timeout;
                }
                continue;
            }
            Err(_) => return, // disconnected or crashed
        };
        if shared.stopping() {
            return;
        }
        if sim::now() >= next_sweep {
            crate::txn::sweep_expired(shared);
            next_sweep = sim::now() + shared.cfg.txn_abort_timeout;
        }
        let Incoming::Send { from, payload } = msg else {
            continue; // eFactory does not use write_with_imm
        };
        let Some((req_id, req)) = Request::decode_any(&payload) else {
            continue;
        };
        if let Some(id) = req_id {
            match dedup.get(&from) {
                Some((last, reply)) if *last == id => {
                    shared.stats.dup_hits.inc();
                    if listener.reply(from, reply.clone()).is_err() {
                        return;
                    }
                    continue;
                }
                Some((last, _)) if *last > id => {
                    shared.stats.dup_stale.inc();
                    continue;
                }
                _ => {}
            }
        }
        // (qp, request-id) args on the handler spans join server-side
        // handling to the issuing client op in the critical-path fold.
        let rpc = (from, req_id.unwrap_or(0));
        let resp =
            if shared.sealed.load(Ordering::Relaxed) && !matches!(req, Request::TxnDecide { .. }) {
                // Sealed for migration: reject with the retarget signal, in
                // the response shape the issuing op expects. TxnDecide passes
                // through — it resolves already-prepared 2PC state.
                sim::work(shared.cost.cpu_req_handle_ns);
                shared.stats.wrong_epoch.inc();
                reject_wrong_epoch(&req)
            } else {
                match req {
                    Request::Put { key, vlen, crc } => handle_put(shared, rpc, &key, vlen, crc),
                    Request::Get { key } => handle_get(shared, rpc, &key),
                    Request::Del { key } => handle_del(shared, rpc, &key),
                    Request::TxnCommit {
                        txn_id,
                        ref reads,
                        ref puts,
                    } => crate::txn::handle_txn_commit(shared, rpc, txn_id, reads, puts),
                    Request::TxnPrepare {
                        txn_id,
                        ref reads,
                        ref puts,
                    } => crate::txn::handle_txn_prepare(shared, rpc, txn_id, reads, puts),
                    Request::TxnDecide {
                        txn_id,
                        commit,
                        commit_ts,
                    } => crate::txn::handle_txn_decide(shared, rpc, txn_id, commit, commit_ts),
                    Request::SnapCapture => crate::txn::handle_snap_capture(shared, rpc),
                    Request::SnapGet { ref key, snap_ts } => {
                        crate::txn::handle_snap_get(shared, rpc, key, snap_ts)
                    }
                    // SAW/RPC-baseline opcodes are not part of eFactory.
                    Request::Persist { .. } | Request::RpcPut { .. } => Response::Ack {
                        status: Status::Corrupt,
                    },
                }
            };
        let encoded = match req_id {
            Some(id) => {
                let framed = resp.encode_framed(id);
                dedup.insert(from, (id, framed.clone()));
                framed
            }
            None => resp.encode(),
        };
        if listener.reply(from, encoded).is_err() {
            return;
        }
    }
}

/// The `WrongEpoch` rejection for a sealed shard, shaped to match the
/// response variant each request's client-side decode expects.
fn reject_wrong_epoch(req: &Request) -> Response {
    let status = Status::WrongEpoch;
    match req {
        Request::Put { .. } | Request::RpcPut { .. } => Response::Put {
            status,
            obj_off: 0,
            value_off: 0,
        },
        Request::Get { .. } | Request::SnapGet { .. } => Response::Get {
            status,
            obj_off: 0,
            klen: 0,
            vlen: 0,
        },
        Request::TxnCommit { .. } | Request::TxnPrepare { .. } | Request::TxnDecide { .. } => {
            Response::TxnAck {
                status,
                commit_ts: 0,
            }
        }
        Request::SnapCapture => Response::Snap {
            status,
            watermark: 0,
        },
        Request::Del { .. } | Request::Persist { .. } => Response::Ack { status },
    }
}

/// PUT (paper §4.3.1, Figure 5): allocate in the log, fill the object
/// metadata + key, persist them, link the hash entry, and return the value
/// offset. The client then RDMA-writes the value with **no** durability
/// wait — the background verifier takes over.
fn handle_put(
    shared: &ServerShared,
    rpc: (QpId, u64),
    key: &[u8],
    vlen: u32,
    crc: u32,
) -> Response {
    let mut sp = shared.cfg.obs.tracer.span(Subsystem::Server, "rpc_alloc");
    sp.arg("vlen", vlen as u64);
    sp.arg("qp", rpc.0);
    sp.arg("req", rpc.1);
    let resp = insert_version(shared, key, vlen, crc);
    if matches!(
        resp,
        Response::Put {
            status: Status::Ok,
            ..
        }
    ) {
        shared.stats.puts.inc();
    }
    resp
}

/// Shared PUT/DEL insert path: allocate a new version in the log, persist
/// its metadata + key, and link the hash entry. Does not bump the
/// per-operation counters — `handle_put`/`handle_del` own those.
fn insert_version(shared: &ServerShared, key: &[u8], vlen: u32, crc: u32) -> Response {
    sim::work(shared.cost.cpu_req_handle_ns + shared.cost.cpu_hash_ns + shared.cost.cpu_alloc_ns);

    let refused = |status: Status| Response::Put {
        status,
        obj_off: 0,
        value_off: 0,
    };

    // A stalled cleaner is parked on destination-pool space: consuming
    // more bytes here would starve it, so push back with a retryable Busy
    // (no failure counter — the client backs off and retries).
    if shared.clean_stalled.load(Ordering::Relaxed) {
        return refused(Status::Busy);
    }

    // ---- mutation block: no yields until the entry is linked ----
    let (off, hdr, lines) = match shared.link_version(key, vlen, crc, flags::VALID, None) {
        Ok(linked) => linked,
        // An in-doubt transactional head: back off until the transaction
        // decides (no failure counter — the client retries, bounded by the
        // presumed-abort timeout).
        Err(Status::Busy) => return refused(Status::Busy),
        // Mid-clean the shortage is transient — the in-flight clean (or
        // the follow-up pass it triggers) frees the pool — so degrade to
        // retryable backpressure instead of a hard failure.
        Err(Status::NoSpace) if shared.phase() != CleanPhase::Normal => {
            return refused(Status::Busy)
        }
        Err(status) => {
            shared.stats.put_failures.inc();
            return refused(status);
        }
    };
    // Stamp the commit timestamp while still inside the no-yield block, so
    // the version's visibility ordering matches its chain position.
    crate::txn::note_plain_commit(shared, off as u64);
    // ---- end mutation block ----

    sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
    Response::Put {
        status: Status::Ok,
        obj_off: off as u64,
        value_off: (off + hdr.value_off()) as u64,
    }
}

/// GET fallback (paper §4.3.3, steps 5–8): look up the entry, run the
/// durability check / durability guarantee, and return the offset of an
/// intact version for the client to RDMA-read.
fn handle_get(shared: &ServerShared, rpc: (QpId, u64), key: &[u8]) -> Response {
    let mut sp = shared.cfg.obs.tracer.span(Subsystem::Server, "rpc_get");
    sp.arg("qp", rpc.0);
    sp.arg("req", rpc.1);
    sim::work(shared.cost.cpu_req_handle_ns + shared.cost.cpu_hash_ns);
    let refused = |status| Response::Get {
        status,
        obj_off: 0,
        klen: 0,
        vlen: 0,
    };
    let fp = crate::hashtable::fingerprint(key);
    let head = shared
        .ht
        .lookup(&shared.pool, fp)
        .map(|(_idx, entry)| shared.current_off(&entry));
    if head.is_some_and(|head| shared.in_doubt(head)) {
        // Serving the previous version could expose half of a cross-shard
        // commit whose other participants already published: the client
        // waits for the decision and asks again (not counted in `gets`).
        return refused(Status::Busy);
    }
    shared.stats.gets.inc();
    let Some(head) = head else {
        return refused(Status::NotFound);
    };
    let Some((off, hdr, persisted)) = shared.ensure_durable_version(head) else {
        return refused(Status::NotFound);
    };
    if let Some(lines) = persisted {
        let mut sp = shared.cfg.obs.tracer.span(Subsystem::Pmem, "flush_drain");
        sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
        sp.arg("off", off);
        sp.arg("lines", lines as u64);
    }
    let served = if off != head {
        &shared.stats.gets_from_previous_version
    } else if persisted.is_some() {
        &shared.stats.gets_persisted_on_demand
    } else {
        &shared.stats.gets_already_durable
    };
    served.inc();
    if hdr.has(flags::TOMBSTONE) {
        return refused(Status::NotFound);
    }
    Response::Get {
        status: Status::Ok,
        obj_off: off,
        klen: hdr.klen,
        vlen: hdr.vlen,
    }
}

/// DELETE: append a tombstone version. Tombstones carry no client value, so
/// they are made durable immediately. Shares the insert path with PUT but
/// has its own dispatch and counter — `puts` never sees a DEL.
fn handle_del(shared: &ServerShared, rpc: (QpId, u64), key: &[u8]) -> Response {
    let mut sp = shared.cfg.obs.tracer.span(Subsystem::Server, "rpc_del");
    sp.arg("qp", rpc.0);
    sp.arg("req", rpc.1);
    // A tombstone is a PUT of an empty value whose CRC is crc32c(b"") == 0.
    let resp = insert_version(shared, key, 0, crc32c(b""));
    let Response::Put {
        status: Status::Ok,
        obj_off,
        ..
    } = resp
    else {
        let Response::Put { status, .. } = resp else {
            unreachable!()
        };
        return Response::Ack { status };
    };
    let off = obj_off as usize;
    layout::update_flags(&shared.pool, off, flags::TOMBSTONE | flags::DURABLE, 0);
    let lines = shared.pool.flush(off, 8);
    shared.pool.drain();
    sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
    shared.stats.dels.inc();
    Response::Ack { status: Status::Ok }
}
