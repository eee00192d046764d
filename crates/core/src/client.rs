//! The eFactory client: PUT with asynchronous durability, and the hybrid
//! read scheme for GET (paper §4.3, Figures 5 and 6).
//!
//! * **PUT** — one SEND-based RPC to allocate (the server persists the
//!   object metadata and links the hash entry), then a one-sided RDMA write
//!   of the value. The client does *not* wait for durability; the server's
//!   background process provides it asynchronously.
//! * **GET (hybrid)** — optimistically pure one-sided: read the hash-entry
//!   probe window, locate the entry, read the whole object, and check the
//!   durability flag embedded in it. If the flag shows the object is not
//!   yet fully durable (or any validation fails), fall back to the
//!   RPC+RDMA read scheme, where the server guarantees durability before
//!   exposing the offset.
//! * During **log cleaning** the server broadcasts `CleanStart`/`CleanEnd`
//!   events and the client pins itself to the RPC+RDMA scheme (§4.4).
//!
//! **End-to-end retry (chaos hardening).** The fabric may drop, duplicate,
//! or delay messages (see `efactory_rnic::FaultPlan`). Every SEND-based RPC
//! therefore carries a monotonic per-client request id and runs under a
//! per-attempt deadline with bounded, deterministic exponential backoff
//! (virtual time). Retries of one logical operation reuse the *same* id, so
//! the server can execute at most once and resend the recorded reply —
//! exactly-once effects over an at-least-once fabric. Stale replies (from
//! an attempt whose deadline already fired) are discarded by id. One-sided
//! reads additionally verify the value CRC embedded in the object header:
//! a mismatch (mid-clean or bit-rotted object) degrades to the RPC path
//! instead of returning corrupt data.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use efactory_checksum::crc32c;
use efactory_obs::trace::current_op;
use efactory_obs::{Counter, Obs, OpScope, Registry, SpanGuard, Subsystem};
use efactory_rnic::{ClientQp, Fabric, Node, QpError};
use efactory_sim as sim;
use efactory_sim::Nanos;

use crate::hashtable::{find_in_window, fingerprint, BUCKET_LEN, NPROBE};
use crate::layout::{self, flags, Fetched, ObjHeader, Read};
use crate::protocol::{Event, Request, Response, Status, StoreError};
use crate::server::StoreDesc;
use crate::txn::{SnapOutcome, TxnKv};

/// The uniform client interface the experiment harness drives. All six
/// systems of the paper's comparison (eFactory and the five baselines)
/// implement it, so workloads are system-agnostic.
pub trait RemoteKv {
    /// Store `value` under `key` with whatever durability contract the
    /// system provides.
    fn kv_put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;
    /// Read `key`; `Ok(None)` means absent.
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;

    /// The transactional surface, for systems that have one.
    fn txn(&self) -> Option<&dyn TxnKv> {
        None
    }

    /// [`kv_put`](Self::kv_put), riding out transient `NoSpace`/`Busy`
    /// rejections (a pool filling up under cleaning pressure) with a
    /// bounded 200 × 50 µs backoff, the way real clients do; the stall is
    /// part of the PUT's latency.
    fn kv_put_patient(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let mut tries = 0;
        loop {
            match self.kv_put(key, value) {
                Err(StoreError::Status(Status::NoSpace | Status::Busy)) if tries < 200 => {
                    tries += 1;
                    sim::sleep(sim::micros(50));
                }
                other => return other,
            }
        }
    }
}

/// Bounded retries for the RPC read path (validation hiccups).
pub const MAX_RPC_RETRIES: usize = 3;

/// Send attempts per RPC (first try + retries). Retries reuse the same
/// request id, so the server dedups re-executions. With the
/// [`RPC_DEADLINE`] per attempt, 6 attempts ride out ~5% message loss with
/// a residual failure probability around 1e-6 per operation.
pub const RPC_ATTEMPTS: usize = 6;

/// Per-attempt reply deadline (virtual time). Service times are
/// microsecond-scale, so 1 ms comfortably covers a loaded server while
/// keeping loss recovery fast.
pub const RPC_DEADLINE: Nanos = sim::millis(1);

/// Initial RPC retry backoff, doubled per attempt (deterministic
/// exponential backoff in virtual time; no randomized jitter, so runs
/// replay byte-identically).
pub const RETRY_BACKOFF: Nanos = sim::micros(10);

/// Bounded retries for an idempotent one-sided write that timed out
/// (transient partition ride-out).
pub const OP_RETRIES: usize = 5;

/// Initial backoff for those one-sided retries, doubled per attempt.
pub const OP_BACKOFF: Nanos = sim::micros(100);

/// Client-side bound on the server's verifier timeout: when the
/// allocation-RPC-to-write-ack window of a PUT reaches this much virtual
/// time, the client re-reads the version's flag word to detect a verifier
/// invalidation before reporting success. Measured from *before* the
/// allocation request is sent, so it upper-bounds the server-side time
/// since allocation; must not exceed the server's `verify_timeout` (it is
/// half of the server default).
pub const VERIFY_GRACE: Nanos = sim::micros(100);

/// Entry cap for the location cache; at capacity, new keys are simply not
/// cached (deterministic, no eviction order to replay).
pub const LOC_CACHE_CAP: usize = 65_536;

/// Client knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Use the hybrid read scheme; `false` gives "eFactory w/o hr" (always
    /// RPC+RDMA read), the factor-analysis configuration of §6.1.
    pub hybrid_read: bool,
    /// Keep a client-side **location cache** (key → object offset +
    /// lengths + version floor) so repeat GETs skip the bucket-probe RDMA
    /// read and go straight to the optimistic object read. Entries are
    /// validated by the same embedded durability-flag/CRC checks as the
    /// pure path — any mismatch falls through to the normal probe (and on
    /// a *structural* mismatch evicts the entry) — and the whole cache is
    /// flushed on `CleanStart`/`CleanEnd` since cleaning relocates
    /// objects. The cache trades strict freshness for latency: a cached
    /// read may return the last version *this client* located even after
    /// another client overwrote the key (reads stay monotonic per client;
    /// the next probe or RPC read refreshes the entry).
    pub loc_cache: bool,
    /// Shard index this client routes to; recorded on every op's root
    /// trace span so the latency decomposition can attribute per shard.
    pub shard: u32,
    /// Observability context; the harness passes the same one the server
    /// uses so client and server phases land in a single trace.
    pub obs: Obs,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            hybrid_read: true,
            loc_cache: false,
            shard: 0,
            obs: Obs::new(),
        }
    }
}

/// Which path served a GET (exposed for tests and the factor analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetOutcome {
    /// Pure RDMA read path succeeded (durability flag was set).
    Pure,
    /// Fell back to the RPC+RDMA read scheme.
    Fallback,
    /// RPC+RDMA was used directly (hybrid disabled or cleaning active).
    RpcOnly,
}

/// One client statistic: this client's own count, plus the run-wide
/// registry counter of the same name that every client of a run shares.
/// One increment bumps both.
#[derive(Debug)]
pub struct Stat {
    own: Cell<u64>,
    run: Counter,
}

impl Stat {
    fn new(registry: &Registry, name: &str) -> Stat {
        Stat {
            own: Cell::new(0),
            run: registry.counter(name),
        }
    }

    fn inc(&self) {
        self.own.set(self.own.get() + 1);
        self.run.inc();
    }

    /// This client's count.
    pub fn get(&self) -> u64 {
        self.own.get()
    }
}

/// Per-client counters, each also counted run-wide under its
/// `client.*` registry name.
#[derive(Debug)]
pub struct ClientStats {
    /// GETs served by the pure one-sided path.
    pub pure_hits: Stat,
    /// GETs that started pure and fell back to RPC.
    pub fallbacks: Stat,
    /// GETs that went straight to RPC (cleaning / hybrid disabled).
    pub rpc_only: Stat,
    /// PUTs completed.
    pub puts: Stat,
    /// RPC send attempts beyond the first (lost request/reply ride-out).
    pub rpc_retries: Stat,
    /// One-sided verb retries after a timeout (transient-partition
    /// ride-out of the value write / liveness re-read) — a different
    /// failure signal than `rpc_retries`, kept separate.
    pub op_retries: Stat,
    /// GET retries through the server: re-reads after a failed read check
    /// (bounded by [`MAX_RPC_RETRIES`]), and waits on an in-doubt head.
    pub get_retries: Stat,
    /// PUTs re-issued as fresh logical requests because the allocated
    /// version was invalidated while the allocation reply was being
    /// retried (verifier timeout raced a lossy fabric).
    pub put_reissues: Stat,
    /// GETs served straight from a location-cache entry (probe skipped).
    pub loc_hits: Stat,
    /// Location-cache lookups that missed or failed validation and fell
    /// through to the normal probe.
    pub loc_misses: Stat,
    /// Location-cache entries written (new or refreshed).
    pub loc_fills: Stat,
    /// Location-cache entries evicted on a structural mismatch (stale
    /// offset after cleaning/invalidation, CRC rot, wrong key bytes).
    pub loc_invalidations: Stat,
}

impl ClientStats {
    fn new(r: &Registry) -> ClientStats {
        ClientStats {
            pure_hits: Stat::new(r, "client.pure_hits"),
            fallbacks: Stat::new(r, "client.fallbacks"),
            rpc_only: Stat::new(r, "client.rpc_only"),
            puts: Stat::new(r, "client.puts"),
            rpc_retries: Stat::new(r, "client.rpc_retry"),
            op_retries: Stat::new(r, "client.op_retry"),
            get_retries: Stat::new(r, "client.get_retry"),
            put_reissues: Stat::new(r, "client.put_reissue"),
            loc_hits: Stat::new(r, "client.loc_cache.hits"),
            loc_misses: Stat::new(r, "client.loc_cache.misses"),
            loc_fills: Stat::new(r, "client.loc_cache.fills"),
            loc_invalidations: Stat::new(r, "client.loc_cache.invalidations"),
        }
    }
}

/// A connected eFactory client. Not `Sync`: one client per simulated
/// process, like one QP per thread in the paper's testbed.
pub struct Client {
    qp: ClientQp,
    desc: StoreDesc,
    cfg: ClientConfig,
    /// Set between CleanStart and CleanEnd notifications.
    cleaning: Cell<bool>,
    /// Monotonic request-id source; each logical RPC takes the next id and
    /// reuses it across its retry attempts.
    next_req_id: Cell<u64>,
    stats: ClientStats,
    /// Location cache: key → last located object version. Only consulted
    /// when `cfg.loc_cache` is set; flushed whenever cleaning starts or
    /// ends (cleaning is the only thing that *moves* objects).
    loc_cache: RefCell<HashMap<Vec<u8>, LocEntry>>,
    /// Current placement epoch (cluster runs; 0 forever on single-node
    /// topologies). Entries stamped with an older epoch are evicted on
    /// lookup instead of dereferenced — see [`LocEntry::epoch`].
    placement_epoch: Cell<u64>,
    /// Registry counters for the transactional surface. `pub(crate)` so
    /// the routed [`StoreClient`](crate::store::StoreClient) counts its
    /// logical commits.
    pub(crate) txn_commit_ctr: Counter,
    pub(crate) txn_conflict_ctr: Counter,
    pub(crate) snap_capture_ctr: Counter,
    pub(crate) snap_get_ctr: Counter,
    pub(crate) snap_retry_ctr: Counter,
}

/// One location-cache entry: where this client last found a key's object,
/// and the minimum version sequence a cached read may accept (guards
/// against a recycled offset presenting an older-but-well-formed version
/// of the same key).
#[derive(Clone, Copy, Debug)]
struct LocEntry {
    off: u64,
    klen: u16,
    vlen: u32,
    min_seq: u32,
    /// Placement epoch the entry was filled under. A shard move bumps the
    /// client's epoch, so every pre-move offset — which would dereference
    /// the **old node's** pool — fails the tag check and is evicted.
    epoch: u64,
}

/// RAII context for one logical client operation: owns the root `"op"`
/// trace span and the thread's op-id attribution scope. When an outer
/// scope already owns the op (the pipelined client measures its own
/// submit→completion window), the context records an `"exec"` child span
/// instead of a second root.
pub(crate) struct OpCtx {
    root: Option<SpanGuard>,
    _scope: Option<OpScope>,
}

impl OpCtx {
    /// Attach the op's observed retry count to the root span (set just
    /// before the context drops and the span records).
    pub(crate) fn set_retries(&mut self, retries: u64) {
        if let Some(sp) = &mut self.root {
            sp.arg("retries", retries);
        }
    }

    /// Attach an arbitrary arg to the root span (e.g. the transaction's
    /// commit timestamp, joining the op to the server's txn spans).
    pub(crate) fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(sp) = &mut self.root {
            sp.arg(key, value);
        }
    }
}

impl Client {
    /// Connect `local` to the server on `server_node` described by `desc`.
    /// Must run inside a simulated process.
    pub fn connect(
        fabric: &Arc<Fabric>,
        local: &Node,
        server_node: &Node,
        desc: StoreDesc,
        cfg: ClientConfig,
    ) -> Result<Client, StoreError> {
        let qp = fabric.connect(local, server_node)?;
        let stats = ClientStats::new(&cfg.obs.registry);
        let txn_commit_ctr = cfg.obs.registry.counter("client.txn.commits");
        let txn_conflict_ctr = cfg.obs.registry.counter("client.txn.conflicts");
        let snap_capture_ctr = cfg.obs.registry.counter("client.txn.snap_captures");
        let snap_get_ctr = cfg.obs.registry.counter("client.txn.snap_gets");
        let snap_retry_ctr = cfg.obs.registry.counter("client.txn.snap_retries");
        Ok(Client {
            qp,
            desc,
            cfg,
            cleaning: Cell::new(false),
            next_req_id: Cell::new(1),
            stats,
            loc_cache: RefCell::new(HashMap::new()),
            placement_epoch: Cell::new(0),
            txn_commit_ctr,
            txn_conflict_ctr,
            snap_capture_ctr,
            snap_get_ctr,
            snap_retry_ctr,
        })
    }

    /// Counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Open the per-op attribution context. `kind`: 0 = GET, 1 = PUT,
    /// 2 = DEL, 3 = TXN, 4 = SNAP (the `critical_path` encoding).
    /// `pub(crate)` so the routed client can open one root spanning a
    /// multi-shard fan-out.
    pub(crate) fn op_root(&self, kind: u64, key: &[u8]) -> OpCtx {
        if current_op() != 0 {
            // Already inside an op (pipelined slot): record execution as a
            // child phase of the owning op instead of opening a new root.
            return OpCtx {
                root: Some(self.cfg.obs.tracer.span(Subsystem::Client, "exec")),
                _scope: None,
            };
        }
        let scope = OpScope::enter(self.cfg.obs.next_op_id());
        let mut sp = self.cfg.obs.tracer.span(Subsystem::Client, "op");
        sp.arg("kind", kind);
        sp.arg("shard", self.cfg.shard as u64);
        sp.arg("key_fp", fingerprint(key));
        OpCtx {
            root: Some(sp),
            _scope: Some(scope),
        }
    }

    /// Sum of every retry counter; deltas across an op give its root
    /// span's `retries` arg. `pub(crate)` so the routed client can sum it
    /// across shards.
    pub(crate) fn retry_total(&self) -> u64 {
        self.stats.rpc_retries.get()
            + self.stats.op_retries.get()
            + self.stats.get_retries.get()
            + self.stats.put_reissues.get()
    }

    /// A backoff sleep, recorded as a retry-classified phase of the
    /// current op.
    fn backoff_sleep(&self, backoff: Nanos) {
        let _sp = self.cfg.obs.tracer.span(Subsystem::Client, "backoff");
        sim::sleep(backoff);
    }

    /// Drain pending server notifications (cleaning state). Cleaning
    /// relocates objects, so both edges flush the location cache — every
    /// cached offset may be stale the moment the cleaner runs.
    pub(crate) fn poll_events(&self) {
        while let Some(ev) = self.qp.try_event() {
            match Event::decode(&ev) {
                Some(Event::CleanStart) => {
                    self.cleaning.set(true);
                    self.loc_cache.borrow_mut().clear();
                }
                Some(Event::CleanEnd) => {
                    self.cleaning.set(false);
                    self.loc_cache.borrow_mut().clear();
                }
                None => {}
            }
        }
    }

    /// Record (or refresh) the location of `key`'s current version. At
    /// capacity new keys are simply not cached — deterministic, and the
    /// default cap is far above the paper's working-set sizes.
    fn loc_fill(&self, key: &[u8], off: u64, klen: u16, vlen: u32, min_seq: u32) {
        if !self.cfg.loc_cache {
            return;
        }
        let mut cache = self.loc_cache.borrow_mut();
        if cache.len() >= LOC_CACHE_CAP && !cache.contains_key(key) {
            return;
        }
        cache.insert(
            key.to_vec(),
            LocEntry {
                off,
                klen,
                vlen,
                min_seq,
                epoch: self.placement_epoch.get(),
            },
        );
        self.stats.loc_fills.inc();
    }

    /// Adopt a new placement epoch (the cluster client calls this after a
    /// router flip). Entries filled under older epochs fail the tag check
    /// and are evicted lazily on their next lookup.
    pub fn set_placement_epoch(&self, epoch: u64) {
        self.placement_epoch.set(epoch);
    }

    /// The placement epoch this connection currently trusts.
    pub fn placement_epoch(&self) -> u64 {
        self.placement_epoch.get()
    }

    /// Evict `key`'s entry after a structural validation failure.
    fn loc_invalidate(&self, key: &[u8]) {
        if self.loc_cache.borrow_mut().remove(key).is_some() {
            self.stats.loc_invalidations.inc();
        }
    }

    /// Try to serve a GET from the location cache with a single one-sided
    /// object read — no bucket probe. The read passes the pure path's check
    /// plus a version floor (`min_seq`); any failure falls through to the
    /// probe, evicting the entry when the failure is structural (the offset
    /// no longer holds what it held — cleaning or invalidation) rather than
    /// transient (not yet durable).
    fn try_cached_get(&self, key: &[u8]) -> Result<PureOutcome, StoreError> {
        let Some(entry) = self.loc_cache.borrow().get(key).copied() else {
            self.stats.loc_misses.inc();
            return Ok(PureOutcome::Fallback);
        };
        if entry.epoch != self.placement_epoch.get() {
            // Filled under an older placement: the offset belongs to a
            // node that may no longer own the shard. Never dereference it.
            self.loc_invalidate(key);
            self.stats.loc_misses.inc();
            return Ok(PureOutcome::Fallback);
        }
        let _sp = self.cfg.obs.tracer.span(Subsystem::Client, "cached_read");
        let size = layout::object_size(entry.klen as usize, entry.vlen as usize);
        let obj = self.qp.rdma_read(&self.desc.mr, entry.off as usize, size)?;
        // The version floor sits between the parse and the read rule: a
        // recycled offset may hold an older, well-formed version of the key.
        let read = match Fetched::parse(&obj, key, entry.klen, entry.vlen) {
            Some(f) if f.hdr.seq >= entry.min_seq => f.read(),
            _ => Read::Stale,
        };
        let value = match read {
            Read::Value(v) => Some(v.to_vec()),
            Read::Tombstone => None,
            // Stale: the offset no longer holds the cached version. NotYet
            // is transient — the verifier hasn't reached this version yet,
            // or an in-doubt transactional head was staged over it — so the
            // entry stays: it will validate once durable/resolved.
            miss => {
                if miss == Read::Stale {
                    self.loc_invalidate(key);
                }
                self.stats.loc_misses.inc();
                return Ok(PureOutcome::Fallback);
            }
        };
        self.stats.loc_hits.inc();
        Ok(PureOutcome::Hit(value))
    }

    /// One logical RPC: framed with a fresh request id, retried with
    /// deterministic exponential backoff until an attempt's deadline is
    /// answered. Every attempt reuses the id, so the server executes at
    /// most once; replies carrying an older id (stragglers from a timed-out
    /// attempt, or fault-injected duplicates) are discarded.
    fn rpc(&self, req: &Request) -> Result<Response, StoreError> {
        let id = self.next_req_id.get();
        self.next_req_id.set(id + 1);
        // The span covers all attempts; its (qp, req) args join it to the
        // server's handler span in the critical-path fold.
        let mut rpc_sp = self.cfg.obs.tracer.span(Subsystem::Client, "rpc");
        rpc_sp.arg("qp", self.qp.id());
        rpc_sp.arg("req", id);
        let payload = req.encode_framed(id);
        let mut backoff = RETRY_BACKOFF;
        for attempt in 0..RPC_ATTEMPTS {
            if attempt > 0 {
                self.stats.rpc_retries.inc();
                self.backoff_sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            self.qp.send(payload.clone())?;
            let deadline = sim::now() + RPC_DEADLINE;
            loop {
                match self.qp.recv_reply_deadline(deadline) {
                    Ok(raw) => {
                        let Some((rid, resp)) = Response::decode_any(&raw) else {
                            return Err(StoreError::Protocol);
                        };
                        match rid {
                            Some(rid) if rid == id => return Ok(resp),
                            // A stale or duplicated reply for an earlier id:
                            // keep draining until this attempt's deadline.
                            Some(_) => continue,
                            // Unframed reply: this client always sends
                            // framed requests and the server mirrors the
                            // framing, so an id-less reply can only be
                            // garbage or a foreign straggler — never the
                            // answer to *this* request. Drain past it.
                            None => continue,
                        }
                    }
                    Err(QpError::Timeout) => break,
                    Err(e) => return Err(StoreError::Qp(e)),
                }
            }
        }
        Err(StoreError::Qp(QpError::Timeout))
    }

    /// Idempotent one-sided write with bounded timeout retries (rides out
    /// transient partitions; re-writing the same bytes to the same offset
    /// is harmless).
    fn one_sided_write_retry(&self, off: usize, value: &[u8]) -> Result<(), StoreError> {
        let mut backoff = OP_BACKOFF;
        let mut attempt = 0;
        loop {
            match self.qp.rdma_write(&self.desc.mr, off, value.to_vec()) {
                Ok(()) => return Ok(()),
                Err(QpError::Timeout) if attempt < OP_RETRIES => {
                    attempt += 1;
                    self.stats.op_retries.inc();
                    self.backoff_sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => return Err(StoreError::Qp(e)),
            }
        }
    }

    /// Store `value` under `key`. Returns when the RDMA write is acked —
    /// durability is asynchronous (the paper's client-active scheme).
    ///
    /// If the value write lands after the verifier timed the still-empty
    /// version out (it invalidates versions whose value never arrives
    /// within `verify_timeout`) — because the allocation reply was being
    /// retried, the write itself was retried across a partition, or a
    /// fault-injected delay held the write in flight — the write lands in
    /// a dead version and would be silently lost. `put` detects that case
    /// with a one-sided re-read of the version's flag word whenever the
    /// allocation-to-ack window could have crossed the timeout, and
    /// re-issues the whole operation as a *fresh* logical request, bounded
    /// by [`OP_RETRIES`].
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.poll_events();
        let mut ctx = self.op_root(1, key);
        let retries_before = self.retry_total();
        let result = self.put_inner(key, value);
        ctx.set_retries(self.retry_total() - retries_before);
        result
    }

    fn put_inner(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let mut backoff = OP_BACKOFF;
        for attempt in 0..=OP_RETRIES {
            if attempt > 0 {
                self.stats.put_reissues.inc();
                self.backoff_sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            if self.put_once(key, value)? {
                self.stats.puts.inc();
                return Ok(());
            }
        }
        Err(StoreError::Qp(QpError::Timeout))
    }

    /// One allocation RPC + value write. `Ok(false)` means the allocated
    /// version was invalidated while the reply was being retried — the
    /// caller must re-issue the PUT under a fresh request id.
    fn put_once(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        let req = Request::Put {
            key: key.to_vec(),
            vlen: value.len() as u32,
            crc: crc32c(value),
        };
        let rpc_retries_before = self.stats.rpc_retries.get();
        let op_retries_before = self.stats.op_retries.get();
        // Taken *before* the request leaves: the server allocates strictly
        // later, so client-elapsed time from here upper-bounds the
        // verifier's time-since-allocation.
        let t_start = sim::now();
        match self.rpc(&req)? {
            Response::Put {
                status: Status::Ok,
                obj_off,
                value_off,
            } => {
                // Join key for the op's off-path durable-ization work
                // (verifier CRC/flush, replication mirror).
                self.cfg
                    .obs
                    .tracer
                    .event_args(Subsystem::Client, "alloc_off", &[("off", obj_off)]);
                if !value.is_empty() {
                    let mut sp = self.cfg.obs.tracer.span(Subsystem::Client, "rdma_write");
                    sp.arg("vlen", value.len() as u64);
                    self.one_sided_write_retry(value_off as usize, value)?;
                }
                // Fast path: when the whole allocation-to-write-ack window
                // stayed inside `VERIFY_GRACE` (≤ the server's
                // `verify_timeout`), the verifier cannot have timed the
                // version out. Anything that could have stretched it past
                // the timeout — a retried RPC, a retried (partitioned)
                // value write, or plain elapsed virtual time (a delayed
                // write lands late without any retry) — forces a liveness
                // re-check. (Once the write above is acked the check is
                // race-free: the verifier only invalidates on a CRC
                // mismatch at visit time, and a landed value always
                // matches.)
                let risky = self.stats.rpc_retries.get() != rpc_retries_before
                    || self.stats.op_retries.get() != op_retries_before
                    || sim::now().saturating_sub(t_start) >= VERIFY_GRACE;
                if risky && !self.version_still_valid(obj_off as usize)? {
                    return Ok(false);
                }
                // The freshest location this client can know: its own
                // write. Sequence floor 0 — the server assigned the seq and
                // the offset is version-unique until cleaning (which
                // flushes the cache).
                self.loc_fill(key, obj_off, key.len() as u16, value.len() as u32, 0);
                Ok(true)
            }
            Response::Put { status, .. } => Err(StoreError::Status(status)),
            _ => Err(StoreError::Protocol),
        }
    }

    /// One-sided read of the object's flag word, with the same bounded
    /// timeout retry as the value write. `false` when the verifier
    /// invalidated the version before the value arrived.
    fn version_still_valid(&self, obj_off: usize) -> Result<bool, StoreError> {
        let mut backoff = OP_BACKOFF;
        let mut attempt = 0;
        let raw = loop {
            match self.qp.rdma_read(&self.desc.mr, obj_off, 8) {
                Ok(b) => break b,
                Err(QpError::Timeout) if attempt < OP_RETRIES => {
                    attempt += 1;
                    self.stats.op_retries.inc();
                    self.backoff_sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => return Err(StoreError::Qp(e)),
            }
        };
        let w0 = u64::from_le_bytes(raw[..8].try_into().unwrap());
        let (_, _, fl) = ObjHeader::from_word0(w0);
        Ok(fl & flags::VALID != 0)
    }

    /// Delete `key` (tombstone).
    pub fn del(&self, key: &[u8]) -> Result<(), StoreError> {
        self.poll_events();
        let mut ctx = self.op_root(2, key);
        let retries_before = self.retry_total();
        // The cached location now points at a superseded version; drop it
        // (not counted as an invalidation — nothing went stale underneath
        // us, we made it stale).
        self.loc_cache.borrow_mut().remove(key);
        let result = match self.rpc(&Request::Del { key: key.to_vec() }) {
            Ok(Response::Ack { status: Status::Ok }) => Ok(()),
            Ok(Response::Ack { status }) => Err(StoreError::Status(status)),
            Ok(_) => Err(StoreError::Protocol),
            Err(e) => Err(e),
        };
        ctx.set_retries(self.retry_total() - retries_before);
        result
    }

    /// Read `key`. `Ok(None)` means not found (or deleted).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.get_traced(key)?.0)
    }

    /// Like [`get`](Self::get), also reporting which path served the read.
    pub fn get_traced(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, GetOutcome), StoreError> {
        self.poll_events();
        let mut ctx = self.op_root(0, key);
        let retries_before = self.retry_total();
        let result = self.get_inner(key);
        ctx.set_retries(self.retry_total() - retries_before);
        result
    }

    fn get_inner(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, GetOutcome), StoreError> {
        if self.cfg.hybrid_read && !self.cleaning.get() {
            // Step 1-4 of Figure 6: the optimistic pure RDMA read path.
            let pure = {
                let _sp = self.cfg.obs.tracer.span(Subsystem::Client, "pure_read");
                match self.try_pure_get(key) {
                    Ok(p) => p,
                    // A transient partition timed the one-sided reads out;
                    // the RPC path below rides it out with retries.
                    Err(StoreError::Qp(QpError::Timeout)) => PureOutcome::Fallback,
                    Err(e) => return Err(e),
                }
            };
            match pure {
                PureOutcome::Hit(v) => {
                    self.stats.pure_hits.inc();
                    return Ok((v, GetOutcome::Pure));
                }
                PureOutcome::Fallback => {
                    self.stats.fallbacks.inc();
                    let _sp = self.cfg.obs.tracer.span(Subsystem::Client, "fallback_rpc");
                    let v = self.rpc_get(key)?;
                    return Ok((v, GetOutcome::Fallback));
                }
            }
        }
        self.stats.rpc_only.inc();
        let _sp = self.cfg.obs.tracer.span(Subsystem::Client, "rpc_read");
        let v = self.rpc_get(key)?;
        Ok((v, GetOutcome::RpcOnly))
    }

    fn try_pure_get(&self, key: &[u8]) -> Result<PureOutcome, StoreError> {
        if self.cfg.loc_cache {
            if let hit @ PureOutcome::Hit(_) = self.try_cached_get(key)? {
                return Ok(hit);
            }
        }
        let ht = self.desc.layout.hashtable();
        let fp = fingerprint(key);
        let home = ht.home(fp);
        // Step 2: fetch the probe window with one RDMA read.
        let window = self
            .qp
            .rdma_read(&self.desc.mr, ht.entry_off(home), NPROBE * BUCKET_LEN)?;
        let Some((_, entry)) = find_in_window(&window, fp) else {
            // Fingerprint absent: the key was never inserted. (Entries are
            // only removed by cleaning, during which we don't take this
            // path.)
            return Ok(PureOutcome::Hit(None));
        };
        if entry.ctl.new_valid() {
            // Cleaning is (or just was) rearranging this key; be safe.
            return Ok(PureOutcome::Fallback);
        }
        let off = entry.current();
        if off == 0 {
            return Ok(PureOutcome::Fallback);
        }
        // Step 3: fetch the object (header + key + value) with one read.
        let size = layout::object_size(entry.klen as usize, entry.vlen as usize);
        let obj = self.qp.rdma_read(&self.desc.mr, off as usize, size)?;
        // Step 4: the read check, durability flag included. Anything not
        // servable — not yet durable, an in-doubt head, a mid-clean, torn
        // or bit-rotted object — degrades to the RPC path.
        let Some(f) = Fetched::parse(&obj, key, entry.klen, entry.vlen) else {
            return Ok(PureOutcome::Fallback);
        };
        let outcome = match f.read() {
            Read::Value(v) => PureOutcome::Hit(Some(v.to_vec())),
            // Cache the tombstone too: repeat reads of a deleted key are
            // then a single validated object read.
            Read::Tombstone => PureOutcome::Hit(None),
            Read::Stale | Read::NotYet => return Ok(PureOutcome::Fallback),
        };
        self.loc_fill(key, off, f.hdr.klen, f.hdr.vlen, f.hdr.seq);
        Ok(outcome)
    }

    /// Steps 5–9 of Figure 6: RPC to the server (which guarantees
    /// durability before answering), then a one-sided read of the object.
    fn rpc_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.rpc_get_seq(key)?.0)
    }

    /// The RPC read path, also reporting the served version's sequence
    /// number — the read-set fingerprint a transactional read-modify-write
    /// validates at commit. `0` means absent or tombstoned (matching the
    /// server's read-set validation convention).
    fn rpc_get_seq(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, u32), StoreError> {
        for _ in 0..=MAX_RPC_RETRIES {
            // An in-doubt head answers `Busy`: wait for the decision without
            // spending the retry budget. The client sets no cap; the decide
            // RPC or the server's presumed-abort sweep ends the wait. Each
            // wait counts as a GET retry.
            let (status, obj_off, klen, vlen) = loop {
                let Response::Get {
                    status,
                    obj_off,
                    klen,
                    vlen,
                } = self.rpc(&Request::Get { key: key.to_vec() })?
                else {
                    return Err(StoreError::Protocol);
                };
                if status != Status::Busy {
                    break (status, obj_off, klen, vlen);
                }
                self.stats.get_retries.inc();
                self.backoff_sleep(crate::txn::TXN_BACKOFF);
            };
            match status {
                Status::NotFound => return Ok((None, 0)),
                Status::Ok => {}
                s => return Err(StoreError::Status(s)),
            }
            let size = layout::object_size(klen as usize, vlen as usize);
            let obj = match self.qp.rdma_read(&self.desc.mr, obj_off as usize, size) {
                Ok(obj) => obj,
                Err(QpError::Timeout) => {
                    // Transient partition: retry through the server.
                    self.stats.get_retries.inc();
                    continue;
                }
                Err(e) => return Err(StoreError::Qp(e)),
            };
            // The server persisted before replying. The returned version's
            // key must match, but it may be an *older* version with a
            // different value length; anything the read rule rejects is a
            // race with cleaning, or bit-rot not yet scrubbed — retry
            // through the server. (The server never returns an in-doubt
            // PENDING version; seeing one means the offset was reused.)
            let Some(f) = Fetched::parse(&obj, key, klen, vlen) else {
                self.stats.get_retries.inc();
                continue;
            };
            let served = match f.read() {
                Read::Value(v) => (Some(v.to_vec()), f.hdr.seq),
                Read::Tombstone => (None, 0),
                Read::Stale | Read::NotYet => {
                    self.stats.get_retries.inc();
                    continue;
                }
            };
            self.loc_fill(key, obj_off, klen, vlen, f.hdr.seq);
            return Ok(served);
        }
        Err(StoreError::Protocol)
    }
}

/// What a one-sided read path produced.
enum PureOutcome {
    /// Served: the value, or `None` for an absent or deleted key.
    Hit(Option<Vec<u8>>),
    /// Not servable one-sided: take the next path (the bucket probe after a
    /// location-cache miss, the RPC path after the probe).
    Fallback,
}

impl RemoteKv for Client {
    fn kv_put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.put(key, value)
    }
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.get(key)
    }
}

/// Raw per-shard transactional RPCs, driven by the multi-shard drivers in
/// [`crate::txn`] through the routed client's per-RPC retry.
impl Client {
    /// Fused single-shard commit; returns `(status, commit_ts)`.
    pub(crate) fn shard_txn_commit(
        &self,
        txn_id: u64,
        reads: &[(Vec<u8>, u32)],
        puts: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(Status, u64), StoreError> {
        match self.rpc(&Request::TxnCommit {
            txn_id,
            reads: reads.to_vec(),
            puts: puts.to_vec(),
        })? {
            Response::TxnAck { status, commit_ts } => {
                if status == Status::Conflict {
                    self.txn_conflict_ctr.inc();
                }
                Ok((status, commit_ts))
            }
            _ => Err(StoreError::Protocol),
        }
    }

    /// 2PC prepare; returns `(status, shard clock)`.
    pub(crate) fn shard_txn_prepare(
        &self,
        txn_id: u64,
        reads: &[(Vec<u8>, u32)],
        puts: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(Status, u64), StoreError> {
        match self.rpc(&Request::TxnPrepare {
            txn_id,
            reads: reads.to_vec(),
            puts: puts.to_vec(),
        })? {
            Response::TxnAck { status, commit_ts } => {
                if status == Status::Conflict {
                    self.txn_conflict_ctr.inc();
                }
                Ok((status, commit_ts))
            }
            _ => Err(StoreError::Protocol),
        }
    }

    /// 2PC decide.
    pub(crate) fn shard_txn_decide(
        &self,
        txn_id: u64,
        commit: bool,
        commit_ts: u64,
    ) -> Result<Status, StoreError> {
        match self.rpc(&Request::TxnDecide {
            txn_id,
            commit,
            commit_ts,
        })? {
            Response::TxnAck { status, .. } => Ok(status),
            _ => Err(StoreError::Protocol),
        }
    }

    /// Capture the shard's snapshot clock.
    pub(crate) fn shard_snap_capture(&self) -> Result<(Status, u64), StoreError> {
        match self.rpc(&Request::SnapCapture)? {
            Response::Snap { status, watermark } => {
                if status == Status::Ok {
                    self.snap_capture_ctr.inc();
                }
                Ok((status, watermark))
            }
            _ => Err(StoreError::Protocol),
        }
    }

    /// Snapshot read: RPC chooses the version visible at `snap_ts`, then a
    /// validated one-sided read fetches it — the same two-step shape as
    /// the RPC GET path, but a validation mismatch reports `Busy` instead
    /// of falling forward to a fresher version (that would break the
    /// snapshot cut).
    pub(crate) fn shard_snap_get(
        &self,
        key: &[u8],
        snap_ts: u64,
    ) -> Result<SnapOutcome, StoreError> {
        self.snap_get_ctr.inc();
        let busy = |c: &Client| {
            c.snap_retry_ctr.inc();
            Ok(SnapOutcome::Busy)
        };
        let resp = self.rpc(&Request::SnapGet {
            key: key.to_vec(),
            snap_ts,
        })?;
        let Response::Get {
            status,
            obj_off,
            klen,
            vlen,
        } = resp
        else {
            return Err(StoreError::Protocol);
        };
        match status {
            Status::NotFound => return Ok(SnapOutcome::NotFound),
            Status::Busy => return busy(self),
            Status::Expired => return Ok(SnapOutcome::Expired),
            Status::Ok => {}
            s => return Err(StoreError::Status(s)),
        }
        let size = layout::object_size(klen as usize, vlen as usize);
        let obj = match self.qp.rdma_read(&self.desc.mr, obj_off as usize, size) {
            Ok(obj) => obj,
            Err(QpError::Timeout) => {
                self.stats.op_retries.inc();
                return busy(self);
            }
            Err(e) => return Err(StoreError::Qp(e)),
        };
        match Fetched::parse(&obj, key, klen, vlen).map(|f| f.read()) {
            Some(Read::Value(v)) => Ok(SnapOutcome::Value(v.to_vec())),
            Some(Read::Tombstone) => Ok(SnapOutcome::NotFound),
            _ => busy(self),
        }
    }

    /// Read a key together with the version sequence number the server
    /// will validate a read-modify-write against (`0` = absent).
    pub(crate) fn shard_get_with_seq(
        &self,
        key: &[u8],
    ) -> Result<(Option<Vec<u8>>, u32), StoreError> {
        self.rpc_get_seq(key)
    }
}
