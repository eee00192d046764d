//! Multi-key atomic transactions and MVCC snapshot reads over the
//! multi-version log.
//!
//! # Protocol
//!
//! A transaction is a read set (`(key, observed seq)` pairs) plus a write
//! set (full key/value pairs). Values ride the two-sided RPC (like the RPC
//! baseline's `RpcPut`), so the server stages them durably in one step —
//! the client-active one-sided write scheme is not used for transactional
//! writes, which keeps staging failure-atomic without a second round trip.
//!
//! **Staging** appends each write as a normal log version linked at the
//! head of its key's chain, flagged `VALID | PENDING | DURABLE`. A
//! `PENDING` head is *in-doubt*: the handler parks a request that meets
//! one until the transaction is decided (`park_blocker`), so plain GETs,
//! snapshot reads and writers wait at the participant — which preserves
//! the invariant that chain order equals commit-timestamp order. Only a
//! location-cache hit still serves the version it cached (the freshness
//! trade-off `ClientConfig::loc_cache` states).
//!
//! **Commit point** is a durable *commit record*: a normal log allocation
//! (never linked into the hash table) whose key is a magic prefix + txn id
//! and whose CRC-protected value lists the staged offsets. Recovery keeps a
//! `PENDING` version iff a durable commit record names it — all-or-nothing
//! visibility at every crash instant.
//!
//! **Publishing** clears the `PENDING` bits in one no-yield block (atomic
//! as observed by every other process and by clients' one-sided reads) and
//! assigns the transaction a single commit timestamp.
//!
//! Single-shard transactions use the fused one-RPC `TxnCommit`; cross-shard
//! ones run client-coordinated two-phase commit (`TxnPrepare` per shard,
//! then `TxnDecide`), with a presumed-abort sweep reclaiming prepares whose
//! coordinator died. Each phase is one fanned-out round: the client posts
//! to every participant before it waits on any, so a commit costs two
//! round trips however many shards it touches. A prepare that meets
//! another transaction's in-doubt version waits by wait-die: it parks
//! only if it is older than the holder, by the priority the coordinator
//! keeps across the op's retries, and otherwise answers `Conflict`. Every
//! wait goes from an older transaction to a younger one, so the prepares
//! cannot deadlock in any order, and a transaction that dies only ages.
//! The client drivers run one attempt of a routed op: an attempt that
//! fails aborts every participant it prepared and did not decide, and the
//! routed client retries the whole op under a fresh txn id.
//!
//! # Snapshots
//!
//! Each shard keeps a commit watermark `W`: every commit gets
//! `ts = max(W+1, now)` and advances `W`. `SnapCapture` bumps `W` to `now`
//! and returns it, so every *later* commit is strictly above the captured
//! clock, and every commit acknowledged *before* the capture is at or
//! below it. A multi-shard snapshot captures every shard's clock, all in
//! one fanned-out round, and reads at `S = min(vector)`, a key set at a
//! time ([`TxnKv::snap_get`]): a version is
//! visible iff its commit timestamp is `<= S`. Timestamps live in a
//! per-shard in-memory map (rebuilt empty after a crash — recovered
//! versions read as timestamp 0, i.e. visible in every snapshot, which is
//! sound because recovery discards everything that was not durably
//! committed).

use std::cell::{Cell, Ref};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;

use efactory_checksum::crc32c;
use efactory_obs::Subsystem;
use efactory_pmem::PmemPool;
use efactory_rnic::{ClientQp, QpError, QpId};
use efactory_sim as sim;

use crate::client::Client;
use crate::cluster::key_shard;
use crate::hashtable::fingerprint;
use crate::layout::{self, flags, Fetched, ObjHeader, Read, NIL};
use crate::protocol::{Request, Response, Status, StoreError};
use crate::server::{CleanPhase, ServerShared};

/// Magic key prefix identifying a commit record in the log. NUL-framed so
/// it can never collide with workload keys (which are printable).
pub const COMMIT_MAGIC: &[u8; 8] = b"\0efctxn\0";

/// A transaction prepared on this shard, awaiting the coordinator's
/// decision.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Offsets of the staged (PENDING) versions, in write-set order.
    pub offs: Vec<u64>,
    /// Virtual time the prepare completed — the presumed-abort sweep
    /// reclaims entries older than [`crate::server::ServerConfig::txn_abort_timeout`].
    pub staged_at: sim::Nanos,
    /// The transaction's wait-die priority (see [`Request::TxnPrepare`]):
    /// a prepare that meets one of these versions waits only if it is
    /// older.
    pub prio: (u64, u64),
}

/// Per-shard transactional state (in-memory; rebuilt empty after a crash).
#[derive(Debug, Default)]
pub struct TxnState {
    /// Commit watermark: every commit so far has `ts <= watermark`, every
    /// future commit gets `ts >` any snapshot clock already handed out.
    pub watermark: u64,
    /// Commit timestamp per published version offset. Missing entries
    /// (recovered versions, pre-txn-layer writes) read as 0: visible in
    /// every snapshot.
    pub commit_ts: HashMap<u64, u64>,
    /// In-doubt two-phase-commit participants, keyed by (client QP, txn id).
    pub prepared: HashMap<(QpId, u64), Prepared>,
    /// Oldest snapshot timestamp still servable. Log cleaning relocates
    /// versions to new offsets whose timestamps read as 0 ("visible in
    /// every snapshot") — correct for *current* reads but a time-travel
    /// hazard for snapshots captured before the pass. The cleaner bumps
    /// this to the watermark at every pool swap (and pass abort); older
    /// snapshots are answered `Expired` and re-captured by the client.
    pub min_snap_ts: u64,
}

/// Expire every snapshot captured before now: after relocation, versions a
/// pre-pass snapshot should *not* see carry timestamp 0 and would leak in.
/// Called by the cleaner (no yields — safe inside its mutation blocks).
pub(crate) fn expire_snapshots(shared: &ServerShared) {
    let mut txn = shared.txn.lock().unwrap();
    txn.min_snap_ts = txn.watermark;
}

/// Pool-swap hook: expire pre-pass snapshots *and* drop the offset-keyed
/// commit timestamps — the old pool is about to be zeroed and its offsets
/// recycled, so stale map entries would alias future allocations.
/// Relocated versions intentionally read as timestamp 0.
pub(crate) fn on_clean_swap(shared: &ServerShared) {
    let mut txn = shared.txn.lock().unwrap();
    txn.min_snap_ts = txn.watermark;
    txn.commit_ts.clear();
}

/// Presumed-abort sweep: abort every prepare staged longer than
/// `txn_abort_timeout` ago. The handler calls it from its receive loop,
/// and the cleaner when it waits on an overdue in-doubt head.
pub(crate) fn sweep_expired(shared: &ServerShared) {
    let now = sim::now();
    let timeout = shared.cfg.txn_abort_timeout;
    let expired: Vec<Prepared> = {
        let mut txn = shared.txn.lock().unwrap();
        if txn.prepared.is_empty() {
            return;
        }
        let keys: Vec<(QpId, u64)> = txn
            .prepared
            .iter()
            .filter(|(_, p)| p.staged_at + timeout <= now)
            .map(|(k, _)| *k)
            .collect();
        keys.iter().filter_map(|k| txn.prepared.remove(k)).collect()
    };
    for p in expired {
        abort_staged(shared, &p.offs);
        shared.stats.txn_aborts.inc();
        shared.cfg.obs.tracer.event_args(
            Subsystem::Server,
            "txn_presumed_abort",
            &[("staged", p.offs.len() as u64)],
        );
    }
}

/// Validate a read set: each key's newest committed version must still
/// carry the observed `seq` (0 = key absent or deleted). A `PENDING` head
/// on a read key is a conflict — the in-doubt writer may commit first.
fn validate_reads(shared: &ServerShared, reads: &[(Vec<u8>, u32)]) -> Status {
    for (key, want) in reads {
        let fp = fingerprint(key);
        let cur_seq = match shared.ht.lookup(&shared.pool, fp) {
            None => 0,
            Some((_idx, entry)) => {
                let mut off = shared.current_off(&entry);
                let mut seq = 0u32;
                while off != 0 && off != NIL {
                    let hdr = ObjHeader::read_from(&shared.pool, off as usize);
                    if hdr.has(flags::VALID) {
                        if hdr.has(flags::PENDING) {
                            return Status::Conflict;
                        }
                        if !hdr.has(flags::TOMBSTONE) {
                            seq = hdr.seq;
                        }
                        break;
                    }
                    off = hdr.pre_ptr;
                }
                seq
            }
        };
        if cur_seq != *want {
            return Status::Conflict;
        }
    }
    Status::Ok
}

/// The offset of `key`'s newest valid version when that version is in
/// doubt (`VALID | PENDING`).
fn in_doubt_version(shared: &ServerShared, key: &[u8]) -> Option<u64> {
    let (_, entry) = shared.ht.lookup(&shared.pool, fingerprint(key))?;
    let mut off = shared.current_off(&entry);
    while off != 0 && off != NIL {
        let hdr = ObjHeader::read_from(&shared.pool, off as usize);
        if hdr.has(flags::VALID) {
            return hdr.has(flags::PENDING).then_some(off);
        }
        off = hdr.pre_ptr;
    }
    None
}

/// The in-doubt version `req` waits for in the handler's wait list, or
/// `None` when it runs now. GET, PUT, DEL, `SnapGet` and the fused
/// `TxnCommit` wait on any in-doubt key they touch: they hold nothing
/// while they wait, so they close no cycle of waits. A `TxnPrepare` waits
/// by wait-die: only if it is older than every transaction holding one of
/// its keys. A younger one runs and answers `Conflict` as before, and its
/// coordinator aborts and retries under the same priority. `TxnDecide`
/// and `SnapCapture` touch no key.
pub(crate) fn park_blocker(shared: &ServerShared, req: &Request) -> Option<u64> {
    let txn = shared.txn.lock().unwrap();
    // Only a prepared transaction leaves a version in doubt between two
    // requests: a fused commit stages and publishes inside one.
    if txn.prepared.is_empty() {
        return None;
    }
    match req {
        Request::Get { key }
        | Request::Del { key }
        | Request::Put { key, .. }
        | Request::SnapGet { key, .. } => in_doubt_version(shared, key),
        Request::TxnCommit { reads, puts, .. } => reads
            .iter()
            .map(|(k, _)| k)
            .chain(puts.iter().map(|(k, _)| k))
            .find_map(|k| in_doubt_version(shared, k)),
        Request::TxnPrepare {
            prio, reads, puts, ..
        } => {
            let mut blocker = None;
            for key in reads
                .iter()
                .map(|(k, _)| k)
                .chain(puts.iter().map(|(k, _)| k))
            {
                let Some(off) = in_doubt_version(shared, key) else {
                    continue;
                };
                let holder = txn.prepared.values().find(|p| p.offs.contains(&off));
                if holder.is_none_or(|h| *prio >= h.prio) {
                    return None; // not older than this holder: die
                }
                blocker.get_or_insert(off);
            }
            blocker
        }
        _ => None,
    }
}

/// Stage one transactional write: append a fully persisted
/// `VALID | PENDING | DURABLE` version at the head of the key's chain.
/// Shares the plain-PUT link block, except the value is written and
/// flushed server-side (it rode the RPC) and the version stays in-doubt
/// until published.
fn stage_put(shared: &ServerShared, key: &[u8], value: &[u8]) -> Result<u64, Status> {
    let crc = crc32c(value);
    // ---- mutation block: no yields until the entry is linked ----
    let pending = flags::VALID | flags::PENDING;
    let (off, _, lines) =
        match shared.link_version(key, value.len() as u32, crc, pending, Some(value)) {
            Ok(linked) => linked,
            // An in-doubt head is a write-write conflict for a transaction.
            Err(Status::Busy) => return Err(Status::Conflict),
            Err(status) => return Err(status),
        };
    // ---- end mutation block ----

    sim::work(
        shared.cost.cpu_hash_ns
            + shared.cost.cpu_alloc_ns
            + shared.cost.crc_hw(value.len())
            + shared.cost.flush(lines * efactory_pmem::LINE),
    );
    Ok(off as u64)
}

/// Abort staged versions: clear `VALID | PENDING` (single word-0 store per
/// version). The hash entries keep pointing at the dead heads; readers and
/// later writers walk past them, exactly like verifier-invalidated heads.
fn abort_staged(shared: &ServerShared, offs: &[u64]) {
    if offs.is_empty() {
        return;
    }
    let mut lines = 0;
    for &off in offs {
        layout::update_flags(&shared.pool, off as usize, 0, flags::VALID | flags::PENDING);
        lines += shared.pool.flush(off as usize, 8);
    }
    shared.pool.drain();
    sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
}

/// Persist the commit record for `txn_id`: the transaction's durable
/// commit point. A normal log allocation, never linked into the hash
/// table; recovery scans the log for these.
///
/// Each staged version is named by `(key fingerprint, seq, value crc)`
/// rather than its raw log offset: log cleaning relocates versions (and
/// recycles whole pools), so an offset stops denoting "this write" the
/// moment the cleaner touches it, while the version identity survives any
/// number of relocations. The crc pins the value bytes, disambiguating
/// seq reuse after a bucket is dropped and recreated.
fn write_commit_record(shared: &ServerShared, txn_id: u64, offs: &[u64]) -> Result<(), Status> {
    let mut value = Vec::with_capacity(offs.len() * 16);
    for &off in offs {
        let hdr = ObjHeader::read_from(&shared.pool, off as usize);
        let okey = layout::read_key(&shared.pool, off as usize, &hdr);
        value.extend_from_slice(&fingerprint(&okey).to_le_bytes());
        value.extend_from_slice(&hdr.seq.to_le_bytes());
        value.extend_from_slice(&hdr.crc.to_le_bytes());
    }
    let pool_idx = shared.alloc_pool();
    let Some(off) = shared.logs[pool_idx].alloc(layout::record_size(value.len())) else {
        return Err(Status::NoSpace);
    };
    let lines = layout::write_record(&shared.pool, off, COMMIT_MAGIC, txn_id, &value, sim::now());
    sim::work(shared.cost.cpu_alloc_ns + shared.cost.flush(lines * efactory_pmem::LINE));
    Ok(())
}

/// Publish staged versions: clear every `PENDING` bit, record the commit
/// timestamp, and advance the watermark — one no-yield block, so the whole
/// transaction becomes visible atomically. `ts = None` assigns a fresh
/// fused-commit timestamp; `Some` uses the 2PC coordinator's.
fn publish(shared: &ServerShared, offs: &[u64], ts: Option<u64>) -> u64 {
    let mut txn = shared.txn.lock().unwrap();
    let ts = ts.unwrap_or_else(|| (txn.watermark + 1).max(sim::now()));
    let mut lines = 0;
    for &off in offs {
        layout::update_flags(&shared.pool, off as usize, 0, flags::PENDING);
        lines += shared.pool.flush(off as usize, 8);
        txn.commit_ts.insert(off, ts);
    }
    txn.watermark = txn.watermark.max(ts);
    drop(txn);
    if !offs.is_empty() {
        shared.pool.drain();
        sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
    }
    ts
}

/// Record the commit timestamp of a plain (non-transactional) PUT/DEL.
/// Called by the insert path right after the version is linked, so plain
/// writes order correctly against snapshots.
pub(crate) fn note_plain_commit(shared: &ServerShared, off: u64) {
    let mut txn = shared.txn.lock().unwrap();
    let ts = (txn.watermark + 1).max(sim::now());
    txn.watermark = ts;
    txn.commit_ts.insert(off, ts);
}

fn txn_ack(status: Status, commit_ts: u64) -> Response {
    Response::TxnAck { status, commit_ts }
}

/// Fused single-shard transaction: validate → stage → commit record →
/// publish, all inside one RPC (the handler is a single process, so no
/// other RPC observes the intermediate state — only crashes and one-sided
/// reads can, and both are handled by `PENDING` + the commit record).
pub(crate) fn handle_txn_commit(
    shared: &ServerShared,
    rpc: (QpId, u64),
    txn_id: u64,
    reads: &[(Vec<u8>, u32)],
    puts: &[(Vec<u8>, Vec<u8>)],
) -> Response {
    let mut sp = shared.cfg.obs.tracer.span(Subsystem::Server, "rpc_txn");
    sp.arg("qp", rpc.0);
    sp.arg("req", rpc.1);
    sp.arg("txn", txn_id);
    sp.arg("puts", puts.len() as u64);
    sim::work(shared.cost.cpu_req_handle_ns);
    if shared.phase() != CleanPhase::Normal || shared.mirror_lost.load(Ordering::Relaxed) {
        return txn_ack(Status::Busy, 0);
    }
    let v = validate_reads(shared, reads);
    if v != Status::Ok {
        shared.stats.txn_conflicts.inc();
        return txn_ack(v, 0);
    }
    let mut offs = Vec::with_capacity(puts.len());
    for (key, value) in puts {
        match stage_put(shared, key, value) {
            Ok(off) => offs.push(off),
            Err(status) => {
                abort_staged(shared, &offs);
                if status == Status::Conflict {
                    shared.stats.txn_conflicts.inc();
                }
                return txn_ack(status, 0);
            }
        }
    }
    if let Err(status) = write_commit_record(shared, txn_id, &offs) {
        abort_staged(shared, &offs);
        return txn_ack(status, 0);
    }
    let ts = publish(shared, &offs, None);
    shared.stats.txn_commits.inc();
    txn_ack(Status::Ok, ts)
}

/// 2PC phase 1: validate + stage, register the in-doubt transaction, and
/// return the shard's commit clock (the coordinator's timestamp must
/// exceed every participant's clock).
pub(crate) fn handle_txn_prepare(
    shared: &ServerShared,
    rpc: (QpId, u64),
    txn_id: u64,
    prio: (u64, u64),
    reads: &[(Vec<u8>, u32)],
    puts: &[(Vec<u8>, Vec<u8>)],
) -> Response {
    let mut sp = shared
        .cfg
        .obs
        .tracer
        .span(Subsystem::Server, "rpc_txn_prepare");
    sp.arg("qp", rpc.0);
    sp.arg("req", rpc.1);
    sp.arg("txn", txn_id);
    sim::work(shared.cost.cpu_req_handle_ns);
    shared.stats.txn_prepares.inc();
    if shared.phase() != CleanPhase::Normal || shared.mirror_lost.load(Ordering::Relaxed) {
        return txn_ack(Status::Busy, 0);
    }
    if shared
        .txn
        .lock()
        .unwrap()
        .prepared
        .contains_key(&(rpc.0, txn_id))
    {
        // A txn id is used for one attempt only; a duplicate prepare that
        // escaped the request-id dedup window is a protocol error.
        return txn_ack(Status::Conflict, 0);
    }
    let v = validate_reads(shared, reads);
    if v != Status::Ok {
        shared.stats.txn_conflicts.inc();
        return txn_ack(v, 0);
    }
    let mut offs = Vec::with_capacity(puts.len());
    for (key, value) in puts {
        match stage_put(shared, key, value) {
            Ok(off) => offs.push(off),
            Err(status) => {
                abort_staged(shared, &offs);
                if status == Status::Conflict {
                    shared.stats.txn_conflicts.inc();
                }
                return txn_ack(status, 0);
            }
        }
    }
    let clock = {
        let mut txn = shared.txn.lock().unwrap();
        txn.prepared.insert(
            (rpc.0, txn_id),
            Prepared {
                offs,
                staged_at: sim::now(),
                prio,
            },
        );
        txn.watermark.max(sim::now())
    };
    txn_ack(Status::Ok, clock)
}

/// 2PC phase 2: publish at the coordinator's timestamp, or abort. A
/// commit decision for an unknown transaction means the presumed-abort
/// sweep already reclaimed it — reported as `Conflict`.
pub(crate) fn handle_txn_decide(
    shared: &ServerShared,
    rpc: (QpId, u64),
    txn_id: u64,
    commit: bool,
    commit_ts: u64,
) -> Response {
    let mut sp = shared
        .cfg
        .obs
        .tracer
        .span(Subsystem::Server, "rpc_txn_decide");
    sp.arg("qp", rpc.0);
    sp.arg("req", rpc.1);
    sp.arg("txn", txn_id);
    sp.arg("commit", u64::from(commit));
    sim::work(shared.cost.cpu_req_handle_ns);
    shared.stats.txn_decides.inc();
    let p = shared.txn.lock().unwrap().prepared.remove(&(rpc.0, txn_id));
    match p {
        None => {
            if commit {
                shared.stats.txn_conflicts.inc();
                txn_ack(Status::Conflict, 0)
            } else {
                txn_ack(Status::Ok, 0)
            }
        }
        Some(p) => {
            if commit {
                if let Err(status) = write_commit_record(shared, txn_id, &p.offs) {
                    abort_staged(shared, &p.offs);
                    shared.stats.txn_aborts.inc();
                    return txn_ack(status, 0);
                }
                publish(shared, &p.offs, Some(commit_ts));
                shared.stats.txn_commits.inc();
                txn_ack(Status::Ok, commit_ts)
            } else {
                abort_staged(shared, &p.offs);
                shared.stats.txn_aborts.inc();
                txn_ack(Status::Ok, 0)
            }
        }
    }
}

/// Capture this shard's snapshot clock: bump the watermark to `now` and
/// return it. Every later commit gets a strictly larger timestamp, and
/// every commit acknowledged before this call is at or below it.
pub(crate) fn handle_snap_capture(shared: &ServerShared, rpc: (QpId, u64)) -> Response {
    let mut sp = shared
        .cfg
        .obs
        .tracer
        .span(Subsystem::Server, "rpc_snap_capture");
    sp.arg("qp", rpc.0);
    sp.arg("req", rpc.1);
    sim::work(shared.cost.cpu_req_handle_ns);
    shared.stats.snap_captures.inc();
    if shared.phase() != CleanPhase::Normal {
        return Response::Snap {
            status: Status::Busy,
            watermark: 0,
        };
    }
    let wm = {
        let mut txn = shared.txn.lock().unwrap();
        txn.watermark = txn.watermark.max(sim::now());
        txn.watermark
    };
    Response::Snap {
        status: Status::Ok,
        watermark: wm,
    }
}

/// MVCC snapshot read: serve the newest committed version with
/// `commit_ts <= snap_ts`, without blocking writers. An in-doubt
/// (`PENDING`) head parks the request in the handler until the decide RPC
/// or the presumed-abort sweep resolves it (Percolator-style
/// read-blocks-on-lock), and returns `Busy` only once the wait reaches
/// [`crate::server::PARK_LIMIT`]. A chosen version
/// that is not yet durable (plain PUT whose one-sided value write is still
/// landing) is persisted on demand, or `Busy` while the bytes are in
/// flight.
pub(crate) fn handle_snap_get(
    shared: &ServerShared,
    rpc: (QpId, u64),
    key: &[u8],
    snap_ts: u64,
) -> Response {
    let mut sp = shared
        .cfg
        .obs
        .tracer
        .span(Subsystem::Server, "rpc_snap_get");
    sp.arg("qp", rpc.0);
    sp.arg("req", rpc.1);
    sim::work(shared.cost.cpu_req_handle_ns + shared.cost.cpu_hash_ns);
    shared.stats.snap_gets.inc();
    let resp = |status: Status, obj_off: u64, klen: u16, vlen: u32| Response::Get {
        status,
        obj_off,
        klen,
        vlen,
    };
    let not_found = resp(Status::NotFound, 0, 0, 0);
    let busy = resp(Status::Busy, 0, 0, 0);
    if shared.phase() != CleanPhase::Normal {
        shared.stats.snap_busy.inc();
        return busy;
    }
    let fp = fingerprint(key);
    let Some((_idx, entry)) = shared.ht.lookup(&shared.pool, fp) else {
        return not_found;
    };
    let mut off = shared.current_off(&entry);
    // Deliberate-stale-read mutation for the checker's negative test: skip
    // the newest eligible version once, serving its predecessor.
    let mut skip_newest = shared.cfg.snap_serve_stale;
    // The walk holds the timestamp map's lock but never yields, so the
    // chosen version is consistent with a single instant of the map.
    let chosen = {
        let txn = shared.txn.lock().unwrap();
        if snap_ts < txn.min_snap_ts {
            // Snapshot predates the cleaner's compaction horizon:
            // relocated versions read as timestamp 0 and would leak into
            // it. The client must capture a fresh snapshot.
            return resp(Status::Expired, 0, 0, 0);
        }
        let mut chosen = None;
        while off != 0 && off != NIL {
            let hdr = ObjHeader::read_from(&shared.pool, off as usize);
            if !hdr.has(flags::VALID) {
                off = hdr.pre_ptr;
                continue;
            }
            if hdr.has(flags::PENDING) {
                chosen = Some(Err(())); // in-doubt: wait for the decision
                break;
            }
            let ts = txn.commit_ts.get(&off).copied().unwrap_or(0);
            if ts > snap_ts {
                off = hdr.pre_ptr;
                continue;
            }
            if skip_newest {
                skip_newest = false;
                off = hdr.pre_ptr;
                continue;
            }
            chosen = Some(Ok((off, hdr)));
            break;
        }
        chosen
    };
    match chosen {
        None => not_found,
        Some(Err(())) => {
            shared.stats.snap_busy.inc();
            busy
        }
        Some(Ok((off, hdr))) => {
            if hdr.has(flags::TOMBSTONE) {
                return not_found;
            }
            if !hdr.has(flags::DURABLE) {
                let Some(lines) = shared.persist_if_intact(off as usize, &hdr) else {
                    // Value bytes still in flight (or torn — the verifier
                    // will invalidate it within its timeout): retry.
                    shared.stats.snap_busy.inc();
                    return busy;
                };
                sim::work(shared.cost.flush(lines * efactory_pmem::LINE));
                shared.stats.gets_persisted_on_demand.inc();
            }
            resp(Status::Ok, off, hdr.klen, hdr.vlen)
        }
    }
}

/// Scan recovered object offsets for durable commit records; returns the
/// set of `(key fingerprint, seq, value crc)` version identities those
/// records name. Used by recovery to decide which `PENDING` versions
/// committed. Identity-based (not offset-based) so records stay valid
/// across log cleaning: a relocated copy carries the same key, seq, and
/// value bytes as the staged original the record vouched for.
pub fn committed_versions(pool: &PmemPool, objs: &[usize]) -> HashSet<(u64, u32, u32)> {
    let mut committed = HashSet::new();
    for &off in objs {
        // A torn record: the transaction never committed.
        let Some((_, value)) = layout::read_record(pool, off, COMMIT_MAGIC) else {
            continue;
        };
        if !value.len().is_multiple_of(16) {
            continue;
        }
        for chunk in value.chunks_exact(16) {
            committed.insert((
                u64::from_le_bytes(chunk[..8].try_into().unwrap()),
                u32::from_le_bytes(chunk[8..12].try_into().unwrap()),
                u32::from_le_bytes(chunk[12..16].try_into().unwrap()),
            ));
        }
    }
    committed
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A captured snapshot: read timestamp plus the per-shard clock vector it
/// was derived from (kept for diagnostics and the consistency checker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSnapshot {
    /// Snapshot read timestamp: the minimum of `vector`.
    pub ts: u64,
    /// The captured per-shard clocks, indexed by shard.
    pub vector: Vec<u64>,
}

/// The transactional client surface. Object-safe so the harness can reach
/// it through [`RemoteKv::txn`](crate::RemoteKv::txn).
pub trait TxnKv {
    /// Atomically write every `(key, value)` pair (all-or-nothing, exactly
    /// once). Returns the commit timestamp.
    fn txn_put_all(&self, puts: &[(Vec<u8>, Vec<u8>)]) -> Result<u64, StoreError>;
    /// CAS-style read-modify-write of one key: read, apply `f`, commit iff
    /// the key is unchanged; retried on conflict. Returns the commit
    /// timestamp.
    fn txn_rmw(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<Vec<u8>>) -> Vec<u8>,
    ) -> Result<u64, StoreError>;
    /// Capture a consistent snapshot across all shards.
    fn snapshot(&self) -> Result<TxnSnapshot, StoreError>;
    /// Read every key in `keys` as of `snap`, in order (`None` = absent or
    /// deleted). The reads see a consistent cut: a multi-key transaction is
    /// either entirely visible or entirely invisible.
    fn snap_get(
        &self,
        keys: &[Vec<u8>],
        snap: &TxnSnapshot,
    ) -> Result<Vec<Option<Vec<u8>>>, StoreError>;
}

/// Bounded client-side retry budget for transactional conflicts/busy.
const TXN_RETRY_LIMIT: usize = 512;
/// Backoff between transactional retries, and a reader's wait on an
/// in-doubt head.
pub(crate) const TXN_BACKOFF: sim::Nanos = sim::micros(2);

fn bump(next: &Cell<u64>) -> u64 {
    let id = next.get();
    next.set(id + 1);
    id
}

/// Multi-shard `txn_put_all` driver, one attempt of the routed op per
/// call: last-write-wins key dedup, group by shard, then either a fused
/// single-shard commit or client-coordinated 2PC in two fanned-out
/// [`round`]s, prepare then decide. `Busy`/`Conflict` retries inside the
/// call under a fresh txn id; any other error ends the attempt for the
/// routed client to re-resolve and retry whole. Every round acts only once
/// all its replies are in: a prepare round with any reply but `Ok` aborts
/// exactly the participants that answered `Ok` (one more round), and the
/// first other reply in shard order decides between backing off and
/// erroring out. A failed decide round leaves nothing to abort, since
/// every participant was sent its decide.
pub(crate) fn put_all_routed(
    clients: &[Ref<'_, Client>],
    next_txn_id: &Cell<u64>,
    prio: (u64, u64),
    puts: &[(Vec<u8>, Vec<u8>)],
) -> Result<u64, StoreError> {
    let shards = clients.len();
    // Duplicate keys in one write set would self-conflict at staging:
    // collapse to the last write per key.
    let mut dedup: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(puts.len());
    for (k, v) in puts {
        if let Some(e) = dedup.iter_mut().find(|(dk, _)| dk == k) {
            e.1 = v.clone();
        } else {
            dedup.push((k.clone(), v.clone()));
        }
    }
    let mut groups: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); shards];
    for (k, v) in dedup {
        let s = key_shard(&k, shards);
        groups[s].push((k, v));
    }
    let touched: Vec<usize> = (0..shards).filter(|&i| !groups[i].is_empty()).collect();
    if touched.is_empty() {
        return Ok(0);
    }

    for attempt in 0..TXN_RETRY_LIMIT {
        let txn_id = bump(next_txn_id);
        if touched.len() == 1 {
            let i = touched[0];
            match clients[i].shard_txn_commit(txn_id, &[], &groups[i])? {
                (Status::Ok, ts) => return Ok(ts),
                (Status::Busy | Status::Conflict, _) => {
                    sim::sleep(TXN_BACKOFF << attempt.min(4));
                    continue;
                }
                (status, _) => return Err(StoreError::Status(status)),
            }
        }
        let mut prepares: Vec<_> = round(clients, &touched, |i| Request::TxnPrepare {
            txn_id,
            prio,
            reads: Vec::new(),
            puts: groups[i].clone(),
        })
        .into_iter()
        .map(|r| r.and_then(ack))
        .collect();
        // One conflicting attempt, however many participants reported it.
        if prepares
            .iter()
            .any(|p| matches!(p, Ok((Status::Conflict, _))))
        {
            clients[touched[0]].txn_conflict_ctr.inc();
        }
        let is_ok = |p: &Result<(Status, u64), StoreError>| matches!(p, Ok((Status::Ok, _)));
        if let Some(refused) = prepares.iter().position(|p| !is_ok(p)) {
            let prepared: Vec<usize> = touched
                .iter()
                .zip(&prepares)
                .filter(|(_, p)| is_ok(p))
                .map(|(&i, _)| i)
                .collect();
            abort(clients, txn_id, &prepared);
            match prepares.swap_remove(refused)? {
                (Status::Busy | Status::Conflict, _) => {
                    sim::sleep(TXN_BACKOFF << attempt.min(4));
                    continue;
                }
                (status, _) => return Err(StoreError::Status(status)),
            }
        }
        // Strictly above every participant's clock, so no shard's snapshot
        // captured before its prepare can cover this commit.
        let clock = prepares.iter().flatten().map(|&(_, c)| c).max().unwrap();
        let ts = (clock + 1).max(sim::now());
        let decides = round(clients, &touched, |_| Request::TxnDecide {
            txn_id,
            commit: true,
            commit_ts: ts,
        });
        for d in decides {
            match d.and_then(ack)? {
                (Status::Ok, _) => {}
                // Presumed abort fired on a participant after others
                // committed — unreachable while the abort timeout exceeds
                // the worst-case decide latency; surfaced, not masked.
                (status, _) => return Err(StoreError::Status(status)),
            }
        }
        return Ok(ts);
    }
    Err(StoreError::Status(Status::Busy))
}

/// One fanned-out round: post each participant in `shards` its request
/// `req(shard)` before waiting on any, then wait for every reply, in
/// shard order. Each participant has its own QP with this one request
/// outstanding on it, so the per-QP exactly-once dedup is untouched. The
/// posts after the first ride the first one's doorbell chain
/// ([`Client::post_chained`]). A participant whose post failed answers
/// with that error.
fn round(
    clients: &[Ref<'_, Client>],
    shards: &[usize],
    req: impl Fn(usize) -> Request,
) -> Vec<Result<Response, StoreError>> {
    let posted: Vec<_> = shards
        .iter()
        .enumerate()
        .map(|(n, &i)| {
            if n == 0 {
                clients[i].post(&req(i))
            } else {
                clients[i].post_chained(&req(i))
            }
        })
        .collect();
    shards
        .iter()
        .zip(posted)
        .map(|(&i, p)| p.and_then(|p| clients[i].wait(p)))
        .collect()
}

/// A `TxnAck` reply's `(status, commit_ts)`; a prepare's `commit_ts` is
/// the shard's clock.
fn ack(resp: Response) -> Result<(Status, u64), StoreError> {
    match resp {
        Response::TxnAck { status, commit_ts } => Ok((status, commit_ts)),
        _ => Err(StoreError::Protocol),
    }
}

/// Abort `txn_id` on each of `shards` in one round, so no in-doubt head
/// outlives the failed attempt. Best effort: a participant that cannot be
/// reached is left to its presumed-abort sweep, or to recovery, which
/// drops every staged version no commit record names.
fn abort(clients: &[Ref<'_, Client>], txn_id: u64, shards: &[usize]) {
    round(clients, shards, |_| Request::TxnDecide {
        txn_id,
        commit: false,
        commit_ts: 0,
    });
}

/// Routed read-modify-write: single-key, so always a fused commit on the
/// owning shard, retried on conflict with a fresh read.
pub(crate) fn rmw_routed(
    clients: &[Ref<'_, Client>],
    next_txn_id: &Cell<u64>,
    key: &[u8],
    f: &mut dyn FnMut(Option<Vec<u8>>) -> Vec<u8>,
) -> Result<u64, StoreError> {
    let c = &clients[key_shard(key, clients.len())];
    for attempt in 0..TXN_RETRY_LIMIT {
        let (val, seq) = c.shard_get_with_seq(key)?;
        let new = f(val);
        let txn_id = bump(next_txn_id);
        let (reads, puts) = ([(key.to_vec(), seq)], [(key.to_vec(), new)]);
        match c.shard_txn_commit(txn_id, &reads, &puts)? {
            (Status::Ok, ts) => return Ok(ts),
            (Status::Conflict | Status::Busy, _) => {
                sim::sleep(TXN_BACKOFF << attempt.min(4));
            }
            (status, _) => return Err(StoreError::Status(status)),
        }
    }
    Err(StoreError::Status(Status::Conflict))
}

/// Capture every shard's clock in one fanned-out [`round`]; the snapshot
/// reads at the minimum. The shards that answer `Busy` are re-posted
/// together after [`TXN_BACKOFF`]. Any other failure surfaces once the
/// round's replies are all in, the first in shard order.
pub(crate) fn snapshot_all(clients: &[Ref<'_, Client>]) -> Result<TxnSnapshot, StoreError> {
    let mut vector = vec![0; clients.len()];
    let mut pending: Vec<usize> = (0..clients.len()).collect();
    let mut attempt = 0;
    while !pending.is_empty() {
        let replies = round(clients, &pending, |_| Request::SnapCapture);
        let mut busy = Vec::new();
        let mut failed = None;
        for (&i, reply) in pending.iter().zip(replies) {
            let reply = reply.and_then(|resp| match resp {
                Response::Snap { status, watermark } => Ok((status, watermark)),
                _ => Err(StoreError::Protocol),
            });
            match reply {
                Ok((Status::Ok, wm)) => {
                    clients[i].snap_capture_ctr.inc();
                    vector[i] = wm;
                }
                Ok((Status::Busy, _)) if attempt < TXN_RETRY_LIMIT => busy.push(i),
                Ok((status, _)) => {
                    failed.get_or_insert(StoreError::Status(status));
                }
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if !busy.is_empty() {
            attempt += 1;
            sim::sleep(TXN_BACKOFF);
        }
        pending = busy;
    }
    let ts = vector.iter().copied().min().unwrap_or(0);
    Ok(TxnSnapshot { ts, vector })
}

/// Snapshot read of every key in `keys` at `snap`, in waves. A wave posts
/// one `SnapGet` to every shard with keys pending before it waits on any
/// ([`round`]), then fetches every version the wave located with one batch
/// of one-sided reads ([`ClientQp::rdma_read_all`]), so a scan costs a
/// round trip and a read per wave, not per key. A key whose shard answers
/// `Busy` (a value still in flight, or a wait past the handler's
/// `PARK_LIMIT`), whose read times out or whose bytes fail the read check
/// stays pending for the next wave, after [`TXN_BACKOFF`]: a mismatch
/// never falls forward to a fresher version, which would break the
/// snapshot cut. `Expired` (cleaning compacted past the snapshot; the
/// caller must re-capture) or any other failure surfaces once the wave's
/// replies are in, the first in shard order.
pub(crate) fn snap_get_all(
    clients: &[Ref<'_, Client>],
    keys: &[Vec<u8>],
    snap: &TxnSnapshot,
) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
    let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); clients.len()];
    for (i, key) in keys.iter().enumerate() {
        pending[key_shard(key, clients.len())].push_back(i);
    }
    let mut out: Vec<Option<Option<Vec<u8>>>> = vec![None; keys.len()];
    let mut busy_waves = 0;
    loop {
        let shards: Vec<usize> = (0..clients.len())
            .filter(|&g| !pending[g].is_empty())
            .collect();
        if shards.is_empty() {
            break;
        }
        let replies = round(clients, &shards, |g| Request::SnapGet {
            key: keys[pending[g][0]].clone(),
            snap_ts: snap.ts,
        });
        let (mut located, mut busy, mut failed) = (Vec::new(), false, None);
        for (&g, reply) in shards.iter().zip(replies) {
            let c = &clients[g];
            c.snap_get_ctr.inc();
            match reply {
                Ok(Response::Get {
                    status: Status::Ok,
                    obj_off,
                    klen,
                    vlen,
                }) => located.push((g, obj_off, klen, vlen)),
                Ok(Response::Get {
                    status: Status::NotFound,
                    ..
                }) => out[pending[g].pop_front().unwrap()] = Some(None),
                Ok(Response::Get {
                    status: Status::Busy,
                    ..
                }) => {
                    c.snap_retry_ctr.inc();
                    busy = true;
                }
                Ok(Response::Get { status, .. }) => {
                    failed.get_or_insert(StoreError::Status(status));
                }
                Ok(_) => {
                    failed.get_or_insert(StoreError::Protocol);
                }
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        let reads: Vec<_> = located
            .iter()
            .map(|&(g, off, klen, vlen)| clients[g].object_read(off, klen, vlen))
            .collect();
        for (&(g, _, klen, vlen), obj) in located.iter().zip(ClientQp::rdma_read_all(&reads)) {
            let c = &clients[g];
            let i = pending[g][0];
            let obj = match obj {
                Ok(obj) => Some(obj),
                Err(QpError::Timeout) => {
                    c.stats().op_retries.inc();
                    None
                }
                Err(e) => return Err(StoreError::Qp(e)),
            };
            let read = obj.as_deref().and_then(|obj| {
                match Fetched::parse(obj, &keys[i], klen, vlen)?.read() {
                    Read::Value(v) => Some(Some(v.to_vec())),
                    Read::Tombstone => Some(None),
                    Read::Stale | Read::NotYet => None,
                }
            });
            let Some(value) = read else {
                c.snap_retry_ctr.inc();
                busy = true;
                continue;
            };
            pending[g].pop_front();
            out[i] = Some(value);
        }
        if busy {
            busy_waves += 1;
            if busy_waves == TXN_RETRY_LIMIT {
                return Err(StoreError::Status(Status::Busy));
            }
            sim::sleep(TXN_BACKOFF);
        }
    }
    Ok(out
        .into_iter()
        .map(|v| v.expect("every key was read"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_record_round_trips_and_rejects_torn_and_foreign_records() {
        let pool = PmemPool::new(4096);
        // One version identity whose bytes would also read as a valid
        // cleaning-progress value (stage 2, old pool 1).
        let mut value = Vec::new();
        value.extend_from_slice(&2u64.to_le_bytes());
        value.extend_from_slice(&1u32.to_le_bytes());
        value.extend_from_slice(&0u32.to_le_bytes());
        layout::write_record(&pool, 64, COMMIT_MAGIC, 9, &value, 0);
        assert_eq!(committed_versions(&pool, &[64]), HashSet::from([(2, 1, 0)]));
        // A commit record never parses as a clean record.
        assert_eq!(crate::cleaner::decode_clean_record(&pool, 64), None);
        // Torn value: the CRC no longer matches.
        let hdr = ObjHeader::read_from(&pool, 64);
        pool.write(64 + hdr.value_off(), &[0xFF]);
        assert!(committed_versions(&pool, &[64]).is_empty());
        // Same bytes under the cleaning magic: not a commit record.
        layout::write_record(&pool, 256, crate::cleaner::CLEAN_MAGIC, 9, &value, 0);
        assert!(committed_versions(&pool, &[256]).is_empty());
    }
}
