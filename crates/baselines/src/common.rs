//! Shared server scaffolding for the comparison systems.
//!
//! The paper implements SAW, IMM, Erda, and Forca "on the same code base as
//! eFactory" (§5.3); this module is that code base: the single-pool server
//! state, object staging, entry linking, and the handler loops. The
//! per-system modules differ only in *when* data is flushed and metadata
//! exposed — which is exactly the design space the paper explores.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use efactory::hashtable::{fingerprint, HashTable};
use efactory::layout::{self, flags, ObjHeader, NIL};
use efactory::log::{LogRegion, StoreLayout};
use efactory::protocol::{Request, Response, Status};
use efactory::server::{ServerStats, StoreDesc};
use efactory_pmem::PmemPool;
use efactory_rnic::{CostModel, Fabric, Incoming, Listener, Node, QpError, QpId};
use efactory_sim::{self as sim, Nanos};
use parking_lot::Mutex;

/// The reply to a request the system does not serve.
pub const UNSERVED: Response = Response::Ack {
    status: Status::Corrupt,
};

/// Single-pool server state shared by every baseline.
pub struct BaseServer {
    /// The fabric node.
    pub node: Node,
    /// The NVM device.
    pub pool: Arc<PmemPool>,
    /// Cost model (copied from the fabric).
    pub cost: CostModel,
    /// Hash index.
    pub ht: HashTable,
    /// The (only) data pool.
    pub log: LogRegion,
    /// Counters (reusing the core definitions).
    pub stats: ServerStats,
    /// Cooperative shutdown.
    stop: AtomicBool,
    born_epoch: u64,
    desc: StoreDesc,
}

impl BaseServer {
    /// Format a fresh single-pool store on `node`.
    pub fn format(fabric: &Fabric, node: &Node, layout: StoreLayout) -> Arc<BaseServer> {
        let pool = Arc::new(PmemPool::new(layout.total_len()));
        Self::with_pool(fabric, node, pool, layout)
    }

    /// Build over an existing pool.
    fn with_pool(
        fabric: &Fabric,
        node: &Node,
        pool: Arc<PmemPool>,
        layout: StoreLayout,
    ) -> Arc<BaseServer> {
        let mr = node.register_mr(&pool, 0, layout.total_len());
        let [log, _] = layout.regions();
        Arc::new(BaseServer {
            node: node.clone(),
            pool,
            cost: fabric.cost().clone(),
            ht: layout.hashtable(),
            log,
            stats: ServerStats::default(),
            stop: AtomicBool::new(false),
            born_epoch: node.epoch(),
            desc: StoreDesc { mr, layout },
        })
    }

    /// Rebuild after a crash: re-register the region and re-establish the
    /// log head by scanning persisted headers. Every baseline's metadata
    /// (entries, headers, keys) is persisted at PUT time or never relied
    /// on, so nothing more is repaired here.
    pub fn recover(
        fabric: &Fabric,
        node: &Node,
        pool: Arc<PmemPool>,
        layout: StoreLayout,
    ) -> Arc<BaseServer> {
        let base = Self::with_pool(fabric, node, pool, layout);
        let (_, head) = base.log.scan_for_recovery(&base.pool);
        base.log.set_head(head);
        base
    }

    /// Client-facing descriptor.
    pub fn desc(&self) -> StoreDesc {
        self.desc
    }

    /// True when the handler should exit.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
            || self.node.is_crashed()
            || self.node.epoch() != self.born_epoch
    }

    /// Ask the handler to wind down.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// The previous version's offset for `fp` (0 if the key is new).
    pub fn peek_prev(&self, fp: u64) -> u64 {
        self.ht
            .lookup(&self.pool, fp)
            .map_or(0, |(_, e)| e.current())
    }

    /// Allocate and fill an object (header + key) in the log **without**
    /// flushing anything or touching the hash table. Returns the object
    /// offset and its header.
    ///
    /// Mutation block: no yields inside.
    pub fn stage_object(
        &self,
        key: &[u8],
        vlen: u32,
        crc: u32,
        prev: u64,
        obj_flags: u8,
    ) -> Result<(usize, ObjHeader), Status> {
        let size = layout::object_size(key.len(), vlen as usize);
        let Some(off) = self.log.alloc(size) else {
            self.stats.put_failures.fetch_add(1, Ordering::Relaxed);
            return Err(Status::NoSpace);
        };
        let hdr = ObjHeader {
            klen: key.len() as u16,
            vlen,
            flags: obj_flags,
            pre_ptr: if prev == 0 { NIL } else { prev },
            next_ptr: NIL,
            crc,
            seq: 0,
            alloc_time: sim::now(),
        };
        hdr.write_to(&self.pool, off);
        self.pool.write(off + hdr.key_off(), key);
        if prev != 0 {
            layout::set_next_ptr(&self.pool, prev as usize, off as u64);
        }
        Ok((off, hdr))
    }

    /// Point the hash entry for `fp` at `off` (slot 0 — baselines are
    /// single-pool). Claims a bucket if needed. Returns the flushed line
    /// count when `persist` is set (0 otherwise).
    ///
    /// Mutation block: no yields inside.
    pub fn link_entry(
        &self,
        fp: u64,
        off: usize,
        klen: u16,
        vlen: u32,
        persist: bool,
    ) -> Result<usize, Status> {
        let (idx, entry) = self
            .ht
            .lookup_or_claim(&self.pool, fp)
            .map_err(|_| Status::TableFull)?;
        self.ht.set_slot(&self.pool, idx, 0, off as u64);
        self.ht.set_sizes(&self.pool, idx, klen, vlen);
        self.ht.set_ctl(&self.pool, idx, entry.ctl.bumped());
        if persist {
            Ok(self.ht.persist_entry(&self.pool, idx))
        } else {
            Ok(0)
        }
    }

    /// Persist `[off, off+len)` and return the flushed line count.
    pub fn persist_range(&self, off: usize, len: usize) -> usize {
        let lines = self.pool.flush(off, len);
        self.pool.drain();
        lines
    }

    /// Mark the object durable (flag + flush of the flag word).
    pub fn set_durable(&self, off: usize) -> usize {
        layout::update_flags(&self.pool, off, flags::DURABLE, 0);
        let lines = self.pool.flush(off, 8);
        self.pool.drain();
        lines
    }

    /// Flush a staged object, mark it durable, and only then link it into
    /// the hash entry (durable on ack: SAW, IMM, RPC). Charges the flushes
    /// plus `extra` CPU, counts the PUT, and returns the ack.
    pub fn persist_and_link(&self, fp: u64, off: usize, hdr: &ObjHeader, extra: Nanos) -> Response {
        // Mutation block: persist, flag, link.
        let mut lines = self.persist_range(off, hdr.object_size());
        lines += self.set_durable(off);
        let link_lines = match self.link_entry(fp, off, hdr.klen, hdr.vlen, true) {
            Ok(n) => n,
            Err(status) => return Response::Ack { status },
        };
        sim::work(self.cost.flush((lines + link_lines) * efactory_pmem::LINE) + extra);
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        Response::Ack { status: Status::Ok }
    }

    /// Handler-loop skeleton: ticks a deadline so `stop`/crash are observed
    /// promptly, decodes nothing (systems differ), hands each message to
    /// `f`. `f` returns `false` to stop serving.
    pub fn serve(&self, listener: &Listener, mut f: impl FnMut(&Listener, Incoming) -> bool) {
        loop {
            let msg = match listener.recv_deadline(sim::now() + sim::micros(100)) {
                Ok(m) => m,
                Err(QpError::Timeout) => {
                    if self.stopping() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            };
            if self.stopping() {
                return;
            }
            if !f(listener, msg) {
                return;
            }
        }
    }
}

/// Whether a handler keeps serving after sending `reply`: a reply to a
/// client whose QP is gone fails with `Disconnected` and is skipped. Only
/// a crash ends the handler.
fn served(reply: Result<(), QpError>) -> bool {
    reply != Err(QpError::Crashed)
}

/// Spawn a system's single request handler, `{name}-handler`: it answers
/// each two-sided request with `handle`'s response. Like every baseline
/// server, it posts its receive regions one at a time (the optimization
/// gap the paper credits for eFactory's small-value PUT edge).
pub fn spawn_handler(
    base: Arc<BaseServer>,
    fabric: &Fabric,
    name: &str,
    handle: fn(&BaseServer, Request) -> Response,
) {
    let listener = base.node.listen(fabric, false);
    sim::spawn(&format!("{name}-handler"), move || {
        base.serve(&listener, |l, msg| {
            let Incoming::Send { from, payload } = msg else {
                return true;
            };
            let resp = Request::decode(&payload).map_or(UNSERVED, |req| handle(&base, req));
            served(l.reply(from, resp.encode()))
        });
    });
}

/// What tells the staged-completion server that a client's value write
/// has landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A `Persist` RPC sent after the RDMA write (SAW).
    PersistRpc,
    /// The `write_with_imm` completion itself, whose immediate carries the
    /// object offset (IMM).
    WriteImm,
}

/// A staged (allocated but not yet persisted/linked) PUT.
struct Pending {
    fp: u64,
    hdr: ObjHeader,
}

/// The staged-completion server of SAW and IMM. As on the paper's
/// multi-core testbed, two processes on separate cores: the dispatch
/// thread, `{name}-handler`, serves allocation RPCs, staging each object
/// without touching the hash entry so no reader can observe non-durable
/// data; the completion thread, `{name}-completion`, takes each `trigger`,
/// charges `completion_cost`, flushes the object, and only then exposes
/// the metadata and acks. Flush work thus pipelines behind dispatch.
pub fn spawn_staged(
    base: Arc<BaseServer>,
    fabric: &Fabric,
    name: &str,
    trigger: Trigger,
    completion_cost: Nanos,
) {
    let listener = base.node.listen(fabric, false);
    let replier = listener.replier();
    let pending = Arc::new(Mutex::new(HashMap::<u64, Pending>::new()));
    let (done_tx, done_rx) = sim::channel::<(QpId, u64)>();
    let worker = Arc::clone(&base);
    let worker_pending = Arc::clone(&pending);
    sim::spawn(&format!("{name}-completion"), move || {
        while let Ok((from, obj_off)) = done_rx.recv() {
            if worker.stopping() {
                return;
            }
            let taken = worker_pending.lock().remove(&obj_off);
            let resp = match taken {
                Some(p) => {
                    sim::work(completion_cost);
                    worker.persist_and_link(p.fp, obj_off as usize, &p.hdr, worker.cost.cpu_hash_ns)
                }
                None => UNSERVED,
            };
            if !served(replier.reply(from, resp.encode())) {
                return;
            }
        }
    });
    sim::spawn(&format!("{name}-handler"), move || {
        base.serve(&listener, |l, msg| {
            let done = match msg {
                Incoming::WriteImm { from, imm, .. } if trigger == Trigger::WriteImm => {
                    (from, imm as u64)
                }
                Incoming::WriteImm { .. } => return true,
                Incoming::Send { from, payload } => match Request::decode(&payload) {
                    Some(Request::Put { key, vlen, crc }) => {
                        let c = &base.cost;
                        sim::work(c.cpu_req_handle_ns + c.cpu_hash_ns + c.cpu_alloc_ns);
                        let resp = stage(&base, &mut pending.lock(), &key, vlen, crc);
                        return served(l.reply(from, resp.encode()));
                    }
                    Some(Request::Persist { obj_off }) if trigger == Trigger::PersistRpc => {
                        (from, obj_off)
                    }
                    _ => return served(l.reply(from, UNSERVED.encode())),
                },
            };
            done_tx.send(done, 0).is_ok()
        });
    });
}

/// Allocate + stage a PUT and remember it until its trigger arrives.
fn stage(
    b: &BaseServer,
    pending: &mut HashMap<u64, Pending>,
    key: &[u8],
    vlen: u32,
    crc: u32,
) -> Response {
    // NOTE: runs with the pending-map lock held — it must not yield
    // simulated time (the CPU charge happens at the dispatch site, before
    // the lock), or the completion worker would deadlock against the
    // driver. See the concurrency-discipline note in efactory::server.
    let fp = fingerprint(key);
    match b.stage_object(key, vlen, crc, b.peek_prev(fp), flags::VALID) {
        Ok((off, hdr)) => {
            pending.insert(off as u64, Pending { fp, hdr });
            Response::Put {
                status: Status::Ok,
                obj_off: off as u64,
                value_off: (off + hdr.value_off()) as u64,
            }
        }
        Err(status) => Response::Put {
            status,
            obj_off: 0,
            value_off: 0,
        },
    }
}

/// Single-pool layout helper for baselines (no cleaning ⇒ no pool B).
pub fn baseline_layout(ht_buckets: usize, pool_len: usize) -> StoreLayout {
    StoreLayout::new(ht_buckets, pool_len, false)
}

/// Erda's 8-byte atomic region: the offsets of the latest two versions
/// packed into one word so the metadata update is failure-atomic (§5.3.3).
/// Offsets are stored in 8-byte units (31 bits each, covering 16 GiB).
pub mod atomic_region {
    /// Bucket-occupied marker.
    const OCCUPIED: u64 = 1 << 63;
    /// The previous-version field is valid.
    const HAS_PREV: u64 = 1 << 62;

    /// Pack `(latest, prev)` byte offsets. `prev == 0` means no previous
    /// version.
    pub fn pack(latest: u64, prev: u64) -> u64 {
        debug_assert_eq!(latest % 8, 0);
        debug_assert_eq!(prev % 8, 0);
        debug_assert!(latest / 8 < (1 << 31) && prev / 8 < (1 << 31));
        let mut w = OCCUPIED | (latest / 8);
        if prev != 0 {
            w |= HAS_PREV | ((prev / 8) << 31);
        }
        w
    }

    /// Unpack to `(latest, prev)`; `None` if the region is empty.
    pub fn unpack(w: u64) -> Option<(u64, Option<u64>)> {
        if w & OCCUPIED == 0 {
            return None;
        }
        let latest = (w & ((1 << 31) - 1)) * 8;
        let prev = if w & HAS_PREV != 0 {
            Some(((w >> 31) & ((1 << 31) - 1)) * 8)
        } else {
            None
        };
        Some((latest, prev))
    }
}

#[cfg(test)]
mod tests {
    use super::atomic_region::{pack, unpack};

    #[test]
    fn atomic_region_roundtrips() {
        assert_eq!(unpack(pack(4096, 0)), Some((4096, None)));
        assert_eq!(unpack(pack(4096, 8192)), Some((4096, Some(8192))));
        assert_eq!(unpack(0), None);
        // Large offsets (multi-GiB pools).
        let big = (1u64 << 33) + 64;
        assert_eq!(unpack(pack(big, big + 8)), Some((big, Some(big + 8))));
    }
}
