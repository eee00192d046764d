//! **CA w/o persistence** — the client-active scheme with no durability
//! guarantee at all (the paper's Figure 1 baseline, and the upper bound the
//! other systems chase).
//!
//! PUT: SEND-based RPC allocates and links the metadata immediately; the
//! client then RDMA-writes the value. Nothing is ever flushed — data
//! "persists" only through whatever survives in the volatile domain, so a
//! crash can lose or tear acknowledged writes (the motivating hazard).
//!
//! GET: two one-sided RDMA reads (hash entry window, object) with no
//! integrity checking beyond the key match.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory::hashtable::fingerprint;
use efactory::layout::flags;
use efactory::protocol::{Request, Response, Status};
use efactory_rnic::Fabric;
use efactory_sim as sim;

use crate::common::{spawn_handler, BaseServer, UNSERVED};

/// Spawn the request-handler process. Call from within a sim process.
pub(crate) fn start(base: Arc<BaseServer>, fabric: &Fabric) {
    spawn_handler(base, fabric, "ca-noper", handle);
}

fn handle(b: &BaseServer, req: Request) -> Response {
    let Request::Put { key, vlen, crc } = req else {
        return UNSERVED;
    };
    sim::work(b.cost.cpu_req_handle_ns + b.cost.cpu_hash_ns + b.cost.cpu_alloc_ns);
    let fp = fingerprint(&key);
    let fail = |status| Response::Put {
        status,
        obj_off: 0,
        value_off: 0,
    };
    // Mutation block: stage + link, no flushes anywhere.
    let (off, hdr) = match b.stage_object(&key, vlen, crc, b.peek_prev(fp), flags::VALID) {
        Ok(v) => v,
        Err(status) => return fail(status),
    };
    if let Err(status) = b.link_entry(fp, off, hdr.klen, hdr.vlen, false) {
        return fail(status);
    }
    b.stats.puts.fetch_add(1, Ordering::Relaxed);
    Response::Put {
        status: Status::Ok,
        obj_off: off as u64,
        value_off: (off + hdr.value_off()) as u64,
    }
}
