//! **Forca** — fast atomic remote writes with *server-side* verification on
//! the read path (paper §5.3.4, after Huang et al., ICCD'18): PUT behaves
//! like Erda (client-active, log-structured, no explicit persistence), but
//! every GET is an RPC: the server locates the object, verifies its CRC,
//! persists it, and only then returns the offset for the client's one-sided
//! read.
//!
//! Two Forca traits the paper calls out are modeled:
//! * reads can never be fully offloaded to clients (the RPC is mandatory),
//!   which caps read throughput below the one-sided systems;
//! * an extra object-metadata indirection layer sits between the hash entry
//!   and the data (charged as an extra memory hop + metadata flush),
//!   explaining eFactory's small-value PUT edge in Figure 9(d).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory::hashtable::fingerprint;
use efactory::layout::{self, flags, ObjHeader, NIL};
use efactory::protocol::{Request, Response, Status};
use efactory_rnic::Fabric;
use efactory_sim as sim;

use crate::common::{atomic_region, spawn_handler, BaseServer, UNSERVED};

/// Spawn the request handler. Call from within a sim process.
pub(crate) fn start(base: Arc<BaseServer>, fabric: &Fabric) {
    spawn_handler(base, fabric, "forca", |b, req| match req {
        Request::Put { key, vlen, crc } => {
            // Erda-style allocation + the extra metadata-layer hop and its
            // flush.
            sim::work(b.cost.cpu_mem_hop_ns + b.cost.flush_base_ns);
            crate::erda::handle_put(b, &key, vlen, crc)
        }
        Request::Get { key } => handle_get(b, &key),
        _ => UNSERVED,
    });
}

/// Forca GET: server-side self-verification + persisting before the offset
/// is returned. An object that a previous read already verified and
/// persisted carries its verified (durable) mark and skips the CRC;
/// *fresh* writes always pay it on their first read — which is why CRC
/// shows up so prominently in the paper's read-after-write latency
/// breakdown (Figure 2) while hot re-reads stay RPC-bound. The contrast
/// with eFactory remains: no background thread ever verifies ahead of the
/// first read, and every read needs the server.
fn handle_get(b: &BaseServer, key: &[u8]) -> Response {
    sim::work(b.cost.cpu_req_handle_ns + b.cost.cpu_hash_ns + b.cost.cpu_mem_hop_ns);
    b.stats.gets.fetch_add(1, Ordering::Relaxed);
    let not_found = Response::Get {
        status: Status::NotFound,
        obj_off: 0,
        klen: 0,
        vlen: 0,
    };
    let Some((_, entry)) = b.ht.lookup(&b.pool, fingerprint(key)) else {
        return not_found;
    };
    let Some((latest, _)) = atomic_region::unpack(entry.slot[0]) else {
        return not_found;
    };
    // Walk the version list: serve the newest intact version.
    let mut off = latest;
    while off != 0 && off != NIL {
        let hdr = ObjHeader::read_from(&b.pool, off as usize);
        if hdr.klen as usize == key.len() && hdr.has(flags::VALID) {
            let found = Response::Get {
                status: Status::Ok,
                obj_off: off,
                klen: hdr.klen,
                vlen: hdr.vlen,
            };
            if hdr.has(flags::DURABLE) {
                // Verified + persisted by an earlier read.
                return found;
            }
            let intact = layout::value_intact(&b.pool, off as usize, &hdr);
            sim::work(b.cost.crc(hdr.vlen as usize));
            if intact {
                // Persist on the read path and mark verified.
                let mut lines = b.persist_range(off as usize, hdr.object_size());
                lines += b.set_durable(off as usize);
                sim::work(b.cost.flush(lines * efactory_pmem::LINE));
                return found;
            }
        }
        off = hdr.pre_ptr;
    }
    not_found
}
