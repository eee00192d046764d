//! **RPC** — NVM treated as conventional storage behind remote procedure
//! calls (paper §2.2): the client ships the whole value through the
//! two-sided path; the server copies it from the network buffer into NVM,
//! flushes, updates metadata, and replies. Durable on ack, but every byte
//! crosses the server's CPU.
//!
//! GET: an RPC lookup + one one-sided object read (data is always durable
//! here).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory::hashtable::fingerprint;
use efactory::layout::flags;
use efactory::protocol::{Request, Response, Status, StoreError};
use efactory_checksum::crc32c;
use efactory_rnic::Fabric;
use efactory_sim as sim;

use crate::client::{ack, BaselineClient};
use crate::common::{spawn_handler, BaseServer, UNSERVED};

/// Spawn the request handler. Call from within a sim process.
pub(crate) fn start(base: Arc<BaseServer>, fabric: &Fabric) {
    spawn_handler(base, fabric, "rpc", |b, req| match req {
        Request::RpcPut { key, value } => handle_put(b, &key, &value),
        Request::Get { key } => handle_get(b, &key),
        _ => UNSERVED,
    });
}

fn handle_put(b: &BaseServer, key: &[u8], value: &[u8]) -> Response {
    // Bulk two-sided receive + copy from the network buffer into NVM.
    sim::work(
        b.cost.cpu_twosided_bulk_ns
            + b.cost.cpu_req_handle_ns
            + b.cost.cpu_hash_ns
            + b.cost.cpu_alloc_ns
            + b.cost.memcpy(value.len()),
    );
    let fp = fingerprint(key);
    let crc = crc32c(value);
    // Mutation block: stage + value copy + persist + link.
    let prev = b.peek_prev(fp);
    let (off, hdr) = match b.stage_object(key, value.len() as u32, crc, prev, flags::VALID) {
        Ok(v) => v,
        Err(status) => return Response::Ack { status },
    };
    b.pool.write(off + hdr.value_off(), value);
    b.persist_and_link(fp, off, &hdr, 0)
}

fn handle_get(b: &BaseServer, key: &[u8]) -> Response {
    sim::work(b.cost.cpu_req_handle_ns + b.cost.cpu_hash_ns);
    b.stats.gets.fetch_add(1, Ordering::Relaxed);
    match b.ht.lookup(&b.pool, fingerprint(key)) {
        Some((_, e)) if e.current() != 0 => Response::Get {
            status: Status::Ok,
            obj_off: e.current(),
            klen: e.klen,
            vlen: e.vlen,
        },
        _ => Response::Get {
            status: Status::NotFound,
            obj_off: 0,
            klen: 0,
            vlen: 0,
        },
    }
}

/// One RPC carrying the whole value; durable on ack.
pub(crate) fn put(c: &BaselineClient, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
    let req = Request::RpcPut {
        key: key.to_vec(),
        value: value.to_vec(),
    };
    ack(&c.qp.rpc(req.encode())?)
}
