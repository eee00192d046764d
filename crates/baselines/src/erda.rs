//! **Erda** — write-optimized consistency via client-side CRC verification
//! (paper §5.3.3, after Liu et al.): PUTs use the client-active scheme with
//! no explicit persistence at all; the hash entry holds an 8-byte *atomic
//! region* packing the offsets of the latest two versions, updated (and
//! flushed) in one failure-atomic store at allocation time.
//!
//! GET is pure one-sided: fetch the entry, fetch the object, and verify the
//! value's CRC **on the client** — the cost that dominates Erda's read
//! latency at large values (paper Figure 2). An incomplete object triggers
//! one more read of the previous version from the atomic region.
//!
//! Erda's two documented weaknesses are reproduced faithfully:
//! * only two versions are reachable (the 8-byte region can't hold more),
//!   so concurrent multi-writer races can lose all intact versions;
//! * nothing is ever flushed explicitly — dirty data becomes durable only
//!   through "natural eviction", so a value read before a crash may vanish
//!   after it (**non-monotonic reads**, demonstrated in the integration
//!   tests). Recovery re-establishes only the log head: values are not
//!   repaired, reads self-heal through CRC fallback.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory::hashtable::{fingerprint, Ctl};
use efactory::layout::{self, flags, ObjHeader, MAX_VLEN};
use efactory::protocol::{Request, Response, Status, StoreError};
use efactory_checksum::crc32c;
use efactory_rnic::Fabric;
use efactory_sim as sim;

use crate::client::BaselineClient;
use crate::common::{atomic_region, spawn_handler, BaseServer, UNSERVED};

/// Spawn the request handler. Call from within a sim process.
pub(crate) fn start(base: Arc<BaseServer>, fabric: &Fabric) {
    spawn_handler(base, fabric, "erda", |b, req| match req {
        Request::Put { key, vlen, crc } => handle_put(b, &key, vlen, crc),
        _ => UNSERVED,
    });
}

/// Erda PUT: allocate, persist header+key+entry metadata, and expose the
/// new version *immediately* via the 8-byte atomic region. The value itself
/// is never flushed.
pub(crate) fn handle_put(b: &BaseServer, key: &[u8], vlen: u32, crc: u32) -> Response {
    sim::work(b.cost.cpu_req_handle_ns + b.cost.cpu_hash_ns + b.cost.cpu_alloc_ns);
    let fp = fingerprint(key);
    let fail = |status| Response::Put {
        status,
        obj_off: 0,
        value_off: 0,
    };
    // Mutation block.
    let Ok((idx, entry)) = b.ht.lookup_or_claim(&b.pool, fp) else {
        return fail(Status::TableFull);
    };
    let prev_latest = atomic_region::unpack(entry.slot[0])
        .map(|(latest, _)| latest)
        .unwrap_or(0);
    let (off, hdr) = match b.stage_object(key, vlen, crc, prev_latest, flags::VALID) {
        Ok(v) => v,
        Err(status) => return fail(status),
    };
    // Persist the object metadata + key (Erda's consistency anchor is
    // metadata durability; values are left to eviction).
    let mut lines = b.persist_range(off, layout::HDR_LEN + layout::pad8(key.len()));
    // The single failure-atomic metadata update: latest ← new, prev ← old.
    b.pool.write_u64(
        b.ht.entry_off(idx) + 8,
        atomic_region::pack(off as u64, prev_latest),
    );
    b.ht.set_sizes(&b.pool, idx, hdr.klen, hdr.vlen);
    b.ht.set_ctl(&b.pool, idx, Ctl::default().bumped());
    lines += b.ht.persist_entry(&b.pool, idx);
    sim::work(b.cost.flush(lines * efactory_pmem::LINE));
    b.stats.puts.fetch_add(1, Ordering::Relaxed);
    Response::Put {
        status: Status::Ok,
        obj_off: off as u64,
        value_off: (off + hdr.value_off()) as u64,
    }
}

/// Pure one-sided GET with client-side verification and one-step
/// previous-version fallback.
pub(crate) fn get(c: &BaselineClient, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
    let Some(entry) = c.fetch_entry(fingerprint(key))? else {
        return Ok(None);
    };
    let Some((latest, prev)) = atomic_region::unpack(entry.slot[0]) else {
        return Ok(None);
    };
    if let Some(v) = fetch_verified(c, latest, entry.klen, entry.vlen, key)? {
        return Ok(Some(v));
    }
    // Latest incomplete: one extra read of the previous version. Its
    // sizes may differ, so fetch its header first.
    let Some(prev) = prev else { return Ok(None) };
    let hraw = c.qp.rdma_read(&c.desc.mr, prev as usize, layout::HDR_LEN)?;
    let Some(phdr) = ObjHeader::decode(&hraw) else {
        return Ok(None);
    };
    if phdr.klen as usize != key.len() || phdr.vlen as usize > MAX_VLEN {
        return Ok(None);
    }
    fetch_verified(c, prev, phdr.klen, phdr.vlen, key)
}

/// Fetch + CRC-verify the object at `off` (client pays the CRC cost).
fn fetch_verified(
    c: &BaselineClient,
    off: u64,
    klen: u16,
    vlen: u32,
    key: &[u8],
) -> Result<Option<Vec<u8>>, StoreError> {
    let Some((hdr, value)) = c.fetch_object(off, klen, vlen, key)? else {
        return Ok(None);
    };
    // The client-side CRC on the read critical path — Erda's documented
    // weakness at large values.
    sim::work(c.qp.cost().crc(value.len()));
    if crc32c(&value) == hdr.crc {
        Ok(Some(value))
    } else {
        Ok(None)
    }
}
