//! The one read check on fetched bytes, through all four GET paths.
//!
//! One row per reject reason, each run through the location cache, the
//! pure one-sided probe, the RPC read and the snapshot read. The server is
//! formatted but not started: a stand-in answers every GET and snapshot
//! GET with the row's object, so each path meets exactly the bytes the row
//! stored, and nothing repairs them in between. A buffer too short for its
//! object has a test of its own: no path can fetch one.

use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig, GetOutcome, RemoteKv};
use efactory::hashtable::fingerprint;
use efactory::layout::{flags, object_size, Fetched, ObjHeader, Read, HDR_LEN, NIL};
use efactory::log::StoreLayout;
use efactory::protocol::{Request, Response, Status, StoreError};
use efactory::server::{Server, ServerConfig};
use efactory::store::{Routes, StoreClient};
use efactory_checksum::crc32c;
use efactory_pmem::PmemPool;
use efactory_rnic::{CostModel, Fabric, Incoming};
use efactory_sim::{self as sim, Sim};

const KEY: &[u8] = b"row-key";
const VALUE: &[u8] = b"row-value-bytes";

/// A stored object, and the value length its location advertises (the
/// hash entry, the server's reply, and the location-cache entry).
struct Obj {
    hdr: ObjHeader,
    key: Vec<u8>,
    value: Vec<u8>,
    vlen: u32,
}

/// A reject reason: how it breaks a servable object, and the verdict.
type Row = (&'static str, fn(&mut Obj), Read<'static>);

#[test]
fn every_get_path_applies_the_one_read_check() {
    use Read::{NotYet, Stale, Tombstone, Value};
    let rows: [Row; 9] = [
        ("servable", |_| {}, Value(VALUE)),
        ("size mismatch", |o| o.vlen = 64, Stale),
        ("key-length mismatch", |o| o.key.push(b'!'), Stale),
        ("key bytes", |o| o.key[0] = b's', Stale),
        ("!VALID", |o| o.hdr.flags &= !flags::VALID, Stale),
        ("!DURABLE", |o| o.hdr.flags &= !flags::DURABLE, NotYet),
        ("PENDING", |o| o.hdr.flags |= flags::PENDING, NotYet),
        ("CRC", |o| o.value[0] ^= 1, Stale),
        ("tombstone", |o| o.hdr.flags |= flags::TOMBSTONE, Tombstone),
    ];
    let mut simu = Sim::new(5);
    let fabric = Fabric::new(CostModel::default());
    let node = fabric.add_node("server");
    let layout = StoreLayout::new(64, 1 << 16, false);
    let server = Server::format(&fabric, &node, layout, ServerConfig::default());
    simu.spawn("main", move || {
        let shared = Arc::clone(server.shared());
        let reply = Arc::new(Mutex::new((0u64, 0u16, 0u32)));
        let listener = node.listen(&fabric, true);
        let advertised = Arc::clone(&reply);
        sim::spawn("stand-in", move || {
            while let Ok(Incoming::Send { from, payload }) = listener.recv() {
                let (Some(id), req) = Request::decode_any(&payload).unwrap() else {
                    continue;
                };
                let (obj_off, klen, vlen) = *advertised.lock().unwrap();
                let resp = match req {
                    Request::SnapCapture => Response::Snap {
                        status: Status::Ok,
                        watermark: 0,
                    },
                    _ => Response::Get {
                        status: Status::Ok,
                        obj_off,
                        klen,
                        vlen,
                    },
                };
                let _ = listener.reply(from, resp.encode_framed(id));
            }
        });
        let connect = |loc_cache: bool, hybrid_read: bool| {
            let cfg = ClientConfig {
                loc_cache,
                hybrid_read,
                ..ClientConfig::default()
            };
            Client::connect(&fabric, &fabric.add_node("c"), &node, server.desc(), cfg).unwrap()
        };
        let pure = connect(false, true);
        let rpc = connect(false, false);
        let routes = Routes::servers([&server]);
        let local = fabric.add_node("s");
        let store =
            StoreClient::connect(&fabric, &local, &routes, ClientConfig::default()).unwrap();
        let txn = store.txn().unwrap();
        let snap = txn.snapshot().unwrap();
        let (idx, entry) = shared
            .ht
            .lookup_or_claim(&shared.pool, fingerprint(KEY))
            .unwrap();
        // Store `o` at `off` and advertise it there.
        let place = |off: usize, o: &Obj| {
            o.hdr.write_to(&shared.pool, off);
            shared.pool.write(off + o.hdr.key_off(), &o.key);
            shared.pool.write(off + o.hdr.value_off(), &o.value);
            shared
                .ht
                .set_slot(&shared.pool, idx, entry.ctl.mark(), off as u64);
            shared.ht.set_sizes(&shared.pool, idx, o.hdr.klen, o.vlen);
            *reply.lock().unwrap() = (off as u64, o.hdr.klen, o.vlen);
        };
        let servable = |vlen: u32| {
            let value = VALUE.repeat(5)[..vlen as usize].to_vec();
            Obj {
                hdr: ObjHeader {
                    klen: KEY.len() as u16,
                    vlen,
                    flags: flags::VALID | flags::DURABLE,
                    pre_ptr: NIL,
                    next_ptr: NIL,
                    crc: crc32c(&value),
                    seq: 5,
                    alloc_time: 0,
                },
                key: KEY.to_vec(),
                value,
                vlen,
            }
        };
        for (name, break_it, verdict) in rows {
            let mut o = servable(VALUE.len() as u32);
            break_it(&mut o);
            o.hdr.klen = o.key.len() as u16;
            let off = shared.logs[0].alloc(256).unwrap();
            // A fresh cache entry for `off`, filled by reading a servable
            // object of the advertised sizes there.
            let cached = connect(true, true);
            place(off, &servable(o.vlen));
            assert!(cached.get(KEY).unwrap().is_some(), "{name}: cache fill");
            place(off, &o);

            let (hits, evicted) = (
                cached.stats().loc_hits.get(),
                cached.stats().loc_invalidations.get(),
            );
            let from_cache = cached.get_traced(KEY);
            let hit = cached.stats().loc_hits.get() - hits;
            let evicted = cached.stats().loc_invalidations.get() - evicted;
            let served = match verdict {
                Value(v) => Some(Some(v.to_vec())),
                Tombstone => Some(None),
                Stale | NotYet => None,
            };
            let want = |path| {
                served
                    .clone()
                    .map(|v| (v, path))
                    .ok_or(StoreError::Protocol)
            };
            assert_eq!(from_cache, want(GetOutcome::Pure), "{name}: location cache");
            assert_eq!(hit, u64::from(served.is_some()), "{name}: cache hit");
            assert_eq!(
                evicted,
                u64::from(verdict == Stale),
                "{name}: cache eviction"
            );
            assert_eq!(
                pure.get_traced(KEY),
                want(GetOutcome::Pure),
                "{name}: pure read"
            );
            assert_eq!(
                rpc.get_traced(KEY),
                want(GetOutcome::RpcOnly),
                "{name}: RPC read"
            );
            let from_snap = txn.snap_get(&[KEY.to_vec()], &snap);
            let want_snap = served
                .map(|v| vec![v])
                .ok_or(StoreError::Status(Status::Busy));
            assert_eq!(from_snap, want_snap, "{name}: snapshot read");
        }
    });
    simu.run().expect_ok();
}

/// Every client path reads exactly `object_size(klen, vlen)` bytes for the
/// sizes it was advertised, and the parse first requires those sizes to
/// be the header's, so only a direct parse can meet a truncated object.
#[test]
fn a_short_buffer_does_not_parse() {
    let (klen, vlen) = (KEY.len() as u16, VALUE.len() as u32);
    let pool = PmemPool::new(256);
    let hdr = ObjHeader {
        klen,
        vlen,
        flags: flags::VALID | flags::DURABLE,
        pre_ptr: NIL,
        next_ptr: NIL,
        crc: crc32c(VALUE),
        seq: 1,
        alloc_time: 0,
    };
    hdr.write_to(&pool, 0);
    pool.write(hdr.key_off(), KEY);
    pool.write(hdr.value_off(), VALUE);
    let mut obj = vec![0u8; object_size(KEY.len(), VALUE.len())];
    pool.read(0, &mut obj);
    let whole = Fetched::parse(&obj, KEY, klen, vlen).map(|f| f.read());
    assert_eq!(whole, Some(Read::Value(VALUE)));
    for len in [obj.len() - 1, HDR_LEN + 4, HDR_LEN - 1, 0] {
        assert!(
            Fetched::parse(&obj[..len], KEY, klen, vlen).is_none(),
            "{len} bytes"
        );
    }
}
