//! `Store::load` pinned against the PUT path it replaces.
//!
//! Each shape is built twice from the same seed and records: once by a
//! routed client PUTting every record and waiting until each object is
//! verified and, with a backup, applied; once by `Store::load`. Every pool
//! of the two stores — primaries and backups — must hold the same working
//! image except each object's `alloc_time` word (virtual time on the PUT
//! path, 0 for a load), with no dirty line on either side, and `inspect`
//! must report the same keys and versions and no violation. A loaded
//! replicated store must then survive its primaries' data node power
//! failure: the backups promote and the routed client reads every record.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use efactory::client::{ClientConfig, RemoteKv};
use efactory::inspect::{inspect, StoreReport};
use efactory::layout::{ObjHeader, HDR_LEN};
use efactory::log::StoreLayout;
use efactory::server::ServerConfig;
use efactory::store::{Store, StoreClient};
use efactory_pmem::{CrashSpec, PmemPool};
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;
use efactory_ycsb::{make_value, Mix, WorkloadConfig};

const SEED: u64 = 11;

/// Byte offset of the `alloc_time` word in an object header.
const ALLOC_TIME: usize = HDR_LEN - 8;

/// A store shape under test.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One unreplicated shard.
    OneShard,
    /// Four shards on one data node, each with one backup on a second.
    Replicated,
    /// Four shards placed over two data nodes.
    TwoNodes,
    /// One shard with dual 64 KiB pools and the cleaner running.
    Cleaning,
}

impl Shape {
    /// Records to load: the cleaning layout takes what fits under its
    /// threshold, so the PUT path starts no cleaning pass.
    fn records(self) -> u64 {
        match self {
            Shape::Cleaning => 100,
            _ => 3_000,
        }
    }

    fn format(self, fabric: &Arc<Fabric>) -> Store {
        let n = self.records() as usize;
        let plain = || {
            let layout = StoreLayout::for_workload(n, 16, 32, 256, 1.3, false);
            let cfg = ServerConfig {
                clean_enabled: false,
                ..ServerConfig::default()
            };
            (layout, cfg)
        };
        match self {
            Shape::OneShard => {
                let (layout, cfg) = plain();
                Store::format_on(fabric, &fabric.add_node("server"), layout, cfg)
            }
            Shape::Replicated => {
                let (layout, cfg) = plain();
                Store::format(fabric, "server", layout, cfg, 4, 1)
            }
            Shape::TwoNodes => {
                let (layout, cfg) = plain();
                Store::format_nodes(fabric, 2, 4, 0, layout, cfg)
            }
            Shape::Cleaning => {
                let layout = StoreLayout::new(1024, 64 * 1024, true);
                let cfg = ServerConfig {
                    clean_enabled: true,
                    ..ServerConfig::default()
                };
                Store::format_on(fabric, &fabric.add_node("server"), layout, cfg)
            }
        }
    }
}

/// The records a shape loads, as the harness makes them: YCSB keys and
/// 256-byte values.
fn records(shape: Shape) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> {
    let wl = WorkloadConfig {
        mix: Mix::A,
        record_count: shape.records(),
        key_len: 32,
        value_len: 256,
        txn_keys: 4,
    };
    (0..shape.records()).map(move |id| (wl.key(id), make_value(256, id, 0)))
}

/// One pool as the comparison sees it.
struct Image {
    name: String,
    bytes: Vec<u8>,
    dirty: usize,
    layout: StoreLayout,
    /// Its primary's log heads, which bound the scans.
    heads: [usize; 2],
    report: StoreReport,
}

impl Image {
    /// The image with every object's `alloc_time` word zeroed, walking
    /// the objects of `oracle`'s logs.
    fn masked(&self, oracle: &Image) -> Vec<u8> {
        let mut bytes = self.bytes.clone();
        for (region, head) in self.layout.regions().iter().zip(self.heads) {
            let mut off = region.base();
            while off < head {
                let hdr =
                    ObjHeader::decode(&oracle.bytes[off..off + HDR_LEN]).expect("an object header");
                bytes[off + ALLOC_TIME..off + HDR_LEN].fill(0);
                off += hdr.object_size();
            }
        }
        bytes
    }
}

/// Every pool of `store`, each shard's primary then its backup, inspected
/// up to its primary's log heads.
fn images(store: &Store) -> Vec<Image> {
    let mut out = Vec::new();
    for g in 0..store.shards() {
        let shared = Arc::clone(store.seat(g).server.shared());
        let heads = [shared.logs[0].head(), shared.logs[1].head()];
        let mut take = |name: String, pool: &PmemPool| {
            out.push(Image {
                name,
                bytes: pool.working_snapshot(),
                dirty: pool.dirty_line_count(),
                layout: shared.layout,
                heads,
                report: inspect(pool, &shared.layout, heads),
            });
        };
        // Nothing is left for a primary's verifier: its cursor sits at the
        // log head.
        assert_eq!(
            shared.cursor.load(Ordering::Relaxed) as usize,
            heads[0],
            "shard{g}: verifier cursor"
        );
        take(format!("shard{g}"), &shared.pool);
        if let Some(b) = store.backup(g) {
            take(format!("shard{g}-backup"), b.pool());
        }
    }
    out
}

/// The PUT-path oracle: a routed client PUTs every record, then waits
/// until every object is verified and, with backups, applied.
fn put_path(shape: Shape) -> Vec<Image> {
    let mut simu = Sim::new(SEED);
    let fabric = Fabric::new(CostModel::default());
    let store = Arc::new(shape.format(&fabric));
    let (f, s) = (Arc::clone(&fabric), Arc::clone(&store));
    simu.spawn("loader", move || {
        s.start();
        let client = StoreClient::connect(
            &f,
            &f.add_node("loader"),
            &s.routes(),
            ClientConfig::default(),
        )
        .expect("loader connects");
        for (key, value) in records(shape) {
            client.kv_put(&key, &value).expect("PUT");
        }
        let n = shape.records();
        let replicated = s.backup(0).is_some();
        let deadline = sim::now() + sim::millis(50);
        while s.stat_sum(|st| &st.bg_verified) < n
            || (replicated && s.repl_stat_sum(|r| &r.applied_objects) < n)
        {
            assert!(sim::now() < deadline, "{shape:?}: PUT path never drained");
            sim::sleep(sim::micros(20));
        }
        s.shutdown();
    });
    simu.run().expect_ok();
    images(&store)
}

/// The same shape built by `Store::load`.
fn loaded(shape: Shape) -> Vec<Image> {
    let fabric = Fabric::new(CostModel::default());
    let store = shape.format(&fabric);
    assert_eq!(store.load(records(shape)), Ok(()));
    // A load counts one server PUT per record, and no verifier work.
    assert_eq!(store.stat_sum(|s| &s.puts), shape.records());
    assert_eq!(store.stat_sum(|s| &s.bg_verified), 0);
    images(&store)
}

fn assert_same_images(shape: Shape) {
    let (put, load) = (put_path(shape), loaded(shape));
    assert_eq!(put.len(), load.len(), "{shape:?}: pool count");
    let mut keys = 0;
    for (p, l) in put.iter().zip(&load) {
        let ctx = format!("{shape:?} {}", p.name);
        assert_eq!(p.dirty, 0, "{ctx}: PUT path left dirty lines");
        assert_eq!(l.dirty, 0, "{ctx}: load left dirty lines");
        for img in [p, l] {
            let v = &img.report.violations;
            assert!(v.is_empty(), "{ctx}: {v:?}");
        }
        assert_eq!(p.heads, l.heads, "{ctx}: log heads");
        assert_eq!(p.report.keys, l.report.keys, "{ctx}: keys");
        assert_eq!(
            p.report.total_versions, l.report.total_versions,
            "{ctx}: versions"
        );
        let (pm, lm) = (p.masked(p), l.masked(p));
        if let Some(at) = (0..pm.len()).find(|&i| pm[i] != lm[i]) {
            panic!("{ctx}: images differ first at byte {at}");
        }
        if !p.name.ends_with("backup") {
            keys += p.report.keys;
        }
    }
    assert_eq!(
        keys as u64,
        shape.records(),
        "{shape:?}: every record indexed"
    );
}

#[test]
fn loaded_one_shard_matches_the_put_path() {
    assert_same_images(Shape::OneShard);
}

#[test]
fn loaded_replicated_shards_match_the_put_path() {
    assert_same_images(Shape::Replicated);
}

#[test]
fn loaded_two_node_store_matches_the_put_path() {
    assert_same_images(Shape::TwoNodes);
}

#[test]
fn loaded_cleaning_layout_matches_the_put_path() {
    assert_same_images(Shape::Cleaning);
}

/// A loaded replicated store survives its primaries' data node power
/// failure: every backup promotes from the loaded image, and the shards
/// serve every record.
#[test]
fn loaded_backup_promotes_and_serves_every_record() {
    let shape = Shape::Replicated;
    let mut simu = Sim::new(SEED);
    let fabric = Fabric::new(CostModel::default());
    let store = Arc::new(shape.format(&fabric));
    store.load(records(shape)).expect("load");
    let read: Arc<Mutex<u64>> = Arc::default();
    let (f, s, r) = (Arc::clone(&fabric), Arc::clone(&store), Arc::clone(&read));
    simu.spawn("reader", move || {
        s.start();
        let client = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &s.routes(),
            ClientConfig::default(),
        )
        .expect("client connects");
        s.crash_data_node(0, CrashSpec::DropAll, SEED);
        sim::sleep(sim::micros(1));
        for (key, value) in records(shape) {
            let got = client.kv_get(&key).expect("GET rides out the failover");
            assert_eq!(got.as_deref(), Some(&value[..]), "record lost");
            *r.lock().unwrap() += 1;
        }
        for g in 0..s.shards() {
            assert_eq!(s.owner_of(g), 1, "shard {g}'s backup took the seat");
        }
        s.shutdown();
    });
    simu.run().expect_ok();
    assert_eq!(*read.lock().unwrap(), shape.records());
    assert_eq!(store.repl_stat_sum(|r| &r.promotions), 4);
}
