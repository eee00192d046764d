//! Property tests for the transaction layer's snapshot semantics.
//!
//! Each case spins a full deterministic simulation with concurrent
//! transaction writers and snapshot readers over randomly drawn shapes
//! (shard count, write-set width, transaction count, interleaving seed)
//! and asserts the invariants the MVCC design owes:
//!
//! * **No torn write, ever** — every writer stamps its whole write set
//!   with one tag; a snapshot read of the full key set must observe a
//!   single tag, under any interleaving the drawn seed produces.
//! * **Snapshot vector capture** — the snapshot timestamp is exactly the
//!   minimum of the captured per-shard clock vector, and successive
//!   captures by one reader never move backward.
//! * **Snapshot freshness** — a transaction acknowledged before a capture
//!   began is covered by the resulting snapshot (`commit_ts ≤ S`).
//! * **Commit validation** — concurrent CAS-style read-modify-writes on
//!   one key never lose an update: the final counter equals the total
//!   number of committed increments.
//! * **One round trip per round** — a cross-shard commit's prepare and
//!   decide rounds, a snapshot's clock capture and each wave of a
//!   snapshot read fan out to every participant at once, so their latency
//!   does not grow with the number of shards they touch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use efactory::client::ClientConfig;
use efactory::cluster::key_shard;
use efactory::log::StoreLayout;
use efactory::server::ServerConfig;
use efactory::store::{Store, StoreClient};
use efactory::txn::TxnKv;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::{Nanos, Sim};
use proptest::prelude::*;

fn key(i: usize) -> Vec<u8> {
    format!("pk{i:02}").into_bytes()
}

/// Value for tag `t` on write-set slot `slot`: the tag is recoverable, and
/// the pair is globally unique.
fn tagged(t: u64, slot: usize) -> Vec<u8> {
    format!("tag{t:06}-s{slot}").into_bytes()
}

fn tag_of(v: &[u8]) -> u64 {
    std::str::from_utf8(&v[3..9]).unwrap().parse().unwrap()
}

/// Concurrent full-key-set writers vs snapshot readers: every snapshot
/// observes exactly one tag across the whole key set, vectors are
/// well-formed, and snapshots cover every commit acknowledged before their
/// capture began.
fn check_no_torn_snapshot(seed: u64, shards: usize, width: usize, txns: usize, readers: usize) {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(1024, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let server = Store::format(&fabric, "server", layout, cfg, shards, 0);
    let desc = Arc::new(server.routes());
    let failure: Arc<Mutex<Option<String>>> = Arc::default();
    let fail2 = Arc::clone(&failure);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start();
        // Tag 0 = initial state, written atomically up front.
        let setup_node = f.add_node("setup");
        let setup = StoreClient::connect(&f, &setup_node, &desc, ClientConfig::default()).unwrap();
        let init: Vec<(Vec<u8>, Vec<u8>)> = (0..width).map(|i| (key(i), tagged(0, i))).collect();
        setup.txn_put_all(&init).unwrap();

        // ack_watermark: (virtual time, commit ts) of the latest
        // acknowledged commit, packed so readers can check freshness.
        let acked: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
        let stop = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        {
            let f2 = Arc::clone(&f);
            let desc = Arc::clone(&desc);
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            handles.push(sim::spawn("prop-writer", move || {
                let node = f2.add_node("wnode");
                let kv = StoreClient::connect(&f2, &node, &desc, ClientConfig::default()).unwrap();
                for t in 1..=txns {
                    let writes: Vec<(Vec<u8>, Vec<u8>)> =
                        (0..width).map(|i| (key(i), tagged(t as u64, i))).collect();
                    let ts = kv.txn_put_all(&writes).expect("txn commit");
                    acked.lock().unwrap().push((sim::now(), ts));
                    sim::sleep(sim::micros(1 + (t % 4) as u64));
                }
                stop.store(1, Ordering::Relaxed);
            }));
        }
        for rid in 0..readers {
            let f2 = Arc::clone(&f);
            let desc = Arc::clone(&desc);
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            let fail = Arc::clone(&fail2);
            handles.push(sim::spawn(&format!("prop-reader-{rid}"), move || {
                let node = f2.add_node(&format!("rnode-{rid}"));
                let kv = StoreClient::connect(&f2, &node, &desc, ClientConfig::default()).unwrap();
                let mut last_ts = 0u64;
                let report = |msg: String| {
                    fail.lock().unwrap().get_or_insert(msg);
                };
                while stop.load(Ordering::Relaxed) == 0 {
                    let capture_invoke = sim::now();
                    let floor = acked
                        .lock()
                        .unwrap()
                        .iter()
                        .filter(|(at, _)| *at < capture_invoke)
                        .map(|(_, ts)| *ts)
                        .max()
                        .unwrap_or(0);
                    let snap = kv.snapshot().expect("snapshot");
                    if snap.ts != snap.vector.iter().copied().min().unwrap() {
                        report(format!(
                            "snapshot ts {} is not min of vector {:?}",
                            snap.ts, snap.vector
                        ));
                    }
                    if snap.vector.len() != shards {
                        report(format!(
                            "vector has {} entries for {shards} shards",
                            snap.vector.len()
                        ));
                    }
                    if snap.ts < last_ts {
                        report(format!(
                            "snapshot ts went backward: {} after {last_ts}",
                            snap.ts
                        ));
                    }
                    last_ts = snap.ts;
                    if snap.ts < floor {
                        report(format!(
                            "snapshot S={} misses commit ts {floor} acked before capture",
                            snap.ts
                        ));
                    }
                    let keys: Vec<Vec<u8>> = (0..width).map(key).collect();
                    let tags: Vec<u64> = kv
                        .snap_get(&keys, &snap)
                        .expect("snap get")
                        .iter()
                        .map(|v| tag_of(v.as_deref().expect("key preloaded")))
                        .collect();
                    if tags.iter().any(|&t| t != tags[0]) {
                        report(format!(
                            "torn snapshot read: tags {tags:?} under S={}",
                            snap.ts
                        ));
                    }
                    sim::sleep(sim::micros(2 + rid as u64));
                }
            }));
        }
        for h in &handles {
            h.join();
        }
        server.shutdown();
    });
    simu.run().expect_ok();
    let msg = failure.lock().unwrap().take();
    if let Some(msg) = msg {
        panic!("{msg}");
    }
}

/// Concurrent RMW increments on one key: commit-time validation must make
/// them behave like an atomic counter (no lost updates).
fn check_rmw_counter(seed: u64, shards: usize, writers: usize, incs: usize) {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(1024, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let server = Store::format(&fabric, "server", layout, cfg, shards, 0);
    let desc = Arc::new(server.routes());
    let final_val: Arc<Mutex<Option<u64>>> = Arc::default();
    let out = Arc::clone(&final_val);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start();
        let counter_key = b"prop-counter".to_vec();
        let mut handles = Vec::new();
        for wid in 0..writers {
            let f2 = Arc::clone(&f);
            let desc = Arc::clone(&desc);
            let ck = counter_key.clone();
            handles.push(sim::spawn(&format!("rmw-writer-{wid}"), move || {
                let node = f2.add_node(&format!("wnode-{wid}"));
                let kv = StoreClient::connect(&f2, &node, &desc, ClientConfig::default()).unwrap();
                for _ in 0..incs {
                    kv.txn_rmw(&ck, &mut |old| {
                        let n: u64 = old
                            .map(|v| String::from_utf8(v).unwrap().parse().unwrap())
                            .unwrap_or(0);
                        (n + 1).to_string().into_bytes()
                    })
                    .expect("rmw commit");
                }
            }));
        }
        for h in &handles {
            h.join();
        }
        let node = f.add_node("verify");
        let kv = StoreClient::connect(&f, &node, &desc, ClientConfig::default()).unwrap();
        let v = kv.get(&counter_key).unwrap().expect("counter exists");
        *out.lock().unwrap() = Some(String::from_utf8(v).unwrap().parse().unwrap());
        server.shutdown();
    });
    simu.run().expect_ok();
    let got = final_val.lock().unwrap().take().unwrap();
    assert_eq!(
        got,
        (writers * incs) as u64,
        "lost update: {writers} writers x {incs} increments"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn random_interleavings_never_observe_torn_writes(
        seed in any::<u64>(),
        shards in 1usize..5,
        width in 2usize..6,
        txns in 1usize..16,
        readers in 1usize..3,
    ) {
        check_no_torn_snapshot(seed, shards, width, txns, readers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn concurrent_rmw_increments_are_never_lost(
        seed in any::<u64>(),
        shards in 1usize..4,
        writers in 2usize..4,
        incs in 1usize..10,
    ) {
        check_rmw_counter(seed, shards, writers, incs);
    }
}

/// Latencies on an idle store, each timed on its second run, after the
/// first has created the keys.
struct Idle {
    /// A 4-key `txn_put_all`.
    commit: Nanos,
    /// A snapshot capture.
    capture: Nanos,
    /// A snapshot read of the 4 keys.
    scan: Nanos,
    /// A snapshot read of the first key alone.
    scan1: Nanos,
}

/// [`Idle`] latencies on a store of `shards` shards (no cleaning, one
/// client), for 4 keys that land on `spread` distinct shards, one key per
/// shard round-robin.
fn idle_latencies(shards: usize, spread: usize) -> Idle {
    let mut simu = Sim::new(5);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(1024, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let store = Store::format(&fabric, "server", layout, cfg, shards, 0);
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut i = 0;
    while keys.len() < 4 {
        let k = key(i);
        if key_shard(&k, shards) == keys.len() % spread {
            keys.push(k);
        }
        i += 1;
    }
    let puts: Vec<(Vec<u8>, Vec<u8>)> = keys.iter().map(|k| (k.clone(), vec![7; 64])).collect();
    let out: Arc<Mutex<Option<Idle>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        store.start();
        let node = f.add_node("client");
        let kv = StoreClient::connect(&f, &node, &store.routes(), ClientConfig::default()).unwrap();
        let timed = |op: &dyn Fn()| {
            op();
            let t0 = sim::now();
            op();
            sim::now() - t0
        };
        let commit = timed(&|| {
            kv.txn_put_all(&puts).expect("txn commit");
        });
        let capture = timed(&|| {
            kv.snapshot().expect("snapshot");
        });
        let snap = kv.snapshot().expect("snapshot");
        let scan = timed(&|| {
            kv.snap_get(&keys, &snap).expect("snapshot read");
        });
        let scan1 = timed(&|| {
            kv.snap_get(&keys[..1], &snap).expect("snapshot read");
        });
        *out2.lock().unwrap() = Some(Idle {
            commit,
            capture,
            scan,
            scan1,
        });
        store.shutdown();
    });
    simu.run().expect_ok();
    let latencies = out.lock().unwrap().take().expect("the run finished");
    latencies
}

/// A fanned-out round costs one round trip, not one per participant: a
/// 4-key commit spread over 4 shards stays within 1.25x of one spread over
/// 2, a 4-shard snapshot capture within 1.25x of a 1-shard one, and a
/// 4-key snapshot read over 4 shards within 1.25x of a 1-key read.
#[test]
fn a_round_costs_one_round_trip_not_one_per_participant() {
    let four = idle_latencies(4, 4);
    let two = idle_latencies(4, 2);
    let one = idle_latencies(1, 1);
    assert!(
        four.commit * 4 <= two.commit * 5,
        "a commit over 4 shards took {} ns, over 2 shards {} ns",
        four.commit,
        two.commit
    );
    assert!(
        four.capture * 4 <= one.capture * 5,
        "a 4-shard snapshot took {} ns, a 1-shard one {} ns",
        four.capture,
        one.capture
    );
    assert!(
        four.scan * 4 <= four.scan1 * 5,
        "a 4-key snapshot read over 4 shards took {} ns, a 1-key read {} ns",
        four.scan,
        four.scan1
    );
}
