//! Trace-based linearizability / snapshot-isolation checking, end to end.
//!
//! These tests run concurrent multi-key transaction writers, snapshot
//! readers, and plain GET clients against a live store, fold the
//! deterministic trace of invoke/complete instants plus MVCC commit
//! timestamps into a [`checker::History`], and hand it to the consistency
//! checker. A lane passes only if the checker finds **zero** violations:
//! no torn multi-key write, no stale or future snapshot read, no plain-GET
//! staleness, no serialization cycle.
//!
//! The matrix covers shards {1, 4, 8} × windows {1, 16} × replicas {0, 1}
//! × the PR 4 chaos plan (drop + duplicate + delay). A deliberately broken
//! server (`snap_serve_stale`, which skips the newest covered version on
//! the snapshot-read path) must be *caught* — the negative lane keeps the
//! checker honest.
//!
//! Env knobs shared with the other sweeps: `EF_TEST_SHARDS` (comma
//! separated), `EF_TEST_REPLICAS` (`0` disables), `EF_TEST_CHAOS` (a seed:
//! any non-zero value adds [`CHAOS_LANES`] chaos lanes shifted by it, so
//! every value costs the same).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig};
use efactory::log::StoreLayout;
use efactory::pipeline::{OpKind, PipelineConfig, PipelinedClient};
use efactory::server::{Server, ServerConfig};
use efactory::store::{Routes, Store, StoreClient};
use efactory::txn::TxnKv;
use efactory::RemoteKv;
use efactory_harness::checker::{self, GetEvent, History, SnapEvent, TxnEvent};
use efactory_rnic::{CostModel, Fabric, FaultPlan};
use efactory_sim as sim;
use efactory_sim::Sim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: usize = 12;
const WRITERS: usize = 3;
const TXNS_PER_WRITER: usize = 14;
const RMWS_PER_WRITER: usize = 4;
const TXN_W: usize = 3;
const SNAP_READERS: usize = 2;
const SNAPS_PER_READER: usize = 10;
const GETS: usize = 24;

fn key(i: usize) -> Vec<u8> {
    format!("txk{i:02}").into_bytes()
}

/// Globally unique value for writer `cid`, txn `t`, write-set slot `slot`.
fn val(cid: usize, t: usize, slot: usize) -> Vec<u8> {
    let mut v = format!("v{cid:02}-{t:03}-{slot}-").into_bytes();
    while v.len() < 32 {
        v.push(b'.');
    }
    v
}

fn rmw_val(cid: usize, t: usize) -> Vec<u8> {
    let mut v = format!("r{cid:02}-{t:03}-").into_bytes();
    while v.len() < 32 {
        v.push(b'.');
    }
    v
}

fn init_val(i: usize) -> Vec<u8> {
    let mut v = format!("init-{i:02}-").into_bytes();
    while v.len() < 32 {
        v.push(b'.');
    }
    v
}

/// Pick `n` distinct key indices.
fn distinct_keys(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(n);
    while picked.len() < n {
        let k = rng.gen_range(0..KEYS);
        if !picked.contains(&k) {
            picked.push(k);
        }
    }
    picked
}

/// One matrix cell.
#[derive(Clone, Copy)]
struct Lane {
    shards: usize,
    replicas: usize,
    chaos: bool,
    /// Inject the deliberate snapshot-staleness server bug (negative lane).
    stale: bool,
    /// Dual-pool layout with an aggressive clean threshold, so log
    /// cleaning passes run *during* the transactional workload (staged
    /// PENDING heads, snapshot reads, and RMWs all race the relocator).
    clean: bool,
}

impl Default for Lane {
    fn default() -> Self {
        Lane {
            shards: 1,
            replicas: 0,
            chaos: false,
            stale: false,
            clean: false,
        }
    }
}

fn connect_txn(fabric: &Arc<Fabric>, name: &str, routes: &Routes) -> StoreClient {
    let node = fabric.add_node(name);
    StoreClient::connect(fabric, &node, routes, ClientConfig::default()).expect("connect")
}

/// Run one lane's concurrent workload and return the recorded history.
fn run_lane(seed: u64, lane: Lane) -> History {
    run_lane_parked(seed, lane).0
}

/// [`run_lane`], also returning how many requests the shards' handlers
/// parked behind an in-doubt version.
fn run_lane_parked(seed: u64, lane: Lane) -> (History, u64) {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    if lane.chaos {
        fabric.set_fault_plan(Some(FaultPlan::chaos(
            0.04,
            0.03,
            0.02,
            sim::micros(3),
            seed ^ 0xC0,
        )));
    }
    let layout = if lane.clean {
        StoreLayout::new(2048, 256 * 1024, true)
    } else {
        StoreLayout::new(2048, 1 << 20, false)
    };
    let cfg = ServerConfig {
        clean_enabled: lane.clean,
        // With the live set a sliver of the pool, a near-zero threshold
        // makes the cleaner run passes back to back through the workload.
        clean_threshold: if lane.clean { 0.01 } else { 0.7 },
        snap_serve_stale: lane.stale,
        ..ServerConfig::default()
    };
    let store = Store::format(&fabric, "server", layout, cfg, lane.shards, lane.replicas);
    let desc = Arc::new(store.routes());

    let hist: Arc<Mutex<History>> = Arc::default();
    let out = Arc::clone(&hist);
    let parked = Arc::new(Mutex::new(0));
    let parked_out = Arc::clone(&parked);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        store.start();
        // Preload every key (the history's implicit initial transaction).
        let setup = connect_txn(&f, "setup", &desc);
        for i in 0..KEYS {
            setup.kv_put(&key(i), &init_val(i)).expect("preload");
            out.lock().unwrap().init.push((key(i), init_val(i)));
        }

        let mut handles = Vec::new();
        for cid in 0..WRITERS {
            let f2 = Arc::clone(&f);
            let desc = Arc::clone(&desc);
            let out = Arc::clone(&out);
            handles.push(sim::spawn(&format!("txn-writer-{cid}"), move || {
                let kv = connect_txn(&f2, &format!("wnode-{cid}"), &desc);
                let mut rng = StdRng::seed_from_u64(seed ^ ((cid as u64 + 1) << 24));
                for t in 0..TXNS_PER_WRITER {
                    let writes: Vec<(Vec<u8>, Vec<u8>)> = distinct_keys(&mut rng, TXN_W)
                        .into_iter()
                        .enumerate()
                        .map(|(slot, k)| (key(k), val(cid, t, slot)))
                        .collect();
                    let invoke = sim::now();
                    let ts = kv.txn_put_all(&writes).expect("txn commit");
                    let complete = sim::now();
                    out.lock().unwrap().txns.push(TxnEvent {
                        client: cid,
                        invoke,
                        complete,
                        commit_ts: ts,
                        writes,
                    });
                    sim::sleep(sim::micros(1 + ((cid + t) % 3) as u64));
                }
                for t in 0..RMWS_PER_WRITER {
                    let k = key(rng.gen_range(0..KEYS));
                    let new = rmw_val(cid, t);
                    let invoke = sim::now();
                    let new2 = new.clone();
                    let ts = kv
                        .txn_rmw(&k, &mut move |_old| new2.clone())
                        .expect("rmw commit");
                    let complete = sim::now();
                    out.lock().unwrap().txns.push(TxnEvent {
                        client: cid,
                        invoke,
                        complete,
                        commit_ts: ts,
                        writes: vec![(k, new)],
                    });
                    sim::sleep(sim::micros(1));
                }
            }));
        }
        for rid in 0..SNAP_READERS {
            let f2 = Arc::clone(&f);
            let desc = Arc::clone(&desc);
            let out = Arc::clone(&out);
            handles.push(sim::spawn(&format!("snap-reader-{rid}"), move || {
                use efactory::protocol::{Status, StoreError};
                let kv = connect_txn(&f2, &format!("rnode-{rid}"), &desc);
                for _ in 0..SNAPS_PER_READER {
                    // A cleaning pool swap expires open snapshots
                    // (`Status::Expired`); drop the partial read set and
                    // re-capture — the retried snapshot is a fresh event.
                    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
                    let (capture_invoke, capture_complete, snap, values) = loop {
                        let capture_invoke = sim::now();
                        let snap = kv.snapshot().expect("snapshot");
                        let capture_complete = sim::now();
                        match kv.snap_get(&keys, &snap) {
                            Ok(values) => break (capture_invoke, capture_complete, snap, values),
                            Err(StoreError::Status(Status::Expired)) => {
                                sim::sleep(sim::micros(2));
                            }
                            Err(e) => panic!("snap get: {e:?}"),
                        }
                    };
                    let reads = keys.into_iter().zip(values).collect();
                    let reads_complete = sim::now();
                    out.lock().unwrap().snaps.push(SnapEvent {
                        client: rid,
                        capture_invoke,
                        capture_complete,
                        snap_ts: snap.ts,
                        reads_complete,
                        reads,
                    });
                    sim::sleep(sim::micros(2 + rid as u64));
                }
            }));
        }
        {
            let f2 = Arc::clone(&f);
            let desc = Arc::clone(&desc);
            let out = Arc::clone(&out);
            handles.push(sim::spawn("plain-getter", move || {
                let kv = connect_txn(&f2, "gnode", &desc);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x6E7);
                for _ in 0..GETS {
                    let k = key(rng.gen_range(0..KEYS));
                    let invoke = sim::now();
                    let v = kv.kv_get(&k).expect("plain get");
                    let complete = sim::now();
                    out.lock().unwrap().gets.push(GetEvent {
                        client: 0,
                        invoke,
                        complete,
                        key: k,
                        value: v,
                    });
                    sim::sleep(sim::micros(3));
                }
            }));
        }
        for h in &handles {
            h.join();
        }
        if lane.clean {
            // The lane only counts if the cleaner actually interleaved
            // with the workload.
            let cleaned = store.stat_sum(|s| &s.cleanings);
            assert!(cleaned > 0, "cleaning lane ran zero cleaning passes");
        }
        *parked_out.lock().unwrap() = store.stat_sum(|s| &s.txn_parked);
        store.shutdown();
    });
    simu.run().expect_ok();
    let parked = *parked.lock().unwrap();
    (Arc::try_unwrap(hist).unwrap().into_inner().unwrap(), parked)
}

/// Shard counts under test: `EF_TEST_SHARDS` env (comma-separated) or the
/// full acceptance set.
fn test_shards() -> Vec<usize> {
    match std::env::var("EF_TEST_SHARDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("EF_TEST_SHARDS: bad count"))
            .collect(),
        Err(_) => vec![1, 4, 8],
    }
}

fn replicas_enabled() -> bool {
    std::env::var("EF_TEST_REPLICAS").map_or(true, |v| v.trim() != "0")
}

/// The multi-shard lanes must park requests behind in-doubt versions, so
/// the checks below cover histories with parked (and re-run) requests.
#[test]
fn serial_histories_are_consistent_across_shards() {
    for shards in test_shards() {
        let (h, parked) = run_lane_parked(
            11 + shards as u64,
            Lane {
                shards,
                replicas: 0,
                chaos: false,
                stale: false,
                clean: false,
            },
        );
        assert_eq!(h.txns.len(), WRITERS * (TXNS_PER_WRITER + RMWS_PER_WRITER));
        assert_eq!(h.snaps.len(), SNAP_READERS * SNAPS_PER_READER);
        if shards >= 4 {
            assert!(parked > 0, "{shards} shards: no request parked");
        }
        checker::assert_consistent(&h);
    }
}

#[test]
fn replicated_histories_are_consistent() {
    if !replicas_enabled() {
        return;
    }
    for shards in [1usize, 4] {
        let h = run_lane(
            23 + shards as u64,
            Lane {
                shards,
                replicas: 1,
                chaos: false,
                stale: false,
                clean: false,
            },
        );
        checker::assert_consistent(&h);
    }
}

/// Extra chaos lanes (each over shards {1, 4}) a non-zero `EF_TEST_CHAOS`
/// seed adds.
const CHAOS_LANES: u64 = 4;

#[test]
fn chaotic_histories_are_consistent() {
    // The base lane always runs; `EF_TEST_CHAOS=<seed>` adds lanes
    // seed..seed + CHAOS_LANES.
    let chaos: u64 = std::env::var("EF_TEST_CHAOS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let extra = if chaos > 0 {
        chaos..chaos + CHAOS_LANES
    } else {
        0..0
    };
    for s in std::iter::once(0).chain(extra) {
        for shards in [1usize, 4] {
            let h = run_lane(
                31 + s * 97 + shards as u64,
                Lane {
                    shards,
                    replicas: 0,
                    chaos: true,
                    stale: false,
                    clean: false,
                },
            );
            assert_eq!(
                h.txns.len(),
                WRITERS * (TXNS_PER_WRITER + RMWS_PER_WRITER),
                "chaos must not lose or double-count commits"
            );
            checker::assert_consistent(&h);
        }
    }
}

/// The chaos lane (4 shards, seed 326) where a plain GET walked past a
/// prepared, still in-doubt head and served the previous version while a
/// sibling shard had already published the same transaction: the checker
/// found the cycle txn → get → … → get → txn. Plain GETs now wait on an
/// in-doubt head until the transaction is decided.
#[test]
fn plain_gets_never_read_half_a_cross_shard_commit() {
    let h = run_lane(
        326,
        Lane {
            shards: 4,
            chaos: true,
            ..Lane::default()
        },
    );
    checker::assert_consistent(&h);
}

/// Transactions, snapshot reads, and plain GETs stay consistent while the
/// log cleaner runs passes *through* the workload: staged PENDING heads
/// race the relocator's wait loop, snapshot timestamps straddle pool
/// swaps, and the chaos cell adds drop/dup/delay on top.
#[test]
fn cleaning_histories_are_consistent() {
    for (seed, shards, replicas, chaos) in [
        (51u64, 1usize, 0usize, false),
        (53, 4, 0, false),
        (57, 1, 1, false),
        (59, 4, 0, true),
    ] {
        let h = run_lane(
            seed,
            Lane {
                shards,
                replicas,
                chaos,
                clean: true,
                ..Lane::default()
            },
        );
        assert_eq!(
            h.txns.len(),
            WRITERS * (TXNS_PER_WRITER + RMWS_PER_WRITER),
            "cleaning must not lose or double-count commits"
        );
        checker::assert_consistent(&h);
    }
}

#[test]
fn chaotic_history_replays_identically() {
    let lane = Lane {
        shards: 4,
        replicas: 0,
        chaos: true,
        stale: false,
        clean: false,
    };
    let a = run_lane(77, lane);
    let b = run_lane(77, lane);
    let sig = |h: &History| {
        (
            h.txns
                .iter()
                .map(|t| (t.client, t.invoke, t.complete, t.commit_ts))
                .collect::<Vec<_>>(),
            h.snaps
                .iter()
                .map(|s| (s.client, s.snap_ts, s.reads.clone()))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(sig(&a), sig(&b), "same seed must replay the same history");
}

/// Windowed lane: a pipelined writer keeps 16 transactions in flight while
/// a snapshot reader and a plain getter run concurrently. Completions come
/// from the pipeline (submit → done, with the commit timestamp riding on
/// the completion record).
#[test]
fn pipelined_txn_history_is_consistent() {
    let seed = 41;
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(2048, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::format(&fabric, &server_node, layout, cfg));

    let hist: Arc<Mutex<History>> = Arc::default();
    let out = Arc::clone(&hist);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start(&f);
        let desc = server.desc();
        let setup_node = f.add_node("setup");
        let setup = Client::connect(&f, &setup_node, &server_node, desc, ClientConfig::default())
            .expect("connect");
        for i in 0..KEYS {
            setup.put(&key(i), &init_val(i)).expect("preload");
            out.lock().unwrap().init.push((key(i), init_val(i)));
        }

        let routes = Routes::servers([&*server]);
        let mut handles = Vec::new();
        {
            let f2 = Arc::clone(&f);
            let routes = routes.clone();
            let out = Arc::clone(&out);
            handles.push(sim::spawn("pipelined-writer", move || {
                let node = f2.add_node("wnode");
                let mut pc = PipelinedClient::connect(
                    &f2,
                    &node,
                    &routes,
                    PipelineConfig {
                        window: 16,
                        doorbell_batch: 0,
                        client: ClientConfig::default(),
                    },
                    "wpipe",
                )
                .expect("connect");
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA11CE);
                type WriteSet = Vec<(Vec<u8>, Vec<u8>)>;
                let mut writes_by_seq: HashMap<u64, WriteSet> = HashMap::new();
                let mut next_seq = 0u64;
                let record =
                    |comps: Vec<efactory::OpCompletion>,
                     writes_by_seq: &mut HashMap<u64, WriteSet>| {
                        for comp in comps {
                            assert!(matches!(comp.kind, OpKind::Txn), "writer submits only txns");
                            comp.result.as_ref().expect("pipelined txn commit");
                            let writes = writes_by_seq.remove(&comp.seq).expect("seq bookkeeping");
                            out.lock().unwrap().txns.push(TxnEvent {
                                client: 9,
                                invoke: comp.submitted_at,
                                complete: comp.done_at,
                                commit_ts: comp.commit_ts.expect("txn completion carries ts"),
                                writes,
                            });
                        }
                    };
                for t in 0..3 * TXNS_PER_WRITER {
                    let writes: Vec<(Vec<u8>, Vec<u8>)> = distinct_keys(&mut rng, TXN_W)
                        .into_iter()
                        .enumerate()
                        .map(|(slot, k)| (key(k), val(9, t, slot)))
                        .collect();
                    writes_by_seq.insert(next_seq, writes.clone());
                    next_seq += 1;
                    let comps = pc.submit_txn(&writes);
                    record(comps, &mut writes_by_seq);
                }
                record(pc.finish(), &mut writes_by_seq);
                assert!(writes_by_seq.is_empty(), "every submitted txn completed");
            }));
        }
        {
            let f2 = Arc::clone(&f);
            let routes = routes.clone();
            let out = Arc::clone(&out);
            handles.push(sim::spawn("snap-reader", move || {
                let kv = connect_txn(&f2, "rnode", &routes);
                for _ in 0..2 * SNAPS_PER_READER {
                    let capture_invoke = sim::now();
                    let snap = kv.snapshot().expect("snapshot");
                    let capture_complete = sim::now();
                    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
                    let values = kv.snap_get(&keys, &snap).expect("snap get");
                    let reads = keys.into_iter().zip(values).collect();
                    out.lock().unwrap().snaps.push(SnapEvent {
                        client: 0,
                        capture_invoke,
                        capture_complete,
                        snap_ts: snap.ts,
                        reads_complete: sim::now(),
                        reads,
                    });
                    sim::sleep(sim::micros(2));
                }
            }));
        }
        {
            let f2 = Arc::clone(&f);
            let sn = server_node.clone();
            let out = Arc::clone(&out);
            handles.push(sim::spawn("plain-getter", move || {
                let node = f2.add_node("gnode");
                let kv = Client::connect(&f2, &node, &sn, desc, ClientConfig::default())
                    .expect("connect");
                let mut rng = StdRng::seed_from_u64(seed ^ 0x6E7);
                for _ in 0..GETS {
                    let k = key(rng.gen_range(0..KEYS));
                    let invoke = sim::now();
                    let v = kv.get(&k).expect("plain get");
                    out.lock().unwrap().gets.push(GetEvent {
                        client: 0,
                        invoke,
                        complete: sim::now(),
                        key: k,
                        value: v,
                    });
                    sim::sleep(sim::micros(3));
                }
            }));
        }
        for h in &handles {
            h.join();
        }
        server.shutdown();
    });
    simu.run().expect_ok();
    let h = Arc::try_unwrap(hist).unwrap().into_inner().unwrap();
    assert_eq!(h.txns.len(), 3 * TXNS_PER_WRITER);
    checker::assert_consistent(&h);
}

/// Negative lane: a server that deliberately serves stale snapshot reads
/// (skipping the newest covered version) must be caught by the checker —
/// otherwise the positive lanes prove nothing.
#[test]
fn stale_snapshot_server_bug_is_caught() {
    let h = run_lane(
        53,
        Lane {
            shards: 1,
            replicas: 0,
            chaos: false,
            stale: true,
            clean: false,
        },
    );
    let v = checker::check(&h);
    assert!(
        !v.is_empty(),
        "checker must flag the snap_serve_stale mutation"
    );
    assert!(
        v.iter().any(|x| matches!(
            x,
            checker::Violation::StaleRead { .. }
                | checker::Violation::TornWrite { .. }
                | checker::Violation::SnapshotTooOld { .. }
        )),
        "expected staleness-class violations, got: {v:?}"
    );
}
