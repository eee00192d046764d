//! Topology is transparent: the router is deterministic and total, and a
//! [`Store`] of any shape behind the routed client is byte-for-byte
//! equivalent to a single unsharded [`Server`] on any failure-free op
//! sequence.
//!
//! Three layers of evidence:
//!
//! * property tests over the router itself — every key maps to exactly one
//!   shard, the same one on every call, for every shard count;
//! * replay equivalence — the same seeded PUT/GET/DEL sequence through an
//!   unsharded server and through a `Store` at every shard count in the
//!   acceptance sweep, with and without a backup per shard, serially and
//!   through a 16-deep pipeline, produces identical read results and an
//!   identical final KV image, doorbell batching on or off;
//! * a topology matrix through the harness — shards × replicas × window on
//!   one node, and shards × window on two nodes, all finish with exact
//!   sample accounting and no failed PUT.
//!
//! The shard counts exercised by the replay tests honor `EF_TEST_SHARDS`
//! (comma-separated, default `1,2,4,8`) so CI can matrix over counts.

use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig};
use efactory::key_shard;
use efactory::log::StoreLayout;
use efactory::pipeline::{OpKind, PipelineConfig, PipelinedClient};
use efactory::server::{Server, ServerConfig};
use efactory::store::{Store, StoreClient};
use efactory_harness::cluster::TXN_KEYS;
use efactory_harness::{run, Cleaning, ExperimentSpec, SystemKind};
use efactory_rnic::{CostModel, Fabric};
use efactory_sim::Sim;
use efactory_ycsb::{Mix, Op, OpStream, WorkloadConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shard counts under test: `EF_TEST_SHARDS` env (comma-separated) or the
/// acceptance sweep's default.
fn shard_counts() -> Vec<usize> {
    match std::env::var("EF_TEST_SHARDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("EF_TEST_SHARDS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

// ---------------------------------------------------------------- routing

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn routing_is_deterministic_and_total(
        key in proptest::collection::vec(any::<u8>(), 0..48),
        shards in 1usize..=16,
    ) {
        let s = key_shard(&key, shards);
        prop_assert!(s < shards, "shard {} out of range for {}", s, shards);
        // Pure function of the bytes: a second call and a cloned buffer
        // agree (every client, every connection routes identically).
        prop_assert_eq!(s, key_shard(&key, shards));
        prop_assert_eq!(s, key_shard(&key.clone(), shards));
    }
}

#[test]
fn routing_is_stable_across_shard_table_sizes() {
    // shards == 1 must be the identity partition, and the router must not
    // depend on anything but (key, shards): recomputing the whole table in
    // a different order yields the same assignment.
    let keys: Vec<Vec<u8>> = (0..200u32)
        .map(|i| format!("user{i:010}").into_bytes())
        .collect();
    for k in &keys {
        assert_eq!(key_shard(k, 1), 0);
    }
    for shards in [2usize, 3, 4, 8] {
        let fwd: Vec<usize> = keys.iter().map(|k| key_shard(k, shards)).collect();
        let rev: Vec<usize> = keys.iter().rev().map(|k| key_shard(k, shards)).collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
    }
}

// ------------------------------------------------------------ equivalence

#[derive(Clone, Debug)]
enum KvOp {
    Put(u8, u32),
    Get(u8),
    Del(u8),
}

const KEYS: u8 = 24;

fn key_bytes(k: u8) -> Vec<u8> {
    format!("eq-key-{k:02}").into_bytes()
}

fn value_bytes(k: u8, ver: u32) -> Vec<u8> {
    let mut v = format!("k{k:02}v{ver:06}").into_bytes();
    v.resize(120, b'a' + (k % 26));
    v
}

/// A seeded op sequence shared verbatim by every system under comparison.
fn op_sequence(seed: u64, n: usize) -> Vec<KvOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vers = [0u32; KEYS as usize];
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..KEYS);
            match rng.gen_range(0..10) {
                0..=4 => {
                    vers[k as usize] += 1;
                    KvOp::Put(k, vers[k as usize])
                }
                5..=7 => KvOp::Get(k),
                _ => KvOp::Del(k),
            }
        })
        .collect()
}

/// Everything a replay observes: each GET's bytes in sequence order, then
/// one final GET per key (the recovered KV image).
type ReadLog = Vec<Option<Vec<u8>>>;

trait KvOps {
    fn op_put(&self, key: &[u8], value: &[u8]);
    fn op_get(&self, key: &[u8]) -> Option<Vec<u8>>;
    fn op_del(&self, key: &[u8]);
}

impl KvOps for Client {
    fn op_put(&self, key: &[u8], value: &[u8]) {
        self.put(key, value).unwrap()
    }
    fn op_get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get(key).unwrap()
    }
    fn op_del(&self, key: &[u8]) {
        self.del(key).unwrap()
    }
}

impl KvOps for StoreClient {
    fn op_put(&self, key: &[u8], value: &[u8]) {
        self.put(key, value).unwrap()
    }
    fn op_get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get(key).unwrap()
    }
    fn op_del(&self, key: &[u8]) {
        self.del(key).unwrap()
    }
}

fn drive(kv: &dyn KvOps, ops: &[KvOp]) -> ReadLog {
    let mut log = Vec::new();
    for op in ops {
        match *op {
            KvOp::Put(k, ver) => kv.op_put(&key_bytes(k), &value_bytes(k, ver)),
            KvOp::Get(k) => log.push(kv.op_get(&key_bytes(k))),
            KvOp::Del(k) => kv.op_del(&key_bytes(k)),
        }
    }
    for k in 0..KEYS {
        log.push(kv.op_get(&key_bytes(k)));
    }
    log
}

/// Replay `ops` through a plain unsharded [`Server`].
fn replay_single(seed: u64, ops: Vec<KvOp>) -> ReadLog {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let out: Arc<Mutex<ReadLog>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let server = Server::format(
            &f,
            &server_node,
            StoreLayout::new(256, 1 << 20, true),
            ServerConfig::default(),
        );
        server.start(&f);
        let c = Client::connect(
            &f,
            &f.add_node("c"),
            &server_node,
            server.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        *out2.lock().unwrap() = drive(&c, &ops);
        server.shutdown();
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

/// Everything a replay observes, driven through a [`PipelinedClient`]: the
/// GETs' results in submission order (per-key hazards keep each key's
/// effects in program order, so they equal the serial results), then one
/// final GET per key.
fn drive_pipelined(pc: &mut PipelinedClient, ops: &[KvOp]) -> ReadLog {
    let mut done = Vec::new();
    for op in ops {
        done.extend(match *op {
            KvOp::Put(k, ver) => pc.submit_put(&key_bytes(k), &value_bytes(k, ver)),
            KvOp::Get(k) => pc.submit_get(&key_bytes(k)),
            KvOp::Del(k) => pc.submit_del(&key_bytes(k)),
        });
    }
    for k in 0..KEYS {
        done.extend(pc.submit_get(&key_bytes(k)));
    }
    done.extend(pc.drain());
    done.sort_by_key(|c| c.seq);
    done.into_iter()
        .filter(|c| c.kind == OpKind::Get)
        .map(|c| c.result.expect("pipelined op failed"))
        .collect()
}

/// Replay `ops` through a [`Store`] of `shards` shards with `replicas`
/// backups each, serially (`window == 1`) or pipelined.
fn replay_store(
    seed: u64,
    ops: Vec<KvOp>,
    shards: usize,
    replicas: usize,
    window: usize,
    doorbell: usize,
) -> ReadLog {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let out: Arc<Mutex<ReadLog>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let store = Store::format(
            &f,
            "server",
            StoreLayout::new(256, 1 << 20, true),
            ServerConfig {
                doorbell_batch: doorbell,
                ..ServerConfig::default()
            },
            shards,
            replicas,
        );
        store.start();
        let node = f.add_node("c");
        *out2.lock().unwrap() = if window == 1 {
            let c =
                StoreClient::connect(&f, &node, &store.routes(), ClientConfig::default()).unwrap();
            drive(&c, &ops)
        } else {
            let pcfg = PipelineConfig {
                window,
                doorbell_batch: doorbell,
                client: ClientConfig::default(),
            };
            let mut pc =
                PipelinedClient::connect(&f, &node, &store.routes(), pcfg, "pipe").unwrap();
            let log = drive_pipelined(&mut pc, &ops);
            pc.finish();
            log
        };
        store.shutdown();
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

#[test]
fn sharded_store_is_byte_identical_to_single_server() {
    let ops = op_sequence(42, 400);
    let reference = replay_single(42, ops.clone());
    assert!(!reference.is_empty());
    for shards in shard_counts() {
        for (replicas, window, doorbell) in
            [(0, 1, 0), (0, 1, 16), (1, 1, 16), (0, 16, 16), (1, 16, 0)]
        {
            let got = replay_store(42, ops.clone(), shards, replicas, window, doorbell);
            let tag = format!(
                "{shards} shards, {replicas} replicas, window {window}, doorbell {doorbell}"
            );
            assert_eq!(got.len(), reference.len(), "{tag}: op count diverged");
            for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(r, g, "{tag}: read {i} diverged");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn random_sequences_agree_across_shard_counts(
        seed in any::<u64>(),
        n in 50usize..200,
    ) {
        let ops = op_sequence(seed, n);
        let reference = replay_single(seed, ops.clone());
        for shards in shard_counts() {
            let got = replay_store(seed, ops.clone(), shards, 0, 1, 16);
            prop_assert_eq!(&reference, &got, "{} shards diverged (seed {})", shards, seed);
        }
    }
}

// ------------------------------------------------------- topology matrix

/// A tiny YCSB-A run of the given shape.
fn tiny_spec(shards: usize, replicas: usize, window: usize, nodes: usize) -> ExperimentSpec {
    ExperimentSpec {
        system: SystemKind::EFactory,
        mix: Mix::A,
        value_len: 64,
        key_len: 16,
        clients: 2,
        ops_per_client: 40,
        record_count: 48,
        seed: 5,
        cleaning: Cleaning::Disabled,
        force_clean: false,
        shards,
        doorbell_batch: 8,
        replicas,
        fault_at: None,
        fault_plan: None,
        scrub: false,
        window,
        loc_cache: false,
        snap_readers: 0,
        nodes,
        migrate_at: None,
        exec: None,
    }
}

/// GET and PUT samples `spec` must produce, from replaying each client's
/// op stream.
fn expected_samples(spec: &ExperimentSpec) -> (u64, u64) {
    let wl = WorkloadConfig {
        mix: spec.mix,
        record_count: spec.record_count,
        key_len: spec.key_len,
        value_len: spec.value_len,
        txn_keys: TXN_KEYS,
    };
    let (mut get, mut put) = (0, 0);
    for cid in 0..spec.clients {
        let mut stream = OpStream::new(wl.clone(), spec.seed, cid as u64);
        for _ in 0..spec.ops_per_client {
            match stream.next_op() {
                Op::Get { .. } => get += 1,
                Op::Put { .. } => put += 1,
                Op::Txn { puts } => put += puts.len() as u64,
                Op::SnapRead { keys } => get += keys.len() as u64,
            }
        }
    }
    (get, put)
}

#[test]
fn topology_matrix_runs_every_shape_through_the_harness() {
    let mut shapes = Vec::new();
    for shards in [1, 4] {
        for replicas in [0, 1] {
            for window in [1, 16] {
                shapes.push((shards, replicas, window, 1));
            }
        }
    }
    for window in [1, 16] {
        shapes.push((4, 0, window, 2));
    }
    for (shards, replicas, window, nodes) in shapes {
        let tag = format!("shards {shards}, replicas {replicas}, window {window}, nodes {nodes}");
        let spec = tiny_spec(shards, replicas, window, nodes);
        let r = run(&spec);
        let (get, put) = expected_samples(&spec);
        assert_eq!((r.get.count, r.put.count), (get, put), "{tag}: samples");
        assert_eq!(r.total_ops, get + put, "{tag}: total ops");
        let put_failures: u64 = r
            .counters
            .iter()
            .filter(|(n, _)| n.ends_with("server.put_failures"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(put_failures, 0, "{tag}: failed PUTs");
    }
}
