//! Cross-system semantics: all six systems run the same deterministic
//! workload and must agree on every read — they differ in *performance* and
//! *crash contracts*, never in failure-free semantics.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use efactory::client::RemoteKv;
use efactory_harness::{cluster, Cleaning, ExperimentSpec, SystemKind};
use efactory_sim::Sim;
use efactory_ycsb::{Mix, Op, OpStream, WorkloadConfig};

/// Replay one deterministic YCSB-A stream through a system and collect
/// every GET result.
type ReadLog = Vec<(Vec<u8>, Option<Vec<u8>>)>;

fn replay(system: SystemKind) -> ReadLog {
    use efactory::log::StoreLayout;
    use efactory::server::{Server, ServerConfig};
    use efactory_baselines::{baseline_layout, BaselineClient, BaselineServer};
    use efactory_rnic::{CostModel, Fabric};

    let mut simu = Sim::new(5);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let out: Arc<Mutex<ReadLog>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let layout = baseline_layout(1024, 4 << 20);
        let (kv, shutdown): (Box<dyn RemoteKv>, Box<dyn Fn()>) = match system {
            SystemKind::EFactory => {
                let srv = Server::format(
                    &f,
                    &server_node,
                    StoreLayout::new(1024, 4 << 20, true),
                    ServerConfig::default(),
                );
                srv.start(&f);
                let c = efactory::client::Client::connect(
                    &f,
                    &f.add_node("c"),
                    &server_node,
                    srv.desc(),
                    efactory::client::ClientConfig::default(),
                )
                .unwrap();
                (Box::new(c), Box::new(move || srv.shutdown()))
            }
            other => {
                let kind = other
                    .baseline()
                    .expect("eFactory w/o hr is not in this test");
                let srv = BaselineServer::format(kind, &f, &server_node, layout);
                srv.start(&f);
                let c = BaselineClient::connect(&f, &f.add_node("c"), &srv).unwrap();
                (Box::new(c), Box::new(move || srv.shutdown()))
            }
        };
        let results = drive_stream(kv.as_ref());
        shutdown();
        *out2.lock().unwrap() = results;
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

/// The shared workload: the seeded YCSB-A stream, logging every GET, then
/// one final GET per record — the store's final KV image. Every system
/// under comparison replays exactly this.
fn drive_stream(kv: &dyn RemoteKv) -> ReadLog {
    let wl = WorkloadConfig {
        mix: Mix::A,
        record_count: 64,
        key_len: 16,
        value_len: 96,
        txn_keys: 4,
    };
    let mut stream = OpStream::new(wl.clone(), 77, 0);
    let mut results = Vec::new();
    for _ in 0..300 {
        match stream.next_op() {
            Op::Put { key, value } => kv.kv_put(&key, &value).unwrap(),
            Op::Get { key } => {
                let v = kv.kv_get(&key).unwrap();
                results.push((key, v));
            }
            Op::Txn { .. } | Op::SnapRead { .. } => {
                unreachable!("Mix::A never emits transactional ops")
            }
        }
    }
    for id in 0..wl.record_count {
        let key = wl.key(id);
        let v = kv.kv_get(&key).unwrap();
        results.push((key, v));
    }
    results
}

/// Replay the same stream through a sharded eFactory store.
fn replay_sharded(shards: usize, doorbell: usize) -> ReadLog {
    use efactory::client::ClientConfig;
    use efactory::log::StoreLayout;
    use efactory::server::ServerConfig;
    use efactory::store::{Store, StoreClient};
    use efactory_rnic::{CostModel, Fabric};

    let mut simu = Sim::new(5);
    let fabric = Fabric::new(CostModel::default());
    let out: Arc<Mutex<ReadLog>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let srv = Store::format(
            &f,
            "server",
            StoreLayout::new(1024, 4 << 20, true),
            ServerConfig {
                doorbell_batch: doorbell,
                ..ServerConfig::default()
            },
            shards,
            0,
        );
        srv.start();
        let c = StoreClient::connect(&f, &f.add_node("c"), &srv.routes(), ClientConfig::default())
            .unwrap();
        let results = drive_stream(&c);
        srv.shutdown();
        *out2.lock().unwrap() = results;
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

#[test]
fn all_systems_agree_on_failure_free_reads() {
    let reference = replay(SystemKind::EFactory);
    assert!(!reference.is_empty());
    for system in [
        SystemKind::Saw,
        SystemKind::Imm,
        SystemKind::Erda,
        SystemKind::Forca,
        SystemKind::Rpc,
    ] {
        let got = replay(system);
        assert_eq!(
            got.len(),
            reference.len(),
            "{system:?}: different op interleaving?"
        );
        for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(r.0, g.0, "{system:?}: op {i} reads different key");
            assert_eq!(r.1, g.1, "{system:?}: op {i} value mismatch");
        }
    }
}

/// Sharding must not change semantics either: eFactory at every shard
/// count in the sweep (doorbell batching on and off) converges to the same
/// mid-stream reads AND the same final KV image as the unsharded server —
/// which `all_systems_agree_on_failure_free_reads` already ties to every
/// baseline.
#[test]
fn sharded_efactory_converges_with_all_systems() {
    let shard_counts: Vec<usize> = match std::env::var("EF_TEST_SHARDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("EF_TEST_SHARDS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    };
    let reference = replay(SystemKind::EFactory);
    assert!(!reference.is_empty());
    for shards in shard_counts {
        for doorbell in [0usize, 16] {
            let got = replay_sharded(shards, doorbell);
            assert_eq!(
                got.len(),
                reference.len(),
                "{shards} shards (doorbell {doorbell}): different op interleaving?"
            );
            for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(r.0, g.0, "{shards} shards: op {i} reads different key");
                assert_eq!(
                    r.1, g.1,
                    "{shards} shards (doorbell {doorbell}): op {i} value mismatch"
                );
            }
        }
    }
}

/// The simulation is deterministic down to the wire: two identical sharded
/// runs must produce *exactly* the same `fabric.*` counters (sends, RDMA
/// verbs, bytes on the wire) — and, in fact, the same full counter
/// snapshot.
#[test]
fn fabric_counters_reproducible_across_identical_runs() {
    let spec = ExperimentSpec {
        system: SystemKind::EFactory,
        mix: Mix::A,
        value_len: 64,
        key_len: 16,
        clients: 3,
        ops_per_client: 40,
        record_count: 32,
        seed: 9,
        cleaning: Cleaning::Disabled,
        force_clean: false,
        shards: 4,
        doorbell_batch: 16,
        replicas: 0,
        fault_at: None,
        fault_plan: None,
        scrub: false,
        window: 1,
        loc_cache: false,
        snap_readers: 0,
        nodes: 1,
        migrate_at: None,
        exec: None,
    };
    let a = cluster::run(&spec);
    let b = cluster::run(&spec);
    let fabric_only = |r: &cluster::RunResult| -> Vec<(String, u64)> {
        r.counters
            .iter()
            .filter(|(name, _)| name.starts_with("fabric."))
            .cloned()
            .collect()
    };
    let fa = fabric_only(&a);
    assert!(!fa.is_empty(), "no fabric.* counters in the snapshot");
    assert_eq!(fa, fabric_only(&b), "fabric counters diverged across runs");
    assert_eq!(a.counters, b.counters, "full counter snapshot diverged");
}

/// The harness end-to-end across mixed workloads and all systems, with
/// op-count accounting.
#[test]
fn harness_accounting_is_exact_for_all_mixes() {
    let mut expected_ops: HashMap<&str, u64> = HashMap::new();
    for mix in [Mix::C, Mix::B, Mix::A, Mix::UpdateOnly] {
        let spec = ExperimentSpec {
            system: SystemKind::EFactory,
            mix,
            value_len: 64,
            key_len: 16,
            clients: 3,
            ops_per_client: 40,
            record_count: 32,
            seed: 9,
            cleaning: Cleaning::Disabled,
            force_clean: false,
            shards: 1,
            doorbell_batch: 0,
            replicas: 0,
            fault_at: None,
            fault_plan: None,
            scrub: false,
            window: 1,
            loc_cache: false,
            snap_readers: 0,
            nodes: 1,
            migrate_at: None,
            exec: None,
        };
        let r = cluster::run(&spec);
        assert_eq!(r.total_ops, 120);
        expected_ops.insert(mix.label(), r.get.count);
        match mix {
            Mix::C => assert_eq!(r.get.count, 120),
            Mix::UpdateOnly => assert_eq!(r.put.count, 120),
            _ => {
                assert!(r.get.count > 0 && r.put.count > 0);
                assert_eq!(r.get.count + r.put.count, 120);
            }
        }
    }
}

/// eFactory with cleaning enabled agrees with eFactory without cleaning on
/// the same single-client stream (cleaning is performance machinery, not
/// semantics).
#[test]
fn cleaning_does_not_change_semantics() {
    use efactory::client::{Client, ClientConfig};
    use efactory::log::StoreLayout;
    use efactory::server::{Server, ServerConfig};
    use efactory_rnic::{CostModel, Fabric};

    let run = |clean: bool| -> Vec<Option<Vec<u8>>> {
        let mut simu = Sim::new(11);
        let fabric = Fabric::new(CostModel::default());
        let server_node = fabric.add_node("server");
        let layout = if clean {
            StoreLayout::new(512, 128 * 1024, true) // small: forces cleaning
        } else {
            StoreLayout::new(512, 16 << 20, false)
        };
        let cfg = ServerConfig {
            clean_enabled: clean,
            clean_threshold: 0.5,
            clean_poll: efactory_sim::micros(5),
            ..ServerConfig::default()
        };
        let server = Server::format(&fabric, &server_node, layout, cfg);
        let out: Arc<Mutex<Vec<Option<Vec<u8>>>>> = Arc::default();
        let out2 = Arc::clone(&out);
        let f = Arc::clone(&fabric);
        simu.spawn("main", move || {
            let shared = server.start(&f);
            let c = Client::connect(
                &f,
                &f.add_node("c"),
                &server_node,
                server.desc(),
                ClientConfig::default(),
            )
            .unwrap();
            let mut reads = Vec::new();
            for round in 0..20u32 {
                for k in 0..24u32 {
                    c.put(
                        format!("k{k:02}").as_bytes(),
                        format!("r{round:02}k{k:02}{}", "z".repeat(200)).as_bytes(),
                    )
                    .unwrap();
                }
                for k in 0..24u32 {
                    reads.push(c.get(format!("k{k:02}").as_bytes()).unwrap());
                }
            }
            if clean {
                assert!(
                    shared
                        .stats
                        .cleanings
                        .load(std::sync::atomic::Ordering::Relaxed)
                        >= 1,
                    "cleaning never triggered in the cleaning run"
                );
            }
            server.shutdown();
            *out2.lock().unwrap() = reads;
        });
        simu.run().expect_ok();
        let v = out.lock().unwrap().clone();
        v
    };
    assert_eq!(run(false), run(true));
}
