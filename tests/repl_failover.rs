//! Replication + failover acceptance tests.
//!
//! Every store with backups runs the metadata service, which alone decides
//! who serves a shard: a backup is promoted only through a committed
//! `NodeDown` for its primary's data node, and only while it is in sync.
//! Data nodes die through `Store::crash_data_node` (agent plus seats): an
//! agent that keeps heartbeating keeps its node alive.
//!
//! * **Promoted equivalence**: a client that never observes the failure
//!   reads the same values from the promoted backup as from a never-failed
//!   primary.
//! * **Transparent failover**: a `StoreClient` mid-workload rides through
//!   the primary's death — its operations succeed against the promoted
//!   backup with no application-visible error — and a client that
//!   connects after the promotion reaches the promoted backup directly.
//! * **Partition, then crash**: a cut between primary and backup takes the
//!   backup out of sync before the primary dies, so nothing read back
//!   before the crash is lost.
//! * **Deposed primary**: a primary whose mirror failed acks no write once
//!   its shard has moved to the backup, even if its node is heard again
//!   before the promotion fences it.
//! * **Cross-shard transactions across failover**: a 2PC transaction whose
//!   participant's primary dies mid-protocol retries whole on the promoted
//!   backup and commits every key, never half of them.
//! * **Harness runs**: two identical replicated runs (fault injection
//!   included) produce byte-equal counter snapshots, and a run on two data
//!   nodes promotes exactly the shards the failed node owned.
//!
//! `EF_TEST_CHAOS` is a seed, as in every suite: a non-zero value shifts
//! every crash instant by `seed % 5 µs` (the transaction tests crash when
//! a counter moves, not at an instant).

use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig, RPC_DEADLINE};
use efactory::log::StoreLayout;
use efactory::repl::Backup;
use efactory::server::{ServerConfig, ServerStats};
use efactory::store::{Store, StoreClient};
use efactory::{key_shard, StoreError, TxnKv};
use efactory_harness::cluster::{run, Cleaning, ExperimentSpec, SystemKind};
use efactory_obs::Counter;
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::{Nanos, Sim};
use efactory_ycsb::Mix;

const KEYS: usize = 24;

fn key(i: usize) -> Vec<u8> {
    format!("repl-key-{i:04}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!("repl-value-{i:04}-abcdefghijklmnopqrstuvwxyz").into_bytes()
}

fn layout() -> StoreLayout {
    StoreLayout::new(256, 256 * 1024, false)
}

fn cfg() -> ServerConfig {
    ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    }
}

/// How far `EF_TEST_CHAOS` shifts every crash instant: `seed % 5 µs`.
fn shift() -> Nanos {
    std::env::var("EF_TEST_CHAOS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(0, |seed| seed % sim::micros(5))
}

/// The backup of shard `g`.
fn backup(store: &Store, g: usize) -> &Backup {
    store.backup(g).expect("replicated store")
}

/// Counter `name` of the registry `store` reports into.
fn counter(store: &Store, name: &str) -> u64 {
    let snapshot = store.seat(0).server.shared().cfg.obs.registry.snapshot();
    snapshot
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("counter {name} missing"))
}

/// Wait until the backup of every shard `store` has applied `n` objects.
fn await_applied(store: &Store, n: u64) {
    let deadline = sim::now() + sim::millis(50);
    while (0..store.shards()).any(|g| backup(store, g).stats().applied_objects.get() < n) {
        assert!(sim::now() < deadline, "backup never caught up");
        sim::sleep(sim::micros(50));
    }
}

/// Power-fail data node `i` of `store` at `at`, from a controller process.
fn crash_at(store: &Arc<Store>, i: usize, at: Nanos, seed: u64) {
    let store = Arc::clone(store);
    sim::spawn("crash-controller", move || {
        sim::sleep_until(at);
        store.crash_data_node(i, CrashSpec::DropAll, seed);
    });
}

/// Run the workload and read every key back at the end. With `fail: true`
/// the primary's data node is power-failed after the backup caught up and
/// the final reads go to the promoted backup; with `fail: false` they go
/// to the never-failed primary.
fn read_after_optional_failover(fail: bool, seed: u64) -> Vec<Option<Vec<u8>>> {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let store = Arc::new(Store::format(&fabric, "server", layout(), cfg(), 1, 1));

    let out: Arc<Mutex<Vec<Option<Vec<u8>>>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        store.start();
        let primary = store.seat(0).server;
        let c = Client::connect(
            &f,
            &f.add_node("client"),
            &primary.shared().node,
            primary.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        for i in 0..KEYS {
            c.put(&key(i), &value(i)).unwrap();
            c.get(&key(i)).unwrap().unwrap(); // read-back forces durability
        }
        await_applied(&store, KEYS as u64);

        type ReadFn = Box<dyn Fn(&[u8]) -> Option<Vec<u8>>>;
        let reads: ReadFn = if fail {
            crash_at(&store, 0, sim::now() + shift(), seed ^ 0xFA11);
            // The metadata service commits the node's death and promotes
            // the backup; its agent installs it in the seat.
            let to = backup(&store, 0).data_node();
            let deadline = sim::now() + sim::millis(200);
            while store.owner_of(0) != to {
                assert!(sim::now() < deadline, "backup never promoted");
                sim::sleep(sim::micros(100));
            }
            let promoted = store.seat(0).server;
            assert_eq!(backup(&store, 0).stats().promotions.get(), 1);
            assert_eq!(counter(&store, "meta.promotions"), 1);
            let c2 = Client::connect(
                &f,
                &f.add_node("client2"),
                &promoted.shared().node,
                promoted.desc(),
                ClientConfig::default(),
            )
            .unwrap();
            Box::new(move |k| c2.get(k).unwrap())
        } else {
            Box::new(move |k| c.get(k).unwrap())
        };
        let vals = (0..KEYS).map(|i| reads(&key(i))).collect();
        store.shutdown();
        *out2.lock().unwrap() = vals;
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

#[test]
fn promoted_backup_reads_equal_never_failed_primary() {
    let promoted = read_after_optional_failover(true, 7);
    let primary = read_after_optional_failover(false, 7);
    assert_eq!(promoted, primary, "promotion changed observable values");
    for (i, v) in promoted.iter().enumerate() {
        assert_eq!(
            v.as_deref(),
            Some(&value(i)[..]),
            "key {i} wrong after promotion"
        );
    }
}

#[test]
fn repl_client_rides_through_primary_death() {
    let seed = 11u64;
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let store = Arc::new(Store::format(&fabric, "server", layout(), cfg(), 1, 1));

    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        store.start();
        let c = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &store.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        // First half of the workload against the live primary.
        for i in 0..KEYS / 2 {
            c.put(&key(i), &value(i)).unwrap();
            c.get(&key(i)).unwrap().unwrap();
        }
        await_applied(&store, (KEYS / 2) as u64);
        // Kill the primary's data node at a chosen instant while the
        // client keeps operating.
        crash_at(
            &store,
            0,
            sim::now() + sim::micros(3) + shift(),
            seed ^ 0xDEAD,
        );
        // Second half: some of these hit the dying primary and must ride
        // through to the promoted backup.
        for i in KEYS / 2..KEYS {
            c.put(&key(i), &value(i)).unwrap();
        }
        assert_eq!(counter(&store, "meta.promotions"), 1);
        assert_eq!(backup(&store, 0).stats().promotions.get(), 1);
        // Everything readable after failover: pre-crash keys were mirrored,
        // post-crash keys were written to the promoted backup.
        for i in 0..KEYS {
            assert_eq!(
                c.get(&key(i)).unwrap().as_deref(),
                Some(&value(i)[..]),
                "key {i} lost across failover"
            );
        }
        // A client that connects after the promotion dials the promoted
        // backup straight from the seat table: it never re-reads the
        // placement.
        let late = StoreClient::connect(
            &f,
            &f.add_node("late-client"),
            &store.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        let refreshes = store.stats().client_refreshes.get();
        for i in 0..KEYS {
            assert_eq!(
                late.get(&key(i)).unwrap().as_deref(),
                Some(&value(i)[..]),
                "key {i} unreadable through a post-promotion connect"
            );
        }
        late.put(b"late-key", b"late-value").unwrap();
        assert_eq!(
            late.get(b"late-key").unwrap().as_deref(),
            Some(&b"late-value"[..])
        );
        assert_eq!(
            store.stats().client_refreshes.get(),
            refreshes,
            "a post-promotion connect re-read the placement"
        );
        store.shutdown();
    });
    simu.run().expect_ok();
}

/// ROADMAP item 10's scenario. One shard, one backup: PUT `k1` and read
/// it back; cut the primary–backup link for 2 ms, writing and reading
/// `k2` during the cut; heal, write and read `k3`; then power-fail the
/// primary's data node. The failed mirror took the backup out of sync, so
/// the metadata service never promotes it: every later read of `k2`/`k3`
/// errors or returns what was read back, and after a restart of the data
/// node all three keys read back.
#[test]
fn partition_then_crash_loses_no_read_back_value() {
    let seed = 7u64;
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let store = Arc::new(Store::format(&fabric, "server", layout(), cfg(), 1, 1));

    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        store.start();
        let c = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &store.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        let kvs: [(&[u8], &[u8]); 3] = [(b"k1", b"v1"), (b"k2", b"v2"), (b"k3", b"v3")];
        let put_read = |(k, v): (&[u8], &[u8])| {
            c.put(k, v).unwrap();
            assert_eq!(c.get(k).unwrap().as_deref(), Some(v), "{k:?} not read back");
        };
        put_read(kvs[0]);
        await_applied(&store, 1);

        let primary = store.seat(0).server.shared().node.clone();
        let backup_node = backup(&store, 0).node().clone();
        f.fail_link(&primary, &backup_node);
        let cut = sim::now();
        put_read(kvs[1]);
        sim::sleep_until(cut + sim::millis(2));
        f.heal_link(&primary, &backup_node);
        put_read(kvs[2]);
        let stats = backup(&store, 0).stats();
        assert_eq!(
            stats.mirror_failures.get(),
            1,
            "the cut never failed the mirror"
        );

        crash_at(&store, 0, sim::now() + shift(), seed ^ 0xC0DE);
        let end = sim::now() + sim::millis(5);
        while sim::now() < end {
            for (k, v) in &kvs[1..] {
                if let Ok(got) = c.get(k) {
                    assert_eq!(
                        got.as_deref(),
                        Some(*v),
                        "{k:?} rolled back after the crash"
                    );
                }
            }
            sim::sleep(sim::micros(500));
        }
        assert_eq!(
            counter(&store, "meta.promotions"),
            0,
            "a stale backup was promoted"
        );
        assert_eq!(stats.promotions.get(), 0);

        store.restart_data_node(0);
        for (k, v) in kvs {
            assert_eq!(c.get(k).unwrap().as_deref(), Some(v), "{k:?} lost");
        }
        store.shutdown();
    });
    simu.run().expect_ok();
}

/// What one cross-shard transaction across a primary's death produced.
struct TxnAcrossFailover {
    result: Result<u64, StoreError>,
    elapsed: sim::Nanos,
    promotions: u64,
    /// Each shard's key as a client connected afterwards reads it.
    reads: Vec<Option<Vec<u8>>>,
}

/// A primary whose mirror failed acks no write once a committed
/// `NodeDown` has moved its shard to the backup, even when its node's
/// heartbeats come back before the backup's agent fences it: the promoted
/// backup would not hold that write. Node 0's agent is cut off from the
/// metadata service while the mirror dies, so `BackupLost` cannot commit
/// and the in-sync backup is promoted; node 1's agent is cut off from just
/// before `NodeDown(0)` commits until 150 µs after, so node 0's agent hears
/// the new placement first.
#[test]
fn deposed_primary_with_a_dead_mirror_acks_no_write() {
    let seed = 9u64;
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let store = Arc::new(Store::format(&fabric, "server", layout(), cfg(), 1, 1));

    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        store.start();
        let c = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &store.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        c.put(b"k1", b"v1").unwrap();
        await_applied(&store, 1);
        // Cut or heal data node `i`'s agent's links to every metadata
        // replica.
        fn set_agent_links(store: &Store, i: usize, up: bool) {
            for m in store.meta_nodes() {
                if up {
                    store.fabric().heal_link(store.agent_node(i), m);
                } else {
                    store.fabric().fail_link(store.agent_node(i), m);
                }
            }
        }

        let cut = sim::now();
        set_agent_links(&store, 0, false);
        let primary = store.seat(0).server.shared().node.clone();
        f.fail_link(&primary, backup(&store, 0).node());
        c.put(b"k2", b"v2").unwrap();
        sim::sleep_until(cut + sim::micros(350));
        set_agent_links(&store, 1, false);
        while counter(&store, "meta.node_downs") == 0 {
            assert!(
                sim::now() < cut + sim::millis(1),
                "node 0 never declared down"
            );
            sim::sleep(sim::micros(1));
        }
        assert_eq!(backup(&store, 0).stats().mirror_failures.get(), 1);
        set_agent_links(&store, 0, true);
        let healer = Arc::clone(&store);
        let heal_at = sim::now() + sim::micros(150);
        sim::spawn("heal-node-1", move || {
            sim::sleep_until(heal_at);
            set_agent_links(&healer, 1, true);
        });

        sim::sleep(sim::micros(80));
        c.put(b"k3", b"v3").unwrap();
        while store.owner_of(0) != 1 {
            assert!(sim::now() < cut + sim::millis(5), "backup never promoted");
            sim::sleep(sim::micros(10));
        }
        assert_eq!(
            counter(&store, "meta.node_downs"),
            1,
            "node 1 declared down"
        );
        for (k, v) in [(&b"k1"[..], &b"v1"[..]), (b"k3", b"v3")] {
            assert_eq!(
                c.get(k).unwrap().as_deref(),
                Some(v),
                "{k:?} acked, then lost"
            );
        }
        store.shutdown();
    });
    simu.run().expect_ok();
}

/// Two data nodes, two shards and one backup per shard (shard `g` on node
/// `g`, its backup on the other node) run one 2-key `txn_put_all`, one key
/// per shard, over keys that hold `old-{shard}`. A watcher power-fails
/// data node `victim` the instant shard `trigger`'s `pick` counter moves.
fn txn_across_failover(
    victim: usize,
    trigger: usize,
    pick: fn(&ServerStats) -> &Counter,
) -> TxnAcrossFailover {
    let mut simu = Sim::new(29);
    let fabric = Fabric::new(CostModel::default());
    let store = Arc::new(Store::format_nodes(&fabric, 2, 2, 1, layout(), cfg()));
    let keys: Vec<Vec<u8>> = (0..2)
        .map(|g| {
            (0..)
                .map(key)
                .find(|k| key_shard(k, 2) == g)
                .expect("some key routes to every shard")
        })
        .collect();
    let out: Arc<Mutex<Option<TxnAcrossFailover>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        store.start();
        let c = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &store.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        for (g, k) in keys.iter().enumerate() {
            c.put(k, format!("old-{g}").as_bytes()).unwrap();
            c.get(k).unwrap().unwrap(); // read-back forces durability
        }
        await_applied(&store, 1);
        let watched = store.seat(trigger).server;
        let before = pick(&watched.shared().stats).get();
        let dying = Arc::clone(&store);
        sim::spawn("watcher", move || {
            let deadline = sim::now() + sim::millis(10);
            while pick(&watched.shared().stats).get() == before {
                if sim::now() >= deadline {
                    return;
                }
                sim::sleep(20);
            }
            dying.crash_data_node(victim, CrashSpec::DropAll, 0xDEAD);
        });
        let puts: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .enumerate()
            .map(|(g, k)| (k.clone(), format!("new-{g}").into_bytes()))
            .collect();
        let t0 = sim::now();
        let result = c.txn_put_all(&puts);
        let elapsed = sim::now() - t0;
        let reader = StoreClient::connect(
            &f,
            &f.add_node("reader"),
            &store.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        let reads = keys.iter().map(|k| reader.get(k).unwrap()).collect();
        *out2.lock().unwrap() = Some(TxnAcrossFailover {
            result,
            elapsed,
            promotions: counter(&store, "meta.promotions"),
            reads,
        });
        store.shutdown();
    });
    simu.run().expect_ok();
    let outcome = out.lock().unwrap().take().expect("the run finished");
    outcome
}

/// Both keys read their new values.
fn assert_all_new(t: &TxnAcrossFailover) {
    assert!(t.result.is_ok(), "txn failed: {:?}", t.result);
    assert_eq!(t.promotions, 1, "the dead node's shard was not promoted");
    for (g, v) in t.reads.iter().enumerate() {
        assert_eq!(
            v.as_deref(),
            Some(format!("new-{g}").as_bytes()),
            "shard {g} lost its part of the transaction"
        );
    }
}

#[test]
fn txn_commits_whole_when_a_prepared_participant_dies_before_its_decide() {
    // Shard 0 is committing; shard 1 is prepared and not yet decided.
    let t = txn_across_failover(1, 0, |s| &s.txn_decides);
    assert_all_new(&t);
}

#[test]
fn txn_commits_whole_when_a_prepared_participant_dies_mid_prepare() {
    // Shard 0 is prepared; shard 1 is preparing.
    let t = txn_across_failover(0, 1, |s| &s.txn_prepares);
    assert_all_new(&t);
    // Shard 0's prepare was in flight when its primary died, so the
    // attempt waited out one RPC deadline before failing over. It then
    // aborted shard 1's prepare, so the retry never waited for the
    // presumed-abort sweep to free its in-doubt head.
    let timeout = cfg().txn_abort_timeout;
    assert!(
        t.elapsed < RPC_DEADLINE + timeout / 5,
        "took {} ns; the RPC deadline is {RPC_DEADLINE} ns, the abort timeout {timeout} ns",
        t.elapsed
    );
}

/// A tiny replicated YCSB-A harness spec whose fault power-fails data
/// node 0 40 µs into the window.
fn faulted_spec(nodes: usize, shards: usize) -> ExperimentSpec {
    ExperimentSpec {
        system: SystemKind::EFactory,
        mix: Mix::A,
        value_len: 128,
        key_len: 16,
        clients: 4,
        ops_per_client: 80,
        record_count: 64,
        seed: 23,
        cleaning: Cleaning::Disabled,
        force_clean: false,
        shards,
        doorbell_batch: 8,
        replicas: 1,
        fault_at: Some(sim::micros(40) + shift()),
        fault_plan: None,
        scrub: false,
        window: 1,
        loc_cache: false,
        snap_readers: 0,
        nodes,
        migrate_at: None,
        exec: None,
    }
}

/// Counter `name` of a harness run's snapshot.
fn run_counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
}

#[test]
fn replicated_runs_are_byte_identical() {
    // A full replicated harness run with mid-window fault injection: same
    // spec twice must produce byte-equal counter snapshots — fabric.*,
    // repl.*, server.*, meta.*, everything.
    let spec = faulted_spec(1, 1);
    let a = run(&spec);
    let b = run(&spec);
    assert_eq!(
        a.counters, b.counters,
        "replicated runs with fault injection must replay byte-identically"
    );
    // Shard 0's backup sits on the backup-only data node 1. Loaded records
    // reach it through its apply step, not the mirror.
    assert!(
        run_counter(&a.counters, "n1.g0.repl.applied_objects") >= 64,
        "the load was not applied on the backup"
    );
    assert_eq!(run_counter(&a.counters, "n1.g0.repl.promotions"), 1);
    assert_eq!(
        run_counter(&a.counters, "meta.promotions"),
        1,
        "fault must promote the backup"
    );
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
}

#[test]
fn two_node_run_promotes_every_shard_node_zero_owned() {
    // Node 0 owns shard 0 and holds shard 1's backup; node 1 owns shard 1
    // and holds shard 0's. Killing node 0 promotes shard 0 only, and every
    // op still succeeds (the harness fails the run on any error).
    let spec = faulted_spec(2, 2);
    let r = run(&spec);
    assert_eq!(r.total_ops, (spec.clients * spec.ops_per_client) as u64);
    let owned_by_0 = (0..spec.shards).filter(|g| g % spec.nodes == 0).count();
    assert_eq!(
        run_counter(&r.counters, "meta.promotions"),
        owned_by_0 as u64
    );
    assert_eq!(run_counter(&r.counters, "n1.g0.repl.promotions"), 1);
    assert_eq!(run_counter(&r.counters, "n0.g1.repl.promotions"), 0);
}
