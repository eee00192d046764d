//! Replication + failover acceptance tests.
//!
//! * **Promoted equivalence**: a client that never observes the failure
//!   reads the same values from the promoted backup as from a never-failed
//!   primary.
//! * **Transparent failover**: a `StoreClient` mid-workload rides through
//!   the primary's death — its operations succeed against the promoted
//!   backup with no application-visible error — and a client that
//!   connects after the promotion reaches the promoted backup directly.
//! * **Cross-shard transactions across failover**: a 2PC transaction whose
//!   participant's primary dies mid-protocol retries whole on the promoted
//!   backup and commits every key, never half of them.
//! * **Determinism**: two identical replicated runs (fault injection
//!   included) produce byte-equal `fabric.*`/`repl.*` counter snapshots.

use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig, RPC_DEADLINE};
use efactory::log::StoreLayout;
use efactory::repl::{Backup, PROMOTED};
use efactory::server::{ServerConfig, ServerStats};
use efactory::store::{Store, StoreClient};
use efactory::{key_shard, StoreError, TxnKv};
use efactory_obs::Counter;
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The backup of a one-shard replicated store.
fn backup(store: &Store) -> &Backup {
    store.shard(0).backup().expect("replicated store")
}

/// Run the workload and read every key back at the end. With `fail: true`
/// the primary is power-failed after the backup caught up and the final
/// reads go to the promoted backup; with `fail: false` they go to the
/// never-failed primary.
fn read_after_optional_failover(fail: bool, seed: u64) -> Vec<Option<Vec<u8>>> {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let node = fabric.add_node("server");
    let server = Store::format_on(&fabric, &node, layout(), cfg(), 1);

    let out: Arc<std::sync::Mutex<Vec<Option<Vec<u8>>>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start();
        let c = Client::connect(
            &f,
            &f.add_node("client"),
            server.shard(0).node(),
            server.shard(0).server().desc(),
            ClientConfig::default(),
        )
        .unwrap();
        for i in 0..KEYS {
            c.put(&key(i), &value(i)).unwrap();
            c.get(&key(i)).unwrap().unwrap(); // read-back forces durability
        }
        // Wait until the backup has verified + persisted every object.
        let deadline = sim::now() + sim::millis(50);
        while backup(&server).stats().applied_objects.get() < KEYS as u64 {
            assert!(sim::now() < deadline, "backup never caught up");
            sim::sleep(sim::micros(50));
        }

        type ReadFn = Box<dyn Fn(&[u8]) -> Option<Vec<u8>>>;
        let reads: ReadFn = if fail {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11);
            f.crash_node(server.shard(0).node(), CrashSpec::DropAll, &mut rng);
            // Promotion is autonomous: the backup notices the dead primary
            // and replays its mirrored log. Wait for it to take the seat.
            let deadline = sim::now() + sim::millis(200);
            let promoted = loop {
                let seat = server.seat(0);
                if seat.owner == PROMOTED {
                    break seat.server;
                }
                assert!(sim::now() < deadline, "backup never promoted");
                sim::sleep(sim::micros(100));
            };
            assert_eq!(backup(&server).stats().promotions.get(), 1);
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
        let mut vals = Vec::new();
        for i in 0..KEYS {
            vals.push(reads(&key(i)));
        }
        server.shutdown();
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
    let node = fabric.add_node("server");
    let server = Store::format_on(&fabric, &node, layout(), cfg(), 1);

    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start();
        let c = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &server.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        // First half of the workload against the live primary.
        for i in 0..KEYS / 2 {
            c.put(&key(i), &value(i)).unwrap();
            c.get(&key(i)).unwrap().unwrap();
        }
        let deadline = sim::now() + sim::millis(50);
        while backup(&server).stats().applied_objects.get() < (KEYS / 2) as u64 {
            assert!(sim::now() < deadline, "backup never caught up");
            sim::sleep(sim::micros(50));
        }
        // Kill the primary at a chosen instant while the client keeps
        // operating — the fault-injection hook runs in its own process.
        f.schedule_crash(
            server.shard(0).node(),
            sim::now() + sim::micros(3),
            CrashSpec::DropAll,
            seed ^ 0xDEAD,
        );
        // Second half: some of these hit the dying primary and must fail
        // over transparently to the promoted backup.
        for i in KEYS / 2..KEYS {
            c.put(&key(i), &value(i)).unwrap();
        }
        assert!(c.failovers() >= 1, "client never failed over");
        assert_eq!(backup(&server).stats().promotions.get(), 1);
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
        // backup straight from the seat table: no failover needed.
        let late = StoreClient::connect(
            &f,
            &f.add_node("late-client"),
            &server.routes(),
            ClientConfig::default(),
        )
        .unwrap();
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
        assert_eq!(late.failovers(), 0, "a post-promotion connect failed over");
        server.shutdown();
    });
    simu.run().expect_ok();
}

/// What one cross-shard transaction across a primary's death produced.
struct TxnAcrossFailover {
    result: Result<u64, StoreError>,
    elapsed: sim::Nanos,
    failovers: u64,
    /// Each shard's key as a client connected afterwards reads it.
    reads: Vec<Option<Vec<u8>>>,
}

/// A 2-shard store with one backup per shard runs one 2-key
/// `txn_put_all`, one key per shard, over keys that hold `old-{shard}`.
/// A watcher power-fails shard `victim`'s primary the instant shard
/// `trigger`'s `pick` counter moves.
fn txn_across_failover(
    victim: usize,
    trigger: usize,
    pick: fn(&ServerStats) -> &Counter,
) -> TxnAcrossFailover {
    let mut simu = Sim::new(29);
    let fabric = Fabric::new(CostModel::default());
    let store = Store::format(&fabric, "txf", layout(), cfg(), 2, 1);
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
        let deadline = sim::now() + sim::millis(50);
        while (0..2).any(|g| store.backup(g).unwrap().stats().applied_objects.get() < 1) {
            assert!(sim::now() < deadline, "backups never caught up");
            sim::sleep(sim::micros(50));
        }
        let watched = store.shard(trigger).server().clone();
        let dying = store.shard(victim).node().clone();
        let before = pick(&watched.shared().stats).get();
        let fw = Arc::clone(&f);
        sim::spawn("watcher", move || {
            let deadline = sim::now() + sim::millis(10);
            while pick(&watched.shared().stats).get() == before {
                if sim::now() >= deadline {
                    return;
                }
                sim::sleep(20);
            }
            fw.crash_node(
                &dying,
                CrashSpec::DropAll,
                &mut StdRng::seed_from_u64(0xDEAD),
            );
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
            failovers: c.failovers(),
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
    assert!(t.failovers >= 1, "the client never failed over");
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

#[test]
fn replicated_runs_are_byte_identical() {
    use efactory_harness::cluster::{run, Cleaning, ExperimentSpec, SystemKind};
    use efactory_ycsb::Mix;

    // A full replicated harness run with mid-window fault injection: same
    // spec twice must produce byte-equal counter snapshots — fabric.*,
    // repl.*, server.*, everything.
    let spec = ExperimentSpec {
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
        shards: 1,
        doorbell_batch: 8,
        replicas: 1,
        fault_at: Some(sim::micros(40)),
        fault_plan: None,
        scrub: false,
        window: 1,
        loc_cache: false,
        snap_readers: 0,
        nodes: 1,
        migrate_at: None,
        exec: None,
    };
    let a = run(&spec);
    let b = run(&spec);
    assert_eq!(
        a.counters, b.counters,
        "replicated runs with fault injection must replay byte-identically"
    );
    let get = |name: &str| {
        a.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
    };
    // Loaded records reach the backup through its apply step, not the
    // mirror.
    assert!(
        get("repl.applied_objects") >= 64,
        "the load was not applied on the backup"
    );
    assert_eq!(get("repl.promotions"), 1, "fault must promote the backup");
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
}
