//! Crash-at-every-instant sweep: power-fail the server at a grid of virtual
//! instants spanning an entire PUT (alloc RPC → RDMA value write →
//! background verification), recover, and check the paper's consistency
//! contract at every point:
//!
//! * the recovered value of the key is **old or new, never torn**;
//! * a value that was read back before the crash never disappears
//!   (monotonic reads);
//! * the recovered store passes the structural consistency check and stays
//!   writable.
//!
//! Determinism makes this sweep exact: the same seed reproduces the same
//! interleaving, so each grid point examines one precise cut of the
//! protocol.
//!
//! `EF_TEST_CHAOS` is a seed, as in every suite: a non-zero value adds a
//! second pass of the migration sweeps (that seed as the `Sim` seed, every
//! crash instant shifted by `seed % 5 µs`) and of the three mid-clean
//! sweeps (their grid shifted by `seed % step`).

use std::sync::Arc;

use efactory::client::{Client, ClientConfig};
use efactory::log::StoreLayout;
use efactory::recovery;
use efactory::server::{Server, ServerConfig};
use efactory::store::{Routes, Store, StoreClient};
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::{Nanos, Sim};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `EF_TEST_CHAOS` as a seed: `Some` when it is set and non-zero.
fn chaos_seed() -> Option<u64> {
    std::env::var("EF_TEST_CHAOS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&seed| seed != 0)
}

const OLD: &[u8] = b"old-value-0123456789abcdef";
const NEW: &[u8] = b"new-value-fedcba9876543210";

/// One sweep point: crash at `t_crash` under `spec`, recover, validate.
/// Returns what the recovered store holds for the key.
fn crash_at(t_crash: Nanos, spec: CrashSpec, seed: u64) -> Vec<u8> {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 256 * 1024, true);
    let cfg = ServerConfig::default();
    let server = Server::format(&fabric, &server_node, layout, cfg.clone());
    let pool = Arc::clone(&server.shared().pool);

    let f = Arc::clone(&fabric);
    let out: Arc<std::sync::Mutex<Vec<u8>>> = Arc::default();
    let out2 = Arc::clone(&out);
    simu.spawn("main", move || {
        server.start(&f);
        let c = connect(&f, &server);
        // Make the OLD version durable (write + read-back).
        c.put(b"swept", OLD).unwrap();
        c.get(b"swept").unwrap().unwrap();
        let t0 = sim::now();
        // The NEW version: the sweep crashes somewhere inside or after it.
        let sn = server_node.clone();
        let f2 = Arc::clone(&f);
        let controller = sim::spawn("controller", move || {
            sim::sleep_until(t0 + t_crash);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            f2.crash_node(&sn, spec, &mut rng);
        });
        // The PUT may fail when the crash lands mid-operation — both
        // outcomes are legal; consistency is checked below either way.
        let _ = c.put(b"swept", NEW);
        controller.join();
        sim::sleep(sim::millis(1));

        // Reboot + recover.
        f.restart_node(&server_node);
        let (server2, _report) = recovery::recover(&f, &server_node, pool, layout, cfg);
        recovery::check_consistency(&server2.shared().pool, &layout);
        server2.start(&f);
        let c2 = connect(&f, &server2);
        let v = c2
            .get(b"swept")
            .unwrap()
            .expect("OLD was durable before the crash — key must survive");
        // Store stays writable post-recovery.
        c2.put(b"post", b"alive").unwrap();
        assert_eq!(c2.get(b"post").unwrap().as_deref(), Some(&b"alive"[..]));
        server2.shutdown();
        *out2.lock().unwrap() = v;
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

fn connect(fabric: &Arc<Fabric>, server: &Server) -> StoreClient {
    let cnode = fabric.add_node("client");
    let routes = Routes::servers([server]);
    StoreClient::connect(fabric, &cnode, &routes, ClientConfig::default()).unwrap()
}

fn sweep(spec: CrashSpec, seed: u64) {
    // A PUT spans roughly 0..6 µs of virtual time (alloc RTT ≈ 2.4 µs +
    // value write ≈ 1.9 µs); sweep well past it to cover background
    // verification as well.
    let mut saw_old = false;
    let mut saw_new = false;
    let mut t = 0;
    while t <= sim::micros(12) {
        let v = crash_at(t, spec, seed);
        if v == OLD {
            saw_old = true;
        } else if v == NEW {
            saw_new = true;
        } else {
            panic!("crash at t={t}: torn/garbage value {v:?}");
        }
        t += 400;
    }
    // The sweep must actually exercise both outcomes: early crashes keep
    // OLD, late crashes (after verification) keep NEW.
    assert!(saw_old, "sweep never rolled back — window wrong?");
    assert!(saw_new, "sweep never kept the new value — verifier broken?");
}

#[test]
fn sweep_with_all_dirty_lines_lost() {
    sweep(CrashSpec::DropAll, 1);
}

#[test]
fn sweep_with_word_granular_survival() {
    sweep(CrashSpec::Words(0.5), 2);
}

#[test]
fn sweep_with_line_granular_survival() {
    sweep(CrashSpec::Lines(0.3), 3);
}

#[test]
fn sweep_with_full_eviction() {
    // Even if every dirty line survives (KeepAll), recovery must still pick
    // a CRC-consistent version — the new value's arrival is all-or-nothing
    // per crash instant.
    sweep(CrashSpec::KeepAll, 4);
}

// ---------------------------------------------------------------- sharded
//
// The same contract, per shard: power-fail EVERY shard node at a swept
// instant while NEW versions are being written across all shards, recover
// each shard independently (its own pool, its own recovery pass, its own
// structural check), and require each shard's key to read OLD or NEW —
// never torn — with the whole sharded store writable afterwards.

use efactory::key_shard;

/// Shard counts under test: `EF_TEST_SHARDS` env (comma-separated) or the
/// acceptance sweep's default.
fn test_shards() -> Vec<usize> {
    match std::env::var("EF_TEST_SHARDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("EF_TEST_SHARDS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// The first probe key owned by shard `i` (deterministic — same on every
/// client and every run, which is the router contract the sweep leans on).
fn key_for_shard(i: usize, shards: usize) -> Vec<u8> {
    (0u32..)
        .map(|n| format!("swept-{n:04}"))
        .find(|k| key_shard(k.as_bytes(), shards) == i)
        .unwrap()
        .into_bytes()
}

/// One sharded sweep point: crash every shard at `t_crash`, recover every
/// shard, return what each shard's key reads afterwards.
fn sharded_crash_at(shards: usize, t_crash: Nanos, spec: CrashSpec, seed: u64) -> Vec<Vec<u8>> {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(256, 256 * 1024, true);
    let cfg = ServerConfig {
        doorbell_batch: 16, // the batched fence path must be crash-safe too
        ..ServerConfig::default()
    };
    let out: Arc<std::sync::Mutex<Vec<Vec<u8>>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    let cfg2 = cfg.clone();
    simu.spawn("main", move || {
        let server = Store::format(&f, "server", layout, cfg2.clone(), shards, 0);
        let nodes: Vec<_> = (0..shards)
            .map(|i| server.seat(i).server.shared().node.clone())
            .collect();
        let pools: Vec<_> = (0..shards)
            .map(|i| Arc::clone(&server.seat(i).server.shared().pool))
            .collect();
        server.start();
        let c = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &server.routes(),
            ClientConfig::default(),
        )
        .unwrap();

        let keys: Vec<_> = (0..shards).map(|i| key_for_shard(i, shards)).collect();
        for k in &keys {
            c.put(k, OLD).unwrap();
            c.get(k).unwrap().unwrap(); // read-back forces durability
        }
        let t0 = sim::now();
        let f2 = Arc::clone(&f);
        let nodes2 = nodes.clone();
        let controller = sim::spawn("controller", move || {
            sim::sleep_until(t0 + t_crash);
            for (i, n) in nodes2.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE ^ (i as u64) << 17);
                f2.crash_node(n, spec, &mut rng);
            }
        });
        // NEW versions across all shards; the crash lands somewhere inside
        // the sequence (or after it). Any put the crash interrupts may fail.
        for k in &keys {
            let _ = c.put(k, NEW);
        }
        controller.join();
        sim::sleep(sim::millis(1));

        // Per-shard reboot + recovery: no cross-shard state, so each shard
        // recovers from its own pool alone.
        let mut rservers = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            f.restart_node(node);
            let mut scfg = cfg2.clone();
            if shards > 1 {
                scfg.counter_prefix = format!("shard{i}.");
            }
            let (srv, _report) = recovery::recover(&f, node, Arc::clone(&pools[i]), layout, scfg);
            recovery::check_consistency(&srv.shared().pool, &layout);
            srv.start(&f);
            rservers.push(srv);
        }
        let c2 = StoreClient::connect(
            &f,
            &f.add_node("client2"),
            &Routes::servers(&rservers),
            ClientConfig::default(),
        )
        .unwrap();
        let mut vals = Vec::new();
        for k in &keys {
            vals.push(
                c2.get(k)
                    .unwrap()
                    .expect("OLD was durable on this shard before the crash"),
            );
        }
        // The whole sharded store stays writable post-recovery.
        c2.put(b"post", b"alive").unwrap();
        assert_eq!(c2.get(b"post").unwrap().as_deref(), Some(&b"alive"[..]));
        for srv in &rservers {
            srv.shutdown();
        }
        *out2.lock().unwrap() = vals;
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

fn sharded_sweep(shards: usize, spec: CrashSpec, seed: u64) {
    // The NEW puts run sequentially, one per shard (~6 µs each); sweep the
    // whole write burst plus the background-verification tail, holding the
    // point count roughly constant so debug-mode runtime stays bounded.
    let window = sim::micros(6 * shards as u64 + 12);
    let step = (window / 24).max(400);
    let mut saw_old = false;
    let mut saw_new = false;
    let mut t = 0;
    while t <= window {
        for v in sharded_crash_at(shards, t, spec, seed) {
            if v == OLD {
                saw_old = true;
            } else if v == NEW {
                saw_new = true;
            } else {
                panic!("{shards} shards, crash at t={t}: torn/garbage value {v:?}");
            }
        }
        t += step;
    }
    assert!(saw_old, "{shards} shards: sweep never rolled back");
    assert!(saw_new, "{shards} shards: sweep never kept the new value");
}

#[test]
fn sharded_sweep_all_dirty_lines_lost() {
    for shards in test_shards() {
        sharded_sweep(shards, CrashSpec::DropAll, 20 + shards as u64);
    }
}

#[test]
fn sharded_sweep_word_granular_survival() {
    for shards in test_shards() {
        sharded_sweep(shards, CrashSpec::Words(0.5), 40 + shards as u64);
    }
}

// ------------------------------------------------------------- replicated
//
// The same sweep philosophy applied to failover: power-fail the PRIMARY at
// every swept instant while a NEW version is in flight (its data node
// power-fails through `Store::crash_data_node`), let the metadata service
// commit its death and promote the backup, and require the promoted store
// to read OLD or NEW — never torn — and stay writable. The cut now sweeps
// the whole replication pipeline: client write → primary verify → mirror
// ship → backup apply.
//
// Gated on `EF_TEST_REPLICAS` (default on; "0" disables) so CI can run a
// dedicated replicated lane.

use efactory::repl::Backup;

/// The backup of a one-shard replicated store.
fn backup(store: &Store) -> &Backup {
    store.backup(0).expect("replicated store")
}

/// Power-fail data node 0 of `store` (its agent and every seat it hosts)
/// at `at`, from a controller process.
fn crash_node0_at(store: &Arc<Store>, at: Nanos, spec: CrashSpec, seed: u64) {
    let store = Arc::clone(store);
    sim::spawn("controller", move || {
        sim::sleep_until(at);
        store.crash_data_node(0, spec, seed);
    });
}

/// Wait until shard 0 is served by its backup's node, and return the
/// promoted server.
fn await_promotion(store: &Store) -> Server {
    let deadline = sim::now() + sim::millis(500);
    while store.owner_of(0) != backup(store).data_node() {
        assert!(sim::now() < deadline, "backup never promoted");
        sim::sleep(sim::micros(100));
    }
    store.seat(0).server
}

fn replicas_enabled() -> bool {
    std::env::var("EF_TEST_REPLICAS").map_or(true, |v| v.trim() != "0")
}

/// One replicated sweep point: kill the primary's data node at `t_crash`
/// mid-write, wait for the promotion, and return what the promoted backup
/// holds for the key. With `double_fault` the promoted backup's data node
/// is then power-failed too, restarted and recovered from its own pool,
/// and re-read.
fn replicated_crash_at(t_crash: Nanos, spec: CrashSpec, seed: u64, double_fault: bool) -> Vec<u8> {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(256, 256 * 1024, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        doorbell_batch: 4, // mirror runs coalesce; the batched path must be crash-safe
        ..ServerConfig::default()
    };
    let server = Arc::new(Store::format(&fabric, "server", layout, cfg, 1, 1));

    let out: Arc<std::sync::Mutex<Vec<u8>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start();
        let primary = server.seat(0).server;
        let c = Client::connect(
            &f,
            &f.add_node("client"),
            &primary.shared().node,
            primary.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        // OLD durable on the primary AND mirrored to the backup.
        c.put(b"swept", OLD).unwrap();
        c.get(b"swept").unwrap().unwrap();
        let deadline = sim::now() + sim::millis(50);
        while backup(&server).stats().applied_objects.get() < 1 {
            assert!(sim::now() < deadline, "backup never applied OLD");
            sim::sleep(sim::micros(50));
        }
        // Kill the primary's data node at the swept instant; the NEW put
        // races the crash and may fail — both legal.
        crash_node0_at(&server, sim::now() + t_crash, spec, seed ^ 0xC0FFEE);
        let _ = c.put(b"swept", NEW);
        let promoted = await_promotion(&server);
        let read_and_probe =
            |node: &efactory_rnic::Node, desc: efactory::server::StoreDesc, tag: &str| -> Vec<u8> {
                let c2 = Client::connect(&f, &f.add_node(tag), node, desc, ClientConfig::default())
                    .unwrap();
                let v = c2
                    .get(b"swept")
                    .unwrap()
                    .expect("OLD was mirrored before the crash — key must survive failover");
                c2.put(b"post", b"alive").unwrap();
                assert_eq!(c2.get(b"post").unwrap().as_deref(), Some(&b"alive"[..]));
                v
            };
        let mut v = read_and_probe(&promoted.shared().node, promoted.desc(), "client2");

        if double_fault {
            // Second fault: the promoted backup's data node power-fails
            // too, and its restart must recover the shard from the
            // mirrored pool — the ordinary local recovery path, one more
            // time.
            let b = backup(&server).data_node();
            server.crash_data_node(b, spec, seed ^ 0xD0B1E);
            sim::sleep(sim::millis(1));
            assert_eq!(server.restart_data_node(b).len(), 1);
            let srv2 = server.seat(0).server;
            recovery::check_consistency(&srv2.shared().pool, &layout);
            let v2 = read_and_probe(&srv2.shared().node, srv2.desc(), "client3");
            // The double-fault read may legally differ from the first only
            // by rolling NEW back to OLD (the promoted store's fresh state
            // was torn by the second crash) — never the other way, and
            // never torn.
            if v2 != v {
                assert_eq!(v, NEW, "double fault resurrected a newer value");
                assert_eq!(v2, OLD, "double fault produced a torn value");
            }
            v = v2;
        }
        server.shutdown();
        *out2.lock().unwrap() = v;
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

fn replicated_sweep(spec: CrashSpec, seed: u64, double_fault: bool) {
    // The NEW put spans ~0..6 µs; mirroring and backup apply trail it by a
    // few idle periods. Sweep past the full pipeline so both outcomes —
    // crash before the mirror shipped (OLD) and after (NEW) — appear.
    let mut saw_old = false;
    let mut saw_new = false;
    let mut t = 0;
    while t <= sim::micros(16) {
        let v = replicated_crash_at(t, spec, seed, double_fault);
        if v == OLD {
            saw_old = true;
        } else if v == NEW {
            saw_new = true;
        } else {
            panic!("replicated crash at t={t}: torn/garbage value {v:?}");
        }
        t += 800;
    }
    assert!(
        saw_old,
        "replicated sweep never rolled back — window wrong?"
    );
    assert!(saw_new, "replicated sweep never kept NEW — mirror broken?");
}

#[test]
fn replicated_sweep_all_dirty_lines_lost() {
    if !replicas_enabled() {
        return;
    }
    replicated_sweep(CrashSpec::DropAll, 101, false);
}

#[test]
fn replicated_sweep_word_granular_survival() {
    if !replicas_enabled() {
        return;
    }
    replicated_sweep(CrashSpec::Words(0.5), 102, false);
}

#[test]
fn replicated_double_fault_sweep() {
    if !replicas_enabled() {
        return;
    }
    // Primary dies at the swept instant; after promotion the backup
    // power-fails as well and recovers from its own pool.
    replicated_sweep(CrashSpec::DropAll, 103, true);
}

// ------------------------------------------------------------- mid-commit
//
// Multi-key transaction crash sweep: power-fail the server at a grid of
// instants spanning an entire fused TxnCommit (stage → link → commit
// record → publish), recover, and require **all-or-nothing visibility**:
// every key of the write set reads the OLD value or every key reads the
// NEW value — a mixed read at any crash instant is a torn transaction.

use efactory::txn::TxnKv;

const TXN_SWEEP_KEYS: usize = 4;

fn txn_key(i: usize) -> Vec<u8> {
    format!("txnswept-{i}").into_bytes()
}

fn txn_old(i: usize) -> Vec<u8> {
    format!("txn-old-{i}-0123456789abcdef").into_bytes()
}

fn txn_new(i: usize) -> Vec<u8> {
    format!("txn-new-{i}-fedcba9876543210").into_bytes()
}

/// Crash at `t_crash` mid-commit, recover, and classify the recovered
/// write set: `false` = all OLD, `true` = all NEW. Mixed panics.
fn txn_crash_at(t_crash: Nanos, spec: CrashSpec, seed: u64) -> bool {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 256 * 1024, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, layout, cfg.clone());
    let pool = Arc::clone(&server.shared().pool);

    let f = Arc::clone(&fabric);
    let out: Arc<std::sync::Mutex<Option<bool>>> = Arc::default();
    let out2 = Arc::clone(&out);
    simu.spawn("main", move || {
        server.start(&f);
        let c = connect(&f, &server);
        // Make the OLD write set durable (write + read-back each key).
        for i in 0..TXN_SWEEP_KEYS {
            c.put(&txn_key(i), &txn_old(i)).unwrap();
            c.get(&txn_key(i)).unwrap().unwrap();
        }
        let t0 = sim::now();
        let sn = server_node.clone();
        let f2 = Arc::clone(&f);
        let controller = sim::spawn("controller", move || {
            sim::sleep_until(t0 + t_crash);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            f2.crash_node(&sn, spec, &mut rng);
        });
        // The commit may fail when the crash lands mid-operation — both
        // outcomes are legal; atomicity is checked below either way.
        let writes: Vec<(Vec<u8>, Vec<u8>)> = (0..TXN_SWEEP_KEYS)
            .map(|i| (txn_key(i), txn_new(i)))
            .collect();
        let _ = c.txn_put_all(&writes);
        controller.join();
        sim::sleep(sim::millis(1));

        // Reboot + recover.
        f.restart_node(&server_node);
        let (server2, _report) = recovery::recover(&f, &server_node, pool, layout, cfg);
        recovery::check_consistency(&server2.shared().pool, &layout);
        server2.start(&f);
        let c2 = connect(&f, &server2);
        let mut news = 0usize;
        for i in 0..TXN_SWEEP_KEYS {
            let v = c2
                .get(&txn_key(i))
                .unwrap()
                .expect("OLD was durable before the crash — key must survive");
            if v == txn_new(i) {
                news += 1;
            } else if v != txn_old(i) {
                panic!("crash at t={t_crash}: torn/garbage value {v:?} for key {i}");
            }
        }
        assert!(
            news == 0 || news == TXN_SWEEP_KEYS,
            "crash at t={t_crash}: torn transaction — {news}/{TXN_SWEEP_KEYS} keys NEW"
        );
        // The recovered store stays transactional: a fresh multi-key
        // commit must succeed and read back atomically.
        let post: Vec<(Vec<u8>, Vec<u8>)> = (0..TXN_SWEEP_KEYS)
            .map(|i| (txn_key(i), format!("txn-post-{i}").into_bytes()))
            .collect();
        c2.txn_put_all(&post).expect("post-recovery txn commit");
        for (k, v) in &post {
            assert_eq!(c2.get(k).unwrap().as_deref(), Some(v.as_slice()));
        }
        server2.shutdown();
        *out2.lock().unwrap() = Some(news == TXN_SWEEP_KEYS);
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().take().expect("sweep point finished");
    v
}

fn txn_sweep(spec: CrashSpec, seed: u64) {
    // A fused multi-key commit spans one RPC round-trip plus server-side
    // staging/publish work; sweep well past it like the PUT sweep.
    let mut saw_old = false;
    let mut saw_new = false;
    let mut t = 0;
    while t <= sim::micros(12) {
        if txn_crash_at(t, spec, seed) {
            saw_new = true;
        } else {
            saw_old = true;
        }
        t += 400;
    }
    assert!(saw_old, "txn sweep never rolled back — window wrong?");
    assert!(saw_new, "txn sweep never kept the new write set");
}

#[test]
fn txn_sweep_with_all_dirty_lines_lost() {
    txn_sweep(CrashSpec::DropAll, 201);
}

// ------------------------------------------------------------ mid-migration
//
// Live-migration crash sweep: power-fail the SOURCE machine, the
// DESTINATION machine, or a METADATA replica at a grid of instants
// spanning an entire live migration (start → live copy → seal/drain →
// fixup/verify → commit → adopt), then converge, restart
// the victim, and require the cluster to settle on **exactly one owner**
// with no further call: the metadata service and the seat table agree,
// every pre-migration key reads its seeded value un-torn, and the shard
// stays writable. A commit the driver observed must leave the destination
// the owner; any other outcome must leave ownership consistent either way
// — the commit point is the only instant ownership may change, and a
// fault inside the commit window itself is finished by the settle step
// from committed state, never by serving two owners.

use efactory::cluster::MetaClient;

const MIG_KEYS: usize = 16;

fn mig_key(i: usize) -> Vec<u8> {
    format!("migswept-{i:04}").into_bytes()
}

fn mig_val(i: usize) -> Vec<u8> {
    format!("mig-old-{i:04}-0123456789abcdef").into_bytes()
}

#[derive(Clone, Copy, Debug)]
enum MigVictim {
    /// The machine losing the shard: its agent endpoint and its seat.
    Source,
    /// The machine receiving the shard — which also lends the migration
    /// driver its fabric identity, so killing it mid-commit is the
    /// ambiguous-outcome case.
    Dest,
    /// One metadata replica (0 = the initial leader, forcing a
    /// re-election; 1/2 = a follower, whose durable state must still serve
    /// the surviving majority): the commit must ride it out either way.
    MetaReplica(usize),
}

/// One sweep point: power-fail `victim` at `t_crash` into a live
/// migration of shard 0 from node 0 to node 1, wait for the metadata
/// service to converge, restart the victim, wait for the seat table to
/// follow, and check the single-owner contract. Returns whether the migration committed from
/// the driver's point of view.
fn migration_crash_at(victim: MigVictim, t_crash: Nanos, seed: u64) -> bool {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(256, 256 * 1024, false);
    let cluster = Arc::new(Store::format_nodes(
        &fabric,
        2,
        1,
        0,
        layout,
        ServerConfig::default(),
    ));
    let out: Arc<std::sync::Mutex<Option<bool>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    let cl = Arc::clone(&cluster);
    simu.spawn("main", move || {
        cl.start();
        sim::sleep(sim::millis(1)); // leader elected, heartbeats flowing
        let seeder = StoreClient::connect(
            &f,
            &f.add_node("seeder"),
            &cl.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        for i in 0..MIG_KEYS {
            seeder.put(&mig_key(i), &mig_val(i)).unwrap();
            seeder.get(&mig_key(i)).unwrap().unwrap();
        }

        let t0 = sim::now();
        let fc = Arc::clone(&f);
        let cc = Arc::clone(&cl);
        let controller = sim::spawn("controller", move || {
            sim::sleep_until(t0 + t_crash);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
            match victim {
                MigVictim::Source => {
                    fc.crash_node(cc.agent_node(0), CrashSpec::DropAll, &mut rng);
                    fc.crash_node(cc.seat_node(0, 0), CrashSpec::DropAll, &mut rng);
                }
                MigVictim::Dest => {
                    fc.crash_node(cc.agent_node(1), CrashSpec::DropAll, &mut rng);
                    fc.crash_node(cc.seat_node(1, 0), CrashSpec::DropAll, &mut rng);
                }
                MigVictim::MetaReplica(r) => cc.crash_meta_replica(r, seed),
            }
        });
        // Both outcomes are legal at any cut; consistency is checked below
        // either way.
        let result = cl.migrate(0, 1);
        controller.join();

        // Converge: the migration slot must clear — by the driver's own
        // commit/abort or by the death sweep's auto-abort.
        let probe = f.add_node("probe");
        let mut mc = MetaClient::new(&f, &probe, cl.meta_nodes());
        let deadline = sim::now() + sim::millis(20);
        loop {
            if let Some(s) = mc.get_map(sim::now() + sim::millis(2)) {
                if s.migrating.is_none() {
                    break;
                }
            }
            assert!(
                sim::now() < deadline,
                "{victim:?} crash at t={t_crash}: cluster never converged"
            );
            sim::sleep(sim::micros(50));
        }

        // Reboot the victim. The settle step installs a destination copy
        // whose commit landed, from the restart or a node agent.
        match victim {
            MigVictim::Source => {
                cl.restart_data_node(0);
            }
            MigVictim::Dest => {
                cl.restart_data_node(1);
            }
            MigVictim::MetaReplica(r) => cl.restart_meta_replica(r),
        }

        // Exactly one owner: the metadata service and the seat table must
        // come to agree, and a driver-observed commit is binding.
        let deadline = sim::now() + sim::millis(20);
        let state = loop {
            if let Some(s) = mc.get_map(sim::now() + sim::millis(2)) {
                if s.migrating.is_none() && s.placement.node_of_shard(0) == cl.owner_of(0) {
                    break s;
                }
            }
            assert!(
                sim::now() < deadline,
                "{victim:?} crash at t={t_crash}: the seat table never followed the placement"
            );
            sim::sleep(sim::micros(50));
        };
        assert!(state.migrating.is_none());
        let owner = state.placement.node_of_shard(0);
        assert_eq!(
            owner,
            cl.owner_of(0),
            "{victim:?} crash at t={t_crash}: metadata and seat table disagree on the owner"
        );
        if let Ok(report) = &result {
            assert_eq!(
                owner, 1,
                "{victim:?} crash at t={t_crash}: committed migration lost the flip"
            );
            assert_eq!(report.verify_diff_bytes, 0);
        }

        // The surviving owner serves every seeded key un-torn and accepts
        // writes.
        let checker = StoreClient::connect(
            &f,
            &f.add_node("checker"),
            &cl.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        for i in 0..MIG_KEYS {
            let v = checker
                .get(&mig_key(i))
                .unwrap()
                .unwrap_or_else(|| panic!("{victim:?} crash at t={t_crash}: key {i} lost"));
            assert_eq!(
                v,
                mig_val(i),
                "{victim:?} crash at t={t_crash}: torn/garbage value for key {i}"
            );
        }
        checker.put(b"post", b"alive").unwrap();
        assert_eq!(
            checker.get(b"post").unwrap().as_deref(),
            Some(&b"alive"[..])
        );
        cl.shutdown();
        *out2.lock().unwrap() = Some(result.is_ok());
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().take().expect("sweep point finished");
    v
}

/// The passes of a migration sweep, as `(Sim seed, shift of every crash
/// instant)`: the sweep's own seed unshifted, then a non-zero
/// `EF_TEST_CHAOS` seed shifted by `seed % 5 µs`.
fn migration_passes(seed: u64) -> Vec<(u64, Nanos)> {
    let mut passes = vec![(seed, 0)];
    passes.extend(chaos_seed().map(|chaos| (chaos, chaos % sim::micros(5))));
    passes
}

fn migration_sweep(victim: MigVictim, seed: u64) {
    for (seed, shift) in migration_passes(seed) {
        migration_sweep_pass(victim, seed, shift);
    }
}

fn migration_sweep_pass(victim: MigVictim, seed: u64, shift: Nanos) {
    // The quiescent migration spans ~85 µs of virtual time; the coarse
    // grid covers the whole protocol plus a post-commit tail, and the
    // fine grid brackets the commit/adopt window where the ambiguous
    // outcomes live (at seed 302 a destination crash at 75 µs aborts,
    // one at 76–81 µs commits and is adopted at its restart, and one
    // from 82 µs hits the adopted copy).
    let mut points: Vec<Nanos> = (0..=22).map(|i| sim::micros(5) * i).collect();
    points.extend((74..=92).map(sim::micros));
    let mut saw_commit = false;
    let mut saw_fail = false;
    for t in points {
        if migration_crash_at(victim, t + shift, seed) {
            saw_commit = true;
        } else {
            saw_fail = true;
        }
    }
    // The grid must exercise both outcomes where both are possible: early
    // faults kill the migration, post-commit faults cannot un-commit it.
    assert!(
        saw_commit,
        "{victim:?} (seed {seed}): sweep never committed — late points should land after the flip"
    );
    match victim {
        // Losing one of three metadata replicas must never kill the
        // commit — the majority rides out the re-election.
        MigVictim::MetaReplica(_) => assert!(
            !saw_fail,
            "a single metadata replica loss aborted a migration (seed {seed})"
        ),
        _ => assert!(
            saw_fail,
            "{victim:?} (seed {seed}): sweep never aborted — early points should kill the migration"
        ),
    }
}

#[test]
fn migration_sweep_source_power_fail() {
    migration_sweep(MigVictim::Source, 301);
}

#[test]
fn migration_sweep_dest_power_fail() {
    migration_sweep(MigVictim::Dest, 302);
}

#[test]
fn migration_sweep_meta_replica_power_fail() {
    migration_sweep(MigVictim::MetaReplica(0), 303);
}

/// Coarse follower sweep: losing a non-leader replica mid-migration must
/// never kill the commit either — and when it reboots, it reboots from
/// its durable term, vote, version and state, not empty (an empty
/// rebootee granting votes is the classic committed-state-erasure
/// interleaving).
#[test]
fn migration_sweep_meta_follower_power_fail() {
    for (seed, shift) in migration_passes(304) {
        for t in (0..=90).step_by(15).map(|us| sim::micros(us) + shift) {
            assert!(
                migration_crash_at(MigVictim::MetaReplica(2), t, seed),
                "a follower replica loss at t={t} (seed {seed}) aborted a migration"
            );
        }
    }
}

#[test]
fn txn_sweep_with_word_granular_survival() {
    txn_sweep(CrashSpec::Words(0.5), 202);
}

#[test]
fn txn_sweep_with_line_granular_survival() {
    txn_sweep(CrashSpec::Lines(0.3), 203);
}

// --------------------------------------------------------------- mid-clean
//
// Crash-at-every-instant sweep over an entire log-cleaning pass
// (compress → merge → finish → pool swap), the window where versions of
// one key live in both pools, chains are half-relocated, `Trans`
// back-pointers dangle, and the swap itself can tear. A calibration run
// (same seed, no crash — determinism makes its timeline exact) measures
// the pass window and the compress→merge boundary; the sweep then
// power-fails the server on a fine grid spanning the whole pass and
// requires, at every point:
//
// * every key that was durable before the pass reads its exact value;
// * deleted keys stay deleted (tombstone reclamation never resurrects);
// * a hot key being overwritten *during* the pass reads some exact
//   acked-or-later version — never torn bytes;
// * the recovered store passes the structural check, stays writable, and
//   can run a fresh cleaning pass to completion.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use efactory::server::CleanPhase;

/// Stable keys seeded (and made durable) before the pass. The last
/// `CLEAN_DEAD` of them are deleted so the pass reclaims tombstones.
const CLEAN_KEYS: usize = 24;
const CLEAN_DEAD: usize = 4;

fn ckey(i: usize) -> Vec<u8> {
    format!("cleanswept-{i:02}").into_bytes()
}

fn cval(i: usize, gen: u32) -> Vec<u8> {
    format!("clean-g{gen}-{i:02}-0123456789abcdef").into_bytes()
}

fn hot_val(v: u64) -> Vec<u8> {
    format!("hot-v{v:06}-fedcba9876543210").into_bytes()
}

/// Timeline observations from the calibration run, relative to the
/// instant the clean was requested.
#[derive(Clone, Copy, Debug, Default)]
struct CleanWindow {
    begin: Nanos,
    merge: Nanos,
    end: Nanos,
}

/// One mid-clean sweep point. `t_crash = None` is the calibration run: no
/// crash, returns the observed pass window. `Some(t)` power-fails the
/// server `t` after the clean request and validates recovery.
fn clean_crash_at(t_crash: Option<Nanos>, spec: CrashSpec, seed: u64) -> Option<CleanWindow> {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 96 * 1024, true);
    let cfg = ServerConfig {
        clean_threshold: 2.0, // manual trigger only
        clean_poll: sim::micros(5),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, layout, cfg.clone());
    let pool = Arc::clone(&server.shared().pool);

    let f = Arc::clone(&fabric);
    let out: Arc<std::sync::Mutex<Option<CleanWindow>>> = Arc::default();
    let out2 = Arc::clone(&out);
    simu.spawn("main", move || {
        let shared = server.start(&f);
        let c = connect(&f, &server);
        // Two generations per key → multi-version chains for the pass to
        // walk; the tail keys get tombstoned so reclamation runs too.
        for gen in 0..2u32 {
            for i in 0..CLEAN_KEYS {
                c.put(&ckey(i), &cval(i, gen)).unwrap();
            }
        }
        for i in CLEAN_KEYS - CLEAN_DEAD..CLEAN_KEYS {
            c.del(&ckey(i)).unwrap();
        }
        c.put(b"hot", &hot_val(0)).unwrap();
        for i in 0..CLEAN_KEYS - CLEAN_DEAD {
            c.get(&ckey(i)).unwrap().unwrap(); // read-back forces durability
        }
        c.get(b"hot").unwrap().unwrap();
        sim::sleep(sim::micros(300)); // verifier drains

        let t0 = sim::now();
        shared.clean_request.store(true, Ordering::Relaxed);

        // Watcher (present in every mode so all runs share one event
        // timeline): records the pass boundaries it can observe.
        let stop = Arc::new(AtomicBool::new(false));
        let begin_at = Arc::new(AtomicU64::new(0));
        let merge_at = Arc::new(AtomicU64::new(0));
        let end_at = Arc::new(AtomicU64::new(0));
        let (w_stop, w_begin, w_merge, w_end) = (
            Arc::clone(&stop),
            Arc::clone(&begin_at),
            Arc::clone(&merge_at),
            Arc::clone(&end_at),
        );
        let w_shared = Arc::clone(&shared);
        let watcher = sim::spawn("watcher", move || {
            let deadline = sim::now() + sim::millis(20);
            while !w_stop.load(Ordering::Relaxed) && sim::now() < deadline {
                let ph = w_shared.phase();
                if ph != CleanPhase::Normal && w_begin.load(Ordering::Relaxed) == 0 {
                    w_begin.store(sim::now(), Ordering::Relaxed);
                }
                if ph == CleanPhase::Merge && w_merge.load(Ordering::Relaxed) == 0 {
                    w_merge.store(sim::now(), Ordering::Relaxed);
                }
                if w_shared.stats.cleanings.load(Ordering::Relaxed) >= 1 {
                    w_end.store(sim::now(), Ordering::Relaxed);
                    break;
                }
                sim::sleep(250);
            }
        });

        // Crash controller (calibration sleeps past everything instead).
        let sn = server_node.clone();
        let f2 = Arc::clone(&f);
        let crash_target = t0 + t_crash.unwrap_or(sim::millis(30));
        let do_crash = t_crash.is_some();
        let controller = sim::spawn("controller", move || {
            sim::sleep_until(crash_target);
            if do_crash {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC1EA4);
                f2.crash_node(&sn, spec, &mut rng);
            }
        });

        // Hot writer: overwrites `hot` throughout the pass, so the sweep
        // cuts client writes in compress phase (old pool), merge phase
        // (new pool, racing the cleaner's allocator), and across the swap.
        // `Busy` (cleaner backpressure) retries; a dead server ends it.
        // Each put is followed by a read-back, which pins durability
        // (selective durability): `durable` is the floor recovery may
        // never roll below, `attempted` the ceiling it may reach.
        let mut durable = 0u64;
        let mut attempted = 0u64;
        for v in 1..10_000u64 {
            if end_at.load(Ordering::Relaxed) != 0 {
                break; // calibration: pass finished
            }
            attempted = v;
            use efactory::protocol::{Status, StoreError};
            match c.put(b"hot", &hot_val(v)) {
                Ok(()) => match c.get(b"hot") {
                    Ok(Some(got)) if got == hot_val(v) => durable = v,
                    Ok(_) => {}
                    Err(_) => break,
                },
                Err(StoreError::Status(Status::Busy | Status::NoSpace)) => {
                    sim::sleep(sim::micros(2));
                }
                Err(_) => break, // server crashed mid-RPC
            }
        }
        stop.store(true, Ordering::Relaxed);
        watcher.join();
        controller.join();
        sim::sleep(sim::millis(1));

        if t_crash.is_none() {
            let (b, m, e) = (
                begin_at.load(Ordering::Relaxed),
                merge_at.load(Ordering::Relaxed),
                end_at.load(Ordering::Relaxed),
            );
            assert!(b > 0 && m > b && e > m, "calibration never saw a full pass");
            assert_eq!(
                shared.active.load(Ordering::Relaxed),
                1,
                "calibration pass did not swap pools"
            );
            server.shutdown();
            *out2.lock().unwrap() = Some(CleanWindow {
                begin: b - t0,
                merge: m - t0,
                end: e - t0,
            });
            return;
        }

        // Reboot + recover.
        f.restart_node(&server_node);
        let (server2, _report) = recovery::recover(&f, &server_node, pool, layout, cfg.clone());
        recovery::check_consistency(&server2.shared().pool, &layout);
        let shared2 = server2.start(&f);
        let c2 = connect(&f, &server2);
        let t = t_crash.unwrap();
        for i in 0..CLEAN_KEYS - CLEAN_DEAD {
            let v = c2
                .get(&ckey(i))
                .unwrap()
                .unwrap_or_else(|| panic!("clean crash at t={t}: key {i} lost"));
            assert_eq!(
                v,
                cval(i, 1),
                "clean crash at t={t}: stale/torn value for key {i}"
            );
        }
        for i in CLEAN_KEYS - CLEAN_DEAD..CLEAN_KEYS {
            assert_eq!(
                c2.get(&ckey(i)).unwrap(),
                None,
                "clean crash at t={t}: tombstoned key {i} resurrected"
            );
        }
        // The hot key must read an exact written version, no older than
        // the last read-back-pinned one, no newer than the last attempted.
        let hv = c2
            .get(b"hot")
            .unwrap()
            .unwrap_or_else(|| panic!("clean crash at t={t}: hot key lost"));
        let matched = (durable..=attempted).any(|v| hv == hot_val(v));
        assert!(
            matched,
            "clean crash at t={t}: hot key torn or out of window \
             (durable {durable}, attempted {attempted}): {hv:?}"
        );
        // Post-recovery the store stays writable AND cleanable: a fresh
        // pass over the recovered image must run to completion.
        c2.put(b"post", b"alive").unwrap();
        assert_eq!(c2.get(b"post").unwrap().as_deref(), Some(&b"alive"[..]));
        sim::sleep(sim::micros(300));
        shared2.clean_request.store(true, Ordering::Relaxed);
        let deadline = sim::now() + sim::millis(50);
        while shared2.stats.cleanings.load(Ordering::Relaxed) < 1 {
            assert!(
                sim::now() < deadline,
                "clean crash at t={t}: recovered store could not complete a fresh clean"
            );
            sim::sleep(sim::micros(50));
        }
        assert_eq!(
            c2.get(b"post").unwrap().as_deref(),
            Some(&b"alive"[..]),
            "clean crash at t={t}: fresh clean after recovery lost a durable key"
        );
        server2.shutdown();
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().take();
    v
}

fn mid_clean_sweep(spec: CrashSpec, seed: u64) {
    let w = clean_crash_at(None, spec, seed).expect("calibration");
    // Pad past both ends: before the first progress record (request →
    // compress claim) and after the swap (CleanEnd + notify tail).
    let pad = sim::micros(2);
    let start = w.begin.saturating_sub(pad);
    let stop = w.end + pad;
    let step = ((stop - start) / 48).max(200);
    // A non-zero `EF_TEST_CHAOS` seed adds a pass over the grid shifted by
    // `seed % step`.
    for shift in [0]
        .into_iter()
        .chain(chaos_seed().map(|chaos| chaos % step))
    {
        let mut t = start + shift;
        let (mut in_compress, mut in_merge, mut past_end) = (false, false, false);
        while t <= stop + shift {
            clean_crash_at(Some(t), spec, seed);
            in_compress |= t >= w.begin && t < w.merge;
            in_merge |= t >= w.merge && t < w.end;
            past_end |= t >= w.end;
            t += step;
        }
        // The grid must actually cut every stage of the pass.
        assert!(
            in_compress,
            "sweep (shift {shift}) never crashed inside compress"
        );
        assert!(
            in_merge,
            "sweep (shift {shift}) never crashed inside merge/finish"
        );
        assert!(
            past_end,
            "sweep (shift {shift}) never crashed after the swap"
        );
    }
}

#[test]
fn mid_clean_sweep_all_dirty_lines_lost() {
    mid_clean_sweep(CrashSpec::DropAll, 401);
}

#[test]
fn mid_clean_sweep_word_granular_survival() {
    mid_clean_sweep(CrashSpec::Words(0.5), 402);
}

#[test]
fn mid_clean_sweep_line_granular_survival() {
    mid_clean_sweep(CrashSpec::Lines(0.3), 403);
}

// Sharded mid-clean sweep: every shard cleans concurrently and every
// shard node power-fails at the swept instant; each shard recovers from
// its own pool and must serve its keys exactly.

fn sharded_clean_crash_at(
    shards: usize,
    t_crash: Option<Nanos>,
    spec: CrashSpec,
    seed: u64,
) -> Option<Nanos> {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(256, 96 * 1024, true);
    let cfg = ServerConfig {
        clean_threshold: 2.0,
        clean_poll: sim::micros(5),
        ..ServerConfig::default()
    };
    let out: Arc<std::sync::Mutex<Option<Nanos>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    let cfg2 = cfg.clone();
    simu.spawn("main", move || {
        let server = Store::format(&f, "server", layout, cfg2.clone(), shards, 0);
        let nodes: Vec<_> = (0..shards)
            .map(|i| server.seat(i).server.shared().node.clone())
            .collect();
        let shareds: Vec<_> = (0..shards)
            .map(|i| Arc::clone(server.seat(i).server.shared()))
            .collect();
        let pools: Vec<_> = shareds.iter().map(|s| Arc::clone(&s.pool)).collect();
        server.start();
        let c = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &server.routes(),
            ClientConfig::default(),
        )
        .unwrap();
        let keys: Vec<_> = (0..shards).map(|i| key_for_shard(i, shards)).collect();
        for gen in [OLD, NEW] {
            for k in &keys {
                c.put(k, gen).unwrap();
            }
        }
        for k in &keys {
            c.get(k).unwrap().unwrap();
        }
        sim::sleep(sim::micros(300));

        let t0 = sim::now();
        for s in &shareds {
            s.clean_request.store(true, Ordering::Relaxed);
        }
        let f2 = Arc::clone(&f);
        let nodes2 = nodes.clone();
        let crash_target = t0 + t_crash.unwrap_or(sim::millis(30));
        let do_crash = t_crash.is_some();
        let controller = sim::spawn("controller", move || {
            sim::sleep_until(crash_target);
            if do_crash {
                for (i, n) in nodes2.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1EA4 ^ (i as u64) << 17);
                    f2.crash_node(n, spec, &mut rng);
                }
            }
        });
        if t_crash.is_none() {
            // Calibration: wait for every shard's pass to complete.
            let deadline = sim::now() + sim::millis(20);
            while shareds
                .iter()
                .any(|s| s.stats.cleanings.load(Ordering::Relaxed) < 1)
            {
                assert!(sim::now() < deadline, "a shard never finished its pass");
                sim::sleep(sim::micros(10));
            }
            let window = sim::now() - t0;
            controller.join();
            server.shutdown();
            *out2.lock().unwrap() = Some(window);
            return;
        }
        controller.join();
        sim::sleep(sim::millis(1));

        let mut rservers = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            f.restart_node(node);
            let mut scfg = cfg2.clone();
            if shards > 1 {
                scfg.counter_prefix = format!("shard{i}.");
            }
            let (srv, _report) = recovery::recover(&f, node, Arc::clone(&pools[i]), layout, scfg);
            recovery::check_consistency(&srv.shared().pool, &layout);
            srv.start(&f);
            rservers.push(srv);
        }
        let c2 = StoreClient::connect(
            &f,
            &f.add_node("client2"),
            &Routes::servers(&rservers),
            ClientConfig::default(),
        )
        .unwrap();
        let t = t_crash.unwrap();
        for k in &keys {
            let v = c2
                .get(k)
                .unwrap()
                .unwrap_or_else(|| panic!("sharded clean crash at t={t}: key lost"));
            assert_eq!(v, NEW, "sharded clean crash at t={t}: stale/torn value");
        }
        c2.put(b"post", b"alive").unwrap();
        assert_eq!(c2.get(b"post").unwrap().as_deref(), Some(&b"alive"[..]));
        for srv in &rservers {
            srv.shutdown();
        }
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().take();
    v
}

#[test]
fn sharded_mid_clean_sweep() {
    let shards = 2;
    let seed = 421;
    let window =
        sharded_clean_crash_at(shards, None, CrashSpec::DropAll, seed).expect("calibration");
    let step = (window / 20).max(400);
    let mut t = 0;
    while t <= window + sim::micros(2) {
        sharded_clean_crash_at(shards, Some(t), CrashSpec::DropAll, seed);
        t += step;
    }
}

// Replicated mid-clean sweep: the PRIMARY power-fails at every swept
// instant of its cleaning pass and the backup promotes. The promoted
// store must serve every key that was mirrored before the pass — the
// pass itself (relocation, swap, re-mirror) must never make the backup
// unrecoverable. This is exactly the lane where a mirrored `Done`
// progress record without its relocated data would be catastrophic; see
// `recovery::neutralize_clean_records`.

fn replicated_clean_crash_at(t_crash: Option<Nanos>, spec: CrashSpec, seed: u64) -> Option<Nanos> {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(256, 96 * 1024, true);
    let cfg = ServerConfig {
        clean_threshold: 2.0,
        clean_poll: sim::micros(5),
        ..ServerConfig::default()
    };
    let server = Arc::new(Store::format(&fabric, "server", layout, cfg, 1, 1));
    let out: Arc<std::sync::Mutex<Option<Nanos>>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start();
        let primary = server.seat(0).server;
        let c = Client::connect(
            &f,
            &f.add_node("client"),
            &primary.shared().node,
            primary.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        for gen in 0..2u32 {
            for i in 0..CLEAN_KEYS {
                c.put(&ckey(i), &cval(i, gen)).unwrap();
            }
        }
        for i in CLEAN_KEYS - CLEAN_DEAD..CLEAN_KEYS {
            c.del(&ckey(i)).unwrap();
        }
        for i in 0..CLEAN_KEYS - CLEAN_DEAD {
            c.get(&ckey(i)).unwrap().unwrap();
        }
        // Every pre-pass object mirrored: 2 generations + tombstones.
        let want = (2 * CLEAN_KEYS + CLEAN_DEAD) as u64;
        let deadline = sim::now() + sim::millis(50);
        while backup(&server).stats().applied_objects.get() < want {
            assert!(sim::now() < deadline, "backup never caught up");
            sim::sleep(sim::micros(50));
        }

        let t0 = sim::now();
        let shared = Arc::clone(primary.shared());
        shared.clean_request.store(true, Ordering::Relaxed);
        if let Some(t) = t_crash {
            crash_node0_at(&server, t0 + t, spec, seed ^ 0xC1EA4);
            let promoted = await_promotion(&server);
            let c2 = Client::connect(
                &f,
                &f.add_node("client2"),
                &promoted.shared().node,
                promoted.desc(),
                ClientConfig::default(),
            )
            .unwrap();
            for i in 0..CLEAN_KEYS - CLEAN_DEAD {
                let v = c2
                    .get(&ckey(i))
                    .unwrap()
                    .unwrap_or_else(|| panic!("repl clean crash at t={t}: key {i} lost"));
                // Both generations were mirrored and applied before the
                // pass began, so the newest must survive promotion exactly.
                assert_eq!(
                    v,
                    cval(i, 1),
                    "repl clean crash at t={t}: stale/torn value for key {i}"
                );
            }
            for i in CLEAN_KEYS - CLEAN_DEAD..CLEAN_KEYS {
                assert_eq!(
                    c2.get(&ckey(i)).unwrap(),
                    None,
                    "repl clean crash at t={t}: tombstoned key {i} resurrected on the backup"
                );
            }
            c2.put(b"post", b"alive").unwrap();
            assert_eq!(c2.get(b"post").unwrap().as_deref(), Some(&b"alive"[..]));
        } else {
            // Calibration: measure request → completed pass.
            let deadline = sim::now() + sim::millis(20);
            while shared.stats.cleanings.load(Ordering::Relaxed) < 1 {
                assert!(sim::now() < deadline, "primary pass never completed");
                sim::sleep(sim::micros(10));
            }
            *out2.lock().unwrap() = Some(sim::now() - t0);
        }
        server.shutdown();
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().take();
    v
}

#[test]
fn replicated_mid_clean_sweep() {
    if !replicas_enabled() {
        return;
    }
    let seed = 431;
    let window = replicated_clean_crash_at(None, CrashSpec::DropAll, seed).expect("calibration");
    // Sweep past the pass end: the post-swap re-mirror window (where the
    // backup holds a Done record but not yet the relocated data) is the
    // most dangerous cut of all.
    let stop = window + sim::micros(8);
    let step = (stop / 24).max(400);
    let mut t = 0;
    while t <= stop {
        replicated_clean_crash_at(Some(t), CrashSpec::DropAll, seed);
        t += step;
    }
}
