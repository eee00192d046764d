//! Requests that meet an in-doubt version wait at the participant.
//!
//! A shard's request handler parks a request whose key's newest valid
//! version is staged by a prepared, undecided transaction, and re-runs it
//! once a decide or the presumed-abort sweep resolves that version. A
//! `TxnPrepare` waits only if it is older than the holder (wait-die); a
//! younger one answers `Conflict`. A request parked for `PARK_LIMIT` is
//! answered as if it had not waited. These tests pin the three promises
//! that make waiting safe:
//!
//! * **no deadlock** — two coordinators whose prepares cross over two
//!   shards both commit without the sweep, and the older never sees
//!   `Conflict`;
//! * **no RPC timeout** — a GET behind a prepare whose coordinator never
//!   decides is answered within `PARK_LIMIT` every time it parks, and
//!   reads the pre-transaction value once the sweep aborts the prepare;
//! * **exactly once** — a duplicated prepare that parks executes once.

use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig};
use efactory::cluster::key_shard;
use efactory::log::StoreLayout;
use efactory::protocol::{Request, Response, Status};
use efactory::server::{Server, ServerConfig, PARK_LIMIT};
use efactory::store::{Store, StoreClient};
use efactory::txn::TxnKv;
use efactory_obs::Obs;
use efactory_rnic::{ClientQp, CostModel, Fabric, FaultPlan, QpError};
use efactory_sim as sim;
use efactory_sim::Sim;

/// A small and a large value: the large one's prepare spends longer on
/// the wire, which is what makes two lockstep coordinators' prepares
/// arrive in opposite orders at the two shards.
const SMALL: usize = 16;
const LARGE: usize = 4096;

/// The first key `k{i}` that routes to `shard` of `shards`.
fn key_on(shard: usize, shards: usize) -> Vec<u8> {
    (0..)
        .map(|i| format!("k{i}").into_bytes())
        .find(|k| key_shard(k, shards) == shard)
        .unwrap()
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.registry
        .snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// Two coordinators start in lockstep with the same two keys, one per
/// shard, and sizes chosen so that each wins one shard: the older one's
/// prepare reaches shard 0 first and the younger one's reaches shard 1
/// first. The older waits at shard 1; the younger dies at shard 0, aborts
/// its prepare on shard 1 and retries. With the sweep pushed out of
/// reach, both commit, and only the younger ever sees `Conflict`.
#[test]
fn crossed_prepares_both_commit_and_the_older_never_conflicts() {
    let mut simu = Sim::new(3);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(1024, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        // No presumed abort can fire while the test runs.
        txn_abort_timeout: sim::millis(1000),
        ..ServerConfig::default()
    };
    let store = Store::format(&fabric, "server", layout, cfg, 2, 0);
    let routes = store.routes();
    let (x, y) = (key_on(0, 2), key_on(1, 2));
    // (client obs, commit time) per coordinator.
    let done: Arc<Mutex<Vec<(usize, Obs, u64)>>> = Arc::default();
    let out = Arc::clone(&done);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        store.start();
        let start = sim::now() + sim::micros(50);
        let mut handles = Vec::new();
        for c in 0..2 {
            let (f, routes, out) = (Arc::clone(&f), routes.clone(), Arc::clone(&out));
            // Coordinator 0 writes x small and y large, coordinator 1 the
            // reverse.
            let (xv, yv) = if c == 0 {
                (SMALL, LARGE)
            } else {
                (LARGE, SMALL)
            };
            let puts = vec![
                (x.clone(), vec![c as u8; xv]),
                (y.clone(), vec![c as u8; yv]),
            ];
            handles.push(sim::spawn(&format!("coordinator-{c}"), move || {
                // Connected in order, so coordinator 0 has the smaller
                // coordinator id: the older of two equal start times.
                sim::sleep(c as u64);
                let obs = Obs::new();
                let cfg = ClientConfig {
                    obs: obs.clone(),
                    ..ClientConfig::default()
                };
                let kv =
                    StoreClient::connect(&f, &f.add_node(&format!("c{c}")), &routes, cfg).unwrap();
                sim::sleep_until(start);
                kv.txn_put_all(&puts).expect("commit");
                out.lock().unwrap().push((c, obs, sim::now() - start));
            }));
        }
        for h in &handles {
            h.join();
        }
        assert!(
            store.stat_sum(|s| &s.txn_parked) >= 1,
            "the older coordinator's prepare waited at shard 1"
        );
        store.shutdown();
    });
    simu.run().expect_ok();
    let done = done.lock().unwrap();
    assert_eq!(done.len(), 2, "both coordinators committed");
    for (c, obs, took) in done.iter() {
        assert!(*took < sim::millis(1), "coordinator {c} took {took} ns");
        let conflicts = counter(obs, "client.txn.conflicts");
        if *c == 0 {
            assert_eq!(conflicts, 0, "the older coordinator saw Conflict");
        } else {
            assert!(conflicts >= 1, "the younger coordinator never died");
        }
    }
}

/// Send one framed request on a raw QP and wait for its reply.
fn raw_rpc(qp: &ClientQp, id: u64, req: &Request) -> Response {
    qp.send(req.encode_framed(id)).unwrap();
    raw_reply(qp, id)
}

fn raw_reply(qp: &ClientQp, id: u64) -> Response {
    let raw = qp
        .recv_reply_deadline(sim::now() + sim::millis(20))
        .expect("reply");
    let (rid, resp) = Response::decode_any(&raw).unwrap();
    assert_eq!(rid, Some(id));
    resp
}

fn prepare(txn_id: u64, prio: (u64, u64), key: &[u8], value: &[u8]) -> Request {
    Request::TxnPrepare {
        txn_id,
        prio,
        reads: Vec::new(),
        puts: vec![(key.to_vec(), value.to_vec())],
    }
}

fn ok_ack() -> Response {
    Response::TxnAck {
        status: Status::Ok,
        commit_ts: 0,
    }
}

/// A coordinator prepares one key and dies. A GET on that key parks, is
/// answered `Busy` after `PARK_LIMIT`, waits and parks again, until the
/// presumed-abort sweep drops the prepare; it then reads the value from
/// before the transaction. No park outlasts `PARK_LIMIT`, so the client
/// never resends an RPC.
#[test]
fn a_get_behind_a_dead_coordinator_is_answered_within_the_park_limit() {
    let mut simu = Sim::new(5);
    let fabric = Fabric::new(CostModel::default());
    let node = fabric.add_node("server");
    let layout = StoreLayout::new(1024, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let abort_timeout = cfg.txn_abort_timeout;
    let server = Server::format(&fabric, &node, layout, cfg);
    simu.spawn("main", move || {
        let shared = server.start(&fabric);
        let client = Client::connect(
            &fabric,
            &fabric.add_node("reader"),
            &node,
            server.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        client.put(b"key", b"before").unwrap();
        let coordinator = fabric
            .connect(&fabric.add_node("coordinator"), &node)
            .unwrap();
        let staged = raw_rpc(&coordinator, 1, &prepare(1, (0, 99), b"key", b"after"));
        assert!(matches!(
            staged,
            Response::TxnAck {
                status: Status::Ok,
                ..
            }
        ));
        // The coordinator never decides.
        let t0 = sim::now();
        let got = client.get(b"key").unwrap();
        assert_eq!(
            got.as_deref(),
            Some(&b"before"[..]),
            "pre-transaction value"
        );
        assert!(
            sim::now() - t0 >= abort_timeout,
            "served only after the sweep"
        );
        assert_eq!(shared.stats.txn_aborts.get(), 1, "presumed abort");
        let (parked, park_ns) = (
            shared.stats.txn_parked.get(),
            shared.stats.txn_park_ns.get(),
        );
        assert!(
            parked >= 2,
            "the GET parked again after each Busy ({parked})"
        );
        assert!(
            park_ns <= parked * PARK_LIMIT,
            "a park outlasted PARK_LIMIT"
        );
        assert!(client.stats().get_retries.get() >= parked - 1);
        assert_eq!(client.stats().rpc_retries.get(), 0, "an RPC timed out");
        server.shutdown();
    });
    simu.run().expect_ok();
}

/// An older prepare parks behind a younger holder while the fabric
/// duplicates every message. The copy that arrives while the original is
/// parked is dropped, so once the holder aborts the prepare executes, and
/// is answered, exactly once.
#[test]
fn a_duplicated_parked_prepare_executes_once() {
    let mut simu = Sim::new(7);
    let fabric = Fabric::new(CostModel::default());
    let node = fabric.add_node("server");
    let layout = StoreLayout::new(1024, 1 << 20, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &node, layout, cfg);
    simu.spawn("main", move || {
        let shared = server.start(&fabric);
        let younger = fabric.connect(&fabric.add_node("younger"), &node).unwrap();
        let older = fabric.connect(&fabric.add_node("older"), &node).unwrap();
        let held = raw_rpc(&younger, 1, &prepare(1, (10, 1), b"key", b"young"));
        assert!(matches!(
            held,
            Response::TxnAck {
                status: Status::Ok,
                ..
            }
        ));

        fabric.set_fault_plan(Some(FaultPlan::chaos(0.0, 1.0, 0.0, 0, 11)));
        older
            .send(prepare(1, (5, 2), b"key", b"old").encode_framed(1))
            .unwrap();
        sim::sleep(sim::micros(20));
        fabric.set_fault_plan(None);
        assert_eq!(shared.stats.txn_parked.get(), 1, "the older prepare parked");
        assert_eq!(shared.stats.txn_prepares.get(), 1, "and has not run");

        let abort = Request::TxnDecide {
            txn_id: 1,
            commit: false,
            commit_ts: 0,
        };
        assert_eq!(raw_rpc(&younger, 2, &abort), ok_ack());
        let Response::TxnAck {
            status: Status::Ok,
            commit_ts: clock,
        } = raw_reply(&older, 1)
        else {
            panic!("the parked prepare did not succeed");
        };
        assert_eq!(
            older.recv_reply_deadline(sim::now() + sim::micros(500)),
            Err(QpError::Timeout),
            "a second reply: the prepare ran twice"
        );
        assert_eq!(shared.stats.txn_prepares.get(), 2);
        assert_eq!(shared.stats.txn_conflicts.get(), 0);
        let commit = Request::TxnDecide {
            txn_id: 1,
            commit: true,
            commit_ts: clock + 1,
        };
        assert!(matches!(
            raw_rpc(&older, 2, &commit),
            Response::TxnAck {
                status: Status::Ok,
                ..
            }
        ));
        assert!(
            fabric
                .stats()
                .fault_duplicated
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        let reader = Client::connect(
            &fabric,
            &fabric.add_node("reader"),
            &node,
            server.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        assert_eq!(reader.get(b"key").unwrap().as_deref(), Some(&b"old"[..]));
        server.shutdown();
    });
    simu.run().expect_ok();
}
