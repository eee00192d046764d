//! Failure injection under load: clients that die between the allocation
//! RPC and the RDMA value write leave half-born objects in the log. The
//! verifier must time them out, GETs must keep serving the last durable
//! version, and log cleaning must reclaim the corpses. A cross-shard
//! transaction that meets a dead participant must not leave the live ones
//! in doubt either.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory::client::{Client, ClientConfig};
use efactory::log::StoreLayout;
use efactory::protocol::{Request, Response};
use efactory::server::{Server, ServerConfig};
use efactory::store::{Store, StoreClient};
use efactory::txn::TxnKv;
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lost_clients_are_timed_out_and_reclaimed() {
    let mut simu = Sim::new(73);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(512, 256 * 1024, true);
    let cfg = ServerConfig {
        verify_timeout: sim::micros(50),
        clean_threshold: 2.0, // manual cleaning below
        clean_poll: sim::micros(10),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, layout, cfg);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let shared = server.start(&f);
        let desc = server.desc();

        // Live client writing + reading normally.
        let live_node = f.add_node("live");
        let live =
            Client::connect(&f, &live_node, &server_node, desc, ClientConfig::default()).unwrap();

        // "Zombie" clients: alloc RPCs with no value write, interleaved
        // with live traffic on the same keys.
        let zombie_node = f.add_node("zombie");
        let zombie_qp = f.connect(&zombie_node, &server_node).unwrap();

        for round in 0..10u32 {
            for k in 0..8u32 {
                let key = format!("key-{k}");
                live.put(key.as_bytes(), format!("live-{round}-{k}").as_bytes())
                    .unwrap();
                // The zombie allocates a newer version of the same key and
                // vanishes.
                let req = Request::Put {
                    key: key.as_bytes().to_vec(),
                    vlen: 64,
                    crc: 0xBAD0BAD0,
                };
                let raw = zombie_qp.rpc(req.encode()).unwrap();
                assert!(matches!(Response::decode(&raw), Some(Response::Put { .. })));
            }
            sim::sleep(sim::micros(30));
        }
        // Wait out the timeout window + verifier sweeps.
        sim::sleep(sim::millis(1));

        // Every key must read as the live client's last value — the
        // zombies' half-born heads are skipped via the version list.
        for k in 0..8u32 {
            let key = format!("key-{k}");
            let v = live.get(key.as_bytes()).unwrap().expect("key lost");
            let s = String::from_utf8(v).unwrap();
            assert!(
                s.starts_with("live-9-"),
                "{key}: expected last live value, got {s}"
            );
        }
        let timeouts = shared.stats.bg_timeouts.load(Ordering::Relaxed);
        assert!(
            timeouts >= 60,
            "verifier only timed out {timeouts}/80 zombies"
        );

        // Cleaning reclaims the invalid corpses.
        let used_before = shared.logs[0].used();
        shared.clean_request.store(true, Ordering::Relaxed);
        sim::sleep(sim::millis(3));
        assert_eq!(shared.stats.cleanings.load(Ordering::Relaxed), 1);
        let active = shared.active.load(Ordering::Relaxed);
        let used_after = shared.logs[active].used();
        assert!(
            used_after < used_before / 4,
            "cleaning kept too much: {used_before} -> {used_after}"
        );
        // And the data is still all there.
        for k in 0..8u32 {
            let key = format!("key-{k}");
            assert!(
                live.get(key.as_bytes()).unwrap().is_some(),
                "{key} lost by cleaning"
            );
        }
        server.shutdown();
    });
    simu.run().expect_ok();
}

/// A client whose value write is *partial* (dies mid-stream): crash tears
/// the write at the fabric level; the reader sees the previous version.
/// A client that drops its QP with a request in flight must not take the
/// shard's request handler down with it: the reply to the gone QP fails
/// with `Disconnected`, and the handler skips it. (Regression: the
/// handler exited, so every later request to the still-running node
/// failed at once.)
#[test]
fn dropped_qp_with_a_request_in_flight_leaves_the_handler_serving() {
    let mut simu = Sim::new(29);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 64 * 1024, false);
    let server = Server::format(&fabric, &server_node, layout, ServerConfig::default());
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start(&f);
        let dropper = f.connect(&f.add_node("dropper"), &server_node).unwrap();
        let get = Request::Get { key: b"k".to_vec() };
        dropper.send(get.encode()).unwrap();
        drop(dropper);
        sim::sleep(sim::micros(50));

        let client_node = f.add_node("client");
        let desc = server.desc();
        let client = Client::connect(
            &f,
            &client_node,
            &server_node,
            desc,
            ClientConfig::default(),
        )
        .unwrap();
        client
            .put(b"k", b"v")
            .expect("the handler must outlive a dropped QP");
        assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        server.shutdown();
    });
    simu.run().expect_ok();
}

#[test]
fn reader_never_sees_partially_written_values() {
    let mut simu = Sim::new(79);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 256 * 1024, true);
    let cfg = ServerConfig {
        verify_timeout: sim::micros(100),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, layout, cfg);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        server.start(&f);
        let c = Client::connect(
            &f,
            &f.add_node("c"),
            &server_node,
            server.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        c.put(b"target", &vec![0xAA; 2048]).unwrap();
        assert!(c.get(b"target").unwrap().is_some()); // durable

        // A writer that allocates and then writes only HALF the value
        // (modeling a client that died mid-DMA: we write a prefix
        // directly, never completing the object).
        let req = Request::Put {
            key: b"target".to_vec(),
            vlen: 2048,
            crc: efactory_checksum::crc32c(&vec![0xBB; 2048]),
        };
        let half_qp = f.connect(&f.add_node("half"), &server_node).unwrap();
        let raw = half_qp.rpc(req.encode()).unwrap();
        let Some(Response::Put { value_off, .. }) = Response::decode(&raw) else {
            panic!("alloc failed");
        };
        // Write only the first half of the value.
        half_qp
            .rdma_write(&server.desc().mr, value_off as usize, vec![0xBB; 1024])
            .unwrap();

        // Readers during and after the timeout window always get a full,
        // consistent value.
        for _ in 0..50 {
            let v = c.get(b"target").unwrap().expect("key must stay readable");
            assert!(
                v == vec![0xAA; 2048] || v == vec![0xBB; 2048],
                "reader saw a torn value"
            );
            sim::sleep(sim::micros(10));
        }
        server.shutdown();
    });
    simu.run().expect_ok();
}

/// A 2PC prepare that fails in transport (its shard's node is dead) aborts
/// the participants already prepared, so a plain GET of their keys does
/// not wait out the presumed-abort sweep behind an in-doubt head.
#[test]
fn failed_prepare_aborts_prepared_participants() {
    let mut simu = Sim::new(83);
    let fabric = Fabric::new(CostModel::default());
    let layout = StoreLayout::new(256, 256 * 1024, false);
    let cfg = ServerConfig {
        clean_enabled: false,
        ..ServerConfig::default()
    };
    let abort_timeout = cfg.txn_abort_timeout;
    let store = Store::format(&fabric, "server", layout, cfg, 2, 0);
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
        // One key per shard: 2PC prepares shard 0 first, then shard 1.
        let key_on = |g| {
            (0..)
                .map(|i| format!("key-{i}").into_bytes())
                .find(|k| c.shard_for(k) == g)
                .unwrap()
        };
        let (k0, k1) = (key_on(0), key_on(1));
        c.put(&k0, b"old").unwrap();
        let mut rng = StdRng::seed_from_u64(83);
        f.crash_node(
            &store.seat(1).server.shared().node,
            CrashSpec::DropAll,
            &mut rng,
        );

        let puts = [(k0.clone(), b"new".to_vec()), (k1, b"new".to_vec())];
        assert!(c.txn_put_all(&puts).is_err(), "shard 1 is dead");
        let t0 = sim::now();
        assert_eq!(c.get(&k0).unwrap().as_deref(), Some(&b"old"[..]));
        let waited = sim::now() - t0;
        assert!(
            waited < abort_timeout / 10,
            "GET waited {waited} ns behind the aborted prepare"
        );
        store.shutdown();
    });
    simu.run().expect_ok();
}
