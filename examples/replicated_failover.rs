//! Replicated store demo: primary–backup mirroring with deterministic
//! failover.
//!
//! A [`Store`] with `replicas = 1` pairs each shard's primary with a
//! backup on another data node of the same simulated fabric, under a
//! metadata service. The primary's background verifier doubles as the
//! replication point: every object it verifies is shipped to the backup
//! with a doorbell-batched `rdma_write_imm`, and the backup re-verifies,
//! persists, and indexes it in its own NVM pool — remote persistence, off
//! the client's critical path.
//!
//! The demo power-fails the primary's data node at a chosen virtual
//! instant. The metadata service notices the silent heartbeats, commits
//! the node's death and moves the shard to its in-sync backup; the backup
//! node's agent replays the mirrored log through the standard recovery
//! path and takes the seat, and a [`StoreClient`] rides through the
//! failure on the new placement.
//!
//! Run with: `cargo run --release --example replicated_failover`

use std::sync::Arc;

use efactory::client::ClientConfig;
use efactory::log::StoreLayout;
use efactory::server::ServerConfig;
use efactory::store::{Store, StoreClient};
use efactory_obs::Obs;
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;

fn main() {
    let mut simulation = Sim::new(42);
    let fabric = Fabric::new(CostModel::default());

    // A log sized for the whole workload, so no cleaning pass runs (the
    // backup would follow one: it indexes mirrored objects by content).
    let layout = StoreLayout::new(1024, 4 << 20, false);
    let obs = Obs::default();
    let cfg = ServerConfig {
        clean_enabled: false,
        doorbell_batch: 8,
        obs: obs.clone(),
        ..ServerConfig::default()
    };
    let server = Arc::new(Store::format(&fabric, "store", layout, cfg, 1, 1));
    let promotions = move || obs.registry.counter("meta.promotions").get();

    let f = Arc::clone(&fabric);
    simulation.spawn("demo", move || {
        server.start();
        let backup = || server.backup(0).expect("replicated");
        let client = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &server.routes(),
            ClientConfig::default(),
        )
        .expect("connect");

        // Phase 1: write against the live primary; the verifier mirrors
        // each object to the backup behind the scenes.
        for i in 0..16u32 {
            let key = format!("user{i:04}");
            client
                .put(key.as_bytes(), format!("value-{i}").as_bytes())
                .expect("put");
            client.get(key.as_bytes()).expect("get").expect("hit");
        }
        // Wait for the backup to catch up (read-backs made everything
        // durable on the primary; mirroring trails by a few microseconds).
        while backup().stats().applied_objects.get() < 16 {
            sim::sleep(sim::micros(50));
        }
        println!(
            "[{:>9} ns] primary serving; backup applied {} objects ({} mirror batches)",
            sim::now(),
            backup().stats().applied_objects.get(),
            backup().stats().mirror_batches.get(),
        );

        // Phase 2: power-fail the primary's data node (its agent and every
        // seat it hosts) at a chosen instant.
        let dying = Arc::clone(&server);
        let at = sim::now() + sim::micros(5);
        sim::spawn("crash-controller", move || {
            sim::sleep_until(at);
            dying.crash_data_node(0, CrashSpec::DropAll, 7);
        });
        println!(
            "[{:>9} ns] primary's data node power-fails in 5 µs; writes continue",
            sim::now()
        );

        // Phase 3: keep operating. Some of these land on the dying primary
        // and ride through: the client re-reads the placement until the
        // metadata service has moved the shard to its backup, reconnects,
        // and retries.
        for i in 16..32u32 {
            let key = format!("user{i:04}");
            client
                .put(key.as_bytes(), format!("value-{i}").as_bytes())
                .expect("put (with failover)");
        }
        println!(
            "[{:>9} ns] failover complete: shard 0 on data node {}, meta.promotions={} repl.promotions={}",
            sim::now(),
            server.owner_of(0),
            promotions(),
            backup().stats().promotions.get(),
        );

        // The failover contract, key by key. Keys 0..16 were read back
        // before the crash — durable AND mirrored — so they must survive.
        // Keys 16..32 raced the crash: a put the primary acknowledged but
        // had not yet verified+mirrored rolls back (here: disappears, the
        // key being new) — the same durability contract a *local* crash
        // gives, which is why eFactory clients read back values they need
        // durable. Re-put any such key and it lives on the new primary.
        for i in 0..16u32 {
            let key = format!("user{i:04}");
            let v = client
                .get(key.as_bytes())
                .expect("get")
                .expect("mirrored key lost");
            assert_eq!(v, format!("value-{i}").into_bytes());
        }
        let mut rolled_back = 0;
        for i in 16..32u32 {
            let key = format!("user{i:04}");
            let want = format!("value-{i}").into_bytes();
            match client.get(key.as_bytes()).expect("get") {
                Some(v) => assert_eq!(v, want, "torn value after failover"),
                None => {
                    // Acknowledged but unverified at the crash instant.
                    rolled_back += 1;
                    client.put(key.as_bytes(), &want).expect("re-put");
                    assert_eq!(
                        client.get(key.as_bytes()).unwrap().as_deref(),
                        Some(&want[..])
                    );
                }
            }
        }
        println!(
            "[{:>9} ns] all 16 mirrored keys intact; {rolled_back} in-flight \
             put(s) rolled back (old-or-new, never torn) and were re-written",
            sim::now()
        );
        server.shutdown();
    });
    simulation.run().expect_ok();
    println!("done.");
}
