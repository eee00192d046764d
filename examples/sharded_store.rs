//! Sharded store demo: partition the key space across independent eFactory
//! shards of one [`Store`] behind the routed [`StoreClient`], with
//! doorbell-batched recv rings.
//!
//! Each shard is a complete server — its own fabric node, NVM pools, hash
//! table, background verifier, and log cleaner — so no path crosses shards:
//! a key's PUT allocation RPC, one-sided value write, verification, and
//! one-sided GETs all stay on the owning shard.
//!
//! Run with: `cargo run --release --example sharded_store`

use std::sync::Arc;

use efactory::client::ClientConfig;
use efactory::key_shard;
use efactory::log::StoreLayout;
use efactory::server::ServerConfig;
use efactory::store::{Store, StoreClient};
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;

const SHARDS: usize = 4;

fn main() {
    let mut simulation = Sim::new(42);
    let fabric = Fabric::new(CostModel::default());

    // Format a 4-shard store. `doorbell_batch` chains recv-ring refills and
    // verifier flush fences: the first WR of a chain pays the full MMIO
    // cost, the rest the cheap batched rate.
    let layout = StoreLayout::new(1024, 4 << 20, true);
    let cfg = ServerConfig {
        doorbell_batch: 16,
        ..ServerConfig::default()
    };
    let server = Store::format(&fabric, "store", layout, cfg, SHARDS, 0);

    let f = Arc::clone(&fabric);
    simulation.spawn("demo", move || {
        server.start();

        // One client machine, connected to every shard. The router is a
        // pure function of the key bytes — every client everywhere agrees.
        let client = StoreClient::connect(
            &f,
            &f.add_node("client"),
            &server.routes(),
            ClientConfig::default(),
        )
        .expect("connect");

        for i in 0..24u32 {
            let key = format!("user{i:04}");
            client
                .put(key.as_bytes(), format!("value-{i}").as_bytes())
                .expect("put");
            println!(
                "[{:>8} ns] put {key} -> shard {}",
                sim::now(),
                key_shard(key.as_bytes(), SHARDS)
            );
        }

        // Reads route the same way; after verification they are pure
        // one-sided RDMA against the owning shard's memory region.
        for i in 0..24u32 {
            let key = format!("user{i:04}");
            let v = client.get(key.as_bytes()).expect("get").expect("present");
            assert_eq!(v, format!("value-{i}").into_bytes());
        }
        println!("[{:>8} ns] read back all 24 keys", sim::now());

        // Per-shard work is visible in each shard's own stats.
        for i in 0..server.shards() {
            let seat = server.seat(i);
            let st = &seat.server.shared().stats;
            println!(
                "shard {i}: puts={} gets={} bg_verified={}",
                st.puts.get(),
                st.gets.get(),
                st.bg_verified.get()
            );
        }
        server.shutdown();
    });
    simulation.run().expect_ok();
    println!("done (virtual time: {} ns)", simulation.now());
}
