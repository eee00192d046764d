//! The paper's §7.2 robustness argument, as an executable experiment:
//!
//! > "the 8-byte atomic region only contains the location of the latest two
//! > versions, which is not enough to restore to a consistent state if
//! > multiple threads concurrently update the same object. In comparison,
//! > eFactory maintains multiple versions for each object in the form of a
//! > linked list, which is more robust."
//!
//! Construction: one durable version, then **two** newer versions that never
//! become durable (concurrent updates racing a crash). After the crash:
//!
//! * Erda can only reach the latest two versions — both torn — so the key's
//!   durable value is unreachable: data loss;
//! * eFactory walks the version list past both torn heads and recovers the
//!   durable version.

use std::sync::Arc;

use efactory::client::{Client, ClientConfig};
use efactory::log::StoreLayout;
use efactory::recovery;
use efactory::server::{Server, ServerConfig};
use efactory_baselines::{baseline_layout, Baseline, BaselineClient, BaselineServer};
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn erda_loses_key_when_both_tracked_versions_are_torn() {
    let mut simu = Sim::new(61);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = baseline_layout(256, 1 << 20);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let srv = BaselineServer::format(Baseline::Erda, &f, &server_node, layout);
        let pool = Arc::clone(srv.pool());
        srv.start(&f);
        let c = BaselineClient::connect(&f, &f.add_node("c"), &srv).unwrap();
        // v1: durable (flush everything, modeling eviction of cold data).
        // Values span many cache lines so a neighbour's header flush cannot
        // accidentally persist a whole value.
        let v1 = vec![0x11u8; 400];
        let v2 = vec![0x22u8; 400];
        let v3 = vec![0x33u8; 400];
        c.put(b"contested", &v1).unwrap();
        pool.flush(0, pool.len());
        // v2 and v3: concurrent updates, neither persisted.
        c.put(b"contested", &v2).unwrap();
        c.put(b"contested", &v3).unwrap();

        let mut rng = StdRng::seed_from_u64(1);
        f.crash_node(&server_node, CrashSpec::DropAll, &mut rng);
        f.restart_node(&server_node);
        let srv2 = BaselineServer::recover(Baseline::Erda, &f, &server_node, pool, layout);
        srv2.start(&f);
        let c2 = BaselineClient::connect(&f, &f.add_node("c2"), &srv2).unwrap();
        // The 8-byte region tracks only (v3, v2) — both torn. v1 exists in
        // NVM but Erda cannot reach it: the durable value is LOST.
        assert_eq!(
            c2.get(b"contested").unwrap(),
            None,
            "this test documents Erda's two-version limitation; if it \
             fails, Erda grew a deeper fallback than the design allows"
        );
        srv2.shutdown();
    });
    simu.run().expect_ok();
}

#[test]
fn efactory_version_list_recovers_past_multiple_torn_heads() {
    let mut simu = Sim::new(67);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 1 << 20, true);
    // Verifier parked so v2/v3 stay volatile.
    let cfg = ServerConfig {
        verify_idle: sim::millis(100),
        ..ServerConfig::default()
    };
    let server = Server::format(&fabric, &server_node, layout, cfg.clone());
    let pool = Arc::clone(&server.shared().pool);
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
        // Identical construction to the Erda test.
        let v1 = vec![0x11u8; 400];
        let v2 = vec![0x22u8; 400];
        let v3 = vec![0x33u8; 400];
        c.put(b"contested", &v1).unwrap();
        assert!(c.get(b"contested").unwrap().is_some()); // persist v1
        c.put(b"contested", &v2).unwrap();
        c.put(b"contested", &v3).unwrap();

        let mut rng = StdRng::seed_from_u64(1);
        f.crash_node(&server_node, CrashSpec::DropAll, &mut rng);
        f.restart_node(&server_node);
        let (server2, report) = recovery::recover(&f, &server_node, pool, layout, cfg);
        assert_eq!(report.keys_lost, 0, "{report:?}");
        assert_eq!(report.keys_rolled_back, 1);
        assert!(report.versions_discarded >= 2, "{report:?}");
        server2.start(&f);
        let c2 = Client::connect(
            &f,
            &f.add_node("c2"),
            &server_node,
            server2.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        // The version LIST reaches past both torn heads to v1.
        assert_eq!(
            c2.get(b"contested").unwrap().as_deref(),
            Some(&vec![0x11u8; 400][..]),
            "eFactory must recover the durable version Erda lost"
        );
        server2.shutdown();
    });
    simu.run().expect_ok();
}
