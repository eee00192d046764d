//! End-to-end tests of the five comparison systems: functional round trips
//! plus the *durability contracts* the paper distinguishes them by.

use std::sync::Arc;

use efactory::log::StoreLayout;
use efactory_baselines::{baseline_layout, Baseline, BaselineClient, BaselineServer};
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn layout() -> StoreLayout {
    baseline_layout(256, 1 << 20)
}

/// Run `body` inside an orchestrator process with a fabric + server node.
fn in_sim<F>(seed: u64, body: F)
where
    F: FnOnce(&Arc<Fabric>) + Send + 'static,
{
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let f2 = Arc::clone(&fabric);
    simu.spawn("main", move || body(&f2));
    simu.run().expect_ok();
}

macro_rules! roundtrip_test {
    ($name:ident, $kind:ident) => {
        #[test]
        fn $name() {
            in_sim(1, |f| {
                let sn = f.add_node("server");
                let srv = BaselineServer::format(Baseline::$kind, f, &sn, layout());
                srv.start(f);
                let cn = f.add_node("client");
                let c = BaselineClient::connect(f, &cn, &srv).unwrap();
                // Insert, read, overwrite, read.
                c.put(b"key-a", b"value-1").unwrap();
                assert_eq!(c.get(b"key-a").unwrap().as_deref(), Some(&b"value-1"[..]));
                c.put(b"key-a", b"value-22").unwrap();
                assert_eq!(c.get(b"key-a").unwrap().as_deref(), Some(&b"value-22"[..]));
                assert_eq!(c.get(b"absent").unwrap(), None);
                // A spread of sizes.
                for (i, size) in [0usize, 1, 63, 64, 1024, 4096].into_iter().enumerate() {
                    let key = format!("k{i}");
                    let val = vec![i as u8 + 1; size];
                    c.put(key.as_bytes(), &val).unwrap();
                    assert_eq!(c.get(key.as_bytes()).unwrap().as_deref(), Some(&val[..]));
                }
                srv.shutdown();
            });
        }
    };
}

roundtrip_test!(ca_noper_roundtrip, CaNoper);
roundtrip_test!(rpc_roundtrip, Rpc);
roundtrip_test!(saw_roundtrip, Saw);
roundtrip_test!(imm_roundtrip, Imm);
roundtrip_test!(erda_roundtrip, Erda);
roundtrip_test!(forca_roundtrip, Forca);

/// SAW and IMM promise durability on PUT ack: an acked write must survive a
/// worst-case crash.
macro_rules! durable_on_ack_test {
    ($name:ident, $kind:ident) => {
        #[test]
        fn $name() {
            in_sim(2, |f| {
                let sn = f.add_node("server");
                let srv = BaselineServer::format(Baseline::$kind, f, &sn, layout());
                let pool = Arc::clone(srv.pool());
                srv.start(f);
                let cn = f.add_node("client");
                let c = BaselineClient::connect(f, &cn, &srv).unwrap();
                c.put(b"durable-key", b"durable-value").unwrap();
                // Crash instantly: every unflushed line dies.
                let mut rng = StdRng::seed_from_u64(9);
                f.crash_node(&sn, CrashSpec::DropAll, &mut rng);
                f.restart_node(&sn);
                let srv2 = BaselineServer::recover(Baseline::$kind, f, &sn, pool, layout());
                srv2.start(f);
                let cn2 = f.add_node("client2");
                let c2 = BaselineClient::connect(f, &cn2, &srv2).unwrap();
                assert_eq!(
                    c2.get(b"durable-key").unwrap().as_deref(),
                    Some(&b"durable-value"[..]),
                    "acked PUT lost after crash"
                );
                srv2.shutdown();
            });
        }
    };
}

durable_on_ack_test!(saw_put_is_durable_on_ack, Saw);
durable_on_ack_test!(imm_put_is_durable_on_ack, Imm);
durable_on_ack_test!(rpc_put_is_durable_on_ack, Rpc);

/// CA w/o persistence: the motivating hazard — an acked PUT is simply gone
/// after a crash (metadata pointed at data that never reached media).
#[test]
fn ca_noper_loses_acked_puts_on_crash() {
    in_sim(3, |f| {
        let sn = f.add_node("server");
        let srv = BaselineServer::format(Baseline::CaNoper, f, &sn, layout());
        let pool = Arc::clone(srv.pool());
        srv.start(f);
        let cn = f.add_node("client");
        let c = BaselineClient::connect(f, &cn, &srv).unwrap();
        c.put(b"k", b"acked-but-volatile").unwrap();
        assert!(c.get(b"k").unwrap().is_some(), "readable before crash");
        let mut rng = StdRng::seed_from_u64(4);
        f.crash_node(&sn, CrashSpec::DropAll, &mut rng);
        f.restart_node(&sn);
        let srv2 = BaselineServer::recover(Baseline::CaNoper, f, &sn, pool, layout());
        srv2.start(f);
        let cn2 = f.add_node("client2");
        let c2 = BaselineClient::connect(f, &cn2, &srv2).unwrap();
        // Not even the metadata survived (nothing was flushed): key gone.
        assert_eq!(c2.get(b"k").unwrap(), None, "CA w/o persistence kept data?");
        srv2.shutdown();
    });
}

/// Erda detects a torn latest version via client-side CRC and falls back to
/// the previous version.
#[test]
fn erda_crc_fallback_reads_previous_version_after_crash() {
    in_sim(5, |f| {
        let sn = f.add_node("server");
        let srv = BaselineServer::format(Baseline::Erda, f, &sn, layout());
        let pool = Arc::clone(srv.pool());
        srv.start(f);
        let cn = f.add_node("client");
        let c = BaselineClient::connect(f, &cn, &srv).unwrap();
        c.put(b"k", b"version-one").unwrap();
        // Evict v1's value to media (model "natural eviction" of cold
        // data): Erda relies on this happening eventually.
        pool.flush(0, pool.len());
        c.put(b"k", b"version-TWO").unwrap(); // v2's value stays volatile

        let mut rng = StdRng::seed_from_u64(6);
        f.crash_node(&sn, CrashSpec::DropAll, &mut rng);
        f.restart_node(&sn);
        let srv2 = BaselineServer::recover(Baseline::Erda, f, &sn, pool, layout());
        srv2.start(f);
        let cn2 = f.add_node("client2");
        let c2 = BaselineClient::connect(f, &cn2, &srv2).unwrap();
        assert_eq!(
            c2.get(b"k").unwrap().as_deref(),
            Some(&b"version-one"[..]),
            "CRC fallback must surface the intact previous version"
        );
        srv2.shutdown();
    });
}

/// Erda's **non-monotonic read** (paper §7.2): a value successfully read
/// before a crash can vanish after it, because reads are served from the
/// volatile working image and nothing is ever explicitly persisted. This is
/// the consistency bug eFactory's durability-before-read fixes — see
/// `reads_are_monotonic_across_crashes` in the efactory crate's tests.
#[test]
fn erda_reads_are_non_monotonic_across_crashes() {
    in_sim(7, |f| {
        let sn = f.add_node("server");
        let srv = BaselineServer::format(Baseline::Erda, f, &sn, layout());
        let pool = Arc::clone(srv.pool());
        srv.start(f);
        let cn = f.add_node("client");
        let c = BaselineClient::connect(f, &cn, &srv).unwrap();
        c.put(b"k", b"observed").unwrap();
        // The read SUCCEEDS (CRC passes on the volatile data!).
        assert_eq!(c.get(b"k").unwrap().as_deref(), Some(&b"observed"[..]));

        let mut rng = StdRng::seed_from_u64(8);
        f.crash_node(&sn, CrashSpec::DropAll, &mut rng);
        f.restart_node(&sn);
        let srv2 = BaselineServer::recover(Baseline::Erda, f, &sn, pool, layout());
        srv2.start(f);
        let cn2 = f.add_node("client2");
        let c2 = BaselineClient::connect(f, &cn2, &srv2).unwrap();
        // ... and after the crash the observed value is gone.
        assert_eq!(
            c2.get(b"k").unwrap(),
            None,
            "this test documents Erda's non-monotonic reads; if it fails, \
             the baseline grew durability it should not have"
        );
        srv2.shutdown();
    });
}

/// Forca persists on the read path: once a GET returned a value, that value
/// survives crashes (Forca's contract is monotonic *after a read*).
#[test]
fn forca_read_persists_the_value() {
    in_sim(9, |f| {
        let sn = f.add_node("server");
        let srv = BaselineServer::format(Baseline::Forca, f, &sn, layout());
        let pool = Arc::clone(srv.pool());
        srv.start(f);
        let cn = f.add_node("client");
        let c = BaselineClient::connect(f, &cn, &srv).unwrap();
        c.put(b"k", b"read-persists-me").unwrap();
        assert!(c.get(b"k").unwrap().is_some(), "server verifies + persists");

        let mut rng = StdRng::seed_from_u64(10);
        f.crash_node(&sn, CrashSpec::DropAll, &mut rng);
        f.restart_node(&sn);
        let srv2 = BaselineServer::recover(Baseline::Forca, f, &sn, pool, layout());
        srv2.start(f);
        let cn2 = f.add_node("client2");
        let c2 = BaselineClient::connect(f, &cn2, &srv2).unwrap();
        assert_eq!(
            c2.get(b"k").unwrap().as_deref(),
            Some(&b"read-persists-me"[..])
        );
        srv2.shutdown();
    });
}

/// Forca without a prior read behaves like Erda: unread, unflushed values
/// die with a crash (the GET self-heals to NotFound, not garbage).
#[test]
fn forca_unread_puts_are_lost_but_never_torn() {
    in_sim(11, |f| {
        let sn = f.add_node("server");
        let srv = BaselineServer::format(Baseline::Forca, f, &sn, layout());
        let pool = Arc::clone(srv.pool());
        srv.start(f);
        let cn = f.add_node("client");
        let c = BaselineClient::connect(f, &cn, &srv).unwrap();
        c.put(b"k", b"never-read").unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        f.crash_node(&sn, CrashSpec::Words(0.5), &mut rng);
        f.restart_node(&sn);
        let srv2 = BaselineServer::recover(Baseline::Forca, f, &sn, pool, layout());
        srv2.start(f);
        let cn2 = f.add_node("client2");
        let c2 = BaselineClient::connect(f, &cn2, &srv2).unwrap();
        match c2.get(b"k").unwrap() {
            None => {}                               // torn, detected by CRC
            Some(v) => assert_eq!(v, b"never-read"), // survived eviction
        }
        srv2.shutdown();
    });
}

/// The client-active systems (Erda shown here) keep working while multiple
/// clients hammer the same key — the single-key race the version machinery
/// must tolerate.
#[test]
fn erda_concurrent_writers_same_key() {
    in_sim(13, |f| {
        let sn = f.add_node("server");
        let srv = BaselineServer::format(Baseline::Erda, f, &sn, layout());
        srv.start(f);
        let mut handles = Vec::new();
        for w in 0..4 {
            let f2 = Arc::clone(f);
            let srv2 = srv.clone();
            handles.push(sim::spawn(&format!("w{w}"), move || {
                let cn = f2.add_node(&format!("cn{w}"));
                let c = BaselineClient::connect(&f2, &cn, &srv2).unwrap();
                for i in 0..20 {
                    c.put(b"contested", format!("w{w}i{i}xxxxxxxx").as_bytes())
                        .unwrap();
                }
            }));
        }
        for h in &handles {
            h.join();
        }
        let cn = f.add_node("reader");
        let c = BaselineClient::connect(f, &cn, &srv).unwrap();
        let v = c.get(b"contested").unwrap().expect("key must exist");
        assert!(v.starts_with(b"w"), "unexpected value");
        srv.shutdown();
    });
}
